"""End-to-end benchmark package; the entry point is ``perfbench/run.py``."""
