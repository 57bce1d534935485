"""The name of the phase engine every machine runs.

The reference engine (:class:`~repro.core.machine.Phase` and
:class:`~repro.core.bsp.Superstep`) is the only phase engine.  This
module keeps :func:`resolve_engine` alone because the benchmark harness
under ``perfbench/`` imports it to label its host facts; it goes when
that harness next changes.
"""

from __future__ import annotations

__all__ = ["resolve_engine"]


def resolve_engine() -> str:
    """The engine every machine runs: ``"reference"``."""
    return "reference"
