"""The sweep-runner fault demo that ``python -m repro chaos`` runs."""

from repro.faults.sweep_demo import run_sweep_demo


def test_sweep_demo_survives_and_quarantines_the_torn_entry():
    summary = run_sweep_demo()
    assert summary["cache_quarantined"]
    assert summary["quarantine_warned"]
    assert summary["survived"], summary
