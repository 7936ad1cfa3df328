"""Figure 8: storage bandwidth and resident memory, NPF vs pinned."""

from repro.experiments.base import print_result
from repro.experiments.runner import run_experiment


def test_fig8a_bandwidth_vs_memory(once):
    result = once(run_experiment, "fig8a",
                  memory_points_gb=(4, 5, 6, 7, 8), ios=400)
    print_result(result)
    rows = {row["memory_gb"]: row for row in result.rows}

    # Paper: the pinned configuration fails to load at the bottom of the
    # sweep; NPF runs everywhere.
    assert rows[4]["pin_gbps"] == "FAIL"
    assert isinstance(rows[4]["npf_gbps"], float)
    # In the middle, NPF wins by a 1.2-2.5x factor (paper: 1.4-1.9x).
    for gb in (5, 6):
        assert 1.15 < rows[gb]["npf_vs_pin"] < 2.6
    # With plentiful memory the two converge.
    assert abs(rows[8]["npf_vs_pin"] - 1.0) < 0.1
    # Bandwidth grows with memory for both configurations.
    assert rows[8]["npf_gbps"] > rows[4]["npf_gbps"]


def test_fig8b_resident_memory_vs_sessions(once):
    result = once(run_experiment, "fig8b",
                  session_counts=(1, 2, 4, 8, 16))
    print_result(result)
    rows = result.rows

    for row in rows:
        # NPF backs only what is used: small I/O << large I/O << pinned.
        assert row["npf_64KB_mb"] < row["npf_512KB_mb"] <= row["pin_mb"]
        # Pinning is flat at the full comm region regardless of use.
        assert row["pin_mb"] == rows[0]["pin_mb"]
    # NPF footprints grow with the number of initiator sessions.
    assert rows[-1]["npf_64KB_mb"] > rows[0]["npf_64KB_mb"]
