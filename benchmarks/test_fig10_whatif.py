"""Figure 10: throughput under injected rNPFs, Ethernet and InfiniBand."""

from repro.experiments import fig10_whatif
from repro.experiments.base import print_result
from repro.experiments.runner import run_experiment
from repro.sim.units import MB


def test_fig10_ethernet(once):
    result = once(run_experiment, "fig10-eth",
                  frequencies=fig10_whatif.DEFAULT_FREQUENCIES,
                  total_bytes=4 * MB)
    print_result(result)
    rows = result.rows

    for row in rows[:-1]:  # all but the fault-free tail of the sweep
        # Backup ring beats dropping, for minor and major faults alike.
        assert row["minor_brng"] > 2 * row["minor_drop"]
        assert row["major_brng"] > row["major_drop"]
        # Fault type does not matter when dropping: the TCP timer is the
        # cost, not the resolution time (paper §6.4).
        assert abs(row["minor_drop"] - row["major_drop"]) <= \
            0.1 * max(row["minor_drop"], 1e-9)
    # Throughput recovers as faults get rarer.
    assert rows[-1]["minor_brng"] > rows[0]["minor_brng"]
    assert rows[-1]["minor_drop"] > rows[0]["minor_drop"]


def test_fig10_infiniband(once):
    result = once(run_experiment, "fig10-ib",
                  frequencies=fig10_whatif.DEFAULT_FREQUENCIES,
                  n_messages=1500)
    print_result(result)
    pct = [row["pct_of_optimum"] for row in result.rows]

    # Monotone recovery towards the no-fault optimum...
    assert pct == sorted(pct)
    # ...reaching most of it at the sparse end of the sweep.
    assert pct[-1] > 75.0
    assert pct[0] < 25.0
