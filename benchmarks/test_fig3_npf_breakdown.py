"""Figure 3: NPF and invalidation execution breakdown."""

from repro.experiments.base import print_result
from repro.experiments.runner import run_experiment
from repro.sim.units import us


def test_fig3_npf_breakdown(once):
    result = once(run_experiment, "fig3", samples=150)
    print_result(result)
    rows = {row["case"]: row for row in result.rows}

    # Paper: a 4KB minor NPF takes ~220us, ~90% of it hardware time.
    assert 190 < rows["npf-4KB"]["total_us"] < 260
    assert rows["npf-4KB"]["hw_fraction"] > 0.75
    # Paper: 4MB grows to ~350us, the increase is software-side.
    assert 300 < rows["npf-4MB"]["total_us"] < 420
    assert rows["npf-4MB"]["driver_us"] > rows["npf-4KB"]["driver_us"]
    # Invalidations are cheaper than faults; unmapped ones skip hardware.
    assert rows["invalidate-mapped"]["total_us"] < rows["npf-4KB"]["total_us"]
    assert (rows["invalidate-unmapped"]["total_us"]
            < rows["invalidate-mapped"]["total_us"])
