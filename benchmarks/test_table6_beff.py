"""Table 6: beff effective communication bandwidth."""

from repro.experiments.base import print_result
from repro.experiments.runner import run_experiment


def test_table6_beff(once):
    result = once(run_experiment, "table6", n_ranks=4, iterations=100)
    print_result(result)
    rows = {row["mode"]: row for row in result.rows}

    # Paper: NPF ~= pinning (16,440 vs 16,410 MB/s); we allow 15%.
    assert rows["npf"]["vs_pin"] > 0.85
    # Paper: copying reaches roughly half the effective bandwidth (0.49x).
    assert 0.35 < rows["copy"]["vs_pin"] < 0.65
    # And NPF beats copying decisively.
    assert rows["npf"]["beff_mb_s"] > 1.4 * rows["copy"]["beff_mb_s"]
