"""Section 6.3: programming-complexity accounting."""

from repro.experiments.base import print_result
from repro.experiments.runner import run_experiment


def test_sec63_loc(once):
    result = once(run_experiment, "sec63")
    print_result(result)
    rows = {row["component"]: row for row in result.rows}

    pinning_total = rows["TOTAL pinning-only"]["loc"]
    app_side_npf = rows["app-side NPF code"]["loc"]
    # The pinning machinery is two orders of magnitude more code than
    # what an NPF application needs (paper: thousands of LOC vs ~40).
    assert pinning_total > 100
    assert app_side_npf <= 5
    assert pinning_total > 50 * app_side_npf
