"""Table 3: the pinning-strategy trade-off matrix, measured."""

from repro.experiments.base import print_result
from repro.experiments.runner import run_experiment


def test_table3_tradeoffs(once):
    result = once(run_experiment, "table3")
    print_result(result)
    rows = {row["strategy"]: row for row in result.rows}

    # Static: performant but no overcommit.
    assert rows["static"]["steady_overhead_us"] == 0
    assert rows["static"]["overcommit_2x"] == "NO"
    # Fine-grained: overcommits but pays the most per operation.
    assert rows["fine"]["overcommit_2x"] == "yes"
    assert rows["fine"]["steady_overhead_us"] > \
        rows["coarse"]["steady_overhead_us"]
    # Coarse: in between, but apps still carry registration calls.
    assert rows["coarse"]["app_api_calls_per_buffer"] > 0
    # NPF: the only row with no trade-off anywhere.
    npf = rows["npf"]
    assert npf["steady_overhead_us"] == 0
    assert npf["overcommit_2x"] == "yes"
    assert npf["app_api_calls_per_buffer"] == 0
    assert npf["multitenant_friendly"] == "yes"
