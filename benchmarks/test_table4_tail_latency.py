"""Table 4: tail latency of NPFs."""

from repro.experiments.base import print_result
from repro.experiments.runner import run_experiment


def test_table4_tail_latency(once):
    result = once(run_experiment, "table4", samples=1500)
    print_result(result)
    rows = {row["message"]: row for row in result.rows}

    for label in ("4KB", "4MB"):
        row = rows[label]
        # Percentiles are ordered and the tail is fat but bounded.
        assert row["p50_us"] < row["p95_us"] < row["p99_us"] <= row["max_us"]
        assert row["max_us"] < 4 * row["p50_us"]
        # Within 25% of the paper's medians (215us / 352us).
        assert abs(row["p50_us"] - row["paper_p50"]) / row["paper_p50"] < 0.25
    # 4MB messages are slower than 4KB across the distribution.
    assert rows["4MB"]["p50_us"] > rows["4KB"]["p50_us"]
