"""Smoke tests: every experiment runs at reduced scale and keeps its shape.

The benchmark suite runs the full-scale versions; these keep the
experiment harness itself under ordinary unit-test coverage so a
refactor cannot silently break a figure.
"""

import pytest

from repro.experiments import table5_overcommit
from repro.experiments.base import ExperimentResult, print_result
from repro.experiments.config import TIME_SCALE, scale_bytes, scaled_tcp_params
from repro.experiments.runner import run_experiment


def run(name, **sizes):
    """One reduced sweep, in-process and uncached."""
    return run_experiment(name, jobs=1, cache=False, **sizes)


def check_result(result, expected_id):
    assert isinstance(result, ExperimentResult)
    assert result.experiment_id == expected_id
    assert result.rows
    assert result.columns
    text = print_result(result)
    assert expected_id in text


def test_config_scaling_helpers():
    params = scaled_tcp_params()
    assert params.rto_min == pytest.approx(0.200 / TIME_SCALE)
    assert params.syn_timeout == pytest.approx(1.0 / TIME_SCALE)
    assert scale_bytes(64 * 1024 ** 3) == 1024 ** 3


def test_fig3_smoke():
    result = run("fig3", samples=10)
    check_result(result, "figure-3")
    assert len(result.rows) == 4


def test_table4_smoke():
    result = run("table4", samples=100)
    check_result(result, "table-4")
    for row in result.rows:
        assert row["p50_us"] <= row["p99_us"]


def test_fig4b_smoke():
    result = run("fig4b", ring_sizes=(16,), ops=300)
    check_result(result, "figure-4b")
    row = result.rows[0]
    assert row["drop_s"] > row["pin_s"]


def test_table5_smoke():
    npf = table5_overcommit.run_config(1, npf=True, ops_per_vm=300)
    assert npf is not None and npf > 0
    pin3 = table5_overcommit.run_config(3, npf=False, ops_per_vm=300)
    assert pin3 is None  # cannot pin three 3GB VMs into 8GB


def test_fig8a_smoke():
    result = run("fig8a", memory_points_gb=(4, 8), ios=60)
    check_result(result, "figure-8a")
    rows = {r["memory_gb"]: r for r in result.rows}
    assert rows[4]["pin_gbps"] == "FAIL"
    assert isinstance(rows[8]["pin_gbps"], float)


def test_fig8b_smoke():
    result = run("fig8b", session_counts=(1, 4), ios_per_session=4)
    check_result(result, "figure-8b")
    for row in result.rows:
        assert row["npf_64KB_mb"] <= row["pin_mb"]


def test_fig9_smoke():
    result = run("fig9", iterations=60, n_ranks=2)
    check_result(result, "figure-9")
    assert {r["benchmark"] for r in result.rows} == \
        {"sendrecv", "bcast", "alltoall"}


def test_table6_smoke():
    result = run("table6", n_ranks=2, iterations=20)
    check_result(result, "table-6")
    rows = {r["mode"]: r for r in result.rows}
    assert rows["copy"]["beff_mb_s"] < rows["pin"]["beff_mb_s"]


def test_fig10_ib_smoke():
    result = run("fig10-ib", frequencies=(2.0 ** -14, 2.0 ** -22),
                 n_messages=300)
    check_result(result, "figure-10-infiniband")
    assert result.rows[0]["pct_of_optimum"] < result.rows[-1]["pct_of_optimum"]


def test_table3_smoke():
    result = run("table3")
    check_result(result, "table-3")
    assert len(result.rows) == 4


def test_sec63_smoke():
    result = run("sec63")
    check_result(result, "section-6.3")


def test_ablation_smoke():
    check_result(run("ablation-batching"), "ablation-batching")
    check_result(run("ablation-read-rnr", n_reads=2), "ablation-read-rnr")


def test_print_result_formats_mixed_types():
    result = ExperimentResult(
        experiment_id="x", title="t", columns=["a", "b"],
        scaling="none",
    )
    result.add_row(a=1.23456, b="text")
    result.add_row(a=12345.6, b=0.00001)
    result.notes.append("note line")
    text = print_result(result)
    assert "note line" in text
    assert "scaling: none" in text
    assert result.column("a") == [1.23456, 12345.6]
