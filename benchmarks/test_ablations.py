"""Ablations of the §4/§5 design choices DESIGN.md calls out."""

from repro.experiments.base import print_result
from repro.experiments.runner import run_experiment


def test_ablation_batching(once):
    result = once(run_experiment, "ablation-batching")
    print_result(result)
    rows = {row["mode"]: row for row in result.rows}
    # Paper: PRI's one-page-per-request makes a cold 4MB message cost
    # >220ms; batching resolves it in one sub-millisecond fault.
    assert rows["batched (paper)"]["faults"] == 1
    assert rows["batched (paper)"]["total_ms"] < 1.0
    assert rows["ats-pri"]["faults"] == 1024
    assert rows["ats-pri"]["total_ms"] > 200.0


def test_ablation_firmware_bypass(once):
    result = once(run_experiment, "ablation-bypass")
    print_result(result)
    rows = {row["bypass"]: row for row in result.rows}
    assert rows["on"]["total_us"] < 0.5 * rows["off"]["total_us"]


def test_ablation_concurrent_classes(once):
    result = once(run_experiment, "ablation-classes")
    print_result(result)
    rows = {row["classes"]: row for row in result.rows}
    # Four classes overlap ~4x vs a single serialized slot.
    assert rows["4-per-channel"]["total_us"] < 0.4 * rows["single"]["total_us"]


def test_ablation_bm_size(once):
    result = once(run_experiment, "ablation-bm-size")
    print_result(result)
    rows = result.rows
    delivered = [row["delivered"] for row in rows]
    # Bigger bitmaps absorb bigger faulting bursts.
    assert delivered == sorted(delivered)
    assert rows[-1]["dropped"] == 0
    assert rows[0]["dropped"] > 0


def test_ablation_read_rnr_extension(once):
    result = once(run_experiment, "ablation-read-rnr")
    print_result(result)
    rows = {row["mode"]: row for row in result.rows}
    standard = rows["rc-standard (rewind)"]
    extended = rows["extended (read RNR)"]
    assert standard["rewinds"] > 0 and standard["read_rnr_nacks"] == 0
    assert extended["rewinds"] == 0 and extended["read_rnr_nacks"] > 0
    assert extended["total_ms"] < 0.8 * standard["total_ms"]


def test_ablation_pdc_capacity(once):
    result = once(run_experiment, "ablation-pdc")
    print_result(result)
    rows = result.rows
    # Small caches: zero hit rate (fine-grained behaviour, §2.2); big
    # caches: high hit rate (static-pinning behaviour), cheaper overall.
    assert rows[0]["hit_rate"] < 0.1
    assert rows[-1]["hit_rate"] > 0.7
    assert rows[-1]["registration_ms"] < rows[0]["registration_ms"]
