"""Figure 7: dynamic working sets — NPF adapts, static pinning cannot."""

from repro.experiments.base import print_result
from repro.experiments.runner import run_experiment


def test_fig7_dynamic_working_set(once):
    result = once(run_experiment, "fig7", duration=6.0, switch_at=2.0)
    print_result(result)
    tail = result.rows[-3:]  # steady state after the switch

    npf_grow = sum(r["npf_grow"] for r in tail) / len(tail)
    npf_shrink = sum(r["npf_shrink"] for r in tail) / len(tail)
    pin_grow = sum(r["pin_grow"] for r in tail) / len(tail)
    pin_shrink = sum(r["pin_shrink"] for r in tail) / len(tail)

    # NPF: memory followed demand; the two instances end up equal.
    assert abs(npf_grow - npf_shrink) / npf_shrink < 0.25
    # Pinning: the grown instance is stuck with its static half.
    assert pin_grow < 0.75 * pin_shrink
    # Aggregate throughput: NPF wins after the switch (Figure 7(c)).
    assert npf_grow + npf_shrink > 1.1 * (pin_grow + pin_shrink)
