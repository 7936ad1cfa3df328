"""Figure 9: IMB collectives — copy vs pin-down cache vs NPF."""

from repro.experiments.base import print_result
from repro.experiments.runner import run_experiment


def test_fig9_imb(once):
    result = once(run_experiment, "fig9", iterations=400, n_ranks=4)
    print_result(result)

    sendrecv = [r for r in result.rows if r["benchmark"] == "sendrecv"]
    smallest, largest = sendrecv[0], sendrecv[-1]

    # Copying costs little at small sizes and up to ~2x at large sizes,
    # growing monotonically with message size (paper: 1.1x -> 2.1x).
    assert 1.0 < smallest["copy_vs_pin"] < 1.45
    assert 1.4 < largest["copy_vs_pin"] < 2.6
    ratios = [r["copy_vs_pin"] for r in sendrecv]
    assert ratios == sorted(ratios)
    # NPF tracks the pin-down cache everywhere (within ~1/3; the residual
    # is cold first-touch faulting, which IMB-style totals include).
    for row in result.rows:
        assert row["npf_vs_pin"] < 1.35
