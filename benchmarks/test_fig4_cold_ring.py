"""Figure 4: the cold ring problem at startup and across ring sizes."""

from repro.experiments.base import print_result
from repro.experiments.runner import run_experiment


def test_fig4a_startup_throughput(once):
    result = once(run_experiment, "fig4a", duration=3.0)
    print_result(result)
    first = result.rows[0]
    steady = result.rows[-1]

    # First interval: dropping is near-dead; backup tracks pinning.
    assert first["drop"] < 0.2 * first["pin"]
    assert first["backup"] > 0.8 * first["pin"]
    # Steady state: everyone converges (demand paging warmed up).
    assert steady["drop"] > 0.9 * steady["pin"]
    assert steady["backup"] > 0.9 * steady["pin"]


def test_fig4b_ring_size_sweep(once):
    result = once(run_experiment, "fig4b",
                  ring_sizes=(16, 64, 256, 1024), ops=1500)
    print_result(result)
    by_ring = {row["ring_size"]: row for row in result.rows}

    for ring in (16, 64, 256, 1024):
        row = by_ring[ring]
        drop, backup, pin = row["drop_s"], row["backup_s"], row["pin_s"]
        # Dropping is far slower than the backup ring at every size.
        assert drop > 2.0 * backup
        # The backup ring's warm-up cost stays tolerable (paper: "the
        # workload recovers after a tolerable delay").
        assert backup < 3.0 * pin
    # Dropping degrades as the ring grows (more cold pages to fault in
    # at one RTO apiece); pin does not.
    assert by_ring[1024]["drop_s"] > 2 * by_ring[16]["drop_s"]
    assert by_ring[1024]["pin_s"] == by_ring[16]["pin_s"]
    # At the largest ring the stack starts giving up on connections
    # (the paper's failure mode at >=128 entries, shifted right by the
    # 10x timer compression, which makes the scaled TCP more forgiving).
    assert by_ring[1024]["drop_failures"] > 0
