"""Table 5: memory overcommitment with VM memcached instances."""

from repro.experiments.base import print_result
from repro.experiments.runner import run_experiment


def test_table5_overcommit(once):
    result = once(run_experiment, "table5", max_instances=4, ops_per_vm=1500)
    print_result(result)
    rows = {row["instances"]: row for row in result.rows}

    # NPF launches and scales all four instances.
    for n in (1, 2, 3, 4):
        assert isinstance(rows[n]["npf_ktps"], float)
    assert rows[4]["npf_ktps"] > 2.5 * rows[1]["npf_ktps"]
    # Pinning matches NPF while it fits...
    for n in (1, 2):
        assert isinstance(rows[n]["pinning_ktps"], float)
        assert abs(rows[n]["pinning_ktps"] - rows[n]["npf_ktps"]) \
            / rows[n]["npf_ktps"] < 0.15
    # ...and cannot launch the third VM at all (the paper's N/A cells).
    assert rows[3]["pinning_ktps"] == "N/A"
    assert rows[4]["pinning_ktps"] == "N/A"
