"""Self-checks of the benchmark itself.

They time real workload passes, so they take a few minutes and are not
part of the repository's test suite.  Run them from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import cProfile
import functools
import json
import statistics
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.plant import planted_slowdown  # noqa: E402
from perfbench.probe import (Counters, Spans, count_events, fold_profile,  # noqa: E402
                             layer_of, profile_stats, run_pass)
from perfbench.workloads import (DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS,  # noqa: E402
                                 digest, recorded_digest, shape_problems)
from repro.transport.tcp import TcpConnection  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYER_MAP = json.loads((ROOT / "perfbench" / "layers.json").read_text())
BOUNDS = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
#: Share of kv-tcp's untraced wall the planted slowdown adds.
PLANT_SHARE = 0.10
PAIRS = 3


def _traced(workload: str, seed: int = DEFAULT_SEED):
    counters = Counters()
    profiler = cProfile.Profile()
    result = run_pass(WORKLOADS[workload], seed, Spans(), "traced",
                      counters=counters, profiler=profiler)
    stats = profile_stats(profiler)
    return result, counters.metrics(), count_events(stats), stats


#: The first traced pass of each workload, shared by the tests.
_first_traced = functools.lru_cache(maxsize=None)(_traced)


def _wall(workload: str) -> float:
    return run_pass(WORKLOADS[workload], DEFAULT_SEED, Spans(), "plain").wall_s


def _paired_ratio(workload: str, delay_s: float) -> float:
    """Median of planted/unplanted wall over interleaved pass pairs."""
    ratios = []
    for i in range(PAIRS):
        if i % 2:
            with planted_slowdown(delay_s):
                planted = _wall(workload)
            plain = _wall(workload)
        else:
            plain = _wall(workload)
            with planted_slowdown(delay_s):
                planted = _wall(workload)
        ratios.append(planted / plain)
    return statistics.median(ratios)


def _send_calls(stats) -> int:
    code = TcpConnection.send.__code__
    key = (code.co_filename, code.co_firstlineno, code.co_name)
    return stats[key][1] if key in stats else 0


def test_benchmark_json_matches_workloads_and_layer_map():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert list(LAYER_MAP["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
    for entry in LAYER_MAP["metrics"].values():
        for effect in (entry["moves"], entry.get("steady", {})):
            assert set(effect) <= end_to_end
            assert all(set(w) <= set(WORKLOADS) for w in effect.values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_outputs_match_recorded_digests(name):
    for seed in (DEFAULT_SEED, HELD_OUT_SEED):
        result = run_pass(WORKLOADS[name], seed, Spans(), "check")
        for part, merged in zip(WORKLOADS[name].parts, result.results):
            assert shape_problems(part, merged) == []
        assert digest(result.results) == recorded_digest(name, seed)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_counts_repeat_and_self_time_adds_up(name):
    first, counts, events, stats = _first_traced(name)
    second, counts_again, events_again, _ = _traced(name)
    assert counts == counts_again
    assert events == events_again > 0
    assert digest(first.results) == digest(second.results)
    attributed = sum(fold_profile(stats).values())
    assert abs(attributed / first.wall_s - 1) < 0.07


def test_planted_transport_slowdown_is_seen_on_kv_tcp_only():
    base, _, _, stats = _first_traced("kv-tcp")
    calls = _send_calls(stats)
    assert calls > 0
    delay = PLANT_SHARE * _wall("kv-tcp") / calls

    # The busy-wait lands in transport's self time.
    counters = Counters()
    profiler = cProfile.Profile()
    with planted_slowdown(delay):
        planted = run_pass(WORKLOADS["kv-tcp"], DEFAULT_SEED, Spans(),
                           "planted", counters=counters, profiler=profiler)
    planted_stats = profile_stats(profiler)
    real = TcpConnection.send.__code__
    [(key, row)] = [(key, row) for key, row in planted_stats.items()
                    if key[0] == real.co_filename and key[2] == "send"
                    and key[1] != real.co_firstlineno]
    assert layer_of(key[0]) == "transport" and row[1] == calls
    # Its own self time plus that of the clock reads it makes, which
    # the fold charges to the calling layer.
    [clock] = [r for k, r in planted_stats.items()
               if k[0] == "~" and "perf_counter" in k[2]]
    assert row[2] + clock[4][key][2] >= 0.9 * calls * delay
    before = fold_profile(stats)
    after = fold_profile(planted_stats)
    assert (after["transport"] / sum(after.values())
            > before["transport"] / sum(before.values()))
    assert digest(planted.results) == digest(base.results)

    # ... and in kv-tcp's wall, paired with unplanted passes.
    assert _paired_ratio("kv-tcp", delay) > 1 + PLANT_SHARE / 2
    # A slowdown half again the size of wall_s's bound exceeds the bound.
    bound = BOUNDS["wall_s"]
    assert _paired_ratio("kv-tcp", delay * 1.5 * bound / PLANT_SHARE) > 1 + bound

    # rdma-fabric never calls the TCP send path, so it stays within bound.
    _, _, _, rdma_stats = _first_traced("rdma-fabric")
    assert _send_calls(rdma_stats) == 0
    assert _paired_ratio("rdma-fabric", delay) < 1 + bound
