"""Tests for the app-level message framer and the CLI runner."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.framing import MessageFramer
from repro.experiments.__main__ import main
from repro.experiments.runner import SPECS
from repro.host import ethernet_testbed
from repro.nic import RxMode
from repro.sim import Environment


@pytest.fixture(autouse=True)
def clean_framing():
    MessageFramer.reset_registry()
    yield
    MessageFramer.reset_registry()


def connected_pair():
    env = Environment()
    _, _, srv_user, cli_user = ethernet_testbed(env, RxMode.PIN)
    server_msgs = []
    server_framer = {}

    def accept(conn):
        framer = MessageFramer(conn, server_msgs.append)
        server_framer["f"] = framer

    srv_user.stack.listen(accept)
    conn = cli_user.stack.connect("server", "srv0")
    env.run(until=0.01)
    client_msgs = []
    client_framer = MessageFramer(conn, client_msgs.append)
    return env, client_framer, server_framer, server_msgs, client_msgs


def test_messages_arrive_whole_and_in_order():
    env, cf, sf, server_msgs, _ = connected_pair()
    for i, size in enumerate((10, 5000, 64, 20000)):
        cf.send(size, meta=("msg", i))
    env.run(until=1.0)
    assert server_msgs == [("msg", 0), ("msg", 1), ("msg", 2), ("msg", 3)]


def test_bidirectional_framing():
    env, cf, sf, server_msgs, client_msgs = connected_pair()
    cf.send(100, meta="request")
    env.run(until=0.5)
    sf["f"].send(5000, meta="response")
    env.run(until=1.0)
    assert server_msgs == ["request"]
    assert client_msgs == ["response"]


@settings(max_examples=10, deadline=None)
@given(sizes=st.lists(st.integers(min_value=1, max_value=50_000),
                      min_size=1, max_size=12))
def test_framing_boundary_property(sizes):
    """Any mix of message sizes arrives whole, in order, exactly once."""
    MessageFramer.reset_registry()
    env, cf, sf, server_msgs, _ = connected_pair()
    for i, size in enumerate(sizes):
        cf.send(size, meta=i)
    env.run(until=5.0)
    assert server_msgs == list(range(len(sizes)))


# ----------------------------------------------------------------- CLI
def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("fig3", "table5", "fig10-ib", "ablation-read-rnr"):
        assert name in out


def test_cli_unknown_experiment(capsys):
    assert main(["run", "not-an-experiment"]) == 2
    assert "unknown" in capsys.readouterr().err


def test_cli_runs_an_experiment(capsys):
    assert main(["run", "sec63"]) == 0
    out = capsys.readouterr().out
    assert "section-6.3" in out


def test_cli_rejects_jobs_below_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "sec63", "--jobs", "0"])
    assert exc.value.code == 2
    assert "--jobs: must be >= 1" in capsys.readouterr().err


def test_cli_jobs_and_workers_are_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "sec63", "--jobs", "2", "--workers", "127.0.0.1:9"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_cli_registry_covers_every_artifact():
    """Every table/figure of the paper's evaluation has a CLI entry."""
    for artifact in ("fig3", "table4", "fig4a", "fig4b", "table5", "fig7",
                     "fig8a", "fig8b", "fig9", "table6", "fig10-eth",
                     "fig10-ib", "table3", "sec63"):
        assert artifact in SPECS
