"""One shard-state reader, three doors.

A shard's exactly-once state (``repro.fabric.state``) reaches a worker
as a ``FABRIC_HANDOFF`` part off the network, as a ``snapshot`` entry of
a shared in-memory journal, and as the same entry in a journal file.
All three are hostile input and all three go through one reader, so one
table of malformed states — and a seeded structural mutator over a
valid one — is driven through each door with one oracle: a clean
``FabricError`` (``JournalError`` from a journal) and *nothing* of the
state installed, or a clean install; never another exception type, and
the same outcome at every door.
"""

from __future__ import annotations

import copy
import json
import random

import pytest

from repro.echo.protocol import RESPONSE_V0, RESPONSE_V2, register_protocol
from repro.errors import FabricError, JournalError
from repro.fabric import EventFabric, FabricWorker, JournalStore, SeqLedger
from repro.fabric.protocol import FABRIC_HANDOFF
from repro.net.transport import Network
from repro.pbio.context import PBIOContext
from repro.pbio.registry import FormatRegistry

from tests.fabric.test_fabric import v2_record

#: what ``SeqLedger.from_state`` must refuse
MALFORMED_LEDGERS = [
    "not a dict",
    ["high", 3],
    {"high": "3"},
    {"high": True},
    {"high": -1},
    {"high": 2.0},
    {"high": 2, "sparse": 5},
    {"high": 2, "sparse": ["4"]},
    {"high": 2, "sparse": [0]},
    {"high": 2, "sparse": [True]},
    {"high": 2, "sparse": [2]},  # sparse entry not beyond high
]

#: what the ``channels`` mapping of a state must not be
MALFORMED_CHANNELS = [
    "nope",
    ["c/0"],
    {"c/0": "nope"},
    {"c/0": {"subscribers": "nope", "ledgers": {}}},
    {"c/0": {"subscribers": [["sub", "7"]], "ledgers": {}}},
    {"c/0": {"subscribers": [["sub", True]], "ledgers": {}}},
    {"c/0": {"subscribers": [["sub", 7, 7]], "ledgers": {}}},
    {"c/0": {"subscribers": [], "ledgers": "nope"}},
] + [
    {"c/0": {"subscribers": [], "ledgers": {"pub": ledger}}}
    for ledger in MALFORMED_LEDGERS
]


def make_registry():
    registry = FormatRegistry()
    register_protocol(registry, "2.0")
    registry.register(RESPONSE_V0)
    return registry


def good_channel():
    return {
        "subscribers": [["sub", RESPONSE_V0.format_id]],
        "ledgers": {"pub": {"high": 3, "sparse": [5]}},
    }


def _with_a_good_channel(channels):
    """A well-formed channel that sorts (and is written) before the bad
    one: a reader that installs as it validates would leave it behind."""
    if isinstance(channels, dict):
        return {"a/ok": good_channel(), **channels}
    return channels


#: whole states, as they sit in a handoff part or a snapshot entry
MALFORMED_STATES = [
    "not json {{{",  # through the handoff door: text that is not JSON
    42,              # ... and JSON that is a scalar
    ["channels"],
] + [
    {"channels": _with_a_good_channel(channels)}
    for channels in MALFORMED_CHANNELS
]

SHARD = 5


def installed(worker):
    return {
        channel_id: (
            channel.subscribers(),
            {pub: ledger.to_state() for pub, ledger in channel.ledgers.items()},
        )
        for channel_id, channel in worker._channels.items()
    }


def through_handoff(state, tmp_path):
    """*state* as a one-part FABRIC_HANDOFF delivered over the sim
    network.  The error is contained per segment, so it is read off the
    worker — which must still serve the next publish."""
    net = Network(seed=1)
    registry = make_registry()
    fabric = EventFabric(net, registry=registry)
    worker = fabric.add_worker("w1")
    sub, pub = fabric.client("sub"), fabric.client("pub")
    got = []
    sub.subscribe("live/0", RESPONSE_V0, lambda c, p, s, r: got.append(s))
    net.run()
    before = set(worker._channels)
    text = state if isinstance(state, str) else json.dumps(state)
    record = FABRIC_HANDOFF.make_record(
        shard=SHARD, epoch=fabric.directory.epoch + 1, part=0, parts=1,
        state=text,
    )
    net.add_node("peer").send(
        "w1", PBIOContext(registry).encode(FABRIC_HANDOFF, record)
    )
    net.run()
    pub.publish("live/0", RESPONSE_V2, v2_record("live/0"))
    net.run()
    assert got == [1]
    assert not worker._handoff_staging
    news = {
        channel_id: state for channel_id, state in installed(worker).items()
        if channel_id not in before
    }
    return worker.last_error, news


def _recovered(journal):
    net = Network(seed=1)
    worker = FabricWorker(
        EventFabric(net).directory, net, "w1",
        registry=make_registry(), journal=journal,
    )
    try:
        worker.grant_shard(SHARD, 2)
    except JournalError as exc:
        return exc, installed(worker)
    return None, installed(worker)


def through_memory_journal(state, tmp_path):
    """*state* as the snapshot entry of a shared in-memory journal,
    recovered by ``grant_shard``."""
    journal = JournalStore()
    journal.snapshot(SHARD, 1, copy.deepcopy(state))
    return _recovered(journal)


def through_journal_file(state, tmp_path):
    """The same snapshot in a journal *file*, loaded by a fresh store."""
    path = str(tmp_path / "fabric.journal")
    JournalStore(path=path).snapshot(SHARD, 1, state)
    return _recovered(JournalStore(path=path))


DOORS = [through_handoff, through_memory_journal, through_journal_file]


class TestHostileStateThroughEveryDoor:
    @pytest.mark.parametrize("door", DOORS, ids=lambda door: door.__name__)
    @pytest.mark.parametrize(
        "state", MALFORMED_STATES,
        ids=[f"state{i}" for i in range(len(MALFORMED_STATES))],
    )
    def test_malformed_state_is_a_clean_error_and_installs_nothing(
        self, door, state, tmp_path
    ):
        error, news = door(state, tmp_path)
        assert isinstance(error, FabricError), error
        if door is not through_handoff:
            assert isinstance(error, JournalError)
        assert news == {}

    @pytest.mark.parametrize("door", DOORS, ids=lambda door: door.__name__)
    def test_a_wellformed_state_installs_through_the_same_door(
        self, door, tmp_path
    ):
        error, news = door({"channels": {"a/ok": good_channel()}}, tmp_path)
        assert error is None
        assert news == {"a/ok": (
            [("sub", RESPONSE_V0.format_id)],
            {"pub": {"high": 3, "sparse": [5]}},
        )}


def _paths(node, prefix=()):
    """Every ``(path, value)`` below *node*."""
    items = (
        node.items() if isinstance(node, dict)
        else enumerate(node) if isinstance(node, list) else ()
    )
    for key, value in items:
        yield prefix + (key,), value
        yield from _paths(value, prefix + (key,))


def mutate(state, rng):
    """One structural mutation of *state* (a copy): drop a key, retype
    a value, swap in 10**18, or nest one level deeper."""
    state = copy.deepcopy(state)
    path, value = rng.choice(list(_paths(state)))
    parent = state
    for key in path[:-1]:
        parent = parent[key]
    kind = rng.choice(("drop", "retype", "huge", "nest"))
    if kind == "drop":
        del parent[path[-1]]
    elif kind == "retype":
        parent[path[-1]] = rng.choice(
            [None, True, -1, 1.5, "x", [], {}, [value], {"high": value}]
        )
    elif kind == "huge":
        parent[path[-1]] = 10 ** 18
    else:
        parent[path[-1]] = rng.choice([[value], {"channels": value}])
    return state


class TestSeededStructuralMutation:
    def test_every_mutant_gets_one_clean_outcome_at_every_door(self, tmp_path):
        valid = {"channels": {
            "a/ok": good_channel(),
            "b/ok": {
                "subscribers": [
                    ["sub", RESPONSE_V0.format_id],
                    ["sub2", RESPONSE_V0.format_id],
                ],
                "ledgers": {
                    "pub": {"high": 0, "sparse": []},
                    "pub2": {"high": 7, "sparse": [9, 12]},
                },
            },
        }}
        rng = random.Random(19)
        rejected = 0
        for case in range(200):
            mutant = mutate(valid, rng)
            outcomes = []
            (tmp_path / str(case)).mkdir()
            for door in DOORS:
                error, news = door(mutant, tmp_path / str(case))
                if error is not None:
                    assert isinstance(error, FabricError), (mutant, error)
                    assert news == {}, mutant
                outcomes.append((error is None, news))
            assert outcomes[0] == outcomes[1] == outcomes[2], mutant
            rejected += not outcomes[0][0]
        # the mutator bites: most mutants are malformed, some still load
        assert 100 <= rejected < 200


class TestOneParse:
    def test_recovery_parses_each_snapshotted_ledger_once(self, monkeypatch):
        """The journal hands the worker what it parsed; the worker does
        not re-serialize and re-validate it."""
        journal = JournalStore()
        journal.snapshot(SHARD, 1, {"channels": {
            f"c/{c}": {"ledgers": {
                f"pub-{p}": {"high": p, "sparse": [p + 2]} for p in range(4)
            }}
            for c in range(3)
        }})
        calls = []
        real = SeqLedger.from_state.__func__
        monkeypatch.setattr(SeqLedger, "from_state", classmethod(
            lambda cls, state: calls.append(state) or real(cls, state)
        ))
        error, news = _recovered(journal)
        assert error is None
        assert len(news) == 3
        assert len(calls) == 12
