"""The one frame walk (``EndpointMixin._on_message``) under hostile frames.

Seeded :func:`repro.check.mutate.mutate` mutants of a valid three-message
BATCH1 frame reach each endpoint's ``_on_message`` through its transport
— an ECho sink, a fabric worker, a fabric client — on both transports.
After each mutant:

* nothing reaches the transport (``handler_errors`` stays 0);
* ``errors`` grows by at most one per message plus one for the frame;
* what was delivered intact is an in-order subsequence of the frame,
  without duplicates.  PBIO carries no checksum, so a mutant that still
  decodes may deliver a changed value; each record carries its own
  sequence number a second time, and a delivery whose two disagree is
  not intact;
* a clean frame sent next delivers in full.
"""

from __future__ import annotations

import contextlib
import random
from dataclasses import dataclass
from typing import Any, Callable, List, Tuple

import pytest

from repro.check.mutate import mutate
from repro.echo.process import EChoProcess
from repro.echo.protocol import EVENT_ENVELOPE, RESPONSE_V2
from repro.fabric import EventFabric
from repro.fabric.protocol import FABRIC_DELIVER, FABRIC_PUBLISH
from repro.net.batch import pack_batch
from repro.pbio.registry import FormatRegistry

from tests.echo.test_reliable_echo import EVT_V1, EVT_V2, V2_TO_V1
from tests.fabric.test_recovery import make_registry
from tests.integration.test_hold import settle, transport

MUTANTS = 24
SEED = 2005
#: offsets of a round's mutated and clean frames in its block of seqs
MUTATED, CLEAN = (1, 2, 3), (5, 6, 7)


@dataclass
class Walk:
    """One endpoint under test: *send* puts a datagram on the wire to it,
    *message(tag, n)* builds its message *n* (from publisher *tag*,
    where the endpoint has publishers), and *got* collects
    ``(n, intact)`` per delivery."""

    net: Any
    endpoint: Any
    send: Callable[[bytes], None]
    message: Callable[[str, int], bytes]
    got: List[Tuple[int, bool]]


def members(n: int):
    return RESPONSE_V2.make_record(
        channel_id="ch", member_count=1,
        member_list=[{"info": "m", "ID": n, "is_Source": True,
                      "is_Sink": True}],
    )


def fabric_delivery(got):
    return lambda c, p, s, r: got.append((s, r["member_list"][0]["ID"] == s))


@contextlib.contextmanager
def echo_sink(kind):
    with transport(kind) as net:
        registry = FormatRegistry()
        registry.register_transform(V2_TO_V1)
        creator = EChoProcess(net, "creator", registry, version="2.0")
        sink = EChoProcess(net, "sink", registry, version="1.0")
        creator.create_channel("ch")
        sink.open_channel("ch", "creator", as_sink=True)
        settle(net)
        got = []
        sink.subscribe("ch", EVT_V1, lambda r: got.append(
            (r["n"], r["extra"] == 2 * r["n"])))

        def message(_tag, n):
            envelope = EVENT_ENVELOPE.make_record(channel_id="ch", seq=n)
            event = EVT_V2.make_record(n=n, extra=2 * n, flag=1)
            return (creator.pbio.encode(EVENT_ENVELOPE, envelope)
                    + creator.pbio.encode(EVT_V2, event))

        yield Walk(net, sink, lambda data: creator.reliable.send(
            "sink", data), message, got)


@contextlib.contextmanager
def fabric_worker(kind):
    with transport(kind) as net:
        fabric = EventFabric(net, registry=make_registry())
        worker = fabric.add_worker("w0")
        pub = fabric.client("pub")
        got = []
        fabric.client("sub").subscribe("ch", RESPONSE_V2, fabric_delivery(got))
        settle(net)

        def message(tag, n):
            envelope = FABRIC_PUBLISH.make_record(
                channel_id="ch", publisher=tag, seq=n,
                epoch=fabric.directory.epoch,
            )
            return (pub.pbio.encode(FABRIC_PUBLISH, envelope)
                    + pub.pbio.encode(RESPONSE_V2, members(n)))

        yield Walk(net, worker, lambda data: pub.reliable.send("w0", data),
                   message, got)


@contextlib.contextmanager
def fabric_client(kind):
    with transport(kind) as net:
        fabric = EventFabric(net, registry=make_registry())
        worker = fabric.add_worker("w0")
        sub = fabric.client("sub")
        got = []
        sub.subscribe("ch", RESPONSE_V2, fabric_delivery(got))
        settle(net)

        def message(tag, n):
            envelope = FABRIC_DELIVER.make_record(
                channel_id="ch", publisher=tag, seq=n)
            return (worker.pbio.encode(FABRIC_DELIVER, envelope)
                    + worker.pbio.encode(RESPONSE_V2, members(n)))

        yield Walk(net, sub, lambda data: worker.reliable.send("sub", data),
                   message, got)


@pytest.mark.parametrize("kind", ["sim", "socket"])
@pytest.mark.parametrize(
    "endpoint", [echo_sink, fabric_worker, fabric_client],
    ids=["echo_sink", "fabric_worker", "fabric_client"],
)
def test_mutants_are_contained_and_the_walk_recovers(endpoint, kind):
    rng = random.Random(SEED)
    with endpoint(kind) as walk:
        failures = 0
        for round_ in range(MUTANTS):
            base = 10 * round_
            # each frame its own publisher: a mutant's forged seq can
            # never shadow a later frame's in a ledger
            frame = pack_batch([walk.message(f"mutant-{round_}", base + i)
                                for i in MUTATED])
            name, mutant = mutate(frame, rng)
            errors, seen = walk.endpoint.errors, len(walk.got)
            walk.send(mutant)
            settle(walk.net)
            assert walk.net.handler_errors == 0, name
            assert walk.endpoint.errors - errors <= len(MUTATED) + 1, name
            failures += walk.endpoint.errors - errors
            intact = [n for n, ok in walk.got[seen:] if ok]
            assert intact == sorted(set(intact)), name
            assert set(intact) <= {base + i for i in MUTATED}, name

            seen = len(walk.got)
            walk.send(pack_batch([walk.message(f"clean-{round_}", base + i)
                                  for i in CLEAN]))
            settle(walk.net)
            assert walk.got[seen:] == [(base + i, True) for i in CLEAN], name
        assert failures > 0  # the mutants did reach the walk
