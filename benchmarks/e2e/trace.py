"""Span recorder installed from outside, around each layer's callables.

Nothing under ``src/`` knows this file exists.  :meth:`Tracer.install`
replaces public methods on the ``repro`` classes (and the by-name imports
of a few module functions) with timing wrappers, re-sets the receive
handlers of every live :class:`ReliableEndpoint` through the public
``set_handler`` calls, and :meth:`Tracer.restore` puts everything back.
Two private hooks are needed.  ``FabricWorker._deliver_group``: the
re-encode dispatch runs as a handler *inside* ``MorphReceiver.process``,
and without a span of its own its cost would be booked to
``morph.receiver``.  ``MorphReceiver._plan_route``: ECho plans a route
through ``interest_for`` before the first message is processed, where no
public counter sees it and its cost would be booked to ``echo.process``.

A span is (layer, start, end, parent); spans that know their event carry
its ``(channel, publisher, seq)``.  They are kept in memory as flat
arrays and aggregated (or dumped) when the run ends.  A layer's self
time is its spans' durations minus the time their direct children cover.
"""

from __future__ import annotations

import gc
import os
from array import array
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple

LAYERS = (
    "bench.driver",
    "fabric.client",
    "echo.process",
    "pbio.encode",
    "pbio.decode",
    "pbio.codegen",
    "pbio.server",
    "net.reliable",
    "net.transport",
    "net.socket",
    "net.batch",
    "fabric.worker",
    "fabric.journal",
    "morph.receiver",
    "ecode.codegen",
    "obs",
)


#: counters reported per thousand events, named ``<layer>.<counter>``
PER_KEVENT = (
    "fabric.client.duplicates", "fabric.client.redirects",
    "fabric.client.buffered",
    "fabric.worker.duplicates", "fabric.worker.forwarded",
    "fabric.worker.errors",
    "net.reliable.retries", "net.reliable.dup_drops", "net.reliable.failed",
    "pbio.server.fetches", "pbio.server.projection_updates",
    "morph.receiver.route_plans", "morph.receiver.dead_letters",
)


def instances(*classes: type) -> List[Any]:
    """Every live instance of *classes*, found through the collector so
    the tracer needs no knowledge of how a fleet nests its parts."""
    gc.collect()
    return [obj for obj in gc.get_objects() if isinstance(obj, classes)]


class Tracer:
    def __init__(self) -> None:
        self.layer = array("b")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        #: span index -> (channel, publisher, seq) where the span knows it
        self.keys: Dict[int, Tuple[str, str, int]] = {}
        self.current = -1
        self._undo: List[Callable[[], None]] = []
        # tallies taken from wrapped calls' results
        self.encode_bytes = 0
        self.batch_frames = 0
        self.batch_messages = 0
        self.receiver_batch_messages = 0
        self.route_plans = 0
        self.journal_bytes_written = 0
        self._journal_size: Dict[int, int] = {}
        self.scrape_ms: List[float] = []
        self._census: List[Any] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def wrap(
        self,
        layer: str,
        fn: Callable[..., Any],
        tally: Optional[Callable[[Any], None]] = None,
    ) -> Callable[..., Any]:
        """*fn* timed as one span of *layer*; *tally* sees the result."""
        lid = LAYERS.index(layer)
        layers, parents, starts, ends = (
            self.layer, self.parent, self.start, self.end,
        )
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            sid = len(starts)
            parent = tracer.current
            layers.append(lid)
            parents.append(parent)
            starts.append(0)
            ends.append(0)
            tracer.current = sid
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = perf_counter_ns()
                starts[sid] = t0
                tracer.current = parent
            if tally is not None:
                tally(result)
            return result

        return traced

    def tag(self, channel: str, publisher: str, seq: int) -> None:
        """Attach the event key to the span now running."""
        if self.current >= 0:
            self.keys[self.current] = (channel, publisher, seq)

    def mark(self) -> int:
        """The index the next span will get (a position in the record)."""
        return len(self.start)

    # ------------------------------------------------------------------
    # Installing and restoring
    # ------------------------------------------------------------------

    def _patch(self, owner: Any, attr: str, layer: str,
               tally: Optional[Callable[[Any], None]] = None) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(layer, original, tally))
        self._undo.append(lambda: setattr(owner, attr, original))

    def patch_instance(self, obj: Any, attr: str, layer: str) -> None:
        """Shadow a method on one object (the driver's own handlers)."""
        setattr(obj, attr, self.wrap(layer, getattr(obj, attr)))
        self._undo.append(lambda: delattr(obj, attr))

    def install(self) -> None:
        """Wrap every layer.  Call after set-up: handlers are re-set on
        the endpoints that exist now."""
        from repro.echo import process as echo_process
        from repro.echo.process import EChoProcess
        from repro.ecode import codegen as ecode_codegen
        from repro.fabric import client as fabric_client
        from repro.fabric import worker as fabric_worker
        from repro.fabric.client import FabricClient
        from repro.fabric.journal import JournalStore
        from repro.fabric.worker import FabricWorker
        from repro.morph import dynamic, transform
        from repro.morph.receiver import MorphReceiver
        from repro.net import batch
        from repro.net.reliable import ReliableEndpoint
        from repro.net.socket import SocketNetwork
        from repro.net.transport import Network
        from repro.obs.agent import TelemetryAgent
        from repro.obs.collector import TelemetryCollector
        from repro.pbio import codegen as pbio_codegen
        from repro.pbio.context import PBIOContext
        from repro.pbio.server import CachingFormatResolver, FormatServer

        for name in ("publish", "publish_batch"):
            self._patch(FabricClient, name, "fabric.client")
        for name in ("submit", "submit_batch"):
            self._patch(EChoProcess, name, "echo.process")
        self._patch(PBIOContext, "encode", "pbio.encode", self._tally_encode)
        for name in ("decode", "decode_as"):
            self._patch(PBIOContext, name, "pbio.decode")
        # PBIOContext reaches these through the module, so one patch
        # covers every context's generated encoders and decoders.
        for name in ("make_encoder", "make_decoder"):
            self._patch(pbio_codegen, name, "pbio.codegen")
        for name in ("resolve", "refresh", "register", "announce_interest",
                     "watch_projection"):
            self._patch(CachingFormatResolver, name, "pbio.server")
        self._patch(ReliableEndpoint, "send", "net.reliable")
        for name in ("send", "run"):
            self._patch(Network, name, "net.transport")
        for name in ("send", "run", "run_for"):
            self._patch(SocketNetwork, name, "net.socket")
        for module in (fabric_client, echo_process):
            self._patch(module, "pack_batch", "net.batch")
        for module in (fabric_client, fabric_worker, echo_process, batch):
            # morph.receiver imports unpack_batch from net.batch late
            self._patch(module, "unpack_batch", "net.batch",
                        self._tally_unpack)
        for name in ("heartbeat", "_deliver_group"):
            self._patch(FabricWorker, name, "fabric.worker")
        self._patch(JournalStore, "append_admit", "fabric.journal")
        self._patch_journal_snapshot(JournalStore)
        self._patch(MorphReceiver, "process", "morph.receiver")
        self._patch(MorphReceiver, "_plan_route", "morph.receiver",
                    self._tally_route_plan)
        self._patch(MorphReceiver, "process_batch", "morph.receiver",
                    self._tally_process_batch)
        for module in (ecode_codegen, dynamic, transform, echo_process):
            self._patch(module, "compile_procedure", "ecode.codegen")
        self._patch_scrape(TelemetryAgent)
        self._patch(TelemetryCollector, "ingest", "obs")

        owners = (
            (FabricWorker, "reliable", "fabric.worker"),
            (FabricClient, "reliable", "fabric.client"),
            (EChoProcess, "reliable", "echo.process"),
            (CachingFormatResolver, "endpoint", "pbio.server"),
            (FormatServer, "endpoint", "pbio.server"),
        )
        for owner in instances(*(cls for cls, _attr, _layer in owners)):
            for cls, attr, layer in owners:
                if isinstance(owner, cls):
                    endpoint = getattr(owner, attr)
                    self._rehandle(endpoint.node, "net.reliable")
                    self._rehandle(endpoint, layer)

    def _rehandle(self, holder: Any, layer: str) -> None:
        original = holder._handler
        holder.set_handler(self.wrap(layer, original))
        self._undo.append(lambda: holder.set_handler(original))

    def _patch_journal_snapshot(self, journal_cls: type) -> None:
        """``snapshot`` rewrites a file-backed journal; bytes written are
        what was appended since the last look plus the rewritten file."""
        original = journal_cls.snapshot
        timed = self.wrap("fabric.journal", original)
        tracer = self

        def snapshot(store: Any, *args: Any, **kwargs: Any) -> Any:
            tracer.journal_sync(store)
            result = timed(store, *args, **kwargs)
            size = store.disk_size_bytes()
            tracer.journal_bytes_written += size
            tracer._journal_size[id(store)] = size
            return result

        journal_cls.snapshot = snapshot
        self._undo.append(lambda: setattr(journal_cls, "snapshot", original))

    def _patch_scrape(self, agent_cls: type) -> None:
        """``scrape`` also keeps its own durations, apart from the rest
        of the ``obs`` layer."""
        original = agent_cls.scrape
        timed = self.wrap("obs", original)
        tracer = self

        def scrape(agent: Any, *args: Any, **kwargs: Any) -> Any:
            sid = tracer.mark()
            result = timed(agent, *args, **kwargs)
            tracer.scrape_ms.append((tracer.end[sid] - tracer.start[sid]) / 1e6)
            return result

        agent_cls.scrape = scrape
        self._undo.append(lambda: setattr(agent_cls, "scrape", original))

    def journal_sync(self, store: Any) -> None:
        """Book the bytes appended to *store*'s file since the last look."""
        size = store.disk_size_bytes()
        self.journal_bytes_written += size - self._journal_size.get(
            id(store), size
        )
        self._journal_size[id(store)] = size

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _tally_encode(self, wire: bytes) -> None:
        self.encode_bytes += len(wire)

    def _tally_unpack(self, frame: Any) -> None:
        self.batch_frames += 1
        self.batch_messages += frame.count

    def _tally_route_plan(self, _route: Any) -> None:
        self.route_plans += 1

    def _tally_process_batch(self, results: List[Any]) -> None:
        self.receiver_batch_messages += len(results)

    # ------------------------------------------------------------------
    # Aggregating
    # ------------------------------------------------------------------

    def self_times(self, first: int = 0, last: Optional[int] = None
                   ) -> Tuple[List[int], List[int], int]:
        """Per-layer (self ns, calls) over spans ``first..last`` and the
        summed duration of the root spans among them.  Every nanosecond
        inside a root span is some layer's self time, so the self times
        add up to the root total exactly."""
        last = len(self.start) if last is None else last
        self_ns = [0] * len(LAYERS)
        calls = [0] * len(LAYERS)
        roots_ns = 0
        layer, parent, start, end = (
            self.layer, self.parent, self.start, self.end,
        )
        for sid in range(first, last):
            duration = end[sid] - start[sid]
            lid = layer[sid]
            self_ns[lid] += duration
            calls[lid] += 1
            up = parent[sid]
            if up >= first:
                self_ns[layer[up]] -= duration
            else:
                roots_ns += duration
        return self_ns, calls, roots_ns

    def counters(self) -> Dict[str, float]:
        """The layers' own counters, summed over every live instance.
        The instances found are kept alive until the next call, so an
        object dropped in between (a sink's receiver on leave) still
        counts in the difference of two calls."""
        from repro.fabric.client import FabricClient
        from repro.fabric.journal import JournalStore
        from repro.fabric.worker import FabricWorker
        from repro.morph.receiver import MorphReceiver
        from repro.net.reliable import ReliableEndpoint
        from repro.net.socket import SocketNetwork
        from repro.net.transport import Network
        from repro.obs import OBS
        from repro.pbio.server import CachingFormatResolver

        census = instances(
            FabricClient, JournalStore, FabricWorker, MorphReceiver,
            ReliableEndpoint, SocketNetwork, Network, CachingFormatResolver,
        )
        self._census = census
        totals: Dict[str, float] = dict.fromkeys(
            PER_KEVENT + ("net.datagrams", "net.bytes", "journal.compactions",
                          "morph.receiver.messages"), 0,
        )

        def add(layer: str, obj: Any, *names: str) -> None:
            for name in names:
                totals[f"{layer}.{name}"] += getattr(obj, name)

        for obj in census:
            if isinstance(obj, ReliableEndpoint):
                add("net.reliable", obj, "retries", "dup_drops", "failed")
            elif isinstance(obj, (Network, SocketNetwork)):
                totals["net.datagrams"] += obj.messages_sent
                totals["net.bytes"] += obj.bytes_sent
            elif isinstance(obj, FabricClient):
                add("fabric.client", obj, "duplicates", "redirects",
                    "buffered")
            elif isinstance(obj, FabricWorker):
                add("fabric.worker", obj, "duplicates", "forwarded", "errors")
            elif isinstance(obj, JournalStore):
                add("journal", obj, "compactions")
                self.journal_sync(obj)
            elif isinstance(obj, CachingFormatResolver):
                totals["pbio.server.fetches"] += obj.stats["lookups_sent"]
                totals["pbio.server.projection_updates"] += obj.stats[
                    "projection_updates"
                ]
            elif isinstance(obj, MorphReceiver):
                totals["morph.receiver.messages"] += obj.stats.snapshot()[
                    "messages"
                ]
                totals["morph.receiver.dead_letters"] += obj.containment[
                    "dead_lettered"
                ]
        totals["morph.receiver.route_plans"] = self.route_plans
        totals["journal.bytes_written"] = self.journal_bytes_written
        totals["morph.receiver.batch_messages"] = self.receiver_batch_messages
        totals["batch.frames"] = self.batch_frames
        totals["batch.messages"] = self.batch_messages
        totals["encode.bytes"] = self.encode_bytes
        totals["obs.spans"] = (
            OBS.tracer.recorded_total if OBS.enabled else 0
        )
        return totals

    def dump(self, path: str) -> None:
        """One line per span: layer,start_ns,end_ns,parent,channel,
        publisher,seq (the last three empty when unknown)."""
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("layer,start_ns,end_ns,parent,channel,publisher,seq\n")
            for sid in range(len(self.start)):
                key = self.keys.get(sid, ("", "", ""))
                handle.write(
                    f"{LAYERS[self.layer[sid]]},{self.start[sid]},"
                    f"{self.end[sid]},{self.parent[sid]},"
                    f"{key[0]},{key[1]},{key[2]}\n"
                )
