"""Tests for derived event channels: source-side ECode filters."""

import pytest

from repro.ecode import codegen
from repro.echo import process as process_module
from repro.echo.process import EChoProcess
from repro.errors import ChannelError
from repro.net.transport import Network
from repro.pbio.field import IOField
from repro.pbio.format import IOFormat
from repro.pbio.registry import FormatRegistry

pytestmark = pytest.mark.integration

EVT = IOFormat(
    "Telemetry",
    [IOField("t", "float"), IOField("load", "integer")],
    version="1.0",
)

HIGH_LOAD_FILTER = "return input.load > 50;"


def build():
    net = Network()
    registry = FormatRegistry()
    creator = EChoProcess(net, "creator", registry, version="2.0")
    source = EChoProcess(net, "source", registry, version="2.0")
    all_sink = EChoProcess(net, "all-sink", registry, version="2.0")
    hot_sink = EChoProcess(net, "hot-sink", registry, version="2.0")
    creator.create_channel("raw")
    source.open_channel("raw", "creator", as_source=True)
    all_sink.open_channel("raw", "creator", as_sink=True)
    net.run()
    creator.create_derived_channel("raw", "raw.hot", HIGH_LOAD_FILTER)
    hot_sink.open_channel("raw.hot", "creator", as_sink=True)
    net.run()
    return net, creator, source, all_sink, hot_sink


def publish(net, source, sink_pairs, loads):
    got = {}
    for process, channel in sink_pairs:
        got[process.address] = []
        process.subscribe(channel, EVT, got[process.address].append)
    for i, load in enumerate(loads):
        source.submit("raw", EVT, EVT.make_record(t=float(i), load=load))
    net.run()
    return got


class TestFiltering:
    def test_filter_selects_matching_events(self):
        net, _creator, source, all_sink, hot_sink = build()
        got = publish(
            net, source,
            [(all_sink, "raw"), (hot_sink, "raw.hot")],
            loads=[10, 80, 45, 99, 50],
        )
        assert [e.load for e in got["all-sink"]] == [10, 80, 45, 99, 50]
        assert [e.load for e in got["hot-sink"]] == [80, 99]
        assert source.filtered_out == 3

    def test_filtered_events_never_touch_the_wire(self):
        net, _creator, source, _all_sink, hot_sink = build()
        # disconnect the unfiltered sink so only derived traffic flows
        before = source.reliable.sent
        publish(net, source, [(hot_sink, "raw.hot")], loads=[1, 2, 3, 100])
        # data frames only (acks carry no event): 4 submits to
        # 'all-sink' (raw member) + exactly 1 derived push
        derived_pushes = source.reliable.sent - before - 4
        assert derived_pushes == 1

    def test_source_compiled_the_filter_via_dcg(self):
        _net, _creator, source, _a, _h = build()
        assert source.channel("raw.hot").filter_proc is not None
        assert "input" in source.channel("raw.hot").filter_proc.params

    def test_late_joining_source_learns_filters(self):
        net, creator, _source, _all_sink, hot_sink = build()
        late = EChoProcess(net, "late-source", creator.registry, version="2.0")
        late.open_channel("raw", "creator", as_source=True)
        net.run()
        got = publish(net, late, [(hot_sink, "raw.hot")], loads=[60, 10])
        assert [e.load for e in got["hot-sink"]] == [60]

    def test_new_derived_sink_refreshes_sources(self):
        net, creator, source, _all_sink, hot_sink = build()
        another = EChoProcess(net, "another-hot", creator.registry, version="2.0")
        another.open_channel("raw.hot", "creator", as_sink=True)
        net.run()
        got = publish(
            net, source,
            [(hot_sink, "raw.hot"), (another, "raw.hot")],
            loads=[70],
        )
        assert [e.load for e in got["hot-sink"]] == [70]
        assert [e.load for e in got["another-hot"]] == [70]

    def test_a_creator_compiles_its_filter_once(self, monkeypatch):
        compiled = []
        compile_procedure = process_module.compile_procedure
        monkeypatch.setattr(
            process_module, "compile_procedure",
            lambda *args: compiled.append(args) or compile_procedure(*args),
        )
        net = Network()
        registry = FormatRegistry()
        creator = EChoProcess(net, "creator", registry, version="2.0")
        hot_sink = EChoProcess(net, "hot-sink", registry, version="2.0")
        creator.create_channel("raw")
        creator.create_derived_channel("raw", "raw.hot", HIGH_LOAD_FILTER)
        hot_sink.open_channel("raw.hot", "creator", as_sink=True)
        net.run()
        got = publish(net, creator, [(hot_sink, "raw.hot")],
                      loads=[80, 10, 99])
        assert [e.load for e in got["hot-sink"]] == [80, 99]
        assert len(compiled) == 1


    def test_a_source_compiles_a_derived_filter_once(self):
        """The creator re-announces the derived channel to the parent's
        sources on each join; a source keeps its compiled filter while
        the text is the same (it compiled once per announce before)."""
        net = Network()
        registry = FormatRegistry()
        creator = EChoProcess(net, "creator", registry, version="2.0")
        source = EChoProcess(net, "source", registry, version="2.0")
        creator.create_channel("raw")
        source.open_channel("raw", "creator", as_source=True)
        net.run()
        creator.create_derived_channel("raw", "hot", HIGH_LOAD_FILTER)
        before = codegen._TALLY.compiles  # the creator's own compile is in
        for index in range(3):
            sink = EChoProcess(net, f"hot-{index}", registry, version="2.0")
            sink.open_channel("hot", "creator", as_sink=True)
            net.run()
        assert len(source.channel("hot").sinks()) == 3
        assert codegen._TALLY.compiles - before == 1


class TestLeave:
    def test_leaving_a_derived_channel_stops_its_sources_pushing(self):
        """A leave refreshes the parent's sources as a join does: the
        source's replica loses the sink, and the next matching event
        sends it no data frame (it was still pushed one, and dropped)."""
        net, _creator, source, all_sink, hot_sink = build()
        hot_sink.leave_channel("raw.hot")
        net.run()
        assert source.channel("raw.hot").sinks() == []
        before = source.reliable.sent
        got = publish(net, source, [(all_sink, "raw")], loads=[80])
        assert [e.load for e in got["all-sink"]] == [80]
        assert source.reliable.sent - before == 1  # all-sink's only


class TestLifecycleErrors:
    def test_only_creator_may_derive(self):
        net, _creator, source, _a, _h = build()
        with pytest.raises(ChannelError, match="creator"):
            source.create_derived_channel("raw", "raw.x", HIGH_LOAD_FILTER)

    def test_filter_must_compile(self):
        net, creator, _s, _a, _h = build()
        with pytest.raises(ChannelError, match="compile"):
            creator.create_derived_channel("raw", "raw.bad", "$$$")

    def test_duplicate_derived_id(self):
        net, creator, _s, _a, _h = build()
        with pytest.raises(ChannelError, match="exists"):
            creator.create_derived_channel("raw", "raw.hot", HIGH_LOAD_FILTER)

    def test_runtime_filter_fault_drops_event_not_process(self):
        net = Network()
        registry = FormatRegistry()
        creator = EChoProcess(net, "creator", registry, version="2.0")
        source = EChoProcess(net, "source", registry, version="2.0")
        sink = EChoProcess(net, "sink", registry, version="2.0")
        creator.create_channel("raw")
        source.open_channel("raw", "creator", as_source=True)
        net.run()
        creator.create_derived_channel("raw", "raw.x", "return input.missing;")
        sink.open_channel("raw.x", "creator", as_sink=True)
        net.run()
        got = []
        sink.subscribe("raw.x", EVT, got.append)
        source.submit("raw", EVT, EVT.make_record(t=0.0, load=1))
        net.run()
        assert got == []
        assert source.filter_errors == 1
