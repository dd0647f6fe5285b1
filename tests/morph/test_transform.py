"""Unit tests for compiled Transformations and TransformChains."""

import sys
import threading

import pytest

from repro.bench.workloads import response_v1_from_v2, response_v2
from repro.echo.protocol import (
    RESPONSE_V0,
    RESPONSE_V1,
    RESPONSE_V2,
    V1_TO_V0_TRANSFORM,
    V1_TO_V2_TRANSFORM,
    V2_TO_V1_TRANSFORM,
)
from repro.ecode import analyze
from repro.ecode.runtime import AutoList
from repro.errors import FormatError, TransformError
from repro.morph import transform as transform_mod
from repro.morph.receiver import MorphReceiver
from repro.morph.transform import (
    TransformChain,
    Transformation,
    build_chain,
    growable_record,
)
from repro.pbio import serialization
from repro.pbio.context import CODEC_CACHE_MAX, PBIOContext
from repro.pbio.field import ArraySpec, IOField
from repro.pbio.format import IOFormat
from repro.pbio.record import Record, records_equal
from repro.pbio.registry import FormatRegistry, TransformSpec
from repro.pbio.serialization import format_from_dict, format_to_dict


class TestGrowableRecord:
    def test_defaults_match_format(self, v1):
        rec = growable_record(v1)
        assert rec["member_count"] == 0
        assert rec["member_list"] == []
        assert rec["channel_id"] == ""

    def test_arrays_autogrow_with_complex_elements(self, v1):
        rec = growable_record(v1)
        rec["member_list"][2]["info"] = "late"
        assert len(rec["member_list"]) == 3
        assert rec["member_list"][0] == {"info": "", "ID": 0}

    def test_grown_elements_are_fresh(self, v1):
        rec = growable_record(v1)
        rec["member_list"][0]["ID"] = 5
        assert rec["member_list"][1]["ID"] == 0

    def test_nested_growable(self):
        inner = IOFormat(
            "Inner",
            [IOField("m", "integer"),
             IOField("vals", "integer", array=ArraySpec(length_field="m"))],
        )
        outer = IOFormat(
            "Outer",
            [IOField("n", "integer"),
             IOField("rows", "complex", subformat=inner,
                     array=ArraySpec(length_field="n"))],
        )
        rec = growable_record(outer)
        rec["rows"][0]["vals"][1] = 7
        assert rec["rows"][0]["vals"] == [0, 7]

    def test_fixed_arrays_prefilled(self):
        fmt = IOFormat("F", [IOField("xs", "integer", array=ArraySpec(fixed_length=2))])
        assert growable_record(fmt)["xs"] == [0, 0]

    def test_declarations_that_share_a_wire_id_keep_their_own_defaults(self):
        """The fingerprint leaves declared defaults out, so two
        declarations of one id differ exactly where a default record is
        made: the memo is keyed by content, not by id."""
        def declared(default):
            return IOFormat(
                "T", [IOField("x", "integer", 4, default=default)], version="1.0"
            )

        assert declared(1).format_id == declared(7).format_id
        assert growable_record(declared(1)) == {"x": 1}
        assert growable_record(declared(7)) == {"x": 7}
        assert growable_record(declared(1)) == {"x": 1}


class TestTransformation:
    def test_figure5_paper_example(self, v2):
        xform = Transformation(V2_TO_V1_TRANSFORM)
        incoming = response_v2(5)
        out = xform.apply(incoming)
        assert records_equal(out, response_v1_from_v2(incoming))

    def test_source_and_target_exposed(self):
        xform = Transformation(V2_TO_V1_TRANSFORM)
        assert xform.source == RESPONSE_V2
        assert xform.target == RESPONSE_V1

    def test_interpreted_mode_agrees_with_compiled(self):
        compiled = Transformation(V2_TO_V1_TRANSFORM, use_codegen=True)
        interpreted = Transformation(V2_TO_V1_TRANSFORM, use_codegen=False)
        incoming = response_v2(4)
        assert records_equal(compiled.apply(incoming), interpreted.apply(incoming))

    def test_bad_ecode_raises_transform_error_at_compile(self):
        spec = TransformSpec(RESPONSE_V2, RESPONSE_V1, "this is not C;")
        with pytest.raises(TransformError, match="compile"):
            Transformation(spec)

    def test_runtime_failure_wrapped(self):
        spec = TransformSpec(RESPONSE_V2, RESPONSE_V1, "old.x = new.missing;")
        xform = Transformation(spec, validate_output=False)
        with pytest.raises(TransformError, match="runtime"):
            xform.apply(response_v2(1))

    def test_validation_catches_inconsistent_output(self):
        # sets a count without populating the list
        spec = TransformSpec(
            RESPONSE_V2, RESPONSE_V1, "old.member_count = new.member_count;"
        )
        xform = Transformation(spec, validate_output=True)
        with pytest.raises(TransformError, match="invalid record"):
            xform.apply(response_v2(2))

    def test_validation_off_delivers_anyway(self):
        spec = TransformSpec(
            RESPONSE_V2, RESPONSE_V1, "old.member_count = new.member_count;"
        )
        out = Transformation(spec, validate_output=False).apply(response_v2(2))
        assert out["member_count"] == 2 and out["member_list"] == []

    def test_unwritten_fields_keep_defaults(self):
        spec = TransformSpec(
            RESPONSE_V2, RESPONSE_V0, "old.channel_id = new.channel_id;"
        )
        out = Transformation(spec, validate_output=False).apply(response_v2(1))
        assert out["member_count"] == 0
        assert out["member_list"] == []

    def test_callable_protocol(self):
        xform = Transformation(V2_TO_V1_TRANSFORM)
        assert xform(response_v2(1)) == xform.apply(response_v2(1))


class TestAssignmentIsByValue:
    """A transform's ``new`` is the caller's record (``process_record``
    hands the application's own in): whole-record and whole-array stores
    must copy, in both engines."""

    WHOLE_STORES = """
    old.channel_id = new.channel_id;
    old.member_count = new.member_count;
    old.member_list = new.member_list;
    old.member_list[0].ID = 99;
    old.src_count = 1;
    old.src_list[0] = new.member_list[1];
    old.src_list[0].info = "rewritten";
    """

    @pytest.mark.parametrize("use_codegen", [True, False])
    def test_output_shares_nothing_with_the_input(self, use_codegen):
        spec = TransformSpec(RESPONSE_V0, RESPONSE_V1, self.WHOLE_STORES)
        xform = Transformation(spec, use_codegen=use_codegen)
        incoming = Transformation(V1_TO_V0_TRANSFORM).apply(
            response_v1_from_v2(response_v2(3))
        )
        before = incoming.deepcopy()
        out = xform.apply(incoming)
        assert incoming == before
        assert out["member_list"][0]["ID"] == 99
        assert out["src_list"] == [
            {"info": "rewritten", "ID": before["member_list"][1]["ID"]}
        ]
        assert type(out["member_list"]) is list and type(out["src_list"]) is list

    def test_compiled_agrees_with_interpreted(self):
        spec = TransformSpec(RESPONSE_V0, RESPONSE_V1, self.WHOLE_STORES)
        incoming = Transformation(V1_TO_V0_TRANSFORM).apply(
            response_v1_from_v2(response_v2(4))
        )
        compiled = Transformation(spec, use_codegen=True).apply(incoming)
        interpreted = Transformation(spec, use_codegen=False).apply(incoming)
        assert compiled == interpreted


class TestMorphPrice:
    """What one V2->V1 morph may cost, counted by wrapping (never timed):
    no Python-level ``Record.__setitem__`` (typed scalar stores go
    straight to ``dict``), one ``AutoList.__getitem__`` per output element
    (each output path is loaded once per iteration), and a freeze that
    makes no call per element."""

    MEMBERS = 64

    @pytest.fixture
    def census(self, monkeypatch):
        calls = {"setitem": 0, "getitem": 0}
        record_setitem = Record.__setitem__
        autolist_getitem = AutoList.__getitem__

        def counted_setitem(self, key, value):
            calls["setitem"] += 1
            record_setitem(self, key, value)

        def counted_getitem(self, index):
            calls["getitem"] += 1
            return autolist_getitem(self, index)

        monkeypatch.setattr(Record, "__setitem__", counted_setitem)
        monkeypatch.setattr(AutoList, "__getitem__", counted_getitem)
        return calls

    def _check(self, census, out, frames):
        elements = sum(
            len(out[name]) for name in ("member_list", "src_list", "sink_list")
        )
        assert elements > self.MEMBERS  # the role lists are populated
        assert census == {"setitem": 0, "getitem": elements}
        for name in ("member_list", "src_list", "sink_list"):
            assert type(out[name]) is list
        # every freeze closure is called `freeze`: the record's own call
        # is the only one, its flat elements get none
        assert frames.count("freeze") == 1

    @staticmethod
    def _frames(fn):
        """Run *fn*; the names of the Python functions entered meanwhile."""
        import sys

        names = []

        def profiler(frame, event, arg):
            if event == "call":
                names.append(frame.f_code.co_name)

        sys.setprofile(profiler)
        try:
            result = fn()
        finally:
            sys.setprofile(None)
        return result, names

    def test_staged_morph(self, census):
        xform = Transformation(V2_TO_V1_TRANSFORM, validate_output=False)
        incoming = response_v2(self.MEMBERS)
        census.update(setitem=0, getitem=0)  # building the input is not the morph
        out, frames = self._frames(lambda: xform.apply(incoming))
        self._check(census, out, frames)

    def test_fused_morph(self, census):
        registry = FormatRegistry()
        registry.register_transform(V2_TO_V1_TRANSFORM)
        got = []
        receiver = MorphReceiver(registry, use_fusion=True)
        receiver.register_handler(RESPONSE_V1, got.append)
        wire = PBIOContext(registry).encode(
            RESPONSE_V2, response_v2(self.MEMBERS)
        )
        receiver.process(wire)  # plans and compiles the route
        assert receiver.route_for(RESPONSE_V2).fused is not None
        census.update(setitem=0, getitem=0)
        got.clear()
        _, frames = self._frames(lambda: receiver.process(wire))
        self._check(census, got[0], frames)


def _ext_revision(k):
    """v2.0 plus one trailing integer ("attribute added"), with the
    writer's one-hop retro-transform back to v2.0."""
    fmt = IOFormat(
        "ChannelOpenResponse",
        list(RESPONSE_V2.fields) + [IOField(f"ext_{k}", "integer")],
        version=f"2.{k}",
    )
    return fmt, TransformSpec(fmt, RESPONSE_V2, """
        int i;
        old.channel_id = new.channel_id;
        old.member_count = new.member_count;
        for (i = 0; i < new.member_count; i++) {
            old.member_list[i].info = new.member_list[i].info;
            old.member_list[i].ID = new.member_list[i].ID;
            old.member_list[i].is_Source = new.member_list[i].is_Source;
            old.member_list[i].is_Sink = new.member_list[i].is_Sink;
        }
    """)


def _own_copy(spec):
    """*spec* as another endpoint holds it: equal formats, rebuilt from
    their descriptions, that share no object with anyone else's (built
    past the intern table ``format_from_dict`` keeps)."""
    def fetched(fmt):
        return serialization._build_format(format_to_dict(fmt))

    return TransformSpec(fetched(spec.source), fetched(spec.target), spec.code)


NARROW = IOFormat(
    "ChannelOpenResponse",
    [IOField("channel_id", "string"), IOField("member_count", "integer")],
    version="0.1",
)


class TestCompilePrice:
    """What planning may cost, counted by wrapping (never timed): one
    ECode compile per distinct spec *per process* and each fusion
    analysis once per (program, live-set), however many receivers and
    routes ask — ``build_chain`` draws every step from one memo."""

    @pytest.fixture
    def census(self, monkeypatch):
        """Calls of ``transform.compile_procedure`` and of the four
        analyses fusion runs (outermost calls: ``fields_used`` asks
        ``declared_names`` itself), from empty memos."""
        transform_mod._transformations.clear()
        transform_mod._record_factories.clear()
        calls = {"compile": [], "has_return": [], "declared_names": [],
                 "fields_used": [], "prune_dead_stores": []}
        compile_procedure = transform_mod.compile_procedure

        def counted_compile(source, *args, **kwargs):
            calls["compile"].append(source)
            return compile_procedure(source, *args, **kwargs)

        monkeypatch.setattr(transform_mod, "compile_procedure", counted_compile)
        depth = [0]

        def counted(name, live_at=None):
            analysis = getattr(analyze, name)

            def wrapper(program, *args):
                if not depth[0]:
                    live = frozenset(args[live_at]) if live_at is not None else None
                    calls[name].append((id(program), live))
                depth[0] += 1
                try:
                    return analysis(program, *args)
                finally:
                    depth[0] -= 1

            monkeypatch.setattr(analyze, name, wrapper)

        for name in ("has_return", "declared_names", "fields_used"):
            counted(name)
        counted("prune_dead_stores", live_at=1)
        return calls

    @staticmethod
    def _analyses(census):
        return {name: seen for name, seen in census.items() if name != "compile"}

    @staticmethod
    def _reader(registry, fmt, **kwargs):
        got = []
        receiver = MorphReceiver(registry, use_fusion=True, **kwargs)
        receiver.register_handler(fmt, got.append)
        return receiver, got

    @staticmethod
    def _registry(*specs):
        registry = FormatRegistry()
        for spec in specs:
            registry.register_transform(_own_copy(spec))
        return registry

    def test_eight_receivers_compile_a_chain_once(self, census):
        wire = PBIOContext().encode(RESPONSE_V2, response_v2(3))
        delivered = []
        for _ in range(8):
            receiver, got = self._reader(
                self._registry(V2_TO_V1_TRANSFORM, V1_TO_V0_TRANSFORM),
                RESPONSE_V0,
            )
            receiver.process(wire)
            assert receiver.stats.compiled_chains == 1  # per receiver, as ever
            assert receiver.route_for(RESPONSE_V2).fused is not None
            delivered.extend(got)
        assert sorted(census["compile"]) == sorted(
            [V2_TO_V1_TRANSFORM.code, V1_TO_V0_TRANSFORM.code]
        )
        assert len(transform_mod._transformations) == 2
        for name, seen in self._analyses(census).items():
            assert seen and len(seen) == len(set(seen)), name
        assert len(delivered) == 8
        assert all(record == delivered[0] for record in delivered)

    def test_a_never_seen_revision_costs_one_compile(self, census):
        specs = (V2_TO_V1_TRANSFORM, V1_TO_V0_TRANSFORM)
        readers = [
            self._reader(self._registry(*specs), fmt)
            for fmt in (RESPONSE_V2, RESPONSE_V1, RESPONSE_V0, NARROW)
        ]
        sender = PBIOContext()
        wire = sender.encode(RESPONSE_V2, response_v2(3))
        for receiver, _got in readers:
            receiver.process(wire)
        for k in (1, 2):
            fmt, spec = _ext_revision(k)
            record = response_v2(3)
            record[f"ext_{k}"] = k
            wire = sender.encode(fmt, record)
            before = len(census["compile"])
            for receiver, got in readers:
                receiver.registry.register_transform(_own_copy(spec))
                got.clear()
                receiver.process(wire)
                assert got[0]["member_count"] == 3 and f"ext_{k}" not in got[0]
                assert receiver.route_for(fmt).chain.steps[0].spec.code == spec.code
            assert census["compile"][before:] == [spec.code]

    def test_a_second_plan_of_a_known_chain_walks_nothing(self, census):
        receiver, got = self._reader(
            self._registry(V2_TO_V1_TRANSFORM, V1_TO_V0_TRANSFORM), RESPONSE_V0
        )
        wire = PBIOContext().encode(RESPONSE_V2, response_v2(2))
        receiver.process(wire)
        first = receiver.route_for(RESPONSE_V2)
        text = first.fused.source("<")
        for seen in census.values():
            seen.clear()
        assert receiver.invalidate_route(RESPONSE_V2.format_id)
        receiver.process(wire)
        second = receiver.route_for(RESPONSE_V2)
        assert second is not first and second.chain.steps == first.chain.steps
        assert census == {name: [] for name in census}
        assert got[0] == got[1] and receiver.stats.compiled_chains == 2
        # the generated text is emitted on request, not kept by the route
        assert second.fused.source("<") == text
        assert not hasattr(second.fused, "_sources")

    def test_each_engine_and_each_validation_has_its_own_entry(self, census):
        registry = self._registry(V2_TO_V1_TRANSFORM)
        wire = PBIOContext().encode(RESPONSE_V2, response_v2(2))
        steps, delivered = [], []
        for kwargs in ({}, {}, {"use_codegen": False},
                       {"validate_transforms": True}):
            receiver, got = self._reader(registry, RESPONSE_V1, **kwargs)
            receiver.process(wire)
            route = receiver.route_for(RESPONSE_V2)
            assert (route.fused is not None) == (not kwargs)
            steps.append(route.chain.steps[0])
            delivered.append(got[0])
        assert steps[0] is steps[1]
        assert len({id(step) for step in steps}) == 3
        assert len(transform_mod._transformations) == 3
        assert len(census["compile"]) == 2  # the interpreted one compiles nothing
        assert (steps[2].use_codegen, steps[3].validate_output) == (False, True)
        assert all(record == delivered[0] for record in delivered)

    def test_a_spec_that_does_not_compile_is_not_remembered(self, census):
        broken = TransformSpec(RESPONSE_V2, RESPONSE_V1, "not a transform ;;;")
        for _ in range(2):
            with pytest.raises(TransformError, match="failed to compile"):
                build_chain([broken])
        assert transform_mod._transformations == {}
        registry = self._registry(broken)
        wire = PBIOContext().encode(RESPONSE_V2, response_v2(2))
        for _ in range(2):
            receiver, got = self._reader(registry, RESPONSE_V1)
            receiver.process(wire)  # reconciled from the raw v2.0 instead
            assert receiver.stats.broken_transforms == 1
            assert receiver.invalidate_route(RESPONSE_V2.format_id)
            receiver.process(wire)
            assert receiver.stats.broken_transforms == 2
            assert got[0]["src_list"] == [] and got[0] == got[1]
        assert transform_mod._transformations == {}

    def test_the_memo_is_bounded_and_an_evicted_spec_compiles_again(
        self, census, monkeypatch
    ):
        monkeypatch.setattr(transform_mod, "TRANSFORMATION_CACHE_MAX", 4)
        specs = [_ext_revision(k)[1] for k in range(10)]
        for spec in specs:
            build_chain([spec])
            assert len(transform_mod._transformations) <= 4
        assert len(census["compile"]) == 10
        assert build_chain([specs[-1]]).steps == build_chain([specs[-1]]).steps
        assert len(census["compile"]) == 10
        record = response_v2(2)
        record["ext_0"] = 5
        assert build_chain([specs[0]]).apply(record)["member_count"] == 2
        assert len(census["compile"]) == 11
        assert len(transform_mod._transformations) == 4

    def test_threads_planning_one_route_share_one_entry(self, census):
        registry = self._registry(V2_TO_V1_TRANSFORM, V1_TO_V0_TRANSFORM)
        wire = PBIOContext().encode(RESPONSE_V2, response_v2(3))
        readers = [self._reader(registry, RESPONSE_V0) for _ in range(8)]
        barrier = threading.Barrier(len(readers))
        failures = []

        def plan(receiver):
            try:
                barrier.wait(timeout=10)
                receiver.process(wire)
            except BaseException as exc:  # noqa: BLE001 - reported below
                failures.append(exc)

        threads = [
            threading.Thread(target=plan, args=(receiver,))
            for receiver, _got in readers
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not failures and not any(t.is_alive() for t in threads)
        assert len(transform_mod._transformations) == 2
        assert len(census["compile"]) == 2
        chains = {
            tuple(map(id, receiver.route_for(RESPONSE_V2).chain.steps))
            for receiver, _got in readers
        }
        assert len(chains) == 1
        records = [got[0] for _receiver, got in readers]
        assert all(record == records[0] for record in records)
        for name, seen in self._analyses(census).items():
            assert len(seen) == len(set(seen)), name

    def test_a_refreshed_default_reaches_the_next_plan(self):
        """``FormatRegistry.replace`` ships new defaults under a cached
        id: after ``invalidate_route`` a field the transform does not
        assign is filled with the new one."""
        def reading(default):
            return IOFormat(
                "Reading",
                [IOField("x", "integer", 4),
                 IOField("unit", "integer", 4, default=default)],
                version="1",
            )

        wide = IOFormat(
            "Reading",
            [IOField("x", "integer", 4), IOField("junk", "float")],
            version="2",
        )
        registry = FormatRegistry()
        registry.add_transform(wide, reading(1), "old.x = new.x;")
        got = []
        receiver = MorphReceiver(registry)  # fused and staged: see conftest
        receiver.register_handler(reading(1), got.append)
        wire = PBIOContext(registry).encode(wide, {"x": 3, "junk": 0.5})
        receiver.process(wire)
        assert got == [{"x": 3, "unit": 1}]
        assert registry.replace(reading(7)) is True
        registry.add_transform(wide, reading(7), "old.x = new.x;")
        assert receiver.invalidate_route(wide.format_id)
        receiver.process(wire)
        assert got[1] == {"x": 3, "unit": 7}


class TestSecondSightPrice:
    """What a format seen once may cost, counted by wrapping (never
    timed): no generated coder, no fused ``compile()`` and no rebuild of
    meta-data already fetched — a routine is generated the second time
    it is needed, and fetched descriptions are interned by content."""

    @pytest.fixture
    def census(self, monkeypatch):
        """Calls of ``codegen.make_decoder``, ``FusedRoute._compile`` and
        the two meta-data builders (outermost: a format builds its
        subformats itself), from an empty intern table."""
        from repro.morph.fusion import FusedRoute
        from repro.pbio import codegen

        monkeypatch.setattr(serialization, "_declarations", {})
        calls = {"make_decoder": [], "compile": [], "format": [],
                 "transform": []}
        depth = [0]

        def counted(owner, name, key):
            original = getattr(owner, name)

            def wrapper(first, *args, **kwargs):
                if not depth[0]:
                    calls[key].append(first)
                depth[0] += key == "format"
                try:
                    return original(first, *args, **kwargs)
                finally:
                    depth[0] -= key == "format"

            monkeypatch.setattr(owner, name, wrapper)

        counted(codegen, "make_decoder", "make_decoder")
        counted(FusedRoute, "_compile", "compile")
        counted(serialization, "_build_format", "format")
        counted(serialization, "_build_transform", "transform")
        return calls

    @staticmethod
    def _fetched(registry, spec):
        """*spec* as a resolver ingests a lookup reply."""
        reply = serialization.transform_to_dict(spec)
        registry.register(format_from_dict(reply["source"]))
        registry.register_transform(serialization.transform_from_dict(reply))

    def _readers(self):
        """Four sinks in fresh contexts — the paper's V2 / V1 / V0
        readers and a narrow one, each fused — plus one registered for
        the revision itself (a plain decode, nothing to fuse), warmed
        on v2.0 traffic until their steady routines exist."""
        readers = []
        for fmt in (RESPONSE_V2, RESPONSE_V1, RESPONSE_V0, NARROW, None):
            registry = FormatRegistry()
            for spec in (V2_TO_V1_TRANSFORM, V1_TO_V0_TRANSFORM):
                self._fetched(registry, spec)
            got = []
            receiver = MorphReceiver(registry, use_fusion=True)
            if fmt is not None:
                receiver.register_handler(fmt, got.append)
            readers.append((receiver, got))
        wire = PBIOContext().encode(RESPONSE_V2, response_v2(3))
        for receiver, _got in readers[:4]:
            for _ in range(2):
                receiver.process(wire)
        return readers

    def _revision(self, readers, k):
        """Revision *k*, fetched by every reader (the last registers it
        as its own format), and one wire of it."""
        fmt, spec = _ext_revision(k)
        for receiver, _got in readers:
            self._fetched(receiver.registry, spec)
        readers[4][0].register_handler(fmt, readers[4][1].append)
        record = response_v2(3)
        record[f"ext_{k}"] = k
        return fmt, PBIOContext().encode(fmt, record)

    @staticmethod
    def _cleared(census):
        for calls in census.values():
            calls.clear()

    def test_a_never_seen_revision_generates_nothing(self, census):
        readers = self._readers()
        self._cleared(census)
        fmt, wire = self._revision(readers, 7)
        for receiver, got in readers:
            receiver.process(wire)
            assert got[-1]["member_count"] == 3
        assert census["make_decoder"] == [] and census["compile"] == []
        # the revision is built once for the process; v2.0 never again
        assert [f["version"] for f in census["format"]] == [fmt.version]
        assert len(census["transform"]) == 1
        held = {id(r.registry.lookup_id(fmt.format_id)) for r, _got in readers}
        assert len(held) == 1

    def test_its_second_message_generates_one_routine_per_reader(
        self, census
    ):
        readers = self._readers()
        fmt, wire = self._revision(readers, 8)
        for receiver, _got in readers:
            receiver.process(wire)
        self._cleared(census)
        for receiver, got in readers:
            receiver.process(wire)
            assert got[-1] == got[-2]
        # one fused compile per fused route, one decoder for the context
        # that decodes the revision plainly
        fused = [r.route_for(fmt).fused for r, _got in readers[:4]]
        assert census["compile"] == fused and None not in fused
        assert census["make_decoder"] == [fmt]
        assert readers[4][0].route_for(fmt).fused is None

    def test_one_shot_formats_keep_the_codec_tables_bounded(self):
        ctx = PBIOContext()
        for k in range(5000):
            fmt = IOFormat("OneShot", [IOField("x", "integer")],
                           version=str(k))
            ctx.decode(ctx.encode(fmt, {"x": k}))
        assert len(ctx._encoders) <= CODEC_CACHE_MAX
        assert len(ctx._decoders) <= CODEC_CACHE_MAX
        assert ctx.generated_encoder_count == ctx.generated_decoder_count == 0

    def test_the_meta_data_memo_is_bounded(self, census, monkeypatch):
        monkeypatch.setattr(serialization, "DECLARATION_CACHE_MAX", 4)
        for k in range(10):
            format_from_dict(format_to_dict(_ext_revision(k)[0]))
            assert len(serialization._declarations) <= 4
        description = format_to_dict(_ext_revision(9)[0])
        assert format_from_dict(description) is format_from_dict(description)
        assert len(census["format"]) == 10
        format_from_dict(format_to_dict(_ext_revision(0)[0]))  # evicted
        assert len(census["format"]) == 11

    def test_a_default_or_an_importance_is_content(self, census):
        def reading(**extras):
            return format_to_dict(IOFormat("Reading", [
                IOField("x", "integer"), IOField("unit", "integer", **extras),
            ]))

        built = [format_from_dict(reading(**extras)) for extras in (
            {}, {"default": 7}, {"importance": 2.0},
        )]
        assert built[0] == built[1] == built[2]  # one wire id ...
        assert len({id(fmt) for fmt in built}) == 3  # ... three contents
        assert [f.field("unit")._default for f in built] == [None, 7, None]
        assert built[2].field("unit").importance == 2.0

    def test_a_malformed_description_raises_every_time(self, census):
        bad = {"name": "F", "fields": [
            {"name": "xs", "kind": "integer", "array": {"length_field": "n"}},
        ]}
        for _ in range(3):
            with pytest.raises(FormatError, match="missing field"):
                format_from_dict(bad)
        assert len(census["format"]) == 3
        assert serialization._declarations == {}

    def test_threads_deserialising_one_reply_share_one_entry(self, census):
        reply = format_to_dict(_ext_revision(11)[0])
        barrier = threading.Barrier(8)
        built, failures = [], []

        def fetch():
            try:
                barrier.wait(timeout=10)
                built.append(format_from_dict(reply))
            except BaseException as exc:  # noqa: BLE001 - reported below
                failures.append(exc)

        threads = [threading.Thread(target=fetch) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not failures and len(built) == 8
        assert len(serialization._declarations) == 1
        assert len({id(fmt) for fmt in built}) == 1


class TestTransformChain:
    def test_two_hop_chain(self):
        chain = build_chain([V2_TO_V1_TRANSFORM, V1_TO_V0_TRANSFORM])
        assert chain.source == RESPONSE_V2
        assert chain.target == RESPONSE_V0
        assert len(chain) == 2
        incoming = response_v2(3)
        out = chain.apply(incoming)
        assert out["member_count"] == 3
        assert set(out.keys()) == {"channel_id", "member_count", "member_list"}
        assert out["member_list"][0]["info"] == incoming["member_list"][0]["info"]

    def test_roundtrip_v1_v2_v1_preserves_information(self):
        v1_rec = response_v1_from_v2(response_v2(4))
        forward = Transformation(V1_TO_V2_TRANSFORM)
        backward = Transformation(V2_TO_V1_TRANSFORM)
        assert records_equal(backward.apply(forward.apply(v1_rec)), v1_rec)

    def test_empty_chain_rejected(self):
        with pytest.raises(TransformError):
            TransformChain([])

    def test_non_contiguous_chain_rejected(self):
        with pytest.raises(TransformError, match="contiguous"):
            TransformChain(
                [Transformation(V2_TO_V1_TRANSFORM),
                 Transformation(V2_TO_V1_TRANSFORM)]
            )
