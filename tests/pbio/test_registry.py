"""Unit tests for the format registry (out-of-band meta-data store)."""

import pytest

from repro.errors import FormatError
from repro.pbio.field import IOField
from repro.pbio.format import IOFormat
from repro.pbio.registry import FormatRegistry, TransformSpec


def fmt(name, version, extra=0):
    fields = [IOField("x", "integer")] + [
        IOField(f"e{i}", "integer") for i in range(extra)
    ]
    return IOFormat(name, fields, version=version)


A1 = fmt("A", "1.0")
A2 = fmt("A", "2.0", extra=1)
A3 = fmt("A", "3.0", extra=2)
B1 = fmt("B", "1.0")

NOOP = "old.x = new.x;"


class TestRegistration:
    def test_register_and_lookup(self):
        reg = FormatRegistry()
        format_id = reg.register(A1)
        assert reg.lookup_id(format_id) is A1
        assert A1 in reg
        assert len(reg) == 1

    def test_idempotent_reregistration(self):
        reg = FormatRegistry()
        reg.register(A1)
        reg.register(fmt("A", "1.0"))  # structurally identical
        assert len(reg) == 1

    def test_reregistering_the_registered_instance_compares_nothing(
        self, monkeypatch
    ):
        """What ``PBIOContext.encode`` does per message: the registered
        instance is recognised by identity; only another instance — an
        equal copy fetched from a format server, say — is compared."""
        walks = []
        signature = IOField.signature
        monkeypatch.setattr(
            IOField, "signature",
            lambda field: walks.append(field) or signature(field),
        )
        reg = FormatRegistry()
        first, copy = fmt("A", "1.0", extra=3), fmt("A", "1.0", extra=3)
        reg.register(first)
        del walks[:]
        for _ in range(5):
            assert reg.register(first) == first.format_id
        assert walks == []
        assert reg.register(copy) == first.format_id
        assert walks != []
        assert reg.lookup_id(copy.format_id) is first

    def test_same_id_different_content_still_raises(self):
        reg = FormatRegistry()
        reg.register(A1)
        forged = fmt("A", "1.0", extra=1)
        forged._format_id = A1.format_id
        with pytest.raises(FormatError, match="collision"):
            reg.register(forged)
        assert reg.lookup_id(A1.format_id) is A1

    def test_lookup_by_name_returns_all_revisions(self):
        reg = FormatRegistry()
        for f in (A1, A2, B1):
            reg.register(f)
        names = {f.version for f in reg.lookup_name("A")}
        assert names == {"1.0", "2.0"}
        assert reg.lookup_name("missing") == []

    def test_unknown_id_returns_none(self):
        assert FormatRegistry().lookup_id(12345) is None

    def test_formats_lists_everything(self):
        reg = FormatRegistry()
        reg.register(A1)
        reg.register(B1)
        assert {f.name for f in reg.formats()} == {"A", "B"}


class TestTransformSpec:
    def test_identity_transform_rejected(self):
        with pytest.raises(FormatError):
            TransformSpec(source=A1, target=fmt("A", "1.0"), code=NOOP)

    def test_add_transform_registers_both_formats(self):
        reg = FormatRegistry()
        reg.add_transform(A2, A1, NOOP)
        assert A1 in reg and A2 in reg

    def test_duplicate_transform_not_stored_twice(self):
        reg = FormatRegistry()
        reg.add_transform(A2, A1, NOOP)
        reg.add_transform(A2, A1, NOOP)
        assert len(reg.transforms_from(A2)) == 1

    def test_transforms_from(self):
        reg = FormatRegistry()
        reg.add_transform(A2, A1, NOOP)
        reg.add_transform(A2, B1, NOOP)
        targets = {t.target.name + t.target.version for t in reg.transforms_from(A2)}
        assert targets == {"A1.0", "B1.0"}
        assert reg.transforms_from(A1) == []


class TestTransformClosure:
    def test_single_hop(self):
        reg = FormatRegistry()
        reg.add_transform(A2, A1, NOOP)
        chains = reg.transform_closure(A2)
        assert len(chains) == 1
        assert chains[0][0].target == A1

    def test_chain_of_two(self):
        reg = FormatRegistry()
        reg.add_transform(A3, A2, NOOP)
        reg.add_transform(A2, A1, NOOP)
        chains = reg.transform_closure(A3)
        targets = {c[-1].target.version: len(c) for c in chains}
        assert targets == {"2.0": 1, "1.0": 2}

    def test_shortest_chain_preferred_on_diamond(self):
        reg = FormatRegistry()
        reg.add_transform(A3, A2, NOOP)
        reg.add_transform(A2, A1, NOOP)
        reg.add_transform(A3, A1, NOOP)  # direct shortcut
        chains = reg.transform_closure(A3)
        to_a1 = [c for c in chains if c[-1].target == A1]
        assert len(to_a1) == 1
        assert len(to_a1[0]) == 1  # the direct hop wins

    def test_cycles_terminate(self):
        reg = FormatRegistry()
        reg.add_transform(A1, A2, NOOP)
        reg.add_transform(A2, A1, NOOP)
        chains = reg.transform_closure(A1)
        assert len(chains) == 1  # A2 only; never loops back to A1

    def test_empty_closure(self):
        reg = FormatRegistry()
        reg.register(A1)
        assert reg.transform_closure(A1) == []


class TestReplication:
    def test_replicate_to_copies_formats_and_transforms(self):
        src = FormatRegistry()
        src.add_transform(A2, A1, NOOP)
        dst = FormatRegistry()
        src.replicate_to(dst)
        assert A1 in dst and A2 in dst
        assert len(dst.transforms_from(A2)) == 1


class TestCollisions:
    def test_different_format_same_id_impossible_in_practice(self):
        # structural fingerprints: equality implies same id, and the
        # registry enforces the contrapositive
        reg = FormatRegistry()
        reg.register(A1)
        clone = fmt("A", "1.0")
        assert clone.format_id == A1.format_id
        reg.register(clone)  # fine: equal structure
