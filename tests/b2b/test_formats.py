"""Unit tests for the B2B formats and broker-supplied transforms."""

import pytest

from repro.b2b.formats import (
    ORDER_TRANSFORM,
    RETAILER_PO,
    RETAILER_STATUS,
    STATUS_TRANSFORM,
    SUPPLIER_PO,
    SUPPLIER_STATUS,
    register_b2b,
)
from repro.morph.diff import diff, mismatch_ratio
from repro.morph.maxmatch import (
    DEFAULT_DIFF_THRESHOLD,
    DEFAULT_MISMATCH_THRESHOLD,
    max_match,
)
from repro.morph.transform import Transformation
from repro.pbio.registry import FormatRegistry


class TestOrderTransform:
    def run(self, **overrides):
        rec = RETAILER_PO.make_record(
            order_id="o-1",
            sku="WIDGET-9",
            quantity=3,
            unit_price_dollars=19.99,
            ship_to="801 Atlantic Dr",
            rush=False,
        )
        rec.update(overrides)
        out = Transformation(ORDER_TRANSFORM).apply(rec)
        SUPPLIER_PO.validate_record(out)
        return out

    def test_wraps_single_line_item(self):
        out = self.run()
        assert out["item_count"] == 1
        assert out["line_items"][0]["sku"] == "WIDGET-9"
        assert out["line_items"][0]["quantity"] == 3

    def test_dollars_to_cents_rounds_correctly(self):
        assert self.run(unit_price_dollars=19.99)["line_items"][0]["unit_price_cents"] == 1999
        assert self.run(unit_price_dollars=0.1)["line_items"][0]["unit_price_cents"] == 10
        assert self.run(unit_price_dollars=2.505)["line_items"][0]["unit_price_cents"] == 251

    def test_rush_maps_to_priority(self):
        assert self.run(rush=True)["priority"] == 1
        assert self.run(rush=False)["priority"] == 0

    def test_address_carried_in_street(self):
        out = self.run(ship_to="123 Elm St")
        assert out["address"]["street"] == "123 Elm St"
        assert out["address"]["city"] == ""

    def test_output_validates_against_supplier_format(self):
        SUPPLIER_PO.validate_record(self.run())


class TestStatusTransform:
    def run(self, state, carrier="UPS"):
        rec = SUPPLIER_STATUS.make_record(
            order_id="o-1", state=state, eta_days=3, carrier=carrier
        )
        out = Transformation(STATUS_TRANSFORM).apply(rec)
        RETAILER_STATUS.validate_record(out)
        return out

    def test_state_enum_explodes_into_booleans(self):
        assert self.run(0)["shipped"] == 0 and self.run(0)["backordered"] == 0
        shipped = self.run(1)
        assert shipped["shipped"] == 1 and shipped["backordered"] == 0
        backordered = self.run(2)
        assert backordered["shipped"] == 0 and backordered["backordered"] == 1

    def test_carrier_folded_into_note(self):
        assert self.run(1, carrier="FedEx")["note"] == "carrier: FedEx"


class TestMatchability:
    def test_direct_order_coercion_is_rejected_by_default_thresholds(self):
        # the supplier should NOT accept a retailer order via lossy
        # default-fill; Mr(retailer, supplier) is too high
        assert mismatch_ratio(RETAILER_PO, SUPPLIER_PO) > DEFAULT_MISMATCH_THRESHOLD
        assert (
            max_match(
                RETAILER_PO,
                [SUPPLIER_PO],
                DEFAULT_DIFF_THRESHOLD,
                DEFAULT_MISMATCH_THRESHOLD,
            )
            is None
        )

    def test_status_direct_match_admissible_but_imperfect(self):
        best = max_match(
            SUPPLIER_STATUS,
            [RETAILER_STATUS],
            DEFAULT_DIFF_THRESHOLD,
            DEFAULT_MISMATCH_THRESHOLD,
        )
        assert best is not None and not best.is_perfect

    def test_transform_targets_give_perfect_match(self):
        registry = FormatRegistry()
        register_b2b(registry)
        chains = registry.transform_closure(RETAILER_PO)
        assert any(c[-1].target == SUPPLIER_PO for c in chains)

    def test_order_and_status_formats_have_distinct_diffs(self):
        assert diff(RETAILER_PO, SUPPLIER_PO) > 0
        assert diff(SUPPLIER_STATUS, RETAILER_STATUS) == 2
