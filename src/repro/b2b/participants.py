"""B2B participants: retailer and supplier endpoints.

Both can run in either wire mode, mirroring the broker:

* ``morphing``: PBIO on the wire; each participant's
  :class:`~repro.morph.receiver.MorphReceiver` reconciles formats using
  the broker-supplied ECode transforms from the shared registry,
* ``xslt``: XML on the wire; participants encode/decode XML text and
  rely on the broker to convert in-flight.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.b2b.formats import (
    RETAILER_PO,
    RETAILER_STATUS,
    SUPPLIER_PO,
    SUPPLIER_STATUS,
)
from repro.errors import TransportError
from repro.morph.receiver import MorphReceiver
from repro.net.transport import Network, Node
from repro.pbio.context import PBIOContext
from repro.pbio.format import IOFormat
from repro.pbio.record import Record
from repro.pbio.registry import FormatRegistry
from repro.xmlrep.decode import decode_xml
from repro.xmlrep.encode import encode_xml


class _Participant:
    """Shared endpoint plumbing for retailer/supplier."""

    def __init__(
        self,
        network: Network,
        address: str,
        registry: FormatRegistry,
        broker: str,
        mode: str,
    ) -> None:
        if mode not in ("morphing", "xslt"):
            raise TransportError(f"unknown participant mode {mode!r}")
        self.network = network
        self.node: Node = network.add_node(address)
        self.node.set_handler(self._on_message)
        self.registry = registry
        self.broker = broker
        self.mode = mode
        self.pbio = PBIOContext(registry)
        self.receiver = MorphReceiver(registry)

    @property
    def address(self) -> str:
        return self.node.address

    def _send_to_broker(self, fmt: IOFormat, record: Record) -> None:
        if self.mode == "morphing":
            self.node.send(self.broker, self.pbio.encode(fmt, record))
        else:
            self.node.send(
                self.broker, encode_xml(fmt, record).encode("utf-8")
            )

    def _on_message(self, source: str, data: bytes) -> None:
        if self.mode == "morphing":
            self.receiver.process(data)
        else:
            self._on_xml(data.decode("utf-8"))

    def _on_xml(self, text: str) -> None:  # pragma: no cover - overridden
        raise NotImplementedError


class Retailer(_Participant):
    """Sends purchase orders in its own format; consumes order statuses
    in its own format."""

    def __init__(
        self,
        network: Network,
        address: str,
        registry: FormatRegistry,
        broker: str,
        mode: str = "morphing",
    ) -> None:
        super().__init__(network, address, registry, broker, mode)
        self.statuses: List[Record] = []
        self.on_status: Optional[Callable[[Record], Any]] = None
        self.receiver.register_handler(RETAILER_STATUS, self._handle_status)
        self._next_order = 1

    def send_order(
        self,
        sku: str,
        quantity: int,
        unit_price_dollars: float,
        ship_to: str = "801 Atlantic Dr, Atlanta GA 30332",
        rush: bool = False,
    ) -> str:
        """Place an order (retailer's native format); returns order id."""
        order_id = f"{self.address}-{self._next_order:06d}"
        self._next_order += 1
        record = RETAILER_PO.make_record(
            order_id=order_id,
            sku=sku,
            quantity=quantity,
            unit_price_dollars=unit_price_dollars,
            ship_to=ship_to,
            rush=rush,
        )
        self._send_to_broker(RETAILER_PO, record)
        return order_id

    def _handle_status(self, record: Record) -> None:
        self.statuses.append(record)
        if self.on_status is not None:
            self.on_status(record)

    def _on_xml(self, text: str) -> None:
        # XSLT mode: the broker already converted to the retailer's format
        self._handle_status(decode_xml(RETAILER_STATUS, text))


class Supplier(_Participant):
    """Consumes purchase orders in its own format; replies with order
    statuses in its own format."""

    def __init__(
        self,
        network: Network,
        address: str,
        registry: FormatRegistry,
        broker: str,
        mode: str = "morphing",
        stock: Optional[Dict[str, int]] = None,
    ) -> None:
        super().__init__(network, address, registry, broker, mode)
        self.orders: List[Record] = []
        self.stock: Dict[str, int] = dict(stock or {})
        self.receiver.register_handler(SUPPLIER_PO, self._handle_order)

    def _handle_order(self, record: Record) -> None:
        """Fulfil from stock: shipped if everything is available,
        backordered otherwise."""
        self.orders.append(record)
        available = all(
            self.stock.get(item["sku"], 0) >= item["quantity"]
            for item in record["line_items"]
        )
        if available:
            for item in record["line_items"]:
                self.stock[item["sku"]] -= item["quantity"]
            state, eta, carrier = 1, 2, "UPS Ground"
        else:
            state, eta, carrier = 2, 14, ""
        status = SUPPLIER_STATUS.make_record(
            order_id=record["order_id"],
            state=state,
            eta_days=eta,
            carrier=carrier,
        )
        self._send_to_broker(SUPPLIER_STATUS, status)

    def _on_xml(self, text: str) -> None:
        self._handle_order(decode_xml(SUPPLIER_PO, text))
