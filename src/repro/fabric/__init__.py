"""repro.fabric — sharded multi-worker event fabric.

Channels are partitioned across a worker fleet by consistent hashing
over channel ids (:mod:`repro.fabric.hashing`); the
:class:`FabricDirectory` tracks membership under monotonically
increasing ownership epochs and orchestrates drain-and-forward shard
handoff so exactly-once delivery survives rebalancing.  Workers morph
at the owner (:mod:`repro.fabric.worker`) — each subscriber format
group gets one decode + transform chain + re-encode per event — so the
fleet scales morphing capacity, not just routing.

The fabric runs unchanged over the simulated deterministic transport
and the asyncio UDP loopback transport (:mod:`repro.net.socket`); both
honor the same node/timer contract (:mod:`repro.net.scheduler`).

See ``docs/FABRIC.md`` for the architecture and the handoff protocol;
``python -m repro.fabric --smoke`` runs a 2-worker loopback-socket
smoke check.
"""

from repro.fabric.hashing import (
    DEFAULT_NUM_SHARDS,
    HashRing,
    shard_of,
    stable_hash,
)
from repro.fabric.journal import JournalRecovery, JournalStore
from repro.fabric.membership import (
    EventFabric,
    FabricDirectory,
    RemoteWorker,
)
from repro.fabric.protocol import (
    FABRIC_DELIVER,
    FABRIC_FORMATS,
    FABRIC_HANDOFF,
    FABRIC_HANDOFF_ACK,
    FABRIC_PUBLISH,
    FABRIC_REDIRECT,
    FABRIC_SUBSCRIBE,
    register_fabric_protocol,
)
from repro.fabric.worker import FabricChannel, FabricWorker
from repro.fabric.client import FabricClient
from repro.net.ledger import SeqLedger

__all__ = [
    "DEFAULT_NUM_SHARDS",
    "EventFabric",
    "FABRIC_DELIVER",
    "FABRIC_FORMATS",
    "FABRIC_HANDOFF",
    "FABRIC_HANDOFF_ACK",
    "FABRIC_PUBLISH",
    "FABRIC_REDIRECT",
    "FABRIC_SUBSCRIBE",
    "FabricChannel",
    "FabricClient",
    "FabricDirectory",
    "FabricWorker",
    "HashRing",
    "JournalRecovery",
    "JournalStore",
    "RemoteWorker",
    "SeqLedger",
    "register_fabric_protocol",
    "shard_of",
    "stable_hash",
]
