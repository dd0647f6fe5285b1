"""Fabric membership and shard ownership.

:class:`FabricDirectory` is the control plane: it tracks the worker
fleet, computes the shard assignment for each **ownership epoch**
(bumped on every join/leave), and orchestrates handoff of moved shards.
It is an out-of-band authority in the same sense the shared
:class:`~repro.pbio.registry.FormatRegistry` is — directory *lookups*
are in-process calls, but the handoff state itself and every data
message travel over the transport, so drain-and-forward behavior is
exercised on the wire.

Routing staleness is expected, not exceptional: clients cache
``(owner, epoch)`` per channel and keep publishing to the old owner
until a :data:`~repro.fabric.protocol.FABRIC_REDIRECT` corrects them;
the old owner forwards in the meantime.  Exactly-once is therefore a
receiver-side property (the per-publisher sequence ledgers that move
with the shard), never a routing property.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.errors import FabricError
from repro.fabric.hashing import DEFAULT_NUM_SHARDS, HashRing, shard_of
from repro.net.reliable import refuse_removed_modes
from repro.obs.metrics import Tallies, collect, counter

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fabric.journal import JournalStore
    from repro.fabric.worker import FabricWorker

#: the failure detector's lease renewals and expiries
_COLLECTED = (
    counter("fabric.lease.renewals", "renewals"),
    counter("fabric.lease.expired", "expirations"),
)

#: Default heartbeat-lease timeout (virtual seconds) when lease checking
#: is enabled without an explicit value.
DEFAULT_LEASE_TIMEOUT = 1.0


class RemoteWorker:
    """Stand-in for a worker whose process lives elsewhere.

    Shard assignment is a pure function of the member list, so every OS
    process can hold its own :class:`FabricDirectory` replica: it joins
    a :class:`RemoteWorker` for each remote fleet member (keeping ring
    membership and epoch in sync) and the real :class:`FabricWorker`
    for the one it hosts.  Ownership transitions for remote members are
    applied by the directory replica running in *their* process; this
    stub absorbs them as no-ops."""

    def __init__(self, address: str) -> None:
        self.address = address

    def grant_shard(self, shard: int, epoch: int) -> None:
        pass

    def begin_handoff(self, shard: int, successor: str, epoch: int) -> None:
        pass

    def owned_shards(self) -> List[int]:
        return []


class FabricDirectory:
    """Worker membership, shard assignment, and handoff orchestration.

    Parameters
    ----------
    num_shards:
        Partitioning granularity; every worker and client built from
        this directory inherits it.
    clock:
        Anything with a ``now`` property (the transport).  Required for
        lease-based failure detection; without it heartbeats are
        recorded but never expire.
    lease_timeout:
        Seconds (of *clock* time) a worker may go without renewing its
        heartbeat lease before :meth:`check_leases` declares it dead and
        crash-leaves it.
    """

    def __init__(
        self,
        num_shards: int = DEFAULT_NUM_SHARDS,
        clock: Optional[Any] = None,
        lease_timeout: Optional[float] = None,
    ) -> None:
        self.num_shards = num_shards
        self.clock = clock
        self.lease_timeout = lease_timeout
        self._ring = HashRing()
        self._workers: "Dict[str, FabricWorker]" = {}
        self.epoch = 0
        self.assignment: Dict[int, str] = {}
        #: shard -> epoch at which its *current* owner took it over —
        #: the fencing floor stale owners are checked against
        self.shard_epochs: Dict[int, int] = {}
        #: (shard, old, new) tuples per epoch — the rebalance audit log
        self.moves: List[Tuple[int, int, str, Optional[str]]] = []
        #: (epoch, address) per lease-expiry / crash-leave declaration
        self.deaths: List[Tuple[int, str]] = []
        #: worker address -> last heartbeat time
        self._leases: Dict[str, float] = {}
        self._tally = Tallies(renewals=0, expirations=0)
        collect(self, self._tally, _COLLECTED)
        self.lease_rejections = 0
        #: echo-hosted channels: channel id -> hosting contact string
        self._echo_channels: Dict[str, str] = {}

    lease_renewals = property(lambda self: self._tally.renewals)
    lease_expirations = property(lambda self: self._tally.expirations)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    @property
    def workers(self) -> List[str]:
        return self._ring.members

    def worker(self, address: str) -> "FabricWorker":
        try:
            return self._workers[address]
        except KeyError:
            raise FabricError(f"no worker {address!r} in the fabric") from None

    def join(self, worker: "FabricWorker") -> List[int]:
        """Add *worker* to the fleet; recompute the assignment under a
        new epoch and hand off every shard that moved.  Returns the
        shards the new worker received."""
        address = worker.address
        if address in self._ring:
            raise FabricError(f"worker {address!r} already joined")
        self._ring.add(address)
        self._workers[address] = worker
        self._leases[address] = self._now()
        return self._rebalance()

    def bootstrap(self, members: "List[object]") -> List[int]:
        """Cold-start the fleet: add every member to the ring and assign
        all shards under a single epoch.  Every shard is fresh, so no
        handoff traffic is generated — which is what lets directory
        *replicas* in separate OS processes (each holding
        :class:`RemoteWorker` stubs for the members it does not host)
        bootstrap from the same member list and agree on
        ``(assignment, epoch)`` without any wire exchange."""
        if self._workers or self.assignment:
            raise FabricError("bootstrap requires an empty directory")
        for worker in members:
            address = worker.address  # type: ignore[attr-defined]
            if address in self._ring:
                raise FabricError(f"worker {address!r} already joined")
            self._ring.add(address)
            self._workers[address] = worker  # type: ignore[assignment]
            self._leases[address] = self._now()
        return self._rebalance()

    def leave(self, address: str) -> List[int]:
        """Remove the worker at *address*: its shards are handed off to
        the survivors (the leaving worker keeps draining-and-forwarding
        stale traffic until its process actually dies).  Returns the
        shards that moved."""
        if address not in self._ring:
            raise FabricError(f"worker {address!r} never joined")
        if len(self._ring) == 1:
            raise FabricError("cannot remove the last worker")
        self._ring.remove(address)
        # The leaver stays in ``_workers`` through the rebalance so
        # begin_handoff runs on it — graceful leave drains-and-forwards;
        # only then does it stop being addressable through the
        # directory (its node keeps forwarding stale traffic for as
        # long as the process lives).
        moved = self._rebalance()
        leaver = self._workers.pop(address)
        self._leases.pop(address, None)
        assert not leaver.owned_shards()
        return moved

    def crash_leave(self, address: str) -> List[int]:
        """Remove a worker whose process is gone (or presumed gone —
        lease expiry lands here too): no handoff can run, so its shards
        are granted to the survivors directly and each grantee recovers
        what it can from the shared ledger journal.  Returns the shards
        that moved."""
        if address not in self._ring:
            raise FabricError(f"worker {address!r} never joined")
        if len(self._ring) == 1:
            raise FabricError("cannot declare the last worker dead")
        self._ring.remove(address)
        # Unlike a graceful leave, the corpse is dropped from _workers
        # *before* the rebalance: begin_handoff must never run on it,
        # so every moved shard takes the grant-without-state path (and
        # recovers from the journal there).
        self._workers.pop(address, None)
        self._leases.pop(address, None)
        self.deaths.append((self.epoch + 1, address))
        return self._rebalance()

    # ------------------------------------------------------------------
    # Leases (failure detection)
    # ------------------------------------------------------------------

    def _now(self) -> float:
        return 0.0 if self.clock is None else self.clock.now

    def heartbeat(self, address: str) -> bool:
        """Renew *address*'s lease.  A worker the directory no longer
        lists (declared dead, never joined) gets ``False`` — renewal
        must never resurrect a fenced-out corpse; it has to re-join."""
        if address not in self._ring:
            self.lease_rejections += 1
            return False
        self._leases[address] = self._now()
        self._tally.renewals += 1
        return True

    def lease_remaining(self, address: str) -> Optional[float]:
        """Seconds until *address*'s lease expires: ``lease_timeout``
        minus the time since its last heartbeat.  ``None`` when lease
        checking is off (no timeout / no clock) or the worker holds no
        lease (never joined, or already declared dead).  May be
        negative — an expired-but-not-yet-collected lease."""
        if self.lease_timeout is None or self.clock is None:
            return None
        granted = self._leases.get(address)
        if granted is None:
            return None
        return self.lease_timeout - (self._now() - granted)

    def check_leases(self) -> List[str]:
        """Declare every worker whose lease missed its deadline dead and
        crash-leave it (shards reassigned under a bumped epoch).  The
        last worker is never expired — a fleet with nowhere to move
        shards keeps limping rather than losing the assignment.  Returns
        the addresses declared dead."""
        if self.lease_timeout is None or self.clock is None:
            return []
        now = self._now()
        expired = [
            address
            for address in list(self._ring.members)
            if now - self._leases.get(address, now) > self.lease_timeout
        ]
        dead: List[str] = []
        for address in expired:
            if len(self._ring) == 1:
                break
            self.crash_leave(address)
            dead.append(address)
            self._tally.expirations += 1
        return dead

    def _rebalance(self) -> List[int]:
        new_assignment = self._ring.assign(self.num_shards)
        self.epoch += 1
        moved: List[int] = []
        for shard in range(self.num_shards):
            old = self.assignment.get(shard)
            new = new_assignment[shard]
            if old == new:
                continue
            moved.append(shard)
            self.moves.append((self.epoch, shard, new, old))
            self.shard_epochs[shard] = self.epoch
            new_worker = self._workers[new]
            if old is None:
                # Fresh shard: granted directly, nothing to drain.
                new_worker.grant_shard(shard, self.epoch)
            else:
                old_worker = self._workers.get(old)
                if old_worker is None:
                    # The old owner's process is gone (crash-leave):
                    # grant without a handoff — the grantee recovers the
                    # shard's exactly-once state from the shared ledger
                    # journal (when one is wired) and fences the old
                    # epoch out; publishers re-route via redirects.
                    new_worker.grant_shard(shard, self.epoch)
                else:
                    old_worker.begin_handoff(shard, new, self.epoch)
        self.assignment = new_assignment
        return moved

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def shard_epoch(self, shard: int) -> int:
        """The epoch the shard's current owner took it over at — the
        fencing floor: a worker whose owned epoch is older is a stale
        resurrected owner and must not admit publishes."""
        return self.shard_epochs.get(shard, 0)

    def owner_of_shard(self, shard: int) -> str:
        try:
            return self.assignment[shard]
        except KeyError:
            raise FabricError(
                f"shard {shard} unassigned (no workers joined yet?)"
            ) from None

    def owner(self, channel_id: str) -> str:
        """Authoritative owner address for a channel (current epoch)."""
        return self.owner_of_shard(shard_of(channel_id, self.num_shards))

    def route(self, channel_id: str) -> Tuple[str, int]:
        """(owner, epoch) for a channel — what clients cache."""
        return self.owner(channel_id), self.epoch

    # ------------------------------------------------------------------
    # ECho integration (channel routing through the fabric)
    # ------------------------------------------------------------------

    def register_echo_channel(self, channel_id: str, contact: str) -> None:
        """Record that an ECho channel is hosted at *contact* (a worker's
        co-hosted ECho process) so creator-less
        :meth:`~repro.echo.process.EChoProcess.open_channel` calls can
        resolve it."""
        self._echo_channels[channel_id] = contact

    def owner_contact(self, channel_id: str) -> str:
        """The contact string an ECho process should open *channel_id*
        against — the directory protocol
        :class:`~repro.echo.process.EChoProcess` accepts."""
        contact = self._echo_channels.get(channel_id)
        if contact is not None:
            return contact
        return self.owner(channel_id)


class EventFabric:
    """Convenience facade: one directory + one transport + a shared
    format plane, with worker/client factories that wire everything the
    same way.

    ``transport`` is any object honoring the
    :class:`~repro.net.transport.Network` node contract — the simulated
    network or :class:`~repro.net.socket.SocketNetwork` both qualify,
    which is the pluggable-transport point of the subsystem.
    """

    def __init__(
        self,
        network: object,
        registry: object = None,
        num_shards: int = DEFAULT_NUM_SHARDS,
        format_servers: "Optional[List[str]]" = None,
        reliable: bool = True,
        journal: "Optional[JournalStore]" = None,
        lease_timeout: Optional[float] = None,
    ) -> None:
        refuse_removed_modes(reliable=reliable)
        self.network = network
        self.registry = registry
        self.format_servers = format_servers
        self.journal = journal
        self.directory = FabricDirectory(
            num_shards=num_shards, clock=network, lease_timeout=lease_timeout,
        )

    def add_worker(self, address: str, **options: object) -> "FabricWorker":
        from repro.fabric.worker import FabricWorker

        options.setdefault("registry", self.registry)
        options.setdefault("format_servers", self.format_servers)
        options.setdefault("journal", self.journal)
        worker = FabricWorker(self.directory, self.network, address, **options)
        self.directory.join(worker)
        return worker

    def remove_worker(self, address: str) -> List[int]:
        return self.directory.leave(address)

    def crash_worker(self, address: str) -> "FabricWorker":
        """SIGKILL-style: stop the worker's process (volatile state and
        in-flight sends die with it) *without* telling the directory —
        failure detection is the lease checker's job.  Returns the
        crashed worker so the scenario can later :meth:`restart
        <repro.fabric.worker.FabricWorker.restart>` it."""
        worker = self.directory.worker(address)
        worker.crash()
        return worker

    def client(self, address: str, **options: object) -> "FabricClient":
        from repro.fabric.client import FabricClient

        options.setdefault("registry", self.registry)
        options.setdefault("format_servers", self.format_servers)
        return FabricClient(self.directory, self.network, address, **options)
