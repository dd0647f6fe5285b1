"""Channel bookkeeping for the ECho middleware.

An event channel (paper Section 4.1) matches event sources to event
sinks.  The channel *creator* owns the authoritative membership list;
every member keeps a replica updated from ``ChannelOpenResponse``
messages — which is exactly where format morphing earns its keep, since
the replica update code only ever sees the revision of the response its
own release understands.

:class:`ChannelState` is also everything else a process knows about the
channel, in one record: its roles, its event receiver, the derived
channels it filters for and the projection state of both ends, so
leaving the channel resets one object (:meth:`ChannelState.leave`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.errors import ChannelError
from repro.pbio.format import IOFormat
from repro.pbio.record import Record

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.ecode.codegen import ECodeProcedure
    from repro.morph.receiver import MorphReceiver
    from repro.pbio.projection import ProjectionFormat


@dataclass
class Member:
    """One channel member as known to a process."""

    contact: str
    member_id: int
    is_source: bool = False
    is_sink: bool = False


class ProjectionSend:
    """Source side: the negotiated projection one parent format is sent
    in on a channel (Selective Field Transmission).  ``pending`` holds a
    narrowing ``(format, epoch)`` until the next publish boundary, the
    epoch fence."""

    __slots__ = ("format", "epoch", "pending")

    def __init__(self) -> None:
        self.format: Optional["ProjectionFormat"] = None
        self.epoch = 0
        self.pending: Optional[Tuple[Optional["ProjectionFormat"], int]] = None


class ChannelState:
    """A process's view of one event channel."""

    def __init__(
        self,
        channel_id: str,
        creator_contact: str,
        parent_id: Optional[str] = None,
        filter_code: Optional[str] = None,
    ) -> None:
        self.channel_id = channel_id
        self.creator_contact = creator_contact
        self.members: Dict[int, Member] = {}
        self.next_member_id = 1
        self.is_source = False
        self.is_sink = False
        self.ready = False  # True once an open response arrived
        self.seq = 0
        #: derived channels (ECho's filtered sub-channels): the parent
        #: channel id and the ECode filter applied at each source, that
        #: filter compiled (at the creator and the parent's sources), and
        #: this channel's own derived children
        self.parent_id = parent_id
        self.filter_code = filter_code
        self.filter_proc: Optional["ECodeProcedure"] = None
        self.children: List["ChannelState"] = []
        #: sink side: the event receiver (made by the first subscribe)
        #: and its failures already counted in the process's ``errors``
        self.receiver: Optional["MorphReceiver"] = None
        self.failed = 0
        #: source side: the projection sent per parent format id
        self.projections: Dict[int, ProjectionSend] = {}
        #: sink side: wire format ids already examined for an interest
        #: announcement, and the parent formats announced, by id
        self.announced: Set[int] = set()
        self.interest_parents: Dict[int, IOFormat] = {}

    @property
    def is_derived(self) -> bool:
        return self.parent_id is not None

    def leave(self) -> List[IOFormat]:
        """Drop this process's part in the channel: its roles, the event
        receiver with its counted failures, and the projection state of
        both ends.  Returns the parent formats whose interest was
        announced, for retraction.  The membership replica, the filter
        and the derived children stay: a source of the parent channel
        forwards by them, member or not."""
        parents = list(self.interest_parents.values())
        self.is_source = self.is_sink = self.ready = False
        self.receiver = None
        self.failed = 0
        self.projections = {}
        self.announced = set()
        self.interest_parents = {}
        return parents

    # ------------------------------------------------------------------
    # Creator-side membership management
    # ------------------------------------------------------------------

    def add_member(self, contact: str, is_source: bool, is_sink: bool) -> Member:
        """Add (or update) a member by contact; creator side only."""
        for member in self.members.values():
            if member.contact == contact:
                member.is_source = member.is_source or is_source
                member.is_sink = member.is_sink or is_sink
                return member
        member = Member(
            contact=contact,
            member_id=self.next_member_id,
            is_source=is_source,
            is_sink=is_sink,
        )
        self.next_member_id += 1
        self.members[member.member_id] = member
        return member

    def remove_member(self, contact: str) -> Optional[Member]:
        """Remove the member with *contact*; creator side only.  Returns
        the removed member, or None when no such member exists."""
        for member_id, member in list(self.members.items()):
            if member.contact == contact:
                del self.members[member_id]
                return member
        return None

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def member_list(self) -> List[Member]:
        return sorted(self.members.values(), key=lambda m: m.member_id)

    def sources(self) -> List[Member]:
        return [m for m in self.member_list() if m.is_source]

    def sinks(self) -> List[Member]:
        return [m for m in self.member_list() if m.is_sink]

    def next_seq(self) -> int:
        self.seq += 1
        return self.seq

    # ------------------------------------------------------------------
    # ChannelOpenResponse construction / ingestion
    # ------------------------------------------------------------------

    def to_response_record(self, response_format: IOFormat) -> Record:
        """Build a ChannelOpenResponse record of *response_format* (any
        revision: 0.0, 1.0 or 2.0) from this membership."""
        members = self.member_list()
        version = response_format.version
        if version == "2.0":
            return response_format.make_record(
                channel_id=self.channel_id,
                member_count=len(members),
                member_list=[
                    dict(
                        info=m.contact,
                        ID=m.member_id,
                        is_Source=m.is_source,
                        is_Sink=m.is_sink,
                    )
                    for m in members
                ],
            )
        if version == "1.0":
            sources = [m for m in members if m.is_source]
            sinks = [m for m in members if m.is_sink]
            return response_format.make_record(
                channel_id=self.channel_id,
                member_count=len(members),
                member_list=[dict(info=m.contact, ID=m.member_id) for m in members],
                src_count=len(sources),
                src_list=[dict(info=m.contact, ID=m.member_id) for m in sources],
                sink_count=len(sinks),
                sink_list=[dict(info=m.contact, ID=m.member_id) for m in sinks],
            )
        if version == "0.0":
            return response_format.make_record(
                channel_id=self.channel_id,
                member_count=len(members),
                member_list=[dict(info=m.contact, ID=m.member_id) for m in members],
            )
        raise ChannelError(f"unknown ChannelOpenResponse version {version!r}")

    def update_from_response(self, record: Record) -> None:
        """Replace the membership replica from a decoded (possibly
        morphed) ChannelOpenResponse of *any* revision.

        Role flags come from the flagged member list when present (v2.0),
        from the src/sink lists when present (v1.0), and default to
        unknown-role otherwise (v0.0)."""
        members: Dict[int, Member] = {}
        source_ids = set()
        sink_ids = set()
        if "src_list" in record:
            source_ids = {entry["ID"] for entry in record["src_list"]}
            sink_ids = {entry["ID"] for entry in record["sink_list"]}
        for entry in record["member_list"]:
            member_id = entry["ID"]
            is_source = bool(entry.get("is_Source", member_id in source_ids))
            is_sink = bool(entry.get("is_Sink", member_id in sink_ids))
            members[member_id] = Member(
                contact=entry["info"],
                member_id=member_id,
                is_source=is_source,
                is_sink=is_sink,
            )
        self.members = members
        self.next_member_id = max(members, default=0) + 1
        self.ready = True
