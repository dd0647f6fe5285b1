"""Shard state — the one writer and the one validating reader.

A shard's exactly-once state is, per channel, who subscribes in which
format and which sequence numbers each publisher's ledger admitted::

    {"channels": {channel_id: {
        "subscribers": [[contact, format_id], ...],
        "ledgers": {publisher: {"high": n, "sparse": [...]}},
    }}}

It comes back through three doors — a ``FABRIC_HANDOFF`` part off the
network, a ``snapshot`` entry of a shared in-memory journal, the same
entry in a journal file — read by code that did not write it, after the
writer is gone.  All three go through :func:`load_state`: every
structural surprise is a :class:`~repro.errors.FabricError`, and nothing
is handed out until the whole state has parsed.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

from repro.errors import FabricError
from repro.net.ledger import SeqLedger

#: A parsed state — what :func:`load_state` returns and
#: :func:`dump_state` takes:
#: ``{channel_id: ([(contact, format_id), ...], {publisher: ledger})}``.
Channels = Dict[str, Tuple[List[Tuple[str, int]], Dict[str, SeqLedger]]]


def dump_state(channels: Channels) -> Dict[str, Any]:
    """*channels* in the shape above (channels and publishers sorted)."""
    return {"channels": {
        channel_id: {
            "subscribers": [list(pair) for pair in subscribers],
            "ledgers": {
                publisher: ledger.to_state()
                for publisher, ledger in sorted(ledgers.items())
            },
        }
        for channel_id, (subscribers, ledgers) in sorted(channels.items())
    }}


def load_state(state: Any) -> Channels:
    """Parse and validate a state of the shape above."""
    if not isinstance(state, dict):
        raise FabricError(
            f"shard state must be a mapping, got {type(state).__name__}"
        )
    raw = state.get("channels", {})
    if not isinstance(raw, dict):
        raise FabricError(
            f"channel state must be a mapping, got {type(raw).__name__}"
        )
    channels: Channels = {}
    for channel_id, channel in raw.items():
        if not isinstance(channel_id, str) or not isinstance(channel, dict):
            raise FabricError(f"malformed channel entry {channel_id!r}")
        subscribers = channel.get("subscribers", ())
        if not isinstance(subscribers, (list, tuple)):
            raise FabricError(
                f"channel {channel_id!r} subscribers must be a list"
            )
        for entry in subscribers:
            if (
                not isinstance(entry, (list, tuple))
                or len(entry) != 2
                or not isinstance(entry[0], str)
                or isinstance(entry[1], bool)
                or not isinstance(entry[1], int)
            ):
                raise FabricError(
                    f"channel {channel_id!r} has malformed subscriber "
                    f"entry {entry!r}"
                )
        ledgers = channel.get("ledgers", {})
        if not isinstance(ledgers, dict):
            raise FabricError(
                f"channel {channel_id!r} ledgers must be a mapping"
            )
        channels[channel_id] = (
            [tuple(entry) for entry in subscribers],
            {
                publisher: SeqLedger.from_state(ledger)
                for publisher, ledger in ledgers.items()
            },
        )
    return channels


def split_state(state: Dict[str, Any], chunk_bytes: int) -> List[str]:
    """Split a state into JSON handoff parts of about *chunk_bytes*
    characters, at channel granularity.  A single channel larger than
    the target still travels whole; an empty state yields one empty
    part so the successor always sees a complete handoff."""
    channels = state.get("channels", {})
    parts: List[str] = []
    current: Dict[str, Any] = {}
    size = 0
    for channel_id in sorted(channels):
        piece = len(json.dumps(
            {channel_id: channels[channel_id]}, sort_keys=True
        ))
        if current and size + piece > chunk_bytes:
            parts.append(json.dumps({"channels": current}, sort_keys=True))
            current, size = {}, 0
        current[channel_id] = channels[channel_id]
        size += piece
    parts.append(json.dumps({"channels": current}, sort_keys=True))
    return parts


def load_part(text: str) -> Channels:
    """Parse and validate one handoff part."""
    try:
        state = json.loads(text)
    except ValueError:
        raise FabricError("handoff state is not JSON") from None
    return load_state(state)
