"""Pure-Python reference for what each subscriber class must receive.

The oracle compares delivered records against these functions, never
against the morph path itself: plain dicts and lists built straight from
the published v2.0 record, following paper Figure 4/5 by hand.  Nothing
here imports ``repro``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping


def _strip(member: Mapping[str, Any]) -> Dict[str, Any]:
    return {"info": member["info"], "ID": member["ID"]}


def as_v2(published: Mapping[str, Any]) -> Dict[str, Any]:
    """A v2.0 reader sees the published record minus any trailing
    ``ext_k`` field of a newer revision."""
    return {
        "channel_id": published["channel_id"],
        "member_count": published["member_count"],
        "member_list": [
            {
                "info": m["info"],
                "ID": m["ID"],
                "is_Source": bool(m["is_Source"]),
                "is_Sink": bool(m["is_Sink"]),
            }
            for m in published["member_list"]
        ],
    }


def as_v1(published: Mapping[str, Any]) -> Dict[str, Any]:
    """Figure 5: rebuild v1.0's three lists from v2.0's flagged list."""
    members = published["member_list"]
    sources = [_strip(m) for m in members if m["is_Source"]]
    sinks = [_strip(m) for m in members if m["is_Sink"]]
    return {
        "channel_id": published["channel_id"],
        "member_count": published["member_count"],
        "member_list": [_strip(m) for m in members],
        "src_count": len(sources),
        "src_list": sources,
        "sink_count": len(sinks),
        "sink_list": sinks,
    }


def as_v0(published: Mapping[str, Any]) -> Dict[str, Any]:
    """The chain's tail: v0.0 keeps only the member list."""
    return {
        "channel_id": published["channel_id"],
        "member_count": published["member_count"],
        "member_list": [_strip(m) for m in published["member_list"]],
    }


def as_narrow(published: Mapping[str, Any]) -> Dict[str, Any]:
    """The narrow reader keeps the two scalar fields."""
    return {
        "channel_id": published["channel_id"],
        "member_count": published["member_count"],
    }


READERS: Dict[str, Callable[[Mapping[str, Any]], Dict[str, Any]]] = {
    "v2": as_v2,
    "v1": as_v1,
    "v0": as_v0,
    "narrow": as_narrow,
}
