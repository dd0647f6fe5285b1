"""A fixed pure-stdlib loop that says how fast the host is right now.

It imports nothing from the program, so no change to the program can move
it: it moves only when the host does.  The host this benchmark was born
on slows down by up to 40% for a fraction of a second to several seconds
at a time, and stays slow or fast for whole runs; the driver therefore
times this loop between every quarter-second slice of work and states
each slice's result at the reference speed.

The loop is shaped like the program's work — nested dict records packed
with ``struct`` into bytes, unpacked again, pushed through a heap, over a
pool of a few megabytes — because a loop that fits in the first-level
cache did not slow down as much as the program did when a neighbour took
the shared cache.
"""

from __future__ import annotations

import heapq
import struct
import time
from typing import Any, Dict, List

#: one pass on the host that added the benchmark, at its steady best
REFERENCE_S = 0.0027

_HEADER = struct.Struct("<IHH")
_MEMBER = struct.Struct("<IBB")


def _pack(record: Dict[str, Any]) -> bytes:
    channel = record["channel"].encode()
    parts = [_HEADER.pack(record["count"], len(channel), 0), channel]
    for member in record["members"]:
        info = member["info"].encode()
        parts.append(_MEMBER.pack(member["ID"], member["source"],
                                  member["sink"]))
        parts.append(bytes([len(info)]))
        parts.append(info)
    return b"".join(parts)


def _unpack(data: bytes) -> Dict[str, Any]:
    count, length, _flags = _HEADER.unpack_from(data, 0)
    offset = _HEADER.size
    channel = data[offset:offset + length].decode()
    offset += length
    members = []
    for _ in range(count):
        ident, source, sink = _MEMBER.unpack_from(data, offset)
        offset += _MEMBER.size
        length = data[offset]
        info = data[offset + 1:offset + 1 + length].decode()
        offset += 1 + length
        members.append({"info": info, "ID": ident, "source": bool(source),
                        "sink": bool(sink)})
    return {"channel": channel, "count": count, "members": members}


class Yardstick:
    """Owns the pool the loop walks; each pass takes the next stretch of
    it, so the whole pool stays in play."""

    def __init__(self) -> None:
        self.pool: List[Dict[str, Any]] = [
            {
                "channel": f"ch-{i:06d}",
                "count": 8,
                "members": [
                    {"info": f"host-{i * 8 + j:06d}.example.org:9000",
                     "ID": i * 8 + j, "source": j % 3 != 2,
                     "sink": j % 2 == 0}
                    for j in range(8)
                ],
            }
            for i in range(3000)
        ]
        self.position = 0

    def once(self) -> float:
        """Seconds one pass takes."""
        pool = self.pool
        heap: List[Any] = []
        started = time.perf_counter()
        for i in range(300):
            record = _unpack(_pack(pool[(self.position + i * 37) % len(pool)]))
            heapq.heappush(heap, (record["members"][0]["ID"], i))
            if not i & 3:
                heapq.heappop(heap)
        self.position += 300 * 37
        return time.perf_counter() - started


def speed(*passes: float) -> float:
    """``host_speed_index`` over *passes*: 1.0 is the reference host,
    0.7 a host that takes 1/0.7 times as long."""
    return REFERENCE_S * len(passes) / sum(passes)
