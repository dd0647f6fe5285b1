#!/usr/bin/env python3
"""Out-of-band meta-data as a real protocol — the format server.

PBIO's efficiency comes from keeping meta-data OFF the wire: messages
carry an 8-byte format id, and descriptions live in a format server.
This example runs that flow end to end on the simulated network:

1. a writer publishes its formats + retro-transformations to the server,
2. the writer then emits events to a reader that has never heard of the
   event's format (its registry holds the ECho control formats only),
3. the reader parks the unknown events, fetches the meta-data (one
   refresh round trip for all of them), morphs v2 -> v1 with the fetched
   ECode, and delivers the parked events,
4. a registry snapshot is saved to JSON and reloaded, showing the same
   meta-data also working for components separated in *time*.

Run:  python examples/format_service.py
"""

from repro.echo import EChoProcess
from repro.morph import MorphReceiver
from repro.net import Network
from repro.pbio import IOField, IOFormat, PBIOContext, TransformSpec
from repro.pbio.serialization import dump_registry, load_registry
from repro.pbio.server import FormatServer

READING_V1 = IOFormat(
    "Reading",
    [IOField("celsius", "float"), IOField("station", "string")],
    version="1",
)
READING_V2 = IOFormat(
    "Reading",
    [
        IOField("kelvin", "float"),
        IOField("station", "string"),
        IOField("sensor_id", "integer"),
    ],
    version="2",
)
V2_TO_V1 = TransformSpec(
    READING_V2,
    READING_V1,
    "old.celsius = new.kelvin - 273.15; old.station = new.station;",
    description="Reading v2 -> v1 (drop sensor id, Kelvin -> Celsius)",
)

net = Network()
server = FormatServer(net)  # listens at "format-server"

# --- the writer publishes its meta-data, then sends events -----------------

writer = EChoProcess(net, "writer", format_servers=["format-server"])
writer.registry.register_transform(V2_TO_V1)
writer.resolver.publish()

reader = EChoProcess(net, "reader", format_servers=["format-server"])
writer.create_channel("readings")
reader.open_channel("readings", "writer", as_sink=True)
net.run()
assert reader.registry.lookup_id(READING_V2.format_id) is None  # never seen

received = []
reader.subscribe("readings", READING_V1, received.append)

reading = READING_V2.make_record(kelvin=300.0, station="atlanta-1", sensor_id=17)
wire = PBIOContext(writer.registry).encode(READING_V2, reading)
print(f"wire message: {len(wire)} bytes (meta-data NOT included — "
      "only the 8-byte format id)")

lookups_before = server.stats["lookups"]
for _ in range(4):  # events race ahead of meta-data
    writer.submit("readings", READING_V2, reading)
net.run()

fetches = server.stats["lookups"] - lookups_before
print(f"reader parked {reader.parked} events and delivered "
      f"{len(received)} records after {fetches} meta-data fetch(es)")
print(f"  first record: {received[0].station} at {received[0].celsius:.2f} C")
assert len(received) == 4
assert reader.parked == 4 and reader.unresolved == 0
assert fetches == 1  # parked + coalesced into one refresh
assert abs(received[0].celsius - 26.85) < 1e-9  # the fetched ECode ran

# --- the same meta-data, separated in time ---------------------------------

snapshot = dump_registry(writer.registry)
print(f"\nregistry snapshot: {len(snapshot)} bytes of JSON")
# ... imagine this sitting in an archive next to recorded wire traffic ...
revived = load_registry(snapshot)
archival_reader = MorphReceiver(revived)
archive = []
archival_reader.register_handler(READING_V1, archive.append)
archival_reader.process(wire)
assert archive[0] == received[0]
print("an archival reader revived the snapshot and decoded the same bytes.")
print("\nOK: meta-data flowed out-of-band over the network AND across time.")
