#!/usr/bin/env python3
"""Derived event channels — ECode as a source-side event filter.

E-Code's original job in ECho was filtering: a *derived* channel is a
sub-channel whose events are the parent's events passing a filter
function.  The filter travels as ECode source in the channel meta-data,
is dynamically compiled at every event SOURCE, and events that fail it
never touch the wire — the bandwidth win that motivated running mobile
code in the middleware in the first place.

This example builds a telemetry channel, derives an alert channel
(`load > 80`), and shows:

* per-source dynamic compilation of the filter,
* bandwidth saved (filtered events produce zero network messages),
* a late-joining source picking the filter up automatically.

Run:  python examples/derived_channels.py
"""

from repro.echo import EChoProcess
from repro.net import Network
from repro.pbio import FormatRegistry, IOField, IOFormat

TELEMETRY = IOFormat(
    "Telemetry",
    [IOField("t", "float"), IOField("host", "string"), IOField("load", "integer")],
    version="1.0",
)

net = Network()
registry = FormatRegistry()

creator = EChoProcess(net, "creator", registry)
source = EChoProcess(net, "source", registry)
dashboard = EChoProcess(net, "dashboard", registry)   # wants everything
pager = EChoProcess(net, "pager", registry)           # wants only alerts

creator.create_channel("telemetry")
source.open_channel("telemetry", "creator", as_source=True)
dashboard.open_channel("telemetry", "creator", as_sink=True)
net.run()

# derive the alert channel; the filter is plain ECode text
creator.create_derived_channel(
    "telemetry", "telemetry.alerts", "return input.load > 80;"
)
pager.open_channel("telemetry.alerts", "creator", as_sink=True)
net.run()

print("filter compiled at the source:",
      source.channel("telemetry.alerts").filter_proc is not None)

all_events, alerts = [], []
dashboard.subscribe("telemetry", TELEMETRY, all_events.append)
pager.subscribe("telemetry.alerts", TELEMETRY, alerts.append)

loads = [35, 92, 60, 99, 81, 12, 77]
# data frames the source sends (each is acked; the acks carry no event)
baseline = source.reliable.sent
for step, load in enumerate(loads):
    source.submit(
        "telemetry",
        TELEMETRY,
        TELEMETRY.make_record(t=float(step), host="node-4", load=load),
    )
net.run()

sent = source.reliable.sent - baseline
print(f"\nsubmitted {len(loads)} events -> {sent} data frames "
      f"({len(loads)} to the dashboard + {len(alerts)} alerts)")
print(f"dashboard saw loads: {[e.load for e in all_events]}")
print(f"pager saw loads    : {[e.load for e in alerts]}")
print(f"events filtered at the source, never sent: {source.filtered_out}")

assert [e.load for e in alerts] == [92, 99, 81]
assert source.filtered_out == 4
assert sent == len(loads) + len(alerts)

# a second source joins later and learns the filter automatically
late = EChoProcess(net, "late-source", registry)
late.open_channel("telemetry", "creator", as_source=True)
net.run()
late.submit("telemetry", TELEMETRY,
            TELEMETRY.make_record(t=99.0, host="node-9", load=95))
net.run()
assert [e.load for e in alerts] == [92, 99, 81, 95]
print("\na late-joining source picked the filter up automatically.")
print("OK: mobile ECode filters keep low-value events off the wire.")
