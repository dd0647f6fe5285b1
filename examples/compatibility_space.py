#!/usr/bin/env python3
"""Compatibility space — how morphing widens what a receiver accepts.

Section 3.1 of the paper defines a receiver's *compatibility space* as
the set of message formats it can successfully interoperate with.  This
example builds five revisions of a ``JobStatus`` message (the kind of
drift a long-running cluster accumulates) and shows the space of a
v1-only consumer under three regimes:

1. strict binary matching (perfect matches only),
2. structural reconciliation (MaxMatch with default thresholds:
   default-fill + field-drop),
3. full morphing (writer-supplied ECode transformations, chained).

It also prints the diff / Mismatch-Ratio matrix that MaxMatch reasons
over, and demonstrates the threshold knobs.

Run:  python examples/compatibility_space.py
"""

from repro import FormatRegistry, IOField, IOFormat, MorphReceiver, PBIOContext
from repro.morph import diff, mismatch_ratio

# --- five revisions of one message ------------------------------------------

V1 = IOFormat("JobStatus", [
    IOField("job_id", "string"),
    IOField("running", "boolean"),
    IOField("exit_code", "integer"),
], version="1")

# v2 adds an optional field: still structurally reconcilable with v1
V2 = IOFormat("JobStatus", [
    IOField("job_id", "string"),
    IOField("running", "boolean"),
    IOField("exit_code", "integer"),
    IOField("hostname", "string"),
], version="2")

# v3 restructures: state becomes an enum -- needs a real transformation
V3 = IOFormat("JobStatus", [
    IOField("job_id", "string"),
    IOField("state", "enumeration"),  # 0 queued, 1 running, 2 done
    IOField("exit_code", "integer"),
    IOField("hostname", "string"),
], version="3")

# v4 nests host info -- further from v1 still
V4 = IOFormat("JobStatus", [
    IOField("job_id", "string"),
    IOField("state", "enumeration"),
    IOField("exit_code", "integer"),
    IOField("host", "complex", subformat=IOFormat("HostInfo", [
        IOField("hostname", "string"),
        IOField("rack", "integer"),
    ], version="3")),
], version="4")

# v5 is a different message altogether (same name, alien structure)
V5 = IOFormat("JobStatus", [
    IOField("blob", "string"),
    IOField("checksum", "unsigned", 8),
], version="5")

REVISIONS = [V1, V2, V3, V4, V5]

print("diff / Mr matrix (rows = incoming, cols = receiver's v1):")
print(f"  {'rev':>4} {'diff(f,v1)':>11} {'diff(v1,f)':>11} {'Mr(f,v1)':>9}")
for fmt in REVISIONS:
    print(f"  v{fmt.version:>3} {diff(fmt, V1):>11g} {diff(V1, fmt):>11g} "
          f"{mismatch_ratio(fmt, V1):>9.2f}")

# --- the writers attach transformations (v3->v2->... retro chain) -----------

registry = FormatRegistry()
for fmt in REVISIONS:
    registry.register(fmt)
registry.add_transform(V3, V2, """
    old.job_id = new.job_id;
    old.running = 0;
    if (new.state == 1) { old.running = 1; }
    old.exit_code = new.exit_code;
    old.hostname = new.hostname;
""")
registry.add_transform(V4, V3, """
    old.job_id = new.job_id;
    old.state = new.state;
    old.exit_code = new.exit_code;
    old.hostname = new.host.hostname;
""")


def space(receiver):
    return sorted(
        f"v{fmt.version}" for fmt in receiver.compatibility_space()
        if fmt.name == "JobStatus"
    )


strict = MorphReceiver(registry, diff_threshold=0, mismatch_threshold=0.0)
strict.register_handler(V1, lambda rec: rec)

# no transforms visible, and a tight Mismatch-Ratio budget: the receiver
# only accepts messages that can fill >= 75% of its fields (DIFF/MISMATCH
# thresholds are the paper's system-tuning knobs)
structural = MorphReceiver(FormatRegistry(), mismatch_threshold=0.25)
for fmt in REVISIONS:
    structural.registry.register(fmt)
structural.register_handler(V1, lambda rec: rec)

# same tight budget, but the transforms are visible: v3/v4 reach v1
# exactly (Mr = 0) through the chain, so the budget never bites
morphing = MorphReceiver(registry, mismatch_threshold=0.25)
morphing.register_handler(V1, lambda rec: rec)

print("\ncompatibility space of a v1-only consumer (Mr budget 0.25):")
print(f"  strict binary matching : {space(strict)}")
print(f"  structural reconcile   : {space(structural)}")
print(f"  full message morphing  : {space(morphing)}")

assert space(strict) == ["v1"]
assert space(structural) == ["v1", "v2"]
assert space(morphing) == ["v1", "v2", "v3", "v4"]  # v5 stays alien

# with a loose budget, structural matching would also admit v3/v4 -- but
# lossily (their 'running' flag would be silently defaulted); morphing
# admits them with the semantics intact
loose = MorphReceiver(structural.registry)
loose.register_handler(V1, lambda rec: rec)
print(f"  structural, loose Mr   : {space(loose)}  (lossy default-fill!)")

# --- watch one v4 message actually arrive ------------------------------------

sender = PBIOContext(registry)
wire = sender.encode(V4, V4.make_record(
    job_id="job-42", state=1, exit_code=0,
    host={"hostname": "rack7-node3", "rack": 7},
))
delivered = morphing.process(wire)
print(f"\nv4 message delivered to the v1 handler as: {dict(delivered)}")
assert delivered["running"] is True or delivered["running"] == 1

route = morphing.route_for(V4)
print(f"route: {len(route.chain)} transform hop(s), "
      f"then reconcile = {route.coercion is not None}")
print("\nOK: morphing turned 1 acceptable revision into 4 "
      "(and correctly refused the alien v5).")
