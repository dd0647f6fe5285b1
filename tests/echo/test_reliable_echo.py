"""End-to-end acceptance for the reliability subsystem (ISSUE 4).

A mixed-version ECho event chain runs over a lossy, jittery fabric:

* on :class:`~repro.net.reliable.ReliableEndpoint` transports every
  event arrives **exactly once**, in order, morphed down to each sink's
  revision;
* with the retry budget at zero the same fabric (same seed)
  demonstrably loses events — the A/B pair is what justifies the
  reliable layer's cost;
* a poison subscription (handler that always throws) is quarantined by
  the receiver's containment layer without disturbing healthy traffic
  on the same channel.
"""

from repro.net.link import LinkSpec
from repro.net.transport import Network
from repro.pbio.field import IOField
from repro.pbio.format import IOFormat
from repro.pbio.registry import FormatRegistry, TransformSpec

from repro.echo.process import EChoProcess

EVT_V0 = IOFormat("RelEvt", [IOField("n", "integer")], version="0.0")
EVT_V1 = IOFormat(
    "RelEvt",
    [IOField("n", "integer"), IOField("extra", "integer")],
    version="1.0",
)
EVT_V2 = IOFormat(
    "RelEvt",
    [IOField("n", "integer"), IOField("extra", "integer"),
     IOField("flag", "integer")],
    version="2.0",
)
V2_TO_V1 = TransformSpec(
    source=EVT_V2, target=EVT_V1,
    code="old.n = new.n;\nold.extra = new.extra;",
    description="RelEvt 2.0 -> 1.0",
)
V1_TO_V0 = TransformSpec(
    source=EVT_V1, target=EVT_V0,
    code="old.n = new.n;",
    description="RelEvt 1.0 -> 0.0",
)

POISON = IOFormat("PoisonEvt", [IOField("n", "integer")], version="1.0")

LOSS_RATE = 0.1
JITTER = 0.005


def run_chain(reliable_options=None, messages=40, net_seed=0):
    """V2 writer -> V1 + V0 sinks over a faulty fabric; returns what
    each sink's handler saw."""
    net = Network(
        seed=net_seed,
        default_link=LinkSpec(loss_rate=LOSS_RATE, jitter=JITTER),
    )
    registry = FormatRegistry()
    registry.register_transform(V2_TO_V1)
    registry.register_transform(V1_TO_V0)
    creator = EChoProcess(net, "creator", registry, version="2.0",
                          reliable_options=reliable_options)
    source = EChoProcess(net, "source", registry, version="2.0",
                         reliable_options=reliable_options)
    sink1 = EChoProcess(net, "sink1", registry, version="1.0",
                        reliable_options=reliable_options)
    sink0 = EChoProcess(net, "sink0", registry, version="0.0",
                        reliable_options=reliable_options)
    creator.create_channel("ch")
    source.open_channel("ch", "creator", as_source=True)
    sink1.open_channel("ch", "creator", as_sink=True)
    sink0.open_channel("ch", "creator", as_sink=True)
    net.run()

    got1, got0 = [], []
    sink1.subscribe("ch", EVT_V1, lambda r: got1.append(r["n"]))
    sink0.subscribe("ch", EVT_V0, lambda r: got0.append(r["n"]))
    for n in range(messages):
        source.submit("ch", EVT_V2, EVT_V2.make_record(n=n, extra=2 * n,
                                                       flag=1))
    net.run()
    return net, got1, got0, (creator, source, sink1, sink0)


class TestLossyChainAcceptance:
    def test_reliable_chain_is_exactly_once_and_in_order(self):
        net, got1, got0, _procs = run_chain()
        # exactly once, in submission order, morphed down per revision
        assert got1 == list(range(40))
        assert got0 == list(range(40))
        assert net.pending == 0
        assert net.handler_errors == 0

    def test_raw_chain_demonstrably_loses_events(self):
        # the control arm of the A/B experiment: the same fabric and
        # seed without retransmission drops traffic on the floor
        _net, got1, got0, _procs = run_chain(
            reliable_options={"max_retries": 0})
        lost1 = 40 - len(got1)
        lost0 = 40 - len(got0)
        assert lost1 + lost0 > 0, (
            "a 10% lossy fabric should defeat a zero retry budget"
        )
        # and nothing was duplicated, reordered or invented, just lost
        assert got1 == sorted(set(got1)) and set(got1) <= set(range(40))
        assert got0 == sorted(set(got0)) and set(got0) <= set(range(40))

    def test_reliable_chain_paid_with_retries(self):
        _net, _got1, _got0, procs = run_chain()
        # sanity: the loss rate actually bit; delivery was not luck
        assert sum(proc.reliable.retries for proc in procs) > 0
        # and every endpoint's ledger balances after quiesce
        for proc in procs:
            counters = proc.reliable.counters()
            assert counters["sent"] == counters["acked"]
            assert counters["failed"] == counters["rejected"] == 0
            assert proc.reliable.in_flight == 0


class TestPoisonQuarantine:
    def test_poison_handler_is_quarantined_healthy_traffic_flows(self):
        net = Network(seed=3, default_link=LinkSpec(latency=0.001))
        registry = FormatRegistry()
        creator = EChoProcess(net, "creator", registry, version="1.0")
        source = EChoProcess(net, "source", registry, version="1.0")
        sink = EChoProcess(net, "sink", registry, version="1.0")
        creator.create_channel("ch")
        source.open_channel("ch", "creator", as_source=True)
        sink.open_channel("ch", "creator", as_sink=True)
        net.run()

        healthy = []

        def poison_handler(record):
            raise RuntimeError("poison pill")

        sink.subscribe("ch", EVT_V1, lambda r: healthy.append(r["n"]))
        sink.subscribe("ch", POISON, poison_handler)
        for n in range(10):
            source.submit("ch", EVT_V1,
                          EVT_V1.make_record(n=n, extra=0))
            source.submit("ch", POISON, POISON.make_record(n=n))
        net.run()

        receiver = sink.event_receiver("ch")
        # the poison format was quarantined after the threshold...
        assert POISON.format_id in receiver.quarantined_formats
        assert receiver.containment["quarantined_formats"] == 1
        assert receiver.containment["quarantine_drops"] > 0
        # ...its failures are parked for forensics, stage attributed
        assert all(l.stage == "dispatch" for l in receiver.dead_letters)
        # ...and healthy traffic on the same channel never noticed
        assert healthy == list(range(10))
        # nothing escaped into the transport layer
        assert net.handler_errors == 0


class TestDeadLettersCount:
    def test_handler_faults_count_in_errors_and_last_error(self):
        """A contained receiver's dead letters are the process's errors:
        two handler faults read ``errors == 2`` and the second fault as
        ``last_error``."""
        net = Network(seed=4, default_link=LinkSpec(latency=0.001))
        registry = FormatRegistry()
        # the keywords benchmarks/e2e passes, which now name the default
        creator = EChoProcess(net, "creator", registry, version="1.0",
                              reliable=True)
        source = EChoProcess(net, "source", registry, version="1.0",
                             reliable=True)
        sink = EChoProcess(net, "sink", registry, version="1.0",
                           reliable=True, contain_failures=True)
        creator.create_channel("ch")
        source.open_channel("ch", "creator", as_source=True)
        sink.open_channel("ch", "creator", as_sink=True)
        net.run()

        healthy, raised = [], []

        def handler(record):
            if record["n"] % 2:
                raised.append(RuntimeError(f"fault {record['n']}"))
                raise raised[-1]
            healthy.append(record["n"])

        sink.subscribe("ch", EVT_V1, handler)
        for n in range(4):
            source.submit("ch", EVT_V1, EVT_V1.make_record(n=n, extra=0))
        net.run()

        assert healthy == [0, 2] and len(raised) == 2
        assert sink.errors == 2
        assert sink.last_error is raised[-1]
        dead = sink.event_receiver("ch").dead_letters
        assert [letter.stage for letter in dead] == ["dispatch"] * 2
        assert net.handler_errors == 0
