"""One endpoint configuration: every ECho and fabric endpoint runs on a
:class:`~repro.net.reliable.ReliableEndpoint` and feeds only contained
receivers; ``reliable=`` and ``contain_failures=``, where a signature
still takes them, accept only ``True``.
"""

import inspect

import pytest

from repro.echo.process import EChoProcess
from repro.fabric import EventFabric
from repro.fabric.client import FabricClient
from repro.fabric.worker import FabricWorker
from repro.net.reliable import ReliableEndpoint
from repro.net.transport import Network
from repro.pbio.registry import FormatRegistry


@pytest.mark.parametrize("cls", [FabricClient, FabricWorker])
def test_fabric_endpoints_take_no_reliable_parameter(cls):
    assert "reliable" not in inspect.signature(cls).parameters


@pytest.mark.parametrize("build, mode", [
    (lambda net: EChoProcess(net, "p", FormatRegistry(), reliable=False),
     "raw transport"),
    (lambda net: EChoProcess(net, "p", FormatRegistry(),
                             contain_failures=False),
     "uncontained receive"),
    (lambda net: EventFabric(net, registry=FormatRegistry(), reliable=False),
     "raw transport"),
], ids=["echo-reliable", "echo-contain_failures", "fabric-reliable"])
def test_a_removed_mode_is_a_type_error_naming_it(build, mode):
    with pytest.raises(TypeError, match=mode):
        build(Network())


def test_every_endpoint_is_reliable_and_every_echo_receiver_contained():
    net = Network()
    registry = FormatRegistry()
    fabric = EventFabric(net, registry=registry)
    echo = EChoProcess(net, "echo", registry)
    endpoints = [fabric.add_worker("w0"), fabric.client("c0"), echo]
    for endpoint in endpoints:
        assert isinstance(endpoint.reliable, ReliableEndpoint)
        assert endpoint.reliable.node is endpoint.node
    echo.create_channel("a")
    echo.create_channel("b")
    receivers = [echo.control, echo.event_receiver("a"),
                 echo.event_receiver("b")]
    assert all(receiver.contain_failures for receiver in receivers)
