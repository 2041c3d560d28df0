"""Simulated network substrate.

Models what the paper's testbed provided physically: hosts with CPUs and
NICs, a switched 1 GbE network, and UDP datagram service — including UDP's
failure mode (silent packet loss) that section 2.4 of the paper shows
interacts badly with the "all requests are big" optimization.

The fabric writes every datagram onto the ``net`` track of the
:mod:`repro.obs` tracer; :mod:`repro.obs.report` turns that common-clock
message log into the paper's section 2.2 summaries.
"""

from repro.net.fabric import (
    Address,
    DatagramSocket,
    DropRule,
    Host,
    LinkSpec,
    NetworkConfig,
    NetworkFabric,
    Packet,
)

__all__ = [
    "Address",
    "DatagramSocket",
    "DropRule",
    "Host",
    "LinkSpec",
    "NetworkConfig",
    "NetworkFabric",
    "Packet",
]
