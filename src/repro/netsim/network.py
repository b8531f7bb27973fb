"""The simulated network: address routing, RTT accounting, capture.

Servers register under string addresses ("192.0.2.1"-style or symbolic).
A client calls :meth:`Network.query`; the network encodes the query to
wire form (accounting its size), hands it to the destination server's
``handle`` method, encodes the response, advances the shared clock by
one sampled round-trip time, and records both packets in the capture.
"""

from __future__ import annotations

import weakref
from typing import Dict, Optional, Protocol, Union

from ..dnscore import Message, decode_message, encode_message
from .capture import Capture, PacketRecord
from .clock import SimClock
from .faults import FaultPlan
from .latency import LatencyModel
from .sched import Priority


class DnsServer(Protocol):
    """Anything that can answer a DNS message."""

    def handle(self, query: Message) -> Message:  # pragma: no cover - protocol
        ...


class NetworkError(RuntimeError):
    """Raised when a destination address has no registered server."""


class QueryTimeout(NetworkError):
    """Raised when a query or its response is lost in flight."""


class Network:
    """Routes messages between simulated hosts."""

    def __init__(
        self,
        clock: Optional[SimClock] = None,
        latency: Optional[LatencyModel] = None,
        capture: Optional[Capture] = None,
        verify_wire_roundtrip: bool = False,
        loss_rate: float = 0.0,
        loss_seed: int = 0x105E,
        loss_timeout: float = 1.0,
        faults: Optional[FaultPlan] = None,
        tracer=None,
        metrics=None,
    ):
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss rate must be in [0, 1)")
        self.clock = clock or SimClock()
        #: Optional telemetry sinks (duck-typed, ``None``-guarded; see
        #: :mod:`repro.core.tracing`).  Mutable so a tracer can be
        #: attached after construction (``Universe.attach_telemetry``);
        #: sharing one tracer with the resolver makes fault events nest
        #: under the exchange span that suffered them.
        self.tracer = tracer
        self.metrics = metrics
        self.latency = latency or LatencyModel()
        self.capture = capture or Capture()
        self._servers: Dict[str, Union[DnsServer, weakref.ref]] = {}
        #: When set, every message is decoded back from its wire form and
        #: the decoded message is what gets delivered — a continuous codec
        #: self-check.  Off by default for speed.
        self._verify_wire_roundtrip = verify_wire_roundtrip
        #: All loss, outage, brownout, and tampering behaviour lives in
        #: the fault plan; the legacy ``loss_rate``/``loss_seed`` pair
        #: configures the plan's uniform default loss.
        self.faults = faults if faults is not None else FaultPlan(
            seed=loss_seed, default_loss_rate=loss_rate
        )
        self.loss_timeout = loss_timeout

    @property
    def loss_rate(self) -> float:
        """Network-wide default loss probability (per exchange, one
        packet, direction chosen uniformly — see :class:`FaultPlan`)."""
        return self.faults.default_loss_rate

    @loss_rate.setter
    def loss_rate(self, rate: float) -> None:
        self.faults.default_loss_rate = rate

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------

    def register(
        self, address: str, server: Union[DnsServer, weakref.ref]
    ) -> None:
        """Put *server* at *address*.  A weak reference to a server
        routes to it without owning it: a server that holds this
        network (a resolver) stays out of a reference cycle with it,
        and its address answers for as long as something else holds
        the server."""
        if address in self._servers:
            raise ValueError(f"address {address} already registered")
        self._servers[address] = server

    def replace(self, address: str, server: DnsServer) -> DnsServer:
        """Swap the server behind an address (e.g. to interpose an
        attacker proxy or simulate an outage).  Returns the old server."""
        old = self.server_at(address)
        self._servers[address] = server
        return old

    def server_at(self, address: str) -> DnsServer:
        server = self._servers.get(address)
        if type(server) is weakref.ref:
            server = server()
        if server is None:
            raise NetworkError(f"no server at {address}")
        return server

    def addresses(self):
        return tuple(self._servers)

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------

    def query(self, src: str, dst: str, message: Message) -> Message:
        """Send *message* from *src* to *dst* and return the response.

        Advances the clock by one sampled RTT and logs both directions to
        the capture with their uncompressed wire sizes.  Consults the
        fault plan for scripted outages, loss, brownouts, and tampering.

        Timeout accounting lives here and only here: every lost exchange
        (dropped query, dropped response, black-holed outage) costs the
        sender exactly ``loss_timeout`` measured from the send time —
        callers add only their own retry backoff on top.
        """
        server = self.server_at(dst)
        if self._verify_wire_roundtrip:
            query_wire = encode_message(message)
            message = decode_message(query_wire)
            query_size = len(query_wire)
        else:
            # wire_size() computes the exact encoded length arithmetically;
            # the equivalence is enforced by a property test on the codec.
            query_size = message.wire_size()
        send_time = self.clock.now
        tracer = self.tracer
        metrics = self.metrics
        if metrics is not None:
            metrics.inc("net.exchanges")
        outage = self.faults.active_outage(dst, send_time)
        if outage is not None and outage.rcode is None:
            # Black hole: the query leaves the sender but never arrives.
            self.capture.record(
                PacketRecord(
                    time=send_time,
                    src=src,
                    dst=dst,
                    message=message,
                    wire_size=query_size,
                    dropped=True,
                )
            )
            if tracer is not None:
                tracer.event("fault", kind="outage_blackhole", server=dst)
            self.clock.advance(self.loss_timeout, priority=Priority.TIMEOUT)
            raise QueryTimeout(f"query to {dst} lost (outage)")
        lose_query, lose_response = self.faults.roll_loss(dst)
        self.capture.record(
            PacketRecord(
                time=send_time,
                src=src,
                dst=dst,
                message=message,
                wire_size=query_size,
                dropped=lose_query,
            )
        )
        if lose_query:
            if tracer is not None:
                tracer.event("fault", kind="loss", direction="query",
                             server=dst)
            self.clock.advance(self.loss_timeout, priority=Priority.TIMEOUT)
            raise QueryTimeout(f"query to {dst} lost")
        if outage is not None:
            # The host is reachable but the service is broken: every
            # query earns the scripted error (the DLV registry outage
            # mode of paper Section 8.4).
            if tracer is not None:
                tracer.event("fault", kind="outage_rcode", server=dst,
                             rcode=outage.rcode.name)
            response = message.make_response(rcode=outage.rcode)
        else:
            response = server.handle(message)
        delivered = self.faults.tamper_response(dst, response)
        if delivered is not response:
            if tracer is not None:
                tracer.event("fault", kind="tamper", server=dst)
            if metrics is not None:
                metrics.inc("faults.responses_tampered")
        response = delivered
        if self._verify_wire_roundtrip:
            response_wire = encode_message(response)
            response = decode_message(response_wire)
            response_size = len(response_wire)
        else:
            response_size = response.wire_size()
        brownout_extra = self.faults.extra_latency(dst, send_time)
        if brownout_extra > 0 and tracer is not None:
            tracer.event("fault", kind="brownout", server=dst,
                         extra=brownout_extra)
        # A delivery outranks a same-instant timeout (Priority.DELIVERY):
        # under the event scheduler, a response landing exactly when
        # another session's loss timer fires is answered first.
        rtt = self.latency.sample(dst) + brownout_extra
        arrival = self.clock.advance(rtt, priority=Priority.DELIVERY)
        if metrics is not None:
            metrics.observe("net.rtt", rtt)
            metrics.inc("net.bytes", query_size + response_size)
        self.capture.record(
            PacketRecord(
                time=arrival,
                src=dst,
                dst=src,
                message=response,
                wire_size=response_size,
                dropped=lose_response,
            )
        )
        if lose_response:
            if tracer is not None:
                tracer.event("fault", kind="loss", direction="response",
                             server=dst)
            # The sender's timer started at send time; the RTT already
            # elapsed counts toward its timeout (fixing the historical
            # rtt + full-timeout double penalty).
            self.clock.advance(max(0.0, self.loss_timeout - rtt),
                               priority=Priority.TIMEOUT)
            raise QueryTimeout(f"response from {dst} lost")
        return response
