"""Byte-transfer layer: home-node relay, direct with home fallback, and auto.

All three transports share one frame format and resolve a whole message
atomically against the current cluster state; the returned
:class:`DeliveryReport` carries the hop count, latency, and which nodes only
carried the payload.

Direct sends resolve against the sender node's bulletin and fall back to the
receiver's home node, which always knows the true location:

* hit (entry correct)      -> one DATA hop (shared memory if co-resident)
* miss (no entry)          -> DATA to the home, which forwards it and sends a
                              location reply back; the sender's bulletin is
                              refreshed
* stale (entry wrong)      -> the wrongly-addressed node bounces the frame
                              with NACK_UNKNOWN; the sender invalidates the
                              entry and retries through the home

The per-hop mechanics live in :meth:`Router.handle_incoming`, which the send
loop drives frame by frame, so protocol traces match the hop accounting
exactly.  A location request rides on a DATA frame as its `loc_req` flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Optional

from .cluster import ClusterState, GPid, NodeId, relay_legs
from .errors import MessageTooLargeError
from .simcore import EventQueue, LatencyModel, Metrics, TransportKind, relay_latency

DEFAULT_RELAY_MAX = 2 ** 30
DEFAULT_DIRECT_MAX = 2 ** 31
DEFAULT_CONTROL_SIZE = 64


class FrameKind(Enum):
    DATA = "DATA"
    LOC_REPLY = "LOC_REPLY"
    NACK_UNKNOWN = "NACK_UNKNOWN"


class Outcome(Enum):
    DELIVERED = "delivered"


@dataclass
class Frame:
    """One protocol message.  `path` accumulates the nodes it touches
    (origin first, next hop last); `info` carries (pid, node) payloads for
    LOC_REPLY (true location) and NACK_UNKNOWN (the stale claim)."""
    kind: FrameKind
    src: GPid
    dst: GPid
    size: int
    path: list[NodeId]
    loc_req: bool = False
    info: Optional[tuple[GPid, NodeId]] = None


@dataclass(frozen=True)
class TransportConfig:
    relay_max: int = DEFAULT_RELAY_MAX
    direct_max: int = DEFAULT_DIRECT_MAX       # 2x the relay cap by default
    control_size: int = DEFAULT_CONTROL_SIZE   # fixed size of control frames


@dataclass(frozen=True)
class DeliveryReport:
    outcome: Outcome
    transport: TransportKind           # mechanism actually used
    network_hops: int                  # DATA link traversals, wasted ones included
    latency: float                     # send start to payload arrival
    frames_emitted: int                # all link traversals, control frames included
    relayed_by: tuple[NodeId, ...]     # nodes that carried but did not terminate the payload


@dataclass
class HandleResult:
    delivered: bool
    emitted: list[Frame] = field(default_factory=list)


class Router:
    """Dispatches sends over one cluster, charging latency and metrics."""

    def __init__(self, cluster: ClusterState, model: LatencyModel,
                 metrics: Optional[Metrics] = None,
                 clock: Optional[EventQueue] = None,
                 config: TransportConfig = TransportConfig(),
                 trace: Optional[list] = None):
        self.cluster = cluster
        self.model = model
        self.metrics = metrics if metrics is not None else Metrics()
        self.clock = clock
        self.config = config
        self.trace = trace

    @property
    def now(self) -> float:
        return self.clock.now if self.clock is not None else 0.0

    def send(self, kind: TransportKind, src: GPid, dst: GPid, size: int) -> DeliveryReport:
        if kind is TransportKind.RELAY:
            return self.send_relay(src, dst, size)
        if kind is TransportKind.DIRECT:
            return self.send_direct(src, dst, size)
        return self.send_auto(src, dst, size)

    # -- relay ------------------------------------------------------------

    def send_relay(self, src: GPid, dst: GPid, size: int) -> DeliveryReport:
        """Baseline: the payload transits both endpoints' home nodes.  The
        legs come from :func:`relay_legs` and are priced by
        :func:`relay_latency`, as in auto's relay estimate."""
        sender = self.cluster.residency(src)
        receiver = self.cluster.residency(dst)
        if size > self.config.relay_max:
            raise MessageTooLargeError(f"{size} > relay cap {self.config.relay_max}")
        legs = relay_legs(sender, src.home, dst.home, receiver)
        latency = relay_latency(legs, size, self.model)
        self.metrics.sample(TransportKind.RELAY.value, size, latency)
        if not legs:
            self.metrics.deliver(sender, size)
            return DeliveryReport(Outcome.DELIVERED, TransportKind.RELAY,
                                  0, latency, 0, ())
        path = [sender] + [to for _, to, _ in legs]
        frame = Frame(FrameKind.DATA, src, dst, size, path)
        for frm, to, _ in legs:
            self._carry(frame, frm, to)
        for node in path[1:-1]:
            self.metrics.relay(node, size)
        self.metrics.deliver(receiver, size)
        return DeliveryReport(Outcome.DELIVERED, TransportKind.RELAY,
                              len(legs), latency, len(legs), tuple(path[1:-1]))

    # -- direct -----------------------------------------------------------

    def send_direct(self, src: GPid, dst: GPid, size: int) -> DeliveryReport:
        """Node-to-node send using the sender's bulletin, home fallback on
        miss or stale entries.  At most three DATA link traversals."""
        sender = self.cluster.residency(src)
        target, via_home = self._first_target(sender, dst)
        if size > self.config.direct_max:
            raise MessageTooLargeError(f"{size} > direct cap {self.config.direct_max}")

        if target == sender and not via_home:
            # the hosting node sees its own residents; no lookup, no network
            latency = self.model.shared_memory(size) + self.model.direct_overhead
            self.metrics.deliver(sender, size)
            self.metrics.sample(TransportKind.DIRECT.value, size, latency)
            return DeliveryReport(Outcome.DELIVERED, TransportKind.DIRECT,
                                  0, latency, 0, ())

        if via_home:
            # an entry claiming dst is local is stale, detected for free
            self.cluster.bulletins[sender].invalidate_location(dst)
        first = Frame(FrameKind.DATA, src, dst, size, [sender, target], loc_req=via_home)

        data_hops = frames = 0
        relayed: list[NodeId] = []
        delivery_time = None
        pending: list[tuple[float, Frame]] = [(0.0, first)]
        while pending:
            emit_time, frame = pending.pop(0)
            frm, to = frame.path[-2], frame.path[-1]
            arrived = emit_time
            if frm != to:   # a collapsed leg is free
                self._carry(frame, frm, to)
                arrived += self.model.net_hop(frame.size)
                frames += 1
                if frame.kind is FrameKind.DATA:
                    data_hops += 1
            result = self.handle_incoming(to, frame)
            if result.delivered:
                delivery_time = arrived
            for emitted in result.emitted:
                if emitted.kind is FrameKind.DATA:
                    relayed.append(to)
                pending.append((arrived, emitted))
            if frame.kind is FrameKind.NACK_UNKNOWN and to == sender:
                # fall back through the home, location request piggybacked
                pending.append((arrived, replace(first, path=[sender, dst.home], loc_req=True)))

        assert delivery_time is not None, "direct send must terminate with a delivery"
        latency = delivery_time + self.model.direct_overhead
        self.metrics.sample(TransportKind.DIRECT.value, size, latency)
        return DeliveryReport(Outcome.DELIVERED, TransportKind.DIRECT,
                              data_hops, latency, frames, tuple(relayed))

    # -- auto -------------------------------------------------------------

    def send_auto(self, src: GPid, dst: GPid, size: int) -> DeliveryReport:
        """Pick the transport the sender expects to be cheaper, judged from
        its local knowledge only; ties go to relay."""
        self.cluster.residency(src)
        self.cluster.residency(dst)
        if size > self.config.relay_max and size > self.config.direct_max:
            raise MessageTooLargeError(
                f"{size} exceeds both caps ({self.config.relay_max}, {self.config.direct_max})")
        est_relay = self._estimate_relay(src, dst, size)
        est_direct = self._estimate_direct(src, dst, size)
        first = TransportKind.DIRECT if est_direct < est_relay else TransportKind.RELAY
        try:
            return self.send(first, src, dst, size)
        except MessageTooLargeError:
            other = (TransportKind.RELAY if first is TransportKind.DIRECT
                     else TransportKind.DIRECT)
            return self.send(other, src, dst, size)

    def _estimate_relay(self, src: GPid, dst: GPid, size: int) -> float:
        if size > self.config.relay_max:
            return math.inf
        sender = self.cluster.residency(src)
        target, _ = self._first_target(sender, dst)
        return relay_latency(relay_legs(sender, src.home, dst.home, target), size, self.model)

    def _estimate_direct(self, src: GPid, dst: GPid, size: int) -> float:
        """Price the first target :meth:`send_direct` picks, assuming the
        belief is right; without one, the miss path through the home."""
        if size > self.config.direct_max:
            return math.inf
        sender = self.cluster.residency(src)
        target, via_home = self._first_target(sender, dst)
        if target == sender and not via_home:
            return self.model.shared_memory(size) + self.model.direct_overhead
        hops = 0 if target == sender else 1     # the sender may be dst's home
        if via_home:
            hops += 1                           # the home forwards to the true node
        return hops * self.model.net_hop(size) + self.model.direct_overhead

    def _first_target(self, sender: NodeId, dst: GPid) -> tuple[NodeId, bool]:
        """Where the node `sender` sends for dst first, for the direct send and
        both of auto's estimates, and whether that is dst's home on a miss:
        `sender` itself when dst is co-resident, else the bulletin's node,
        else (no entry, or one wrongly claiming `sender`) ``(dst.home, True)``."""
        if self.cluster.residency(dst) == sender:
            return sender, False
        hit = self.cluster.bulletins[sender].lookup_location(dst)
        if hit is not None and hit[0] != sender:
            return hit[0], False
        return dst.home, True

    # -- per-node frame mechanics ------------------------------------------

    def handle_incoming(self, node: NodeId, frame: Frame) -> HandleResult:
        """Process one frame arriving at `node`; returns frames to emit next.

        Misdelivery is a protocol outcome, not an error: a DATA frame for a
        process the node does not host is forwarded (plus a location reply)
        when the node is the process's home, and bounced with NACK_UNKNOWN
        otherwise.
        """
        if frame.kind is FrameKind.DATA:
            origin = frame.path[0]
            if frame.dst in self.cluster.resident[node]:
                self.metrics.deliver(node, frame.size)
                emitted: list[Frame] = []
                if frame.loc_req and node == frame.dst.home and origin != node:
                    emitted.append(self._loc_reply(node, origin, frame))
                return HandleResult(True, emitted)
            if node == frame.dst.home:
                true_node = self.cluster.locate_authoritative(frame.dst)
                self.metrics.relay(node, frame.size)
                forward = replace(frame, path=frame.path + [true_node])
                emitted = [forward]
                if origin != node:
                    emitted.append(self._loc_reply(node, origin, frame))
                return HandleResult(False, emitted)
            nack = Frame(FrameKind.NACK_UNKNOWN, frame.dst, frame.src,
                         self.config.control_size, [node, origin],
                         info=(frame.dst, node))
            return HandleResult(False, [nack])

        if frame.kind is FrameKind.LOC_REPLY:
            pid, where = frame.info
            self.cluster.bulletins[node].publish_location(
                pid, where, self.cluster.next_serial())
            return HandleResult(False)

        # NACK_UNKNOWN
        pid, claimed = frame.info
        bulletin = self.cluster.bulletins[node]
        hit = bulletin.lookup_location(pid)
        if hit is not None and hit[0] == claimed:
            bulletin.invalidate_location(pid)
        return HandleResult(False)

    def _loc_reply(self, node: NodeId, origin: NodeId, frame: Frame) -> Frame:
        true_node = self.cluster.locate_authoritative(frame.dst)
        return Frame(FrameKind.LOC_REPLY, frame.dst, frame.src,
                     self.config.control_size, [node, origin],
                     info=(frame.dst, true_node))

    def _carry(self, frame: Frame, frm: NodeId, to: NodeId) -> None:
        """Account one link traversal in the metrics and the trace."""
        self.metrics.link(frm, to, frame.size)
        self.metrics.handle(to)
        if self.trace is not None:
            self.trace.append((self.now, frame.kind.value, str(frame.src),
                               str(frame.dst), frm, to, frame.size))
