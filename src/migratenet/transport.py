"""Byte-transfer layer: home-node relay, direct with home fallback, and auto.

Each send resolves a whole message atomically against the current cluster
state; the returned :class:`DeliveryReport` carries the hop count, latency,
and which nodes only carried the payload.  Every link a frame crosses is
accounted and traced in one place, :meth:`Router._carry`.

A direct send goes to the node where the sender node's bulletin believes
the receiver runs and falls back to the receiver's home node, which always
knows the true location.  :meth:`Router.send_direct` reads top to bottom:

* local: the receiver is co-resident -> shared memory, no frames;
* hit: the entry is right -> one DATA hop;
* stale: the entry names a node that neither hosts the receiver nor is its
  home -> that node bounces the payload with NACK_UNKNOWN; the sender drops
  the entry and goes on as on a miss;
* miss: no entry, or one claiming the sender's own node -> DATA to the home,
  unless the sender is the home.

The home forwards the payload when it does not host the receiver.  If the
send went through the home or the home forwarded it, and the home is not the
sender, the home also sends a LOC_REPLY that refreshes the sender's bulletin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .cluster import ClusterState, GPid, NodeId, relay_legs
from .errors import MessageTooLargeError
from .simcore import EventQueue, LatencyModel, Metrics, TransportKind, relay_latency

DEFAULT_RELAY_MAX = 2 ** 30
DEFAULT_DIRECT_MAX = 2 ** 31
DEFAULT_CONTROL_SIZE = 64


class FrameKind(Enum):
    """Frame kinds as they appear in the protocol trace."""
    DATA = "DATA"
    LOC_REPLY = "LOC_REPLY"
    NACK_UNKNOWN = "NACK_UNKNOWN"


@dataclass(frozen=True)
class TransportConfig:
    relay_max: int = DEFAULT_RELAY_MAX
    direct_max: int = DEFAULT_DIRECT_MAX       # 2x the relay cap by default
    control_size: int = DEFAULT_CONTROL_SIZE   # fixed size of control frames


@dataclass(frozen=True)
class DeliveryReport:
    transport: TransportKind           # mechanism actually used
    network_hops: int                  # DATA link traversals, wasted ones included
    latency: float                     # send start to payload arrival
    frames_emitted: int                # all link traversals, control frames included
    relayed_by: tuple[NodeId, ...]     # nodes that carried but did not terminate the payload


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
        self.metrics.sends["relay"] += 1
        if not legs:
            self.metrics.deliver(sender, size)
            return DeliveryReport(TransportKind.RELAY, 0, latency, 0, ())
        for frm, to, _ in legs:
            self._carry(FrameKind.DATA, src, dst, size, frm, to)
        relayed = tuple(to for _, to, _ in legs[:-1])
        for node in relayed:
            self.metrics.relay(node, size)
        self.metrics.deliver(receiver, size)
        return DeliveryReport(TransportKind.RELAY, len(legs), latency, len(legs), relayed)

    # -- direct -----------------------------------------------------------

    def send_direct(self, src: GPid, dst: GPid, size: int) -> DeliveryReport:
        """Node-to-node send using the sender's bulletin, home fallback on
        miss or stale entries.  At most three DATA link traversals."""
        sender = self.cluster.residency(src)
        target, via_home, outcome = self._first_target(sender, dst)
        if size > self.config.direct_max:
            raise MessageTooLargeError(f"{size} > direct cap {self.config.direct_max}")
        model = self.model
        metrics = self.metrics
        metrics.sends["direct"] += 1
        metrics.direct_outcomes[outcome] += 1

        if outcome == "local":
            # the hosting node sees its own residents; no lookup, no network
            latency = model.shared_memory(size) + model.direct_overhead
            metrics.deliver(sender, size)
            return DeliveryReport(TransportKind.DIRECT, 0, latency, 0, ())

        receiver = self.cluster.residency(dst)
        home = dst.home
        control = self.config.control_size
        bulletin = self.cluster.bulletins[sender]
        hops = frames = 0
        latency = 0.0      # legs are added in arrival order
        if not via_home and target not in (receiver, home):
            # stale: the believed node bounces the payload; fall back as a miss
            self._carry(FrameKind.DATA, src, dst, size, sender, target)
            self._carry(FrameKind.NACK_UNKNOWN, dst, src, control, target, sender)
            metrics.control_frames["NACK_UNKNOWN"] += 1
            latency += model.net_hop(size)
            latency += model.net_hop(control)
            hops, frames = 1, 2
            target, via_home = home, True
        if via_home:
            # the entry was missing, stale, or claimed dst is local
            bulletin.invalidate_location(dst)
        if target != sender:
            self._carry(FrameKind.DATA, src, dst, size, sender, target)
            latency += model.net_hop(size)
            hops += 1
            frames += 1
        forwarded = target != receiver     # then target is the home
        if forwarded:
            metrics.relay(home, size)
            self._carry(FrameKind.DATA, src, dst, size, home, receiver)
            latency += model.net_hop(size)
            hops += 1
            frames += 1
        metrics.deliver(receiver, size)
        if home != sender and (via_home or forwarded):
            self._carry(FrameKind.LOC_REPLY, dst, src, control, home, sender)
            metrics.control_frames["LOC_REPLY"] += 1
            frames += 1
            bulletin.publish_location(dst, receiver, self.cluster.next_serial())

        latency += model.direct_overhead
        return DeliveryReport(TransportKind.DIRECT, hops, latency, frames,
                              (home,) if forwarded else ())

    # -- auto -------------------------------------------------------------

    def send_auto(self, src: GPid, dst: GPid, size: int) -> DeliveryReport:
        """Pick the transport the sender expects to be cheaper, judged from
        its local knowledge only; ties go to relay.  The pick and how far its
        estimate was from the latency charged go to the metrics."""
        self.cluster.residency(src)
        self.cluster.residency(dst)
        if size > self.config.relay_max and size > self.config.direct_max:
            raise MessageTooLargeError(
                f"{size} exceeds both caps ({self.config.relay_max}, {self.config.direct_max})")
        est_relay = self._estimate_relay(src, dst, size)
        est_direct = self._estimate_direct(src, dst, size)
        first = TransportKind.DIRECT if est_direct < est_relay else TransportKind.RELAY
        try:
            report = self.send(first, src, dst, size)
        except MessageTooLargeError:
            other = (TransportKind.RELAY if first is TransportKind.DIRECT
                     else TransportKind.DIRECT)
            report = self.send(other, src, dst, size)
        if report.transport is TransportKind.DIRECT:
            picked, estimate = "direct", est_direct
        else:
            picked, estimate = "relay", est_relay
        self.metrics.auto_picks[picked] += 1
        self.metrics.auto_error += abs(estimate - report.latency)
        return report

    def _estimate_relay(self, src: GPid, dst: GPid, size: int) -> float:
        if size > self.config.relay_max:
            return math.inf
        sender = self.cluster.residency(src)
        target, _, _ = self._first_target(sender, dst)
        return relay_latency(relay_legs(sender, src.home, dst.home, target), size, self.model)

    def _estimate_direct(self, src: GPid, dst: GPid, size: int) -> float:
        """Price the first target :meth:`send_direct` picks, assuming the
        belief is right; without one, the miss path through the home."""
        if size > self.config.direct_max:
            return math.inf
        sender = self.cluster.residency(src)
        target, via_home, outcome = self._first_target(sender, dst)
        if outcome == "local":
            return self.model.shared_memory(size) + self.model.direct_overhead
        hops = 0 if target == sender else 1     # the sender may be dst's home
        if via_home:
            hops += 1                           # the home forwards to the true node
        return hops * self.model.net_hop(size) + self.model.direct_overhead

    def _first_target(self, sender: NodeId, dst: GPid) -> tuple[NodeId, bool, str]:
        """Where the node `sender` sends for dst first, for the direct send and
        both of auto's estimates, whether that is dst's home on a miss, and the
        direct outcome: ``(sender, False, "local")`` when dst is co-resident,
        else the bulletin's node (a hit if dst runs there, else stale), else
        ``(dst.home, True, ...)``: a miss without an entry, stale with one
        wrongly claiming `sender`."""
        receiver = self.cluster.residency(dst)
        if receiver == sender:
            return sender, False, "local"
        hit = self.cluster.bulletins[sender].lookup_location(dst)
        if hit is None:
            return dst.home, True, "miss"
        if hit[0] == sender:
            return dst.home, True, "stale"
        return hit[0], False, "hit" if hit[0] == receiver else "stale"

    def _carry(self, kind: FrameKind, src: GPid, dst: GPid, size: int,
               frm: NodeId, to: NodeId) -> None:
        """Account one link traversal in the metrics and the trace."""
        self.metrics.link(frm, to, size)
        self.metrics.handle(to)
        if self.trace is not None:
            self.trace.append((self.now, kind.value, str(src), str(dst), frm, to, size))
