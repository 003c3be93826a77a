"""Byte-transfer layer: home-node relay, direct with home fallback, and auto.

A send resolves its whole *route* atomically against the current cluster
state: the links it crosses in order as ``(frame kind, from, to)``, the
latency from send start to payload arrival, priced while the route is built,
and the nodes that carried the payload without terminating it.  One loop,
:meth:`Router._carry`, accounts and traces every link of any route, and
auto's direct estimate is the price of the route the sender believes in.

A relay route transits both endpoints' home nodes (:func:`relay_legs`, priced
by :func:`relay_latency`).  A direct route goes to the node where the sender
node's bulletin believes the receiver runs and falls back to the receiver's
home node, which always knows the true location:

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


# members as globals: one Enum attribute lookup costs ~0.2 us on CPython 3.11
DATA, LOC_REPLY, NACK_UNKNOWN = FrameKind.DATA, FrameKind.LOC_REPLY, FrameKind.NACK_UNKNOWN
RELAY, DIRECT = TransportKind.RELAY, TransportKind.DIRECT
# links as (kind, from, to), latency to payload arrival, nodes that relayed
Route = tuple[list[tuple[FrameKind, NodeId, NodeId]], float, tuple[NodeId, ...]]


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
        if kind is RELAY:
            return self.send_relay(src, dst, size)
        if kind is DIRECT:
            return self.send_direct(src, dst, size)
        return self.send_auto(src, dst, size)

    def send_relay(self, src: GPid, dst: GPid, size: int) -> DeliveryReport:
        """Baseline: the payload transits both endpoints' home nodes."""
        sender = self.cluster.residency(src)
        receiver = self.cluster.residency(dst)
        if size > self.config.relay_max:
            raise MessageTooLargeError(f"{size} > relay cap {self.config.relay_max}")
        self.metrics.sends["relay"] += 1
        legs = relay_legs(sender, src.home, dst.home, receiver)
        route = ([(DATA, frm, to) for frm, to, _ in legs], relay_latency(legs, size, self.model),
                 tuple(to for _, to, _ in legs[:-1]))
        return self._carry(RELAY, route, src, dst, size, receiver)

    def send_direct(self, src: GPid, dst: GPid, size: int) -> DeliveryReport:
        """Node-to-node send using the sender's bulletin, home fallback on
        miss or stale entries.  At most three DATA link traversals."""
        sender = self.cluster.residency(src)
        target, via_home, outcome, receiver = self._first_target(sender, dst)
        if size > self.config.direct_max:
            raise MessageTooLargeError(f"{size} > direct cap {self.config.direct_max}")
        self.metrics.sends["direct"] += 1
        self.metrics.direct_outcomes[outcome] += 1
        route = self._direct_route(sender, dst, size, target, via_home, receiver)
        bulletin = self.cluster.bulletins[sender]
        if via_home or (outcome == "stale" and target != dst.home):
            # a miss, or a stale entry other than the home: the sender falls back to it
            bulletin.invalidate_location(dst)
        if route[0] and route[0][-1][0] is LOC_REPLY:
            bulletin.publish_location(dst, receiver, self.cluster.next_serial())
        return self._carry(DIRECT, route, src, dst, size, receiver)

    def send_auto(self, src: GPid, dst: GPid, size: int) -> DeliveryReport:
        """Pick the transport the sender expects to be cheaper from its local
        knowledge only (inf over a cap; ties go to relay).  The pick and how
        far its estimate was from the latency charged go to the metrics."""
        self.cluster.residency(src)
        self.cluster.residency(dst)
        if size > self.config.relay_max and size > self.config.direct_max:
            raise MessageTooLargeError(
                f"{size} exceeds both caps ({self.config.relay_max}, {self.config.direct_max})")
        est_relay = self._estimate_relay(src, dst, size)
        est_direct = self._estimate_direct(src, dst, size)
        if est_direct < est_relay:
            picked, estimate, report = "direct", est_direct, self.send(DIRECT, src, dst, size)
        else:
            picked, estimate, report = "relay", est_relay, self.send(RELAY, src, dst, size)
        self.metrics.auto_picks[picked] += 1
        self.metrics.auto_error += abs(estimate - report.latency)
        return report

    def _estimate_relay(self, src: GPid, dst: GPid, size: int) -> float:
        if size > self.config.relay_max:
            return math.inf
        sender = self.cluster.residency(src)
        target = self._first_target(sender, dst)[0]
        return relay_latency(relay_legs(sender, src.home, dst.home, target), size, self.model)

    def _estimate_direct(self, src: GPid, dst: GPid, size: int) -> float:
        """The price of the direct route to the node the sender believes dst
        runs on: the bulletin's node, or on a miss one the home forwards to."""
        if size > self.config.direct_max:
            return math.inf
        sender = self.cluster.residency(src)
        target, via_home, _, _ = self._first_target(sender, dst)
        believed = None if via_home else target     # on a miss, the home forwards
        return self._direct_route(sender, dst, size, target, via_home, believed)[1]

    def _first_target(self, sender: NodeId, dst: GPid) -> tuple[NodeId, bool, str, NodeId]:
        """Where `sender` sends for dst first, whether that is dst's home on a
        miss, the direct outcome and dst's node: ``(sender, False, "local",
        sender)`` when co-resident, else the bulletin's node (a hit if dst runs
        there, else stale), else ``(dst.home, True, ...)``: a miss without an
        entry, stale with one wrongly claiming `sender`."""
        receiver = self.cluster.residency(dst)
        if receiver == sender:
            return sender, False, "local", receiver
        hit = self.cluster.bulletins[sender].lookup_location(dst)
        if hit is None:
            return dst.home, True, "miss", receiver
        if hit[0] == sender:
            return dst.home, True, "stale", receiver
        return hit[0], False, "hit" if hit[0] == receiver else "stale", receiver

    def _direct_route(self, sender: NodeId, dst: GPid, size: int, target: NodeId,
                      via_home: bool, receiver: Optional[NodeId]) -> Route:
        """The direct route from `sender` to `receiver` whose first DATA goes
        to `target` (dst's home when `via_home`).  A `receiver` of None is a
        node other than the home, so the home forwards to it."""
        model = self.model
        if receiver == sender:
            # the hosting node sees its own residents; no lookup, no network
            return [], model.shared_memory(size) + model.direct_overhead, ()
        home = dst.home
        hop = model.net_hop(size)
        links = []
        latency = 0.0      # legs are added in arrival order
        if not via_home and target not in (receiver, home):
            # stale: the believed node bounces the payload; fall back as a miss
            links += (DATA, sender, target), (NACK_UNKNOWN, target, sender)
            latency = hop + model.net_hop(self.config.control_size)
            target, via_home = home, True
        if target != sender:
            links.append((DATA, sender, target))
            latency += hop
        forwarded = target != receiver     # then target is the home
        if forwarded:
            links.append((DATA, home, receiver))
            latency += hop
        if home != sender and (via_home or forwarded):
            links.append((LOC_REPLY, home, sender))
        return links, latency + model.direct_overhead, (home,) if forwarded else ()

    def _carry(self, transport: TransportKind, route: Route, src: GPid, dst: GPid,
               size: int, receiver: NodeId) -> DeliveryReport:
        """Account and trace every link of `route`, then its relays and the
        delivery to `receiver`.  DATA frames carry `size` bytes from src to
        dst; control frames carry the control size from dst back to src."""
        links, latency, relayed = route
        metrics = self.metrics
        trace = self.trace
        hops = 0
        for kind, frm, to in links:
            if kind is DATA:
                hops += 1
                nbytes = size
            else:
                nbytes = self.config.control_size
                metrics.control_frames[kind.value] += 1
            metrics.link(frm, to, nbytes)
            metrics.handle(to)
            if trace is not None:
                ends = (src, dst) if kind is DATA else (dst, src)
                trace.append((self.now, kind.value, str(ends[0]), str(ends[1]), frm, to, nbytes))
        for node in relayed:
            metrics.relay(node, size)
        metrics.deliver(receiver, size)
        return DeliveryReport(transport, hops, latency, len(links), relayed)
