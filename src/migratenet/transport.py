"""Byte-transfer layer: home-node relay, direct with home fallback, and auto.

This is the one module that builds and prices routes.  A send resolves its
whole *route* atomically against the current cluster state: the links it
crosses in order as ``(frame kind, from, to, cost)``, each priced when it is
built.  :meth:`Router._price` adds the costs of a route's links into its
latency, and :meth:`Router._carry` accounts and traces every link of any
route, finding its relays on the way.

A relay route (:meth:`Router._relay_route`) transits both endpoints' home
nodes: sender -> src home -> dst home -> receiver, with legs whose ends
coincide dropped.  A direct route (:meth:`Router._direct_route`) goes to the
node where the sender node's bulletin believes the receiver runs and falls
back to the receiver's home node, which always knows the true location:

* local: the receiver is co-resident -> shared memory, no frames;
* hit: the entry is right -> one DATA hop;
* stale: the entry names a node that neither hosts the receiver nor is its
  home -> that node bounces the payload with NACK_UNKNOWN, and the sender
  goes on as on a miss;
* miss: no entry, or one claiming the sender's own node -> DATA to the home,
  unless the sender is the home.

The home forwards the payload when it does not host the receiver.  If the
send went through the home or the home forwarded it, and the home is not the
sender, the home also sends a LOC_REPLY; either way the sender's bulletin
then names the receiver's node.  Auto resolves the send once and prices both
routes to the node the entry names, or on a miss to one the home forwards to;
when the entry named the receiver's node it carries the route it priced.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple, Optional

from .cluster import ClusterState, GPid, NodeId
from .errors import BadSizeError, MessageTooLargeError, SimulatorError
from .simcore import EventQueue, LatencyModel, Metrics, Record, TransportKind

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
# links as (kind, from, to, cost); a route is the links a send crosses in order
Link = tuple[FrameKind, NodeId, NodeId, float]
Route = list[Link]
# _first_target's answer: first node, via dst's home, direct outcome, dst's node
Resolved = tuple[NodeId, bool, str, NodeId]
# an auto estimate: the price and the route priced, (inf, None) over the cap
Estimate = tuple[float, Optional[Route]]


class TransportConfig(Record):
    relay_max: int
    direct_max: int       # 2x the relay cap by default
    control_size: int     # fixed size of control frames

    def __init__(self, relay_max=DEFAULT_RELAY_MAX, direct_max=DEFAULT_DIRECT_MAX,
                 control_size=DEFAULT_CONTROL_SIZE):
        self.relay_max = relay_max
        self.direct_max = direct_max
        self.control_size = control_size


def _size_error(size: int, too_large: str) -> SimulatorError:
    """The error for a size outside ``0..cap``: negative, or `too_large`."""
    return BadSizeError(f"negative size {size}") if size < 0 else MessageTooLargeError(too_large)


class DeliveryReport(NamedTuple):
    transport: TransportKind           # mechanism actually used
    network_hops: int                  # DATA link traversals, wasted ones included
    latency: float                     # send start to payload arrival
    frames_emitted: int                # all link traversals, control frames included
    relayed_by: tuple[NodeId, ...]     # nodes that passed on the payload a DATA frame brought


class Router:
    """Dispatches sends over one cluster, charging latency and metrics."""

    def __init__(self, cluster: ClusterState, model: LatencyModel, metrics: Metrics,
                 clock: EventQueue, config: TransportConfig, trace: Optional[list]):
        self.cluster = cluster
        self.model = model
        self.metrics = metrics
        self.clock = clock
        self.config = config
        self.trace = trace

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
        if not 0 <= size <= self.config.relay_max:
            raise _size_error(size, f"{size} > relay cap {self.config.relay_max}")
        return self._relay(sender, src, dst, size, receiver)

    def send_direct(self, src: GPid, dst: GPid, size: int) -> DeliveryReport:
        """Node-to-node send using the sender's bulletin, home fallback on
        miss or stale entries.  At most three DATA link traversals."""
        sender = self.cluster.residency(src)
        resolved = self._first_target(sender, dst)
        if not 0 <= size <= self.config.direct_max:
            raise _size_error(size, f"{size} > direct cap {self.config.direct_max}")
        return self._direct(sender, src, dst, size, resolved)

    def send_auto(self, src: GPid, dst: GPid, size: int) -> DeliveryReport:
        """Pick the transport the sender expects to be cheaper from its local
        knowledge only (inf over a cap; ties go to relay).  The pick and how
        far its estimate was from the latency charged go to the metrics."""
        sender = self.cluster.residency(src)
        resolved = self._first_target(sender, dst)
        if not 0 <= size <= self.config.relay_max and not 0 <= size <= self.config.direct_max:
            raise _size_error(
                size, f"{size} exceeds both caps ({self.config.relay_max}, {self.config.direct_max})")
        (est_relay, relay_route), (est_direct, direct_route) = self._estimates(
            sender, src, dst, size, resolved)
        if resolved[1] or resolved[0] != resolved[3]:   # the entry did not name dst's node,
            relay_route = direct_route = None           # so no priced route is the one taken
        if est_direct < est_relay:
            picked, estimate = "direct", est_direct
            report = self._direct(sender, src, dst, size, resolved, direct_route)
        else:
            picked, estimate = "relay", est_relay
            report = self._relay(sender, src, dst, size, resolved[3], relay_route)
        self.metrics.auto_picks[picked] += 1
        self.metrics.auto_error += abs(estimate - report.latency)
        return report

    def _estimates(self, sender: NodeId, src: GPid, dst: GPid, size: int,
                   resolved: Resolved) -> tuple[Estimate, Estimate]:
        """Auto's relay and direct routes to the node the sender's entry names,
        or on a miss to one the home forwards to (exact when the sender is the
        home), each with its price: ``(inf, None)`` over a transport's cap."""
        target, via_home = resolved[0], resolved[1]
        believed = None if via_home else target
        relay = direct = (math.inf, None)
        if size <= self.config.relay_max:
            route = self._relay_route(sender, src.home, dst.home, believed, size)
            relay = self._price(RELAY, route, size), route
        if size <= self.config.direct_max:
            route = self._direct_route(sender, dst, size, target, via_home, believed)
            direct = self._price(DIRECT, route, size), route
        return relay, direct

    def _relay(self, sender: NodeId, src: GPid, dst: GPid, size: int,
               receiver: NodeId, route: Optional[Route] = None) -> DeliveryReport:
        """Carry a relay send whose caps are checked, along `route` when auto
        already built it."""
        self.metrics.sends["relay"] += 1
        if route is None:
            route = self._relay_route(sender, src.home, dst.home, receiver, size)
        return self._carry(RELAY, route, src, dst, size, receiver)

    def _direct(self, sender: NodeId, src: GPid, dst: GPid, size: int,
                resolved: Resolved, route: Optional[Route] = None) -> DeliveryReport:
        """Carry a direct send whose caps are checked, along `route` when auto
        already built it; on a miss or stale send the sender keeps dst's node."""
        target, via_home, outcome, receiver = resolved
        self.metrics.sends["direct"] += 1
        self.metrics.direct_outcomes[outcome] += 1
        if route is None:
            route = self._direct_route(sender, dst, size, target, via_home, receiver)
        if outcome == "miss" or outcome == "stale":
            self.cluster.bulletins[sender].publish_location(dst, receiver, self.cluster.stamp())
        return self._carry(DIRECT, route, src, dst, size, receiver)

    def _first_target(self, sender: NodeId, dst: GPid) -> Resolved:
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

    def _relay_route(self, sender: NodeId, src_home: NodeId, dst_home: NodeId,
                     receiver: Optional[NodeId], size: int) -> Route:
        """The relay route sender -> src_home -> dst_home -> receiver (None: not
        dst_home), legs whose ends coincide dropped.  The legs joining a process's
        node to its home cost `home_leg_factor` hops, the leg between the homes one."""
        hop = self.model.net_hop(size)
        home = hop * self.model.home_leg_factor
        links = []
        if sender != src_home:
            links.append((DATA, sender, src_home, home))
        if src_home != dst_home:
            links.append((DATA, src_home, dst_home, hop))
        if dst_home != receiver:
            links.append((DATA, dst_home, receiver, home))
        return links

    def _direct_route(self, sender: NodeId, dst: GPid, size: int, target: NodeId,
                      via_home: bool, receiver: Optional[NodeId]) -> Route:
        """The direct route from `sender` to `receiver` whose first DATA goes
        to `target` (dst's home when `via_home`).  A `receiver` of None is a
        node other than the home, so the home forwards to it.  DATA costs one
        hop, NACK_UNKNOWN a control-size hop, and LOC_REPLY nothing: it comes
        after arrival."""
        if receiver == sender:
            # the hosting node sees its own residents; no lookup, no network
            return []
        home = dst.home
        hop = self.model.net_hop(size)
        links = []
        if not via_home and target != receiver and target != home:
            # stale: the believed node bounces the payload; fall back as a miss
            links += ((DATA, sender, target, hop),
                      (NACK_UNKNOWN, target, sender, self.model.net_hop(self.config.control_size)))
            target, via_home = home, True
        if target != sender:
            links.append((DATA, sender, target, hop))
        forwarded = target != receiver     # then target is the home
        if forwarded:
            links.append((DATA, home, receiver, hop))
        if home != sender and (via_home or forwarded):
            links.append((LOC_REPLY, home, sender, 0.0))
        return links

    def _price(self, transport: TransportKind, links: list[Link], size: int) -> float:
        """Latency from send start to payload arrival: the link costs added in
        route order (no links: a shared-memory delivery), plus the fixed
        overhead of a direct send.  An explicit loop, not `sum`, which
        compensates its rounding on Python 3.12 and would change the floats."""
        total = 0.0 if links else self.model.shared_memory(size)
        for link in links:
            total += link[3]
        return total + self.model.direct_overhead if transport is DIRECT else total

    def _carry(self, transport: TransportKind, route: Route, src: GPid, dst: GPid,
               size: int, receiver: NodeId) -> DeliveryReport:
        """Account and trace every link of `route`, then the delivery to
        `receiver`.  DATA frames carry `size` bytes from src to dst; control
        frames carry the control size from dst back to src.  A node relays
        when it sends on a DATA frame the payload the previous one brought it."""
        metrics = self.metrics
        link_bytes, handled, trace = metrics.link_bytes, metrics.frames_handled, self.trace
        control_size = self.config.control_size
        hops, relayed, reached = 0, (), None   # reached: where the last DATA went
        for kind, frm, to, _ in route:
            if kind is DATA:
                hops += 1
                nbytes = size
                if frm == reached:
                    relayed += (frm,)
                    metrics.relayed_bytes[frm] = metrics.relayed_bytes.get(frm, 0) + size
                reached = to
            else:
                nbytes = control_size
                metrics.control_frames[kind.value] += 1
            key = frm, to
            link_bytes[key] = link_bytes.get(key, 0) + nbytes
            handled[to] = handled.get(to, 0) + 1
            if trace is not None:
                ends = (src, dst) if kind is DATA else (dst, src)
                trace.append((self.clock.now, kind.value, str(ends[0]), str(ends[1]), frm, to, nbytes))
        metrics.delivered_bytes[receiver] = metrics.delivered_bytes.get(receiver, 0) + size
        metrics.payload_delivered += size
        # tuple.__new__ skips the named tuple's Python-level __new__
        return tuple.__new__(DeliveryReport, (transport, hops, self._price(transport, route, size),
                                              len(route), relayed))
