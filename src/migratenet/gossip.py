"""Bounded rumor-mongering dissemination of process locations and node loads.

Each node keeps a :class:`Bulletin` of facts, each stamped once, at its
publication, with a serial from `ClusterState.stamp`; a larger serial is a
later publication, and no bulletin keeps a clock.  Once per round every node
pairs up with one uniformly random peer and the two exchange facts
(push-pull), each side keeping the copy with the larger serial, so a
republished fact displaces every stale copy as it spreads.  Two bulletins
within the digest bound would ship whole, so `_swap` gives both the union in
place, in one walk per table.  Otherwise each side ships a digest, a raw
snapshot of stored entries: the copied dicts of a bulletin within the bound,
or, cut at a serial threshold found by sorting the plain serial integers,
the latest `bound` entries of a larger one, in bulletin order.  A cut digest
carries only the latest facts, so a node whose bulletin outgrows the bound
re-publishes its own facts every `REPUBLISH_PERIOD` rounds (anti-entropy,
Demers et al. 1987), and every fact keeps spreading until every node holds it.
"""

from __future__ import annotations

import random
from itertools import repeat
from operator import itemgetter
from typing import TYPE_CHECKING, Collection, Iterable, NamedTuple, Optional

from .errors import NoConvergenceError

if TYPE_CHECKING:
    from .cluster import ClusterState, GPid, NodeId


DEFAULT_BOUND = 64
REPUBLISH_PERIOD = 8   # rounds between re-publications (see gossip_round)

_value, _serial = itemgetter(0), itemgetter(1)   # the two fields of a stored entry


class GossipDigest:
    """Snapshot of bulletin entries as stored: ``(pid, (node, serial))`` and
    ``(node, (load, serial))`` pairs, as the items view of a copied
    dict (a whole bulletin) or a list (a cut one).  A plain slotted class: a
    frozen dataclass pays one ``object.__setattr__`` per field."""
    __slots__ = ("location_items", "load_items")

    def __init__(self, location_items: Collection, load_items: Collection):
        self.location_items = location_items
        self.load_items = load_items

    def __len__(self) -> int:
        return len(self.location_items) + len(self.load_items)


class GossipConfig(NamedTuple):
    bound: int = DEFAULT_BOUND          # max entries per digest
    drop_probability: float = 0.0       # chance an entire exchange is lost
    rounds_per_second: float = 10.0     # used when rounds are driven by sim time


class RoundReport(NamedTuple):
    index: int
    exchanges: int
    dropped: int
    frames: int
    entries_moved: int


class Bulletin:
    """One node's local database of location and load facts, each stored as
    ``(value, serial)`` under the serial of its publication."""

    def __init__(self, owner: "NodeId"):
        self.owner = owner
        # pid -> (node, serial); node -> (load, serial)
        self._locations: dict["GPid", tuple["NodeId", int]] = {}
        self._loads: dict["NodeId", tuple[float, int]] = {}

    def __len__(self) -> int:
        return len(self._locations) + len(self._loads)

    def publish_location(self, pid: "GPid", node: "NodeId", serial: int) -> None:
        """Record pid's location with a fresh serial, replacing any copy."""
        self._locations[pid] = (node, serial)

    def publish_load(self, load: float, serial: int) -> None:
        """Record the owner's own load with a fresh serial."""
        self._loads[self.owner] = (load, serial)

    def lookup_location(self, pid: "GPid") -> Optional[tuple["NodeId", int]]:
        """The stored (node, serial) for pid, possibly stale, or None."""
        return self._locations.get(pid)

    def load_view(self) -> dict["NodeId", float]:
        """Snapshot of all known node loads as node -> load."""
        return {n: entry[0] for n, entry in self._loads.items()}


def make_digest(bulletin: Bulletin, bound: int) -> GossipDigest:
    """Select the `bound` latest entries across both maps.

    A bulletin with at most `bound` entries is shipped whole, in its own
    order.  A larger one is cut at a serial threshold: `cut` is the serial
    of the `bound`-th latest entry and every entry from `cut` on ships.
    Serials are unique, so exactly `bound` entries ship, each kind in
    bulletin order.
    """
    if bound < 1:
        raise ValueError("digest bound must be >= 1")
    locations, loads = bulletin._locations, bulletin._loads
    if len(locations) + len(loads) <= bound:
        # dict.copy() is several times cheaper than building a pair per entry
        return GossipDigest(locations.copy().items(), loads.copy().items())
    serials = [*map(_serial, locations.values()), *map(_serial, loads.values())]
    serials.sort()
    cut = serials[-bound]
    return GossipDigest([item for item in locations.items() if item[1][1] >= cut],
                        [item for item in loads.items() if item[1][1] >= cut])


def _fold(table: dict, items: Iterable, owner: Optional["NodeId"]) -> int:
    """Merge raw `items` into `table`, skipping the key `owner`: the larger
    serial wins, and an equal one keeps the resident copy."""
    accepted = 0
    for key, entry in items:
        resident = table.get(key)
        if resident is entry or key == owner:
            continue
        if resident is None or entry[1] > resident[1]:
            table[key] = entry
            accepted += 1
    return accepted


def _swap(left: Bulletin, right: Bulletin) -> int:
    """Push-pull two whole bulletins in place, one walk per table; returns
    the entries moved.  Contents, dict order and count are those of two
    `merge`s of whole digests taken before either merge."""
    moved = 0
    for a, b, a_owner, b_owner in ((left._locations, right._locations, None, None),
                                   (left._loads, right._loads, left.owner, right.owner)):
        size_b, missing, get = len(b), 0, b.get
        for key, entry in a.items():
            other = get(key)
            if other is entry:
                continue
            if other is None or entry[1] > other[1]:
                missing += other is None
                if key != b_owner:
                    b[key] = entry
                    moved += 1
            elif other[1] > entry[1] and key != a_owner:
                a[key] = other   # a key `a` holds: no resize under the walk
                moved += 1
        if size_b > len(a) - missing:   # `b` held keys that `a` lacks
            for key, entry in b.items():
                if key not in a and key != a_owner:
                    a[key] = entry
                    moved += 1
    return moved


def merge(bulletin: Bulletin, digest: GossipDigest) -> int:
    """Fold a digest into a bulletin; returns the number of entries accepted.

    An incoming entry wins only if fresher than the resident copy (see
    `_fold`; plain copies of the same fact never displace each other).
    Facts the owner publishes about itself are never overwritten by hearsay.
    """
    return (_fold(bulletin._locations, digest.location_items, None)
            + _fold(bulletin._loads, digest.load_items, bulletin.owner))


def gossip_round(state: "ClusterState", rng: random.Random,
                 config: GossipConfig = GossipConfig()) -> RoundReport:
    """Run one synchronous gossip round over the whole cluster.

    The cluster's round counter advances first.  Then each node whose
    bulletin holds more than `bound` entries re-publishes, in the rounds
    where ``(round + node) % REPUBLISH_PERIOD == 0``, its residents'
    locations in pid order and then its own load, under fresh serials.  Then
    each node, in index order, picks one uniformly random peer other than
    itself and the pair exchanges facts both ways; later exchanges within the
    round see the effect of earlier ones.  A pair whose bulletins both hold
    at most `bound` entries is swapped whole in place (`_swap`); any other
    pair builds both digests before merging either.  Both ways move the same
    entries.  A whole exchange is lost with probability `drop_probability`
    (its two frames still count as emitted).
    """
    n = state.node_count
    state.gossip_rounds += 1
    if n < 2:
        return RoundReport(state.gossip_rounds, 0, 0, 0, 0)
    bulletins, bound, drop = state.bulletins, config.bound, config.drop_probability
    for node in range(-state.gossip_rounds % REPUBLISH_PERIOD, n, REPUBLISH_PERIOD):
        bulletin = bulletins[node]
        if len(bulletin) > bound:
            for pid in sorted(state.resident[node]):
                bulletin.publish_location(pid, node, state.stamp())
            bulletin.publish_load(state.node_load(node), state.stamp())
    randrange = rng.randrange
    dropped = moved = 0
    for i in range(n):
        j = randrange(n - 1)
        if j >= i:
            j += 1
        if drop > 0.0 and rng.random() < drop:
            dropped += 1
            continue
        left, right = bulletins[i], bulletins[j]
        if len(left) <= bound and len(right) <= bound:
            moved += _swap(left, right)
            continue
        # make_digest and merge are looked up as globals on each call, so a
        # wrapper set on the module sees every one
        digest_left = make_digest(left, bound)
        digest_right = make_digest(right, bound)
        moved += merge(right, digest_left)
        moved += merge(left, digest_right)
    return RoundReport(state.gossip_rounds, n - dropped, dropped, 2 * n, moved)


def informed_count(state: "ClusterState", pid: "GPid") -> int:
    """Number of bulletins holding any location entry for pid."""
    return sum(1 for b in state.bulletins if b.lookup_location(pid) is not None)


def is_converged(state: "ClusterState") -> bool:
    """True when every bulletin knows the true location of every process and
    the true load of every node; entries beyond the truth are ignored."""
    pids, nodes = list(state.procs), range(state.node_count)
    truth_loc = [rec.current for rec in state.procs.values()]
    truth_load = [state.node_load(n) for n in nodes]
    absent = repeat((None, None))   # the stored form of a missing entry
    for b in state.bulletins:
        # each bulletin's values in truth order, fetched with no call per fact
        if ([*map(_value, map(b._locations.get, pids, absent))] != truth_loc
                or [*map(_value, map(b._loads.get, nodes, absent))] != truth_load):
            return False
    return True


def converge(state: "ClusterState", rng: random.Random,
             config: GossipConfig = GossipConfig(), max_rounds: int = 1000) -> int:
    """Run rounds until `is_converged`; returns the number of rounds used.
    Raises `NoConvergenceError` when `max_rounds` rounds are not enough, and
    at once, before any round, when every exchange is dropped."""
    for done in range(max_rounds + 1):
        if is_converged(state):
            return done
        if config.drop_probability >= 1.0 and state.node_count >= 2:
            # rng.random() < 1.0 always holds, so no bulletin can learn
            # anything, and entries never expire
            raise NoConvergenceError(
                f"every gossip exchange is dropped (drop_probability "
                f"{config.drop_probability}), so gossip cannot converge")
        if done < max_rounds:   # the last pass only checks the last round
            gossip_round(state, rng, config)
    raise NoConvergenceError(f"gossip failed to converge within {max_rounds} rounds")
