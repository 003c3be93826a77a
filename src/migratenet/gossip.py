"""Bounded rumor-mongering dissemination of process locations and node loads.

Each node keeps a :class:`Bulletin`, one table of facts keyed by process
(its location) or by node (its load), each stamped once, at its
publication, with a serial from `ClusterState.stamp`; a larger serial is a
later publication, and no bulletin keeps a clock.  Once per round every node
pairs up with one uniformly random peer and the two exchange facts
(push-pull), each side keeping the copy with the larger serial, so a
newer publication displaces every stale copy as it spreads.  Two bulletins
within the digest bound would ship whole, so `_swap` gives both the union in
place, in one walk.  Any other pair reconciles summary-first, after
Scuttlebutt (van Renesse, Dumitriu, Gough and Thomas, LADIS 2008): each side
reads the peer's per-key serials and ships a digest, a raw snapshot of
stored ``(key, (value, serial))`` items in bulletin order, of the facts the
peer lacks or holds older: all of them when at most `bound`, else the latest
`bound`, cut at a serial threshold found by sorting their plain serial
integers.  MOSIX ships the `bound` newest facts whatever the peer holds
(Amar, Barak, Drezner and Okun, 2009); the bound is kept, the choice of
facts is not.  No fact is ever re-published to keep it spreading: a fact
the peer lacks, or holds under a smaller serial, is a candidate in every
exchange with that peer until it ships, so while fewer than `bound` new
facts arrive per exchange nothing is left behind.  A static cluster always
converges, because each exchange between differing bulletins moves at
least one strictly newer fact.
"""

from __future__ import annotations

import random
from itertools import repeat
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional

from .errors import NoConvergenceError

if TYPE_CHECKING:
    from .cluster import ClusterState, GPid, NodeId


DEFAULT_BOUND = 64

_value = itemgetter(0)   # the value field of a stored (value, serial) entry
_ABSENT = (None, -1)   # a fact a peer lacks, as stored: every serial, never negative, beats it


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
    """One node's local database of facts in one table, each stored as
    ``(value, serial)`` under the serial of its publication: a process's
    location under its `GPid`, ``pid -> (node, serial)``, and a node's load
    under the node, ``node -> (load, serial)``.  A `GPid` is a tuple and a
    node an int, so the two kinds of key never collide."""

    def __init__(self, owner: "NodeId"):
        self.owner = owner
        self._facts: dict[GPid | NodeId, tuple[NodeId | float, int]] = {}

    def __len__(self) -> int:
        return len(self._facts)

    def publish_location(self, pid: "GPid", node: "NodeId", serial: int) -> None:
        """Record pid's location with a fresh serial, replacing any copy."""
        self._facts[pid] = (node, serial)

    def publish_load(self, load: float, serial: int) -> None:
        """Record the owner's own load with a fresh serial."""
        self._facts[self.owner] = (load, serial)

    def lookup_location(self, pid: "GPid") -> Optional[tuple["NodeId", int]]:
        """The stored (node, serial) for pid, possibly stale, or None."""
        return self._facts.get(pid)

    def load_view(self, node_count: int) -> dict["NodeId", float]:
        """Snapshot of the known loads of nodes ``0 .. node_count - 1`` as
        node -> load, each read by its key."""
        facts = self._facts
        return {node: entry[0] for node in range(node_count)
                if (entry := facts.get(node)) is not None}


def make_digest(bulletin: Bulletin, bound: int, peer: Optional[Bulletin] = None) -> list:
    """Select up to `bound` facts that `peer` lacks, as raw ``(key, (value,
    serial))`` items in bulletin order.

    The candidates are the facts the peer lacks or holds under a smaller
    serial, except the peer's own load, which `merge` never accepts; with no
    peer, a peer that holds nothing, every fact is one.  At most `bound`
    candidates all ship.  More are cut at a serial threshold: `cut` is the
    serial of the `bound`-th latest candidate and every candidate from `cut`
    on ships.  Serials are unique in a bulletin, so exactly `bound` ship.
    """
    if bound < 1:
        raise ValueError("digest bound must be >= 1")
    held, owner = (peer._facts.get, peer.owner) if peer is not None else ({}.get, None)
    wanted = [(key, entry) for key, entry in bulletin._facts.items()
              if entry[1] > held(key, _ABSENT)[1] and key != owner]
    if len(wanted) <= bound:
        return wanted
    serials = [item[1][1] for item in wanted]
    serials.sort()
    cut = serials[-bound]
    return [item for item in wanted if item[1][1] >= cut]


def _swap(left: Bulletin, right: Bulletin) -> int:
    """Push-pull two whole bulletins in place in one walk; returns the
    entries moved.  Contents, dict order and count are those of two `merge`s
    of whole digests taken before either merge.  Only a load is ever keyed
    by an owner, so the owner checks spare every location."""
    a, b, a_owner, b_owner = left._facts, right._facts, left.owner, right.owner
    size_b, missing, get, moved = len(b), 0, b.get, 0
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


def merge(bulletin: Bulletin, digest: Iterable) -> int:
    """Fold a digest into a bulletin; returns the number of entries accepted.

    An incoming entry wins only if its serial is larger than the resident
    copy's; an equal one keeps the resident copy, so plain copies of the same
    fact never displace each other.  The owner's own load is never
    overwritten by hearsay.
    """
    facts, owner, accepted = bulletin._facts, bulletin.owner, 0
    for key, entry in digest:
        resident = facts.get(key)
        if resident is entry or key == owner:
            continue
        if resident is None or entry[1] > resident[1]:
            facts[key] = entry
            accepted += 1
    return accepted


def gossip_round(state: "ClusterState", rng: random.Random,
                 config: GossipConfig = GossipConfig()) -> RoundReport:
    """Run one synchronous gossip round over the whole cluster.

    The cluster's round counter advances first.  Then each node, in index
    order, picks one uniformly random peer other than itself and the pair
    exchanges facts both ways; later exchanges within the round see the
    effect of earlier ones.  A pair whose bulletins both hold at most
    `bound` entries is swapped whole in place (`_swap`); any other pair
    builds both digests, each against the other side as its peer, before
    merging either.  Both ways move the same entries.  A whole exchange is
    lost with probability `drop_probability` (its two frames still count as
    emitted).  No fact is re-published: one the peer lacks, or holds under a
    smaller serial, stays a candidate in every exchange with that peer until
    it ships, so every fact keeps spreading until every node holds it.
    """
    n = state.node_count
    state.gossip_rounds += 1
    if n < 2:
        return RoundReport(state.gossip_rounds, 0, 0, 0, 0)
    bulletins, bound, drop = state.bulletins, config.bound, config.drop_probability
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
        # wrapper set on the module sees every one; the peer goes by keyword,
        # as such a wrapper may hand its hooks the positional arguments only
        digest_left = make_digest(left, bound, peer=right)
        digest_right = make_digest(right, bound, peer=left)
        moved += merge(right, digest_left)
        moved += merge(left, digest_right)
    return RoundReport(state.gossip_rounds, n - dropped, dropped, 2 * n, moved)


def informed_count(state: "ClusterState", pid: "GPid") -> int:
    """Number of bulletins holding any location entry for pid."""
    return sum(1 for b in state.bulletins if b.lookup_location(pid) is not None)


def is_converged(state: "ClusterState") -> bool:
    """True when every bulletin knows the true location of every process and
    the true load of every node; entries beyond the truth are ignored."""
    keys = [*state.procs, *range(state.node_count)]   # pids, then nodes
    truth = [*(rec.current for rec in state.procs.values()),
             *map(state.node_load, range(state.node_count))]
    absent = repeat(_ABSENT)
    for b in state.bulletins:
        # each bulletin's values in truth order, fetched with no call per fact
        if [*map(_value, map(b._facts.get, keys, absent))] != truth:
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
