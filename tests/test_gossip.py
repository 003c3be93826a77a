import hashlib
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import PINS, build_sim
from migratenet import gossip, templates
from migratenet.cluster import ClusterState, GPid, Topology
from migratenet.errors import NoConvergenceError, SimulatorError
from migratenet.gossip import (Bulletin, GossipConfig, converge, gossip_round,
                               informed_count, is_converged, make_digest, merge)

P = GPid(0, 0)
Q = GPid(1, 0)


def ranked(source) -> list[tuple]:
    """The raw entries of a bulletin or a digest as ``(serial, kind, key,
    value)``: kind 0 is a location keyed ``(home, seq)``, kind 1 a load, so a
    sort ranks by serial, the later publication last."""
    items = source._facts.items() if isinstance(source, Bulletin) else source
    return [(serial, 0, (key.home, key.seq), value) if isinstance(key, GPid)
            else (serial, 1, key, value) for key, (value, serial) in items]


def latest(source, bound: int) -> list[tuple]:
    """The sort oracle of a cut digest: the `bound` entries of `source` with
    the largest serials, in sorted order."""
    return sorted(ranked(source))[-bound:]


# -- publish / lookup ----------------------------------------------------------

def test_publish_into_empty_bulletin():
    b = Bulletin(owner=0)
    b.publish_location(P, 4, 1)
    assert len(b) == 1
    assert b.lookup_location(P) == (4, 1)


def test_publish_refreshes_aged_entry():
    b = Bulletin(owner=0)
    b.publish_location(P, 1, 1)
    b.publish_location(P, 2, 2)
    assert len(b) == 1
    assert b.lookup_location(P) == (2, 2)


def test_lookup_never_heard_pid():
    assert Bulletin(owner=0).lookup_location(P) is None


# spawns, migrations, gossip rounds and direct sends on 6 nodes: every way a
# fact is published or copied
ACTIONS = st.lists(st.tuples(st.sampled_from(("spawn", "migrate", "round", "send")),
                             st.integers(0, 5), st.integers(0, 5)), max_size=40)


def play(sim, ops) -> None:
    pids = [sim.cluster.spawn(0)]
    for op, x, y in ops:
        if op == "spawn":
            pids.append(sim.cluster.spawn(x))
        elif op == "migrate":
            sim.cluster.migrate(pids[x % len(pids)], y)
        elif op == "round":
            gossip_round(sim.cluster, sim.rng)
        else:
            sim.router.send_direct(pids[x % len(pids)], pids[y % len(pids)], 64)


@settings(max_examples=100, deadline=None)
@given(ops=ACTIONS)
def test_every_stamp_is_greater_than_the_one_before(ops):
    # merge keeps the copy with the greater serial, so a fact published
    # later must carry a greater one, whatever runs in between
    sim = build_sim(nodes=6)
    stamps = []
    stamp = sim.cluster.stamp

    def recording_stamp():
        stamps.append(stamp())
        return stamps[-1]

    sim.cluster.stamp = recording_stamp
    play(sim, ops)
    assert all(a < b for a, b in zip(stamps, stamps[1:]))


@settings(max_examples=100, deadline=None)
@given(ops=ACTIONS)
def test_serials_are_unique_so_a_cut_digest_ships_exactly_the_latest(ops):
    # a cut digest ships every entry from its threshold serial on, so it
    # holds exactly `bound` entries only if no two entries share a serial
    sim = build_sim(nodes=6)
    play(sim, ops)
    for b in sim.cluster.bulletins:
        serials = [entry[0] for entry in ranked(b)]
        assert len(set(serials)) == len(serials)
        for bound in range(1, len(b)):
            digest = make_digest(b, bound)
            assert len(digest) == bound
            assert sorted(ranked(digest)) == latest(b, bound)


# -- make_digest ---------------------------------------------------------------

def fat_bulletin(n_locations=6, n_loads=4) -> Bulletin:
    """Location i published under serial 2i, load i under serial
    2(n_locations - i) + 1: the kinds interleave, and no serial repeats."""
    b = Bulletin(owner=0)
    for i in range(n_locations):
        b.publish_location(GPid(0, i), i % 3, 2 * i)
    for i in range(n_loads):
        b._facts[i] = (float(i), 2 * (n_locations - i) + 1)
    return b


def test_digest_includes_all_when_small():
    b = fat_bulletin(2, 1)
    assert len(make_digest(b, 10)) == 3


def test_digest_empty_bulletin():
    assert len(make_digest(Bulletin(owner=0), 8)) == 0


def test_digest_picks_youngest_against_sort_oracle():
    b = fat_bulletin(60, 4)
    bound = 8
    digest = make_digest(b, bound)
    assert len(digest) == bound
    # independent oracle: flatten and sort by serial
    serials = sorted(e[0] for e in ranked(b))
    picked_serials = sorted(e[0] for e in ranked(digest))
    assert picked_serials == serials[-bound:]
    excluded_max = max(serials[:-bound])
    assert all(s >= excluded_max for s in picked_serials)


def serial_lists(size: int, top: int):
    """Lists of `size` distinct serials from 0..top: one bulletin never holds
    two entries under one serial."""
    return st.lists(st.integers(0, top), unique=True, min_size=size, max_size=size)


def stored(locations: dict, loads: dict, serials: list) -> dict:
    """`locations` ``(home, seq) -> node`` and `loads` ``node -> load`` as
    one table of stored entries, the i-th under ``serials[i]``, locations
    first."""
    serial = iter(serials)
    return {**{GPid(*key): (node, next(serial)) for key, node in locations.items()},
            **{node: (load, next(serial)) for node, load in loads.items()}}


@settings(max_examples=200, deadline=None)
@given(locations=st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 9)),
                                 st.integers(0, 7), max_size=30),
       loads=st.dictionaries(st.integers(0, 7), st.floats(0, 8), max_size=8),
       serials=serial_lists(38, 50), bound=st.integers(1, 40))
def test_digest_matches_sort_oracle_on_either_side_of_the_bound(locations, loads, serials,
                                                               bound):
    # serials from a narrow range, in any order across the two kinds
    b = Bulletin(owner=0)
    b._facts = stored(locations, loads, serials)
    oracle = latest(b, bound)
    digest = make_digest(b, bound)
    assert sorted(ranked(digest)) == oracle
    assert len(digest) == len(oracle)


@settings(max_examples=100, deadline=None)
@given(serials=st.lists(st.integers(0, 10**6), unique=True, min_size=60, max_size=200),
       n_loads=st.integers(0, 32), bound=st.integers(1, 128),
       rnd=st.randoms(use_true_random=False))
def test_digest_matches_sort_oracle_at_churn_scale(serials, n_loads, bound, rnd):
    # 60-200 entries with serials from a wide range, inserted in a shuffled
    # order: most digests are cut
    b = Bulletin(owner=0)
    order = list(range(len(serials)))
    rnd.shuffle(order)
    for i in order:
        if i < n_loads:
            b._facts[i] = (i / 4, serials[i])
        else:
            b.publish_location(GPid(i % 32, i // 32), i % 32, serials[i])
    oracle = latest(b, bound)
    digest = make_digest(b, bound)
    assert len(digest) == len(oracle)
    assert set(ranked(digest)) == set(oracle)


@pytest.mark.parametrize("bound", (64, 6))   # the whole bulletin, or cut
def test_digest_is_a_snapshot_of_its_bulletin(bound):
    # whatever the source bulletin learns or forgets after a digest is taken,
    # the digest keeps shipping the entries it was taken with
    b = fat_bulletin(6, 4)
    digest = make_digest(b, bound)
    entries, size = sorted(ranked(digest)), len(digest)
    assert size == min(bound, 10)
    before = sorted(ranked(b))
    b.publish_location(GPid(0, 5), 2, 20)     # replaces the latest location
    b.publish_location(GPid(3, 3), 1, 21)     # a new one
    b._facts.pop(GPid(0, 4), None)
    b.publish_load(9.0, 22)
    other = Bulletin(owner=1)
    other.publish_location(GPid(0, 3), 0, 23)
    other._facts[2] = (5.0, 24)
    assert merge(b, make_digest(other, 64)) == 2
    assert sorted(ranked(b)) != before
    assert sorted(ranked(digest)) == entries and len(digest) == size


# -- merge -----------------------------------------------------------------------

def test_merge_younger_wins():
    b = Bulletin(owner=0)
    b.publish_location(P, 1, 1)
    other = Bulletin(owner=1)
    other.publish_location(P, 2, 9)   # published later
    accepted = merge(b, make_digest(other, 10))
    assert accepted == 1
    assert b.lookup_location(P) == (2, 9)


def test_merge_tie_keeps_resident():
    b = Bulletin(owner=0)
    b.publish_location(P, 1, 0)
    other = Bulletin(owner=1)
    other.publish_location(P, 2, 0)   # same serial
    assert merge(b, make_digest(other, 10)) == 0
    assert b.lookup_location(P) == (1, 0)


def test_merge_inserts_absent_entry():
    b = Bulletin(owner=0)
    other = Bulletin(owner=1)
    other.publish_location(Q, 5, 1)
    merge(b, make_digest(other, 10))
    assert b.lookup_location(Q) == (5, 1)


def test_self_merge_is_idempotent():
    b = fat_bulletin()
    before = dict(b._facts)
    assert merge(b, make_digest(b, 100)) == 0
    assert b._facts == before


def test_merge_orders_by_serial_alone():
    # the serial is a fact's one freshness key, so it alone decides
    # pid -> (incoming serial, resident serial, wins)
    cases = {GPid(0, 0): (5, 3, True),
             GPid(0, 1): (3, 5, False),
             GPid(0, 2): (8, 7, True),
             GPid(0, 3): (9, 10, False),
             GPid(0, 4): (4, 4, False)}
    sender, receiver = Bulletin(owner=1), Bulletin(owner=0)
    for pid, (serial, resident_serial, _) in cases.items():
        sender.publish_location(pid, 7, serial)
        receiver.publish_location(pid, 3, resident_serial)
    sender.publish_location(Q, 5, 11)        # unknown to the receiver
    sender._facts[2] = (4.0, 12)
    receiver._facts[2] = (9.0, 2)
    shared = GPid(2, 0)   # one tuple held by both sides is never re-accepted
    sender._facts[shared] = receiver._facts[shared] = (6, 1)
    assert merge(receiver, make_digest(sender, 64)) == 4
    for pid, (serial, resident_serial, wins) in cases.items():
        assert receiver.lookup_location(pid) == (
            (7, serial) if wins else (3, resident_serial))
    assert receiver.lookup_location(Q) == (5, 11)
    assert receiver.lookup_location(shared) == (6, 1)
    assert receiver.load_view(3)[2] == 4.0


def merge_oracle(table: dict, entries: list, owner) -> int:
    """Plain merge: for each key the greater serial wins, a tie keeps the
    resident entry, and the key `owner` is never replaced; returns the number
    of keys inserted or replaced."""
    changed = 0
    for key, entry in entries:
        resident = table.get(key)
        if key != owner and (resident is None or entry[1] > resident[1]):
            table[key] = entry
            changed += 1
    return changed


BULLETINS = st.tuples(
    st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 5)), st.integers(0, 7),
                    max_size=20),
    st.dictionaries(st.integers(0, 7), st.floats(0, 8), max_size=8),
    serial_lists(28, 40))


@settings(max_examples=200, deadline=None)
@given(resident=BULLETINS, incoming=BULLETINS, owner=st.integers(0, 7))
def test_merge_matches_plain_oracle_on_either_side_of_the_bound(resident, incoming, owner):
    # each side's serials are distinct, but both come from one small range,
    # so many keys tie across the sides; the digest ships the whole sending
    # bulletin, then one cut to half of it
    sender = Bulletin(owner=(owner + 1) % 8)
    sender._facts = stored(*incoming)
    for bound in (64, max(1, len(sender) // 2)):
        b = Bulletin(owner=owner)
        b._facts = stored(*resident)
        digest = make_digest(sender, bound)
        facts = dict(b._facts)
        changed = merge_oracle(facts, list(digest), owner)
        assert merge(b, digest) == changed
        assert b._facts == facts


def pair_of(sent, held, owner) -> tuple[Bulletin, Bulletin]:
    """A sender holding `sent` and a peer, owned by node `owner`, holding
    `held`, each as `stored` builds them."""
    sender, peer = Bulletin(owner=(owner + 1) % 8), Bulletin(owner=owner)
    sender._facts, peer._facts = stored(*sent), stored(*held)
    return sender, peer


@settings(max_examples=300, deadline=None)
@given(sent=BULLETINS, held=BULLETINS, owner=st.integers(0, 7), bound=st.integers(1, 40))
# a copy under the peer's serial and a later copy of the peer's own load: the
# peer lacks nothing that it would take
@example(sent=({(0, 0): 3}, {0: 9.0}, [5, 7]), held=({(0, 0): 4}, {0: 1.0}, [5, 2]),
         owner=0, bound=1)
def test_peer_aware_digest_matches_its_sort_oracle(sent, held, owner, bound):
    # both sides draw serials from one small range, so many keys tie across
    # them; the candidates number 0-28, on either side of the bound
    sender, peer = pair_of(sent, held, owner)
    facts = peer._facts
    lacked = [(key, entry) for key, entry in sender._facts.items()
              if key != owner and (key not in facts or entry[1] > facts[key][1])]
    digest = make_digest(sender, bound, peer=peer)
    assert sorted(ranked(digest)) == latest(lacked, bound)
    shipped = dict(digest)
    assert [key for key, _ in digest] == [key for key in sender._facts if key in shipped]


@settings(max_examples=300, deadline=None)
@given(sent=BULLETINS, held=BULLETINS, owner=st.integers(0, 7), bound=st.integers(1, 40))
def test_a_peer_aware_digest_gets_accepted_all_that_the_newest_window_does(sent, held,
                                                                          owner, bound):
    # the newest window (no peer) ships the `bound` latest facts, and the peer
    # takes those it lacks; they are among the latest facts it lacks, so the
    # peer-aware digest ships them too, and the peer takes all it ships
    def taken(peer_aware: bool) -> tuple[dict, int]:
        sender, peer = pair_of(sent, held, owner)
        before = dict(peer._facts)
        digest = make_digest(sender, bound, peer=peer if peer_aware else None)
        accepted = merge(peer, digest)
        changed = {key: entry for key, entry in peer._facts.items()
                   if before.get(key) is not entry}
        assert accepted == len(changed)
        return changed, len(digest)

    window, _ = taken(False)
    aware, shipped = taken(True)
    assert window.items() <= aware.items()
    assert len(aware) == shipped


@settings(max_examples=300, deadline=None)
@given(left=BULLETINS, right=BULLETINS,
       owners=st.lists(st.integers(0, 7), min_size=2, max_size=2, unique=True),
       shared=st.booleans())
# equal serials with different values: neither side changes
@example(left=({(0, 0): 3}, {2: 1.0}, [5, 6]), right=({(0, 0): 4}, {2: 2.0}, [5, 6]),
         owners=[0, 1], shared=False)
# later hearsay about each owner's load: neither owner takes it
@example(left=({}, {0: 1.0, 1: 9.0}, [1, 10]), right=({}, {1: 2.0, 0: 9.0}, [2, 11]),
         owners=[0, 1], shared=False)
# right lacks its own load, which left holds, and holds a load left lacks: the
# two load tables are the same size, yet left must take one key
@example(left=({}, {1: 5.0}, [3]), right=({}, {2: 6.0}, [4]), owners=[0, 1], shared=False)
@example(left=({}, {2: 6.0}, [4]), right=({}, {0: 5.0}, [3]), owners=[0, 1], shared=False)
def test_whole_swap_matches_two_snapshot_merges(left, right, owners, shared):
    # gossip_round swaps two bulletins within the bound in place; that must
    # leave what merging both whole digests, taken before either merge, does
    def pair():
        a, b = Bulletin(owner=owners[0]), Bulletin(owner=owners[1])
        a._facts, b._facts = stored(*left), stored(*right)
        if shared:   # the very location tuple on both sides, as in a steady cluster
            for key in a._facts.keys() & b._facts.keys():
                if isinstance(key, GPid):
                    b._facts[key] = a._facts[key]
        return a, b

    a, b = pair()
    digest_a, digest_b = make_digest(a, 64), make_digest(b, 64)
    accepted = merge(b, digest_a) + merge(a, digest_b)
    x, y = pair()
    assert gossip._swap(x, y) == accepted
    for swapped, merged in ((x, a), (y, b)):
        assert list(swapped._facts.items()) == list(merged._facts.items())


def test_own_load_fact_never_overwritten():
    b = Bulletin(owner=0)
    b.publish_load(7.0, 1)
    other = Bulletin(owner=1)
    other._facts[0] = (99.0, 10**6)   # later hearsay about node 0
    merge(b, make_digest(other, 10))
    assert b.load_view(2)[0] == 7.0


def test_a_location_and_a_load_under_one_number_stay_distinct():
    # GPid(2, 0)'s location and node 2's load share one table: a GPid is a
    # tuple, never equal to the int 2, so neither displaces the other, and
    # the owner check that guards node 2's own load spares the location
    pid = GPid(2, 0)
    origin, peer = Bulletin(owner=2), Bulletin(owner=0)
    origin.publish_load(3.0, 1)
    origin.publish_location(pid, 5, 2)
    peer.publish_load(1.0, 0)
    assert len(origin) == 2
    assert gossip._swap(origin, peer) == 3
    for b in (origin, peer):
        assert len(b) == 3
        assert b.lookup_location(pid) == (5, 2)
        assert b.load_view(3) == {2: 3.0, 0: 1.0}
    # three facts against bound 2: the cut digest ships the two latest, the
    # location and node 2's load
    digest = make_digest(peer, 2)
    assert sorted(ranked(digest)) == [(1, 1, 2, 3.0), (2, 0, (2, 0), 5)]
    home = Bulletin(owner=2)
    home.publish_load(4.0, 7)   # node 2's own load, never replaced by hearsay
    assert merge(home, digest) == 1
    assert home.lookup_location(pid) == (5, 2)
    assert home.load_view(3) == {2: 4.0}


# -- gossip_round ------------------------------------------------------------------

def test_single_node_round_is_noop_but_counts_the_round():
    state = ClusterState(Topology.mesh(1))
    pid = state.spawn(0)
    published = state.bulletins[0].lookup_location(pid)
    report = gossip_round(state, random.Random(0))
    assert report.exchanges == 0 and report.frames == 0
    assert state.gossip_rounds == report.index == 1
    assert state.bulletins[0].lookup_location(pid) == published


def test_two_node_push_pull_spreads_in_one_round_both_directions():
    # exhaustive: whichever side holds the fact, one exchange informs the other
    for holder in (0, 1):
        state = ClusterState(Topology.mesh(2))
        pid = state.spawn(holder)
        gossip_round(state, random.Random(0))
        assert informed_count(state, pid) == 2


def test_round_frame_bound_and_digest_bound():
    state = ClusterState(Topology.mesh(8))
    for n in range(8):
        state.spawn(n)
    config = GossipConfig(bound=4)
    rng = random.Random(1)
    for _ in range(10):
        report = gossip_round(state, rng, config)
        assert report.frames <= 2 * 8
    for b in state.bulletins:
        assert len(make_digest(b, config.bound)) <= 4


def test_informed_set_is_monotone():
    state = ClusterState(Topology.mesh(16))
    pid = state.spawn(0)
    rng = random.Random(7)
    informed = 1
    for _ in range(20):
        gossip_round(state, rng)
        now = informed_count(state, pid)
        assert now >= informed
        informed = now
    assert informed == 16


def test_eventual_convergence_static_cluster():
    sim = build_sim(nodes=8, seed=3)
    for n in range(8):
        sim.cluster.spawn(n)
    sim.cluster.migrate(GPid(0, 0), 5)
    rounds = converge(sim.cluster, sim.rng, max_rounds=200)
    assert rounds <= 200
    assert is_converged(sim.cluster)


def test_convergence_survives_lossy_exchanges():
    config = GossipConfig(drop_probability=0.5)
    state = ClusterState(Topology.mesh(8))
    pid = state.spawn(0)
    rng = random.Random(11)
    rounds = converge(state, rng, config, max_rounds=500)
    assert rounds <= 500
    assert informed_count(state, pid) == 8


def test_converge_raises_coded_error_when_rounds_run_out():
    state = ClusterState(Topology.mesh(16))
    state.spawn(0)
    with pytest.raises(NoConvergenceError) as err:
        converge(state, random.Random(0), max_rounds=1)
    assert isinstance(err.value, SimulatorError)
    assert err.value.code == "E_NO_CONVERGENCE"


def test_converge_raises_after_exactly_max_rounds():
    # 68 facts on 8 nodes take three rounds at this seed: two are not enough
    state = ClusterState(Topology.mesh(8))
    for i in range(60):
        state.spawn(i % 8)
    with pytest.raises(NoConvergenceError, match="within 2 rounds"):
        converge(state, random.Random(0), max_rounds=2)
    assert state.gossip_rounds == 2


def test_converge_checks_the_last_round():
    def cluster():
        sim = build_sim(nodes=8, seed=3)
        for n in range(8):
            sim.cluster.spawn(n)
        return sim

    sim = cluster()
    rounds = converge(sim.cluster, sim.rng)
    assert rounds >= 1
    # a cap of exactly the rounds needed converges on the last round
    sim = cluster()
    assert converge(sim.cluster, sim.rng, max_rounds=rounds) == rounds
    sim = cluster()
    with pytest.raises(NoConvergenceError):
        converge(sim.cluster, sim.rng, max_rounds=rounds - 1)
    assert sim.cluster.gossip_rounds == rounds - 1


def test_converge_raises_at_once_when_every_exchange_is_dropped():
    state = ClusterState(Topology.mesh(4))
    state.spawn(0)
    with pytest.raises(NoConvergenceError, match="every gossip exchange is dropped"):
        converge(state, random.Random(0), GossipConfig(drop_probability=1.0))
    assert state.gossip_rounds == 0
    rounds = converge(state, random.Random(0))
    # a converged cluster needs no round, whatever the drop probability
    assert converge(state, random.Random(0), GossipConfig(drop_probability=1.0)) == 0
    assert state.gossip_rounds == rounds


def over_full_cluster(nodes: int, procs: int) -> ClusterState:
    """`procs` processes spawned round-robin over `nodes` nodes, each
    bulletin holding only its own facts."""
    state = ClusterState(Topology.mesh(nodes))
    for i in range(procs):
        state.spawn(i % nodes)
    return state


@pytest.mark.parametrize("seed", range(5))
def test_converges_with_four_times_more_facts_than_the_digest_bound(seed):
    # 64 facts against bound 16, 136 against bound 4 (with and without lost
    # exchanges) and 216 against bound 8: a cut digest carries only the latest
    # `bound` of the facts its peer lacks, and the rest stay candidates in
    # every later exchange with that peer until they ship.  Each case needs
    # at most 27 rounds at seeds 0-4
    for nodes, procs, bound, drop in [(8, 56, 16, 0.0), (16, 120, 4, 0.0),
                                      (16, 120, 4, 0.2), (16, 200, 8, 0.0)]:
        state = over_full_cluster(nodes, procs)
        config = GossipConfig(bound=bound, drop_probability=drop)
        try:
            converge(state, random.Random(seed), config, max_rounds=100)
        except NoConvergenceError:
            pytest.fail(f"{nodes} nodes, {procs} processes, bound {bound}, "
                        f"drop {drop}: no convergence in 100 rounds")


def test_64_nodes_with_256_processes_converge_in_7_rounds():
    # 320 facts against the default bound of 64: almost every pair is
    # over-full, so this pins how fast digests of the facts each peer lacks
    # spread them
    assert converge(over_full_cluster(64, 256), random.Random(1), GossipConfig()) == 7


@pytest.mark.parametrize("pin,seed", [(pin, seed) for pin in PINS["gossip"]["converge"]
                                      for seed in pin["rounds"]],
                         ids=lambda value: (f"{value['nodes']}-{value['procs']}"
                                            if isinstance(value, dict) else f"seed {value}"))
def test_over_full_clusters_converge_in_their_pinned_rounds(pin, seed):
    name = f"{pin['nodes']}-{pin['procs']} seed {seed}"
    rounds = converge(over_full_cluster(pin["nodes"], pin["procs"]), random.Random(int(seed)),
                      GossipConfig())
    assert rounds == pin["rounds"][seed], f"pin converge {name}: {rounds} rounds"


def seeded_bulletin_fingerprint(nodes: int, procs: int, rounds: int = 30,
                                seed: int = 2024) -> str:
    """SHA-256 over every round report and the sorted contents of every
    bulletin after `rounds` seeded rounds with a migration every third round.
    Dict order is left out: no reader of a bulletin depends on it."""
    state = ClusterState(Topology.mesh(nodes))
    rng = random.Random(seed)
    pids = [state.spawn(i % nodes, work=1.0 + i % 3) for i in range(procs)]
    reports = []
    for r in range(rounds):
        rep = gossip_round(state, rng)
        reports.append((rep.index, rep.exchanges, rep.dropped, rep.frames, rep.entries_moved))
        if r % 3 == 2:
            state.migrate(pids[rng.randrange(procs)], rng.randrange(nodes))
    h = hashlib.sha256(repr(reports).encode())
    for b in state.bulletins:
        locations = sorted((key.home, key.seq, node, serial)
                           for key, (node, serial) in b._facts.items() if isinstance(key, GPid))
        loads = sorted(item for item in b._facts.items() if not isinstance(item[0], GPid))
        h.update(repr((b.owner, state.gossip_rounds, locations, loads)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("pin", PINS["gossip"]["bulletins"], ids=lambda pin: pin["name"])
def test_seeded_rounds_match_golden_bulletins(pin):
    got = seeded_bulletin_fingerprint(pin["nodes"], pin["procs"])
    assert got == pin["sha256"], f"pin gossip bulletins {pin['name']}: sha256 is {got}"


def test_seeded_rounds_match_golden_digests(monkeypatch):
    # SHA-256 over the sorted (kind, key, value, serial) contents of every
    # digest the seeded rounds build, in the order they are built: this pins
    # each digest, not only the bulletins it leaves behind.  A digest is cut
    # when the facts its peer lacks are more than the bound; all of them are
    # what a digest with room for the whole bulletin ships
    pin = PINS["gossip"]["digests"]
    digests = hashlib.sha256()
    built = cut = 0

    def recording_make_digest(bulletin, bound, peer=None):
        nonlocal built, cut
        digest = make_digest(bulletin, bound, peer=peer)
        built += 1
        cut += len(make_digest(bulletin, len(bulletin) + 1, peer=peer)) > bound
        digests.update(repr(sorted((kind, key, value, serial)
                                   for serial, kind, key, value in ranked(digest))).encode())
        return digest

    monkeypatch.setattr(gossip, "make_digest", recording_make_digest)
    seeded_bulletin_fingerprint(pin["nodes"], pin["procs"])
    got = {"built": built, "cut": cut, "sha256": digests.hexdigest()}
    assert got == {key: pin[key] for key in got}, f"pin gossip digests: got {got}"


def test_gossiped_copy_keeps_its_publication_serial():
    state = ClusterState(Topology.mesh(12))
    pid = state.spawn(0)
    published = state.bulletins[0].lookup_location(pid)
    rng = random.Random(5)
    rounds = 0
    # walk until some node that is not the origin learns the fact
    target = None
    while target is None:
        gossip_round(state, rng)
        rounds += 1
        for n in range(1, 12):
            if state.bulletins[n].lookup_location(pid) is not None:
                target = n
                break
    # the copy that arrives by gossip keeps the serial of its publication,
    # however many rounds it took to arrive
    assert state.bulletins[target].lookup_location(pid) == published
    assert state.gossip_rounds == rounds >= 1


def test_load_view_matches_ground_truth_after_convergence():
    sim = build_sim(nodes=6, seed=9)
    for n in range(6):
        for _ in range(n % 3):
            sim.cluster.spawn(n)
    converge(sim.cluster, sim.rng)
    truth = {n: sim.cluster.node_load(n) for n in range(6)}
    for b in sim.cluster.bulletins:
        assert b.load_view(6) == truth


def test_load_view_mid_convergence_values_come_from_history():
    # every gossiped load must be some past ground-truth value for that node
    state = ClusterState(Topology.mesh(6))
    rng = random.Random(13)
    history = {n: {0.0} for n in range(6)}
    pids = []
    for n in range(3):
        pids.append(state.spawn(n, work=1.0 + n))
        history[n].add(state.node_load(n))
    for step in range(10):
        gossip_round(state, rng)
        for b in state.bulletins:
            for n, value in b.load_view(6).items():
                assert value in history[n]
        moved = state.migrate(pids[step % 3], rng.randrange(6))
        if moved:
            history[moved.src].add(state.node_load(moved.src))
            history[moved.dst].add(state.node_load(moved.dst))


# -- pre-build dissemination oracle --------------------------------------------

def oracle_rounds_to_full(n: int, rng: random.Random, cap: int) -> int | None:
    """Abstract push-pull model: a pair exchange informs both ends if either
    is informed.  Mirrors the round structure without bulletins or digests."""
    informed = {0}
    for r in range(1, cap + 1):
        for i in range(n):
            j = rng.randrange(n - 1)
            if j >= i:
                j += 1
            if i in informed or j in informed:
                informed.add(i)
                informed.add(j)
        if len(informed) == n:
            return r
    return None


def test_monte_carlo_oracle_full_dissemination_within_15_rounds():
    hits = sum(1 for seed in range(1000)
               if oracle_rounds_to_full(32, random.Random(seed), 15) is not None)
    assert hits >= 950


def test_real_rounds_track_oracle_on_a_fixed_seed():
    state = ClusterState(Topology.mesh(32))
    pid = state.spawn(0)
    rng = random.Random(123)
    rounds = 0
    while informed_count(state, pid) < 32:
        gossip_round(state, rng)
        rounds += 1
        assert rounds <= 15
    assert oracle_rounds_to_full(32, random.Random(321), 15) is not None


@pytest.mark.parametrize("nodes", [16, 64, 256])
def test_one_rumor_reaches_every_node_within_the_push_pull_law(nodes):
    """Push-pull gossip informs every node in log3(n) + O(log log n) rounds
    with high probability (Karp, Schindelhauer, Shenker and Vöcking,
    "Randomized rumor spreading", FOCS 2000).  The bound tested is
    log3(n) + ln ln n + c with c = 1: over seeds 0-49, `gossip_stats` took at
    most 4, 5 and 6 rounds at 16, 64 and 256 nodes against 3.54, 5.21 and
    6.76, so the worst excess was 0.46 rounds, at 16 nodes."""
    bound = math.log(nodes, 3) + math.log(math.log(nodes)) + 1
    rounds = [int(templates.gossip_stats(nodes=nodes, seed=seed).extra["rounds_to_full"])
              for seed in range(20)]
    assert max(rounds) <= bound, (nodes, rounds)
