import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TEST_MODEL, replaced
from migratenet.cluster import ClusterState, GPid, Topology
from migratenet.errors import BadNodeError, InvalidScenarioError, NoSuchProcessError
from migratenet.simcore import EventQueue, Metrics, TransportKind
from migratenet.transport import DATA, Router, TransportConfig


def cluster(n=6) -> ClusterState:
    return ClusterState(Topology.mesh(n))


def collapse_path(raw: list) -> list:
    """Drop consecutive duplicate nodes from a path: the oracle the waypoints
    of ``Router._relay_route`` are checked against."""
    out = []
    for node in raw:
        if not out or out[-1] != node:
            out.append(node)
    return out


# -- spawn -------------------------------------------------------------------

def test_spawn_first_id_is_zero():
    state = cluster()
    pid = state.spawn(0)
    assert pid == GPid(0, 0)
    assert pid in state.resident[0]


def test_gpid_str_repr_order_and_hash():
    pid = GPid(3, 7)
    assert str(pid) == f"{pid}" == "3:7"
    assert repr(pid) == "GPid(home=3, seq=7)"
    assert hash(pid) == hash((3, 7))
    assert sorted([GPid(2, 9), GPid(1, 5), GPid(2, 0)]) == [GPid(1, 5), GPid(2, 0), GPid(2, 9)]
    assert GPid(1, 9) < GPid(2, 0)


def test_spawn_seq_is_monotone_per_home():
    state = cluster()
    assert state.spawn(3).seq == 0
    assert state.spawn(3).seq == 1
    assert state.spawn(2).seq == 0   # independent counter per home


def test_spawn_bad_node():
    state = cluster(6)
    with pytest.raises(BadNodeError) as err:
        state.spawn(99)
    assert err.value.code == "E_BAD_NODE"


def test_spawn_publishes_location_in_home_bulletin():
    state = cluster()
    serial = state._publish_serial + 1   # spawn publishes the location first
    pid = state.spawn(2)
    assert state.bulletins[2].lookup_location(pid) == (2, serial)


# -- migrate ------------------------------------------------------------------
# a home answers where its process runs from ground truth: `residency`

def test_migrate_updates_registry_and_resident_set():
    state = cluster()
    pid = state.spawn(0)
    event = state.migrate(pid, 4)
    assert (event.src, event.dst) == (0, 4)
    assert state.residency(pid) == state.procs[pid].current == 4
    assert pid in state.resident[4] and pid not in state.resident[0]
    assert pid.home == 0


def test_migrate_to_current_node_is_noop():
    state = cluster()
    pid = state.spawn(1)
    before = state.residency(pid)
    assert state.migrate(pid, 1) is None
    assert state.residency(pid) == before == 1


def test_migrate_unknown_process():
    state = cluster()
    with pytest.raises(NoSuchProcessError):
        state.migrate(GPid(0, 7), 2)


def test_migrate_bad_target():
    state = cluster()
    pid = state.spawn(0)
    with pytest.raises(BadNodeError):
        state.migrate(pid, -1)


# -- locate: the home's answer ------------------------------------------------

def test_locate_unmigrated():
    state = cluster()
    pid = state.spawn(2)
    assert state.residency(pid) == 2


def test_locate_follows_migration():
    state = cluster()
    pid = state.spawn(0)
    state.migrate(pid, 5)
    assert state.residency(pid) == 5


def test_locate_matches_replay_oracle_after_chained_migrations():
    # oracle: fold the event log, last write per pid wins
    state = cluster()
    pid = state.spawn(0)
    log = [(pid, 0)]
    for target in (4, 1):
        state.migrate(pid, target)
        log.append((pid, target))
    oracle = {}
    for p, node in log:
        oracle[p] = node
    assert state.residency(pid) == oracle[pid] == 1


def test_locate_unknown():
    state = cluster()
    with pytest.raises(NoSuchProcessError):
        state.residency(GPid(1, 1))


# -- relay route ---------------------------------------------------------------

def relay_path(state: ClusterState, src: GPid, dst: GPid) -> list:
    """The nodes the relay route from src to dst visits, as the router builds it."""
    sender = state.residency(src)
    links = Router(state, TEST_MODEL, Metrics(), EventQueue(), TransportConfig(),
                   None)._relay_route(sender, src.home, dst.home, state.residency(dst), 0)
    return [sender] + [to for _, _, to, _ in links]


def test_relay_path_all_distinct_three_hops():
    state = cluster()
    src, dst = state.spawn(0), state.spawn(1)
    state.migrate(src, 2)
    state.migrate(dst, 3)
    assert relay_path(state, src, dst) == [2, 0, 1, 3]


def test_relay_path_unmigrated_collapses_to_one_hop():
    state = cluster()
    src, dst = state.spawn(0), state.spawn(1)
    assert relay_path(state, src, dst) == [0, 1]


def test_relay_path_same_process_everything_coincides():
    state = cluster()
    src, dst = state.spawn(2), state.spawn(2)
    assert relay_path(state, src, dst) == [2]


def test_relay_path_coresident_distinct_homes_still_transits_homes():
    # relay traffic is pinned to the home chain even when both endpoints
    # migrated onto one node; only direct transport short-circuits that
    state = cluster()
    src, dst = state.spawn(0), state.spawn(1)
    state.migrate(src, 4)
    state.migrate(dst, 4)
    assert relay_path(state, src, dst) == [4, 0, 1, 4]


@settings(max_examples=200)
@given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=8))
def test_collapse_path_oracle(raw):
    collapsed = collapse_path(raw)
    # no two equal consecutive nodes, endpoints preserved
    assert all(a != b for a, b in zip(collapsed, collapsed[1:]))
    assert collapsed[0] == raw[0] and collapsed[-1] == raw[-1]
    # independent hop oracle: hops == count of unequal consecutive pairs
    assert len(collapsed) - 1 == sum(1 for a, b in zip(raw, raw[1:]) if a != b)



@given(st.lists(st.integers(min_value=0, max_value=3), min_size=4, max_size=4))
def test_relay_legs_walk_the_collapsed_path_and_tag_home_legs(waypoints):
    sender, src_home, dst_home, receiver = waypoints
    router = Router(cluster(4), replaced(TEST_MODEL, home_leg_factor=0.25), Metrics(),
                    EventQueue(), TransportConfig(), None)
    links = router._relay_route(sender, src_home, dst_home, receiver, 0)
    relayed = router._carry(TransportKind.RELAY, links, GPid(src_home, 0), GPid(dst_home, 0),
                            0, receiver).relayed_by
    assert [sender] + [to for _, _, to, _ in links] == collapse_path(waypoints)
    assert all(kind is DATA for kind, *_ in links)
    assert relayed == tuple(to for _, _, to, _ in links[:-1])
    # only the leg between the two homes is charged as a full hop (1.0 at size 0)
    inter_home = [(frm, to) for _, frm, to, cost in links if cost == 1.0]
    assert inter_home == ([(src_home, dst_home)] if src_home != dst_home else [])
    assert sum(cost == 0.25 for *_, cost in links) == \
        (sender != src_home) + (dst_home != receiver)


# -- node_load -------------------------------------------------------------------

def test_node_load_empty():
    assert cluster().node_load(3) == 0.0


def test_node_load_sums_work():
    state = cluster()
    state.spawn(1, work=1.0)
    state.spawn(1, work=1.0)
    assert state.node_load(1) == 2.0


def test_imbalanced_setup_load_ordering():
    state = cluster()
    for _ in range(2):
        state.spawn(0)
    assert state.node_load(0) > state.node_load(5)


def test_node_load_bad_node():
    with pytest.raises(BadNodeError):
        cluster().node_load(17)


# -- invariants under random event sequences -----------------------------------

def test_registry_consistency_and_conservation_random_ops():
    rng = random.Random(42)
    state = cluster(6)
    pids = [state.spawn(rng.randrange(6), work=rng.choice([0.5, 1.0, 2.0]))
            for _ in range(8)]
    homes = {p: p.home for p in pids}
    oracle = {p: p.home for p in pids}   # last write per pid wins
    for _ in range(200):
        pid = rng.choice(pids)
        oracle[pid] = rng.randrange(6)
        state.migrate(pid, oracle[pid])
        assert len(state.procs) == 8
        total = sum(len(s) for s in state.resident)
        assert total == 8
        for p in pids:
            where = state.residency(p)
            assert where == oracle[p]
            assert p in state.resident[where]
            assert p.home == homes[p]


# -- topology --------------------------------------------------------------------

@pytest.mark.parametrize("nodes", [0, -1, 2 ** 16 + 1, pytest.param(10 ** 400, id="10**400")])
def test_mesh_node_count_is_bounded(nodes):
    # checked before any per-node state exists: 10**400 nodes would never finish
    with pytest.raises(InvalidScenarioError, match=re.escape(
            "topology.nodes: must be >= 1 and <= 65536")):
        Topology.mesh(nodes)


def test_mesh_takes_both_bounds():
    assert Topology.mesh(1).nodes == 1
    assert Topology.mesh(2 ** 16).nodes == 2 ** 16
