from itertools import product

import pytest

from conftest import TEST_MODEL, build_sim, fill, force_convergence, place_pair, replaced
from migratenet.errors import BadSizeError, MessageTooLargeError, NoSuchProcessError
from migratenet.cluster import ClusterState, GPid
from migratenet.gossip import Bulletin, GossipConfig, gossip_round, make_digest, merge
from migratenet.simcore import TransportKind
from migratenet.transport import DeliveryReport, Router, TransportConfig

HOP = lambda s: TEST_MODEL.alpha_net + s / TEST_MODEL.beta_net
SM = lambda s: TEST_MODEL.alpha_sm + s / TEST_MODEL.beta_sm
D = TEST_MODEL.direct_overhead


def estimates(router, src, dst, size) -> tuple[float, float]:
    """Auto's relay and direct estimates for one send, resolved as auto does."""
    sender = router.cluster.residency(src)
    relay, direct = router._estimates(sender, src, dst, size, router._first_target(sender, dst))
    return relay[0], direct[0]


def set_belief(sim, at_a, b, belief) -> Bulletin:
    """Make a's node, `at_a`, hold `belief` as its entry for b (None: no
    entry), and return its bulletin.  The bulletin is filled anew with every
    fact but b's, under their serials, so a node that learned b's location
    first-hand can be made to lack it."""
    held = sim.cluster.bulletins[at_a]._facts
    bulletin = fill(Bulletin(owner=at_a), {key: held[key] for key in held if key != b})
    if belief is not None:
        bulletin.publish_location(b, belief, sim.cluster.stamp())
    sim.cluster.bulletins[at_a] = bulletin
    return bulletin


def assert_rejects_negative_size(send_name):
    """A negative size fails with E_BAD_SIZE before any counter or bulletin
    changes; b has migrated and a's node has no entry for it, so a direct
    send would otherwise publish one."""
    sim = build_sim()
    a, b = place_pair(sim, 0, 1, 2, 3)
    rows = sim.metrics.rows()
    entries = [dict(bulletin._facts) for bulletin in sim.cluster.bulletins]
    with pytest.raises(BadSizeError) as err:
        getattr(sim.router, send_name)(a, b, -10 ** 9)
    assert err.value.code == "E_BAD_SIZE" and isinstance(err.value, ValueError)
    assert sim.metrics.rows() == rows
    assert [dict(bulletin._facts) for bulletin in sim.cluster.bulletins] == entries


# -- relay ---------------------------------------------------------------------

def test_relay_both_migrated_three_hops():
    sim = build_sim()
    a, b = place_pair(sim, 0, 1, 2, 3)
    rep = sim.router.send_relay(a, b, 1000)
    assert rep.network_hops == 3
    assert rep.relayed_by == (0, 1)
    assert rep.latency == 3 * HOP(1000)


def test_relay_unmigrated_single_hop():
    sim = build_sim()
    a, b = place_pair(sim, 0, 1)
    rep = sim.router.send_relay(a, b, 1000)
    assert rep.network_hops == 1 and rep.relayed_by == ()


def test_relay_shared_memory_when_all_waypoints_coincide():
    sim = build_sim()
    a, b = place_pair(sim, 2, 2)
    rep = sim.router.send_relay(a, b, 1000)
    assert rep.network_hops == 0 and rep.frames_emitted == 0
    assert rep.latency == SM(1000)


def test_relay_home_legs_cost_the_factor_and_the_inter_home_leg_a_full_hop():
    model = replaced(TEST_MODEL, home_leg_factor=0.5)
    for at_a, at_b, hops in ((2, 3, 2.0), (2, None, 1.5), (None, 3, 1.5), (None, None, 1.0)):
        sim = build_sim(model=model)
        a, b = place_pair(sim, 0, 1, at_a, at_b)
        rep = sim.router.send_relay(a, b, 1000)
        assert rep.latency == hops * HOP(1000)
        assert rep.network_hops == 1 + (at_a is not None) + (at_b is not None)


def test_relay_cap_enforced():
    sim = build_sim(caps=TransportConfig(relay_max=1000, direct_max=2000))
    a, b = place_pair(sim, 0, 1)
    sim.router.send_relay(a, b, 1000)   # at the cap: fine
    with pytest.raises(MessageTooLargeError) as err:
        sim.router.send_relay(a, b, 1001)
    assert err.value.code == "E_MSG_TOO_LARGE"


def test_relay_rejects_negative_size():
    assert_rejects_negative_size("send_relay")


def test_relay_unknown_process():
    sim = build_sim()
    a, _ = place_pair(sim, 0, 1)
    with pytest.raises(NoSuchProcessError):
        sim.router.send_relay(a, GPid(3, 9), 10)


# -- direct: hit / co-resident -----------------------------------------------------

def test_direct_hit_single_hop_with_overhead():
    sim = build_sim()
    a, b = place_pair(sim, 0, 1, 2, 3)
    sim.converge()
    rep = sim.router.send_direct(a, b, 1000)
    assert rep.network_hops == 1
    assert rep.frames_emitted == 1
    assert rep.relayed_by == ()
    assert rep.latency == HOP(1000) + D


def test_direct_coresident_shared_memory_overhead_still_applies():
    sim = build_sim()
    a, b = place_pair(sim, 0, 1, 4, 4)
    rep = sim.router.send_direct(a, b, 1000)
    assert rep.network_hops == 0 and rep.frames_emitted == 0
    assert rep.latency == SM(1000) + D


def test_direct_location_independence_converged():
    sim = build_sim(nodes=6)
    placements = [(0, 1), (2, 3), (4, 5), (5, 2)]
    latencies = set()
    for at_a, at_b in placements:
        fresh = build_sim(nodes=6)
        a, b = place_pair(fresh, 0, 1, at_a, at_b)
        fresh.converge()
        latencies.add(fresh.router.send_direct(a, b, 4096).latency)
    assert len(latencies) == 1


# -- direct: miss path ---------------------------------------------------------------

def test_direct_miss_goes_via_home_and_updates_bulletin():
    sim = build_sim()
    a, b = place_pair(sim, 0, 1, 2, 3)   # no gossip: node 2 knows nothing of b
    rep = sim.router.send_direct(a, b, 1000)
    assert rep.network_hops == 2          # sender -> home -> true node
    assert rep.frames_emitted == 3        # + location reply
    assert rep.relayed_by == (1,)
    assert rep.latency == 2 * HOP(1000) + D
    # reply refreshed the sender's bulletin: next send is a one-hop hit
    assert sim.cluster.bulletins[2].lookup_location(b) == (3, sim.cluster._publish_serial)
    assert sim.router.send_direct(a, b, 1000).network_hops == 1


def test_direct_miss_collapses_when_home_hosts_destination():
    sim = build_sim()
    a, b = place_pair(sim, 0, 1)          # b sits on its home
    rep = sim.router.send_direct(a, b, 1000)
    assert rep.network_hops == 1          # home leg terminates the message
    assert rep.frames_emitted == 2        # DATA + location reply
    assert rep.relayed_by == ()


def test_direct_miss_when_sender_is_the_home():
    sim = build_sim()
    b = sim.cluster.spawn(0, "B")
    a = sim.cluster.spawn(1, "A")
    sim.cluster.migrate(a, 0)             # a runs on b's home
    sim.cluster.migrate(b, 3)
    set_belief(sim, 0, b, None)
    rep = sim.router.send_direct(a, b, 500)
    assert rep.network_hops == 1          # local home leg is free, forward costs one
    assert rep.latency == HOP(500) + D
    assert rep.relayed_by == ()           # the home originates the send


def test_the_home_keeps_knowing_where_its_process_runs():
    # a runs on b's home, node 1, and b has moved on to node 0, so node 1's
    # entry for b still names node 1 itself.  The first send is stale and
    # goes straight on from the home; the home keeps b's node, so the next
    # sends hit, over the same link at the same latency
    trace = []
    sim = build_sim(nodes=3, trace=trace)
    a, b = place_pair(sim, 0, 1, 1, 0)
    reports = [sim.router.send_direct(a, b, 1000) for _ in range(3)]
    assert [(t[1], t[4], t[5]) for t in trace] == [("DATA", 1, 0)] * 3
    assert [(r.network_hops, r.latency, r.relayed_by) for r in reports] == \
        [(1, HOP(1000) + D, ())] * 3
    assert sim.metrics.direct_outcomes == {"local": 0, "hit": 2, "miss": 0, "stale": 1}
    assert sim.cluster.bulletins[1].lookup_location(b)[0] == 0


# -- direct: stale path ----------------------------------------------------------------

def stale_setup():
    """Sender 0 believes dst is on node 2, but it moved on to node 3."""
    sim = build_sim()
    a = sim.cluster.spawn(0, "A")
    b = sim.cluster.spawn(1, "B")
    sim.cluster.migrate(b, 2)
    sim.converge()
    sim.cluster.migrate(b, 3)             # no gossip round after this
    return sim, a, b


def test_direct_stale_nack_then_home_fallback():
    sim, a, b = stale_setup()
    trace = []
    sim.router.trace = trace
    rep = sim.router.send_direct(a, b, 1000)
    assert rep.network_hops == 3          # wasted + home + forward
    assert rep.frames_emitted == 5        # + NACK + location reply
    assert rep.relayed_by == (1,)
    assert rep.latency == HOP(1000) + HOP(64) + 2 * HOP(1000) + D
    kinds_hops = [(kind, frm, to) for _, kind, _, _, frm, to, _ in trace]
    assert kinds_hops == [
        ("DATA", 0, 2),
        ("NACK_UNKNOWN", 2, 0),
        ("DATA", 0, 1),
        ("DATA", 1, 3),
        ("LOC_REPLY", 1, 0),
    ]
    assert sim.cluster.bulletins[0].lookup_location(b) == (3, sim.cluster._publish_serial)
    second = sim.router.send_direct(a, b, 1000)
    assert second.network_hops == 1 and second.frames_emitted == 1


def test_direct_locally_stale_entry_detected_without_frames():
    # bulletin claims dst runs on the sender's own node; the resident set
    # says otherwise, so the entry dies without a wasted hop
    sim = build_sim()
    a = sim.cluster.spawn(0, "A")
    b = sim.cluster.spawn(1, "B")
    sim.cluster.migrate(b, 0)
    sim.converge()
    sim.cluster.migrate(b, 4)
    assert sim.cluster.bulletins[0].lookup_location(b)[0] == 0
    rep = sim.router.send_direct(a, b, 100)
    assert rep.network_hops == 2          # straight to the miss path
    assert sim.cluster.bulletins[0].lookup_location(b) == (4, sim.cluster._publish_serial)


def test_direct_terminates_within_three_data_hops_for_any_staleness():
    for seed in range(20):
        sim = build_sim(seed=seed)
        a, b = place_pair(sim, 0, 1, 2, 3)
        sim.converge()
        sim.cluster.migrate(b, (seed % 5) + 1 if (seed % 5) + 1 != 2 else 5)
        rep = sim.router.send_direct(a, b, 256)
        assert rep.network_hops <= 3


def test_direct_cap_enforced():
    sim = build_sim(caps=TransportConfig(relay_max=1000, direct_max=2000))
    a, b = place_pair(sim, 0, 1)
    with pytest.raises(MessageTooLargeError):
        sim.router.send_direct(a, b, 2001)


def test_direct_rejects_negative_size():
    assert_rejects_negative_size("send_direct")


# -- direct route table ------------------------------------------------------------

# a is homed on node 0 and b on node 1; a runs on `at_a`, b on `at_b`, and
# a's node believes b runs on `belief` (None: no entry).  Each route lists
# its link traversals as (kind, from, to), then the node a's bulletin names
# for b afterwards, then the direct outcome the send counts.  DATA carries
# the payload; the control frames (NACK_UNKNOWN, LOC_REPLY) travel from b's
# side back to a.  An entry naming a's node or b's home while b runs
# elsewhere counts as stale.  After a miss or stale send a's node names b's
# node: the home told it, or a runs on the home.
SIZE, CTL = 1000, TransportConfig().control_size
DIRECT_ROUTES = {
    "local": (2, 2, None, [], None, "local"),
    "hit": (2, 3, 3, [("DATA", 2, 3)], 3, "hit"),
    "hit_at_home": (2, 1, 1, [("DATA", 2, 1)], 1, "hit"),
    "miss": (2, 3, None, [("DATA", 2, 1), ("DATA", 1, 3), ("LOC_REPLY", 1, 2)], 3, "miss"),
    "miss_home_hosts_dst": (2, 1, None, [("DATA", 2, 1), ("LOC_REPLY", 1, 2)], 1, "miss"),
    "miss_from_home": (1, 3, None, [("DATA", 1, 3)], 3, "miss"),
    "self_claiming_entry": (2, 3, 2,
                            [("DATA", 2, 1), ("DATA", 1, 3), ("LOC_REPLY", 1, 2)], 3,
                            "stale"),
    "stale": (2, 3, 4, [("DATA", 2, 4), ("NACK_UNKNOWN", 4, 2), ("DATA", 2, 1),
                        ("DATA", 1, 3), ("LOC_REPLY", 1, 2)], 3, "stale"),
    "stale_at_home": (2, 3, 1,
                      [("DATA", 2, 1), ("DATA", 1, 3), ("LOC_REPLY", 1, 2)], 3, "stale"),
    "stale_from_home": (1, 3, 4,
                        [("DATA", 1, 4), ("NACK_UNKNOWN", 4, 1), ("DATA", 1, 3)], 3,
                        "stale"),
    "stale_home_hosts_dst": (2, 1, 4, [("DATA", 2, 4), ("NACK_UNKNOWN", 4, 2),
                                       ("DATA", 2, 1), ("LOC_REPLY", 1, 2)], 1, "stale"),
}


def counter_delta(before: dict, after: dict) -> dict:
    return {k: v - before.get(k, 0) for k, v in after.items() if v != before.get(k, 0)}


@pytest.mark.parametrize("route", list(DIRECT_ROUTES))
def test_direct_route_table(route):
    at_a, at_b, belief, hops, entry_after, outcome = DIRECT_ROUTES[route]
    trace = []
    sim = build_sim(trace=trace)
    a, b = place_pair(sim, 0, 1, at_a, at_b)
    bulletin = set_belief(sim, at_a, b, belief)
    m = sim.metrics
    counted = ("delivered_bytes", "relayed_bytes", "link_bytes", "frames_handled", "sends",
               "direct_outcomes", "control_frames", "auto_picks")
    before = [dict(getattr(m, name)) for name in counted]

    rep = sim.router.send_direct(a, b, SIZE)

    def frame(kind, frm, to):
        if kind == "DATA":
            return (kind, str(a), str(b), frm, to, SIZE)
        return (kind, str(b), str(a), frm, to, CTL)

    assert [t[1:] for t in trace] == [frame(*hop) for hop in hops]
    data = [(frm, to) for kind, frm, to in hops if kind == "DATA"]
    # the home relays when it sends on the payload the DATA before brought it
    relayed = {1: SIZE} if len(data) > 1 and data[-2][1] == 1 == data[-1][0] else {}
    assert rep.transport is TransportKind.DIRECT
    assert rep.network_hops == len(data)
    assert rep.frames_emitted == len(hops)
    assert rep.relayed_by == tuple(relayed)
    latency = 0.0
    for kind, _, _ in hops:
        if kind != "LOC_REPLY":     # the payload has arrived before the reply leaves
            latency += HOP(SIZE if kind == "DATA" else CTL)
    if not hops:
        latency = SM(SIZE)
    assert rep.latency == latency + D
    links: dict = {}
    handled: dict = {}
    control: dict = {}
    for kind, frm, to in hops:
        links[(frm, to)] = links.get((frm, to), 0) + (SIZE if kind == "DATA" else CTL)
        handled[to] = handled.get(to, 0) + 1
        if kind != "DATA":
            control[kind] = control.get(kind, 0) + 1
    after = [getattr(m, name) for name in counted]
    assert [counter_delta(x, y) for x, y in zip(before, after)] == [
        {at_b: SIZE}, relayed, links, handled, {"direct": 1}, {outcome: 1}, control, {}]
    # a kept belief or the home's answer: either holds the last serial handed out
    expected_entry = None if entry_after is None else (entry_after, sim.cluster._publish_serial)
    assert bulletin.lookup_location(b) == expected_entry


# -- auto ------------------------------------------------------------------------------

def test_auto_prefers_relay_when_neither_migrated():
    sim = build_sim()
    a, b = place_pair(sim, 0, 1)
    sim.converge()
    rep = sim.router.send_auto(a, b, 1000)
    assert rep.transport is TransportKind.RELAY


def test_auto_prefers_direct_when_both_migrated():
    sim = build_sim()
    a, b = place_pair(sim, 0, 1, 2, 3)
    sim.converge()
    rep = sim.router.send_auto(a, b, 1000)
    assert rep.transport is TransportKind.DIRECT
    assert rep.latency == HOP(1000) + D


def test_auto_uses_direct_when_size_exceeds_relay_cap():
    sim = build_sim(caps=TransportConfig(relay_max=1000, direct_max=2000))
    a, b = place_pair(sim, 0, 1)
    rep = sim.router.send_auto(a, b, 1500)
    assert rep.transport is TransportKind.DIRECT


def test_auto_uses_relay_when_size_exceeds_direct_cap():
    sim = build_sim(caps=TransportConfig(relay_max=2000, direct_max=1000))
    a, b = place_pair(sim, 0, 1, 2, 3)
    sim.converge()
    rep = sim.router.send_auto(a, b, 1500)
    assert rep.transport is TransportKind.RELAY


def test_auto_rejects_when_both_caps_exceeded():
    sim = build_sim(caps=TransportConfig(relay_max=1000, direct_max=2000))
    a, b = place_pair(sim, 0, 1)
    with pytest.raises(MessageTooLargeError):
        sim.router.send_auto(a, b, 2001)


def test_auto_rejects_negative_size():
    assert_rejects_negative_size("send_auto")


def test_auto_never_beaten_by_either_transport_when_converged():
    # exhaustive placements of two processes homed at 0 and 1 on 6 nodes
    for at_a in range(6):
        for at_b in range(6):
            for size in (500, 1500):
                def fresh():
                    sim = build_sim(nodes=6,
                                    caps=TransportConfig(relay_max=1000, direct_max=2000))
                    a, b = place_pair(sim, 0, 1,
                                      at_a if at_a != 0 else None,
                                      at_b if at_b != 1 else None)
                    force_convergence(sim.cluster)
                    return sim, a, b

                best = []
                for kind in (TransportKind.RELAY, TransportKind.DIRECT):
                    sim, a, b = fresh()
                    try:
                        best.append(sim.router.send(kind, a, b, size).latency)
                    except MessageTooLargeError:
                        pass
                sim, a, b = fresh()
                auto = sim.router.send_auto(a, b, size).latency
                assert auto <= min(best)


def test_auto_relay_estimate_equals_charged_relay_latency():
    # a (home 0) and b (home 1) anywhere on 5 nodes, and every entry a's node
    # may hold for b (None: no entry).  The estimate prices the relay route to
    # the node a's node believes b runs on; on a miss (no entry, or one naming
    # a's own node) that is a node b's home forwards to, as the direct
    # estimate assumes.  A relay route's price depends on its receiver only
    # through whether the receiver is b's home, so the charge equals the
    # estimate exactly when the priced receiver is b's home just when b is.
    model = replaced(TEST_MODEL, home_leg_factor=0.1)
    charged_as_estimated = 0
    for at_a, at_b, belief, size in product(range(5), range(5), (None, *range(5)), (0, 1000)):
        sim = build_sim(nodes=5, model=model)
        a, b = place_pair(sim, 0, 1, at_a if at_a != 0 else None, at_b if at_b != 1 else None)
        set_belief(sim, at_a, b, belief)
        if at_a == at_b:
            priced = at_a
        elif belief is None or belief == at_a:
            priced = None                               # a node the home forwards to
        else:
            priced = belief
        hop, home_leg = HOP(size), HOP(size) * 0.1
        price = 0.0                                     # added in route order
        if at_a != 0:
            price += home_leg
        price += hop
        if priced != 1:
            price += home_leg

        estimate = estimates(sim.router, a, b, size)[0]
        charged = sim.router.send_relay(a, b, size).latency

        assert estimate == price
        assert (charged == estimate) == ((priced == 1) == (at_b == 1))
        charged_as_estimated += charged == estimate
    # local sends, misses with b away from home, and entries naming another
    # node that is b's home just when b's node is (hits among them)
    assert charged_as_estimated == 236


def test_auto_direct_estimate_equals_charged_direct_latency():
    # a (home 0) and b (home 1) anywhere on 5 nodes, and every entry a's node
    # may hold for b (None: no entry).  The estimate prices the route to the
    # node a's node believes b runs on; on a miss (no entry, or one naming
    # a's own node) the home forwards, so it assumes b is away from home.
    # The charge equals the estimate exactly when that route is the one taken.
    charged_as_estimated = 0
    for at_a, at_b, belief, size in product(range(5), range(5), (None, *range(5)), (0, 1000)):
        trace = []
        sim = build_sim(nodes=5, trace=trace)
        a, b = place_pair(sim, 0, 1, at_a if at_a != 0 else None, at_b if at_b != 1 else None)
        set_belief(sim, at_a, b, belief)
        if at_a == at_b:
            believed = []
        elif belief is None or belief == at_a:      # via the home, which forwards
            believed = [("DATA", at_a, 1)] * (at_a != 1) + [("DATA", 1, at_b)]
        else:
            believed = [("DATA", at_a, belief)]
        price = len(believed) * HOP(size) + D if believed else SM(size) + D

        estimate = estimates(sim.router, a, b, size)[1]
        charged = sim.router.send_direct(a, b, size).latency

        assert estimate == price
        taken = [(kind, frm, to) for _, kind, _, _, frm, to, _ in trace if kind != "LOC_REPLY"]
        assert (charged == estimate) == (taken == believed)
        charged_as_estimated += charged == estimate
    # local, hit, and a miss or self-claiming entry with b away from home;
    # the rest are a miss with b at home and a stale entry naming another node
    assert charged_as_estimated == 164


@pytest.mark.parametrize("home_leg_factor", (0.1, TEST_MODEL.home_leg_factor, 2.0))
def test_auto_carries_the_same_route_as_one_built_again(home_leg_factor):
    # auto passes the route it priced on to the send where that route is the
    # one taken.  For every placement of a (home 0) and b (home 1) on 5 nodes
    # and every entry a's node may hold for b, an auto send must report,
    # trace, count and teach exactly as a twin whose picked route is built
    # again from the resolved send.  Dear home legs (2.0) make direct win on
    # a miss with b at home, where the direct route priced is not the one taken.
    model = replaced(TEST_MODEL, home_leg_factor=home_leg_factor)
    picks = set()
    for at_a, at_b, belief in product(range(5), range(5), (None, *range(5))):
        runs = []
        for rebuild in (False, True):
            trace = []
            sim = build_sim(nodes=5, model=model, trace=trace)
            a, b = place_pair(sim, 0, 1, at_a if at_a != 0 else None, at_b if at_b != 1 else None)
            bulletin = set_belief(sim, at_a, b, belief)
            if rebuild:
                router = sim.router
                router._estimates = lambda *args: tuple(
                    (price, None) for price, _ in Router._estimates(router, *args))
            report = sim.router.send_auto(a, b, 1000)
            runs.append((report, trace, sim.metrics.rows(), dict(bulletin._facts)))
        assert runs[0] == runs[1]
        picks.add(runs[0][0].transport)
    assert picks == {TransportKind.RELAY, TransportKind.DIRECT}


@pytest.mark.parametrize("home_leg_factor", (0.1, TEST_MODEL.home_leg_factor, 2.0))
def test_a_node_relays_when_it_passes_on_the_payload_it_was_brought(home_leg_factor):
    # for every placement of a (home 0) and b (home 1) on 5 nodes, every
    # entry a's node may hold for b and each transport, the relays are the
    # nodes that send on a DATA frame the payload the previous DATA frame
    # brought them: the sender sending again after a bounce, or a home
    # sending its own fallback, relays nothing
    model = replaced(TEST_MODEL, home_leg_factor=home_leg_factor)
    for at_a, at_b, belief, kind in product(range(5), range(5), (None, *range(5)),
                                            TransportKind):
        trace = []
        sim = build_sim(nodes=5, model=model, trace=trace)
        a, b = place_pair(sim, 0, 1, at_a if at_a != 0 else None, at_b if at_b != 1 else None)
        set_belief(sim, at_a, b, belief)
        report = sim.router.send(kind, a, b, SIZE)
        relays, reached = [], None
        for _, frame, _, _, frm, to, _ in trace:
            if frame == "DATA":
                if frm == reached:
                    relays.append(frm)
                reached = to
        assert report.relayed_by == tuple(relays), (at_a, at_b, belief, kind)
        assert sum(sim.metrics.relayed_bytes.values()) == SIZE * len(report.relayed_by)


def test_auto_direct_send_resolves_once(monkeypatch):
    sim = build_sim()
    a, b = place_pair(sim, 0, 1, 2, 3)
    sim.converge()
    calls = {"residency": 0, "_first_target": 0, "lookup_location": 0}

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(owner, name, wrapper)

    counted(ClusterState, "residency")
    counted(Router, "_first_target")
    counted(Bulletin, "lookup_location")
    rep = sim.router.send_auto(a, b, 1000)
    assert rep.transport is TransportKind.DIRECT
    assert calls == {"residency": 2, "_first_target": 1, "lookup_location": 1}


def test_auto_picks_relay_when_cheap_home_legs_beat_direct_overhead():
    sim = build_sim(model=replaced(TEST_MODEL, home_leg_factor=0.1))
    a, b = place_pair(sim, 0, 1, 2)
    sim.converge()
    # relay 1.1 hops against direct 1 hop + overhead 0.5 hops at size 0
    rep = sim.router.send_auto(a, b, 0)
    assert rep.transport is TransportKind.RELAY
    assert rep.latency == pytest.approx(1.1 * HOP(0))


def test_relay_to_direct_latency_ratio_tends_to_three():
    sim = build_sim()
    a, b = place_pair(sim, 0, 1, 2, 3)
    sim.converge()
    ratios = []
    for size in (10 ** 3, 10 ** 6, 10 ** 9 // 2):
        relay = sim.router.send_relay(a, b, size).latency
        direct = sim.router.send_direct(a, b, size).latency
        ratios.append(relay / direct)
    assert ratios == sorted(ratios)
    assert abs(ratios[-1] - 3.0) < 0.01


# -- small-scope exhaustive check ---------------------------------------------------
#
# Every sequence of up to three actions on 3 nodes with two processes, a
# homed on node 0 and b on node 1: most protocol faults show on a tiny
# cluster if every interleaving is tried.  Each sequence is replayed from a
# fresh simulation, and the invariants are checked after every step.

SCOPE_SIZE = 100


def scope_actions():
    """The 16 actions as (label, apply(sim, a, b) -> DeliveryReport or None)."""
    actions = []
    for p, node in product((0, 1), range(3)):
        actions.append((f"migrate {'ab'[p]} to {node}",
                        lambda sim, a, b, p=p, node=node: sim.cluster.migrate((a, b)[p], node)))
    for kind, forward in product(TransportKind, (True, False)):
        actions.append((f"{kind.value} {'a->b' if forward else 'b->a'}",
                        lambda sim, a, b, kind=kind, forward=forward: sim.router.send(
                            kind, *((a, b) if forward else (b, a)), SCOPE_SIZE)))

    def exchange(sim, i, j):
        bulletins = sim.cluster.bulletins
        digest_i = make_digest(bulletins[i], GossipConfig().bound)
        digest_j = make_digest(bulletins[j], GossipConfig().bound)
        merge(bulletins[j], digest_i)
        merge(bulletins[i], digest_j)

    for i, j in ((0, 1), (0, 2), (1, 2)):
        actions.append((f"exchange {i}<->{j}",
                        lambda sim, a, b, i=i, j=j: exchange(sim, i, j)))
    actions.append(("gossip round",
                    lambda sim, a, b: gossip_round(sim.cluster, sim.rng, sim.gossip_config)))
    return actions


def test_every_short_action_sequence_keeps_the_transport_invariants():
    actions = scope_actions()
    assert len(actions) == 16
    sequences = [seq for depth in (1, 2, 3) for seq in product(actions, repeat=depth)]
    assert len(sequences) == 4368
    for seq in sequences:
        trace = []
        sim = build_sim(nodes=3, trace=trace)
        a, b = place_pair(sim, 0, 1)
        sent = 0
        for step, (label, apply) in enumerate(seq):
            where = [lbl for lbl, _ in seq[:step + 1]]   # the failing prefix
            src, dst = (b, a) if label.endswith("b->a") else (a, b)
            sender = sim.cluster.residency(src)
            frames = len(trace)
            report = apply(sim, a, b)
            metrics = sim.metrics
            if isinstance(report, DeliveryReport):
                sent += SCOPE_SIZE
                assert report.network_hops <= 3, where
                assert len(trace) - frames == report.frames_emitted, where
                if report.frames_emitted and trace[-1][1] == "LOC_REPLY":
                    entry = sim.cluster.bulletins[sender].lookup_location(dst)
                    assert entry is not None and entry[0] == sim.cluster.residency(dst), where
            assert sum(metrics.delivered_bytes.values()) == metrics.payload_delivered == sent, where
