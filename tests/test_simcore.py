import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import TEST_MODEL, build_sim, place_pair, replaced
from migratenet.errors import TimeTravelError
from migratenet.simcore import (EventQueue, LatencyModel, Metrics, TransportKind, load_model,
                                read)


def latency_of(path: list, size: int, model: LatencyModel, transport: TransportKind) -> float:
    """Latency of one message over a collapsed path under the homogeneous
    per-hop model: the route-price oracle for ``Router._price`` at
    ``home_leg_factor`` 1.

    A single-node path is a shared-memory delivery; otherwise every hop costs
    the full per-hop latency (store-and-forward).  Direct transport adds its
    fixed per-message overhead."""
    if len(path) <= 1:
        total = model.shared_memory(size)
    else:
        total = (len(path) - 1) * model.net_hop(size)
    if transport is TransportKind.DIRECT:
        total += model.direct_overhead
    return total


# -- latency model -------------------------------------------------------------

def test_one_hop_zero_bytes_is_alpha():
    assert latency_of([0, 1], 0, TEST_MODEL, TransportKind.RELAY) == TEST_MODEL.alpha_net


def test_three_hops_linear_in_hops():
    s = 200
    per_hop = TEST_MODEL.alpha_net + s / TEST_MODEL.beta_net
    assert latency_of([0, 1, 2, 3], s, TEST_MODEL, TransportKind.RELAY) == 3 * per_hop


def test_direct_adds_fixed_overhead():
    s = 100
    expected = TEST_MODEL.alpha_net + s / TEST_MODEL.beta_net + TEST_MODEL.direct_overhead
    assert latency_of([0, 1], s, TEST_MODEL, TransportKind.DIRECT) == expected


def test_single_node_path_uses_shared_memory():
    s = 500
    assert latency_of([2], s, TEST_MODEL, TransportKind.RELAY) == \
        TEST_MODEL.alpha_sm + s / TEST_MODEL.beta_sm


def test_latency_monotone_in_size_and_hops():
    sizes = [0, 10, 1000, 10 ** 6]
    for hops in (1, 2, 3):
        path = list(range(hops + 1))
        values = [latency_of(path, s, TEST_MODEL, TransportKind.RELAY) for s in sizes]
        assert values == sorted(values)
    for s in sizes:
        by_hops = [latency_of(list(range(h + 1)), s, TEST_MODEL, TransportKind.RELAY)
                   for h in (1, 2, 3)]
        assert by_hops == sorted(by_hops)


def test_model_validation():
    with pytest.raises(ValueError):
        LatencyModel(-1.0, 1.0, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        LatencyModel(1.0, 0.0, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        LatencyModel(1.0, 1.0, 1.0, 1.0, 0.0, home_leg_factor=-0.1)


def test_model_without_home_leg_factor_reads_as_homogeneous():
    old = {k: v for k, v in vars(TEST_MODEL).items() if k != "home_leg_factor"}
    assert read(old, LatencyModel, "model") == TEST_MODEL
    assert TEST_MODEL.home_leg_factor == 1.0
    assert read(vars(TEST_MODEL), LatencyModel, "model") == TEST_MODEL


def test_relay_latency_charges_home_legs_at_the_factor():
    s = 200
    hop = TEST_MODEL.alpha_net + s / TEST_MODEL.beta_net
    model = replaced(TEST_MODEL, home_leg_factor=0.25)
    router = build_sim(model=model).router

    def price(sender, src_home, dst_home, receiver):
        links = router._relay_route(sender, src_home, dst_home, receiver, s)
        return router._price(TransportKind.RELAY, links, s)

    assert price(2, 0, 1, 3) == hop * 0.25 + hop + hop * 0.25
    assert price(0, 0, 1, 1) == hop     # only the leg between the homes
    assert price(2, 2, 2, 2) == model.shared_memory(s)
    # factor 1 is the homogeneous per-hop model
    flat = build_sim().router
    links = flat._relay_route(2, 0, 1, 3, s)
    assert flat._price(TransportKind.RELAY, links, s) == latency_of([2, 0, 1, 3], s, TEST_MODEL,
                                                                     TransportKind.RELAY)


def test_packaged_defaults_load():
    model = load_model()
    assert model.beta_net > 0 and model.direct_overhead > 0


def test_defaults_version_checked(tmp_path):
    path = tmp_path / "stale.json"
    path.write_text('{"version": 99, "model": {}}')
    with pytest.raises(ValueError):
        load_model(str(path))


# -- event queue ----------------------------------------------------------------

def test_same_time_events_run_in_insertion_order():
    q = EventQueue()
    seen = []
    q.schedule(1.0, lambda: seen.append("a"))
    q.schedule(1.0, lambda: seen.append("b"))
    q.schedule(0.5, lambda: seen.append("c"))
    assert q.run() == 3
    assert seen == ["c", "a", "b"]


def test_empty_queue_run_processes_nothing():
    q = EventQueue()
    assert q.run_until(10.0) == 0
    assert q.now == 10.0


def test_time_travel_rejected():
    q = EventQueue()
    q.run_until(5.0)
    with pytest.raises(TimeTravelError):
        q.schedule(4.0, lambda: None)


def test_nan_time_rejected():
    # a NaN-timed event would never come due, so run() could not drain it
    q = EventQueue()
    with pytest.raises(TimeTravelError):
        q.schedule(float("nan"), lambda: None)


def test_run_until_stops_at_boundary():
    q = EventQueue()
    seen = []
    q.schedule(1.0, lambda: seen.append(1))
    q.schedule(2.0, lambda: seen.append(2))
    assert q.run_until(1.5) == 1
    assert seen == [1] and q.now == 1.5
    assert q.run_until(3.0) == 1


def test_run_until_nan_is_rejected_before_any_event_runs():
    # no row is after NaN, so without the check every row would run
    q = EventQueue()
    seen = []
    q.lay((t, seen.append, t) for t in (1.0, 5.0, 9.0))
    with pytest.raises(TimeTravelError):
        q.run_until(float("nan"))
    assert seen == [] and q.now == 0.0 and len(q) == 3
    assert q.run_until(5.0) == 2 and seen == [1.0, 5.0]


def test_events_can_schedule_events():
    q = EventQueue()
    seen = []

    def outer():
        q.schedule(q.now + 1.0, lambda: seen.append("inner"))

    q.schedule(1.0, outer)
    q.run()
    assert seen == ["inner"] and q.now == 2.0


def test_laid_entries_run_in_time_order_ties_as_given():
    q = EventQueue()
    seen = []
    q.lay([(2.0, seen.append, "a"), (1.0, seen.append, "b"), (2.0, seen.append, "c")])
    assert q.run() == 3
    assert seen == ["b", "a", "c"] and q.now == 2.0


def test_laid_entry_runs_before_heap_event_at_equal_time():
    q = EventQueue()
    seen = []
    q.lay([(1.0, seen.append, "tape"), (3.0, seen.append, "tape late")])
    q.schedule(1.0, lambda: seen.append("heap"))
    q.schedule(2.0, lambda: seen.append("heap early"))
    assert q.run() == 4
    assert seen == ["tape", "heap", "heap early", "tape late"]


def test_event_pushed_by_tape_action_runs_after_that_times_tape():
    q = EventQueue()
    seen = []

    def push(label):
        seen.append(label)
        q.schedule(q.now, lambda: seen.append("pushed"))

    q.lay([(1.0, push, "a"), (1.0, seen.append, "b"), (2.0, seen.append, "c")])
    assert q.run() == 4
    assert seen == ["a", "b", "pushed", "c"]


def test_lay_rejects_a_non_empty_queue():
    q = EventQueue()
    q.schedule(1.0, lambda: None)
    with pytest.raises(TimeTravelError):
        q.lay([(2.0, print, None)])
    q.run()
    q.lay([(2.0, print, None)])
    with pytest.raises(TimeTravelError):   # the tape is not yet run
        q.lay([(3.0, print, None)])


@pytest.mark.parametrize("t", [4.0, float("nan")])
def test_lay_rejects_times_before_now_and_nan(t):
    q = EventQueue()
    q.run_until(5.0)
    with pytest.raises(TimeTravelError):
        q.lay([(6.0, print, None), (t, print, None)])
    assert len(q) == 0


def test_run_until_stops_inside_the_tape_and_resumes():
    q = EventQueue()
    seen = []
    q.lay([(1.0, seen.append, 1), (2.0, seen.append, 2), (3.0, seen.append, 3)])
    assert len(q) == 3
    assert q.run_until(1.5) == 1
    assert seen == [1] and q.now == 1.5 and len(q) == 2
    q.schedule(2.5, lambda: seen.append(2.5))
    assert len(q) == 3
    assert q.run_until(3.0) == 3
    assert seen == [1, 2, 2.5, 3] and len(q) == 0


def test_len_counts_tape_entries_not_yet_run():
    q = EventQueue()
    lengths = []
    q.lay([(float(t), lambda _: lengths.append(len(q)), None) for t in range(4)])
    q.run()
    assert lengths == [3, 2, 1, 0]


def test_an_action_can_lay_the_next_tape():
    q = EventQueue()
    seen = []

    def last(label):
        seen.append(label)
        q.lay([(q.now + 1.0, seen.append, "next")])   # the queue is empty now

    q.lay([(1.0, last, "first")])
    assert q.run() == 2
    assert seen == ["first", "next"] and q.now == 2.0 and len(q) == 0


# an event: its delay after the clock when it is scheduled, and the events
# its action schedules when it runs
OFFSETS = st.sampled_from([0.0, 0.5, 1.0, 2.0])
EVENTS = st.recursive(st.tuples(OFFSETS, st.just(())),
                      lambda kids: st.tuples(OFFSETS, st.lists(kids, max_size=3)),
                      max_leaves=8)
OPS = st.lists(st.one_of(st.tuples(st.just("lay"), st.lists(EVENTS, max_size=6)),
                         st.tuples(st.just("schedule"), EVENTS),
                         st.tuples(st.just("run_until"), OFFSETS)), max_size=12)


@given(OPS)
def test_run_order_is_time_then_scheduling_order(ops):
    q = EventQueue()
    ran = []        # (time, scheduling number) of each event, as it runs
    scheduled = 0

    def fire(arg):
        t, number, kids = arg
        assert q.now == t
        ran.append((t, number))
        for kid in kids:
            schedule(kid)

    def event(spec):
        nonlocal scheduled
        scheduled += 1
        return (q.now + spec[0], scheduled, spec[1])

    def schedule(spec):
        arg = event(spec)
        q.schedule(arg[0], lambda: fire(arg))

    for op, value in ops:
        if op == "lay" and len(q):
            with pytest.raises(TimeTravelError):
                q.lay([(q.now, fire, None)])
        elif op == "lay":
            q.lay([(arg[0], fire, arg) for arg in map(event, value)])
        elif op == "schedule":
            schedule(value)
        else:
            before, t_end = len(ran), q.now + value
            assert q.run_until(t_end) == len(ran) - before
            assert q.now == t_end and all(t <= t_end for t, _ in ran)
        assert len(q) == scheduled - len(ran)
    q.run()
    assert len(q) == 0 and len(ran) == scheduled
    assert ran == sorted(ran)


def test_replay_with_same_seed_is_bit_identical():
    def run():
        sim = build_sim(seed=42)
        a, b = place_pair(sim, 0, 1, 4, 5)
        sim.converge()
        for size in (100, 2000, 30000):
            sim.router.send(TransportKind.DIRECT, a, b, size)
            sim.router.send(TransportKind.RELAY, a, b, size)
        return sim.metrics.snapshot()

    first, second = run(), run()
    assert first == second


# -- metrics -----------------------------------------------------------------------

def test_metrics_start_all_zero():
    sim = build_sim()
    assert sim.metrics.snapshot() == Metrics()


def test_three_hop_relay_charges_both_relay_nodes():
    sim = build_sim()
    a, b = place_pair(sim, 0, 1, 2, 3)
    sim.router.send_relay(a, b, 700)
    assert sim.metrics.relayed_bytes == {0: 700, 1: 700}
    assert sim.metrics.delivered_bytes == {3: 700}
    assert sim.metrics.link_bytes == {(2, 0): 700, (0, 1): 700, (1, 3): 700}
    assert sim.metrics.frames_handled == {0: 1, 1: 1, 3: 1}


def test_direct_hit_leaves_relay_counters_untouched():
    sim = build_sim()
    a, b = place_pair(sim, 0, 1, 2, 3)
    sim.converge()
    sim.router.send_direct(a, b, 700)
    assert sim.metrics.relayed_bytes == {}


def test_conservation_of_delivered_bytes():
    sim = build_sim()
    a, b = place_pair(sim, 0, 1, 2, 3)
    sim.converge()
    sent = 0
    for size in (10, 20, 30):
        sim.router.send_relay(a, b, size)
        sim.router.send_direct(b, a, size)
        sent += 2 * size
    snap = sim.metrics.snapshot()
    assert sum(snap.delivered_bytes.values()) == snap.payload_delivered == sent


def test_snapshot_is_immutable_copy():
    sim = build_sim()
    a, b = place_pair(sim, 0, 1)
    snap = sim.metrics.snapshot()
    sim.router.send_relay(a, b, 100)
    assert snap.delivered_bytes == {}
