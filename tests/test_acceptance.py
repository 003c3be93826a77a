"""Acceptance criteria, one test per criterion.

Each criterion function returns (passed, detail) and the pytest wrappers
assert on it; running this file directly (``python tests/test_acceptance.py``)
prints one PASS/FAIL line per criterion and exits non-zero on any failure.

Criterion 2 checks that one calibrated model reproduces both targets. A
homogeneous per-hop model cannot (mean improvement would be identically
2/3 - mean slowdown / 3, so 17% slowdown forces 61% improvement); the model's
home_leg_factor prices the legs between a migrated process and its home node,
and the calibration fits it together with the direct overhead.
"""

import random
import time

import pytest

from conftest import build_sim, place_pair
from migratenet import bench, cli, templates
from migratenet.cluster import ClusterState, Topology
from migratenet.errors import MessageTooLargeError
from migratenet.gossip import (GossipConfig, converge, gossip_round,
                               informed_count, make_digest)
from migratenet.simcore import TransportKind, load_model
from migratenet.socket_api import SocketStack, SocketState


# -- criterion 1: hop-count oracle equivalence ---------------------------------

def make_placement(src_migrated, dst_migrated, same_home, co_resident):
    """Concrete homes/residencies for one cell of the 16-case table, or None
    when the combination is contradictory (4 of the 16 cells are)."""
    h1 = 0
    h2 = 0 if same_home else 1
    for r1 in range(6):
        for r2 in range(6):
            if ((r1 != h1) == src_migrated and (r2 != h2) == dst_migrated
                    and (r1 == r2) == co_resident):
                return h1, h2, r1, r2
    return None


def criterion_1():
    checked = 0
    for src_migrated in (False, True):
        for dst_migrated in (False, True):
            for same_home in (False, True):
                for co_resident in (False, True):
                    placement = make_placement(src_migrated, dst_migrated,
                                               same_home, co_resident)
                    if placement is None:
                        continue
                    h1, h2, r1, r2 = placement
                    # independent oracle: hops = unequal consecutive waypoints;
                    # direct is one hop unless co-resident
                    raw = [r1, h1, h2, r2]
                    oracle_relay = sum(1 for a, b in zip(raw, raw[1:]) if a != b)
                    oracle_direct = 0 if r1 == r2 else 1

                    sim = build_sim(nodes=6)
                    a = sim.cluster.spawn(h1, "A")
                    b = sim.cluster.spawn(h2, "B")
                    sim.cluster.migrate(a, r1)
                    sim.cluster.migrate(b, r2)
                    sim.converge()
                    if sim.router.send_relay(a, b, 1024).network_hops != oracle_relay:
                        return False, f"relay mismatch at {placement}"
                    if sim.router.send_direct(a, b, 1024).network_hops != oracle_direct:
                        return False, f"direct mismatch at {placement}"
                    checked += 1
    return checked == 12, f"{checked} feasible cases of the 16-cell table, all exact"


# -- criterion 2: calibrated ratio targets ---------------------------------------

def criterion_2():
    report = templates.latency_sweep(model=load_model())
    slowdown = float(report.extra["mean_slowdown_vs_local_relay"])
    improvement = float(report.extra["mean_improvement_vs_migrated_relay"])
    ok = abs(slowdown - 0.17) <= 0.01 and abs(improvement - 0.52) <= 0.01
    return ok, (f"mean slowdown {slowdown:.4f} (target 0.17+-0.01), "
                f"mean improvement {improvement:.4f} (target 0.52+-0.01) "
                "with the packaged direct_overhead and home_leg_factor")


# -- criterion 3: location independence ---------------------------------------------

def criterion_3():
    size = 65536
    latencies = set()
    for r1 in range(6):
        for r2 in range(6):
            if r1 == r2:
                continue
            sim = build_sim(nodes=6, model=load_model())
            a, b = place_pair(sim, 0, 1,
                              r1 if r1 != 0 else None, r2 if r2 != 1 else None)
            sim.converge()
            latencies.add(sim.router.send_direct(a, b, size).latency)
    return len(latencies) == 1, \
        f"{6 * 5} distinct-node placements, {len(latencies)} distinct latency value(s)"


# -- criterion 4: limit test ----------------------------------------------------------

def criterion_4():
    report = templates.limit_test()
    relay_max = int(report.extra["relay_max"])
    direct_max = int(report.extra["direct_max"])
    sim = build_sim(model=load_model())
    a, b = place_pair(sim, 0, 1)
    try:
        sim.router.send_relay(a, b, relay_max + 1)
        rejected = False
    except MessageTooLargeError:
        rejected = True
    ok = report.passed and direct_max == 2 * relay_max and rejected
    return ok, f"measured caps {relay_max} / {direct_max}, cap+1 rejected: {rejected}"


# -- criterion 5: home-node bypass ------------------------------------------------------

def criterion_5():
    report = templates.ring_load(spokes=8, size=4096)
    pairs = 8 * 7
    relay_bytes = int(report.extra["relay_center_bytes"])
    cold_bytes = int(report.extra["direct_cold_center_bytes"])
    converged_bytes = int(report.extra["direct_converged_center_bytes"])
    ok = (report.passed and relay_bytes == pairs * 4096
          and converged_bytes == 0 and cold_bytes <= pairs * 4096)
    return ok, (f"relay center={relay_bytes}, cold direct={cold_bytes} "
                f"(<= one forward per pair), converged direct={converged_bytes}")


# -- criterion 6: gossip properties ------------------------------------------------------

def criterion_6():
    # exact bounds and monotone growth on one seeded run
    state = ClusterState(Topology.mesh(16))
    pid = state.spawn(0)
    config = GossipConfig(bound=8)
    rng = random.Random(2)
    informed = 1
    for _ in range(25):
        report = gossip_round(state, rng, config)
        if report.frames > 2 * 16:
            return False, "frame bound violated"
        if any(len(make_digest(b, config.bound)) > config.bound
               for b in state.bulletins):
            return False, "digest bound violated"
        now = informed_count(state, pid)
        if now < informed:
            return False, "informed set shrank"
        informed = now

    def dissemination_trial(seed, drop, cap):
        state = ClusterState(Topology.mesh(32))
        pid = state.spawn(0)
        rng = random.Random(seed)
        config = GossipConfig(drop_probability=drop)
        for _ in range(cap):
            gossip_round(state, rng, config)
            if informed_count(state, pid) == 32:
                return True
        return False

    lossless = sum(dissemination_trial(seed, 0.0, 15) for seed in range(1000))
    lossy = sum(dissemination_trial(10_000 + seed, 0.3, 150) for seed in range(1000))
    ok = informed == 16 and lossless >= 950 and lossy >= 990
    return ok, (f"bounds exact; lossless 15-round dissemination {lossless}/1000 "
                f"(need >=950), q=0.3 within 150 rounds {lossy}/1000 (need >=990)")


# -- criterion 7: fallback protocol ------------------------------------------------------

def criterion_7():
    sim = build_sim(nodes=6, model=load_model())
    a = sim.cluster.spawn(0, "A")
    b = sim.cluster.spawn(1, "B")
    sim.cluster.migrate(b, 2)
    sim.converge()
    sim.cluster.migrate(b, 3)          # migration between gossip rounds
    trace = []
    sim.router.trace = trace
    first = sim.router.send_direct(a, b, 1000)
    hops = [(kind, frm, to) for _, kind, _, _, frm, to, _ in trace]
    expected = [
        ("DATA", 0, 2),                # stale hop to the old node
        ("NACK_UNKNOWN", 2, 0),        # bounce
        ("DATA", 0, 1),                # fall back through the home
        ("DATA", 1, 3),                # home forwards to the true node
        ("LOC_REPLY", 1, 0),           # sender's bulletin is repaired
    ]
    # the LOC_REPLY's fact is the send's one publication, so it holds the last serial
    updated = sim.cluster.bulletins[0].lookup_location(b) == (3, sim.cluster._publish_serial)
    second = sim.router.send_direct(a, b, 1000)
    ok = (hops == expected and first.network_hops == 3
          and first.frames_emitted == 5 and updated
          and second.network_hops == 1 and second.frames_emitted == 1)
    return ok, (f"trace {hops == expected}, first send hops={first.network_hops}, "
                f"bulletin updated={updated}, second send hops={second.network_hops}")


# -- criterion 8: balancer ----------------------------------------------------------------

def criterion_8():
    report = templates.imbalance_test()
    before = float(report.extra["makespan_before"])
    after = float(report.extra["makespan_after"])
    optimum = float(report.extra["makespan_optimum"])
    ok = report.passed and after < before and after <= 2 * optimum
    return ok, f"makespan {before} -> {after}, optimum {optimum}"


# -- criterion 9: socket transparency -------------------------------------------------------

def transparency_trial(transport, seed):
    sim = build_sim(nodes=6, seed=seed, model=load_model())
    a, b = place_pair(sim, 0, 1, 2, 3)
    sim.converge()
    stack = SocketStack(sim.cluster, sim.router, sim.queue)
    listener = stack.socket(b, transport)
    stack.bind(listener, 9000)
    stack.listen(listener)
    client = stack.socket(a, transport)
    stack.connect(client, b, 9000)
    sim.queue.run()
    server = stack.accept(listener)
    if client.state is not SocketState.ESTABLISHED:
        return False
    rng = random.Random(seed)
    sizes = []
    for i in range(15):
        roll = rng.random()
        if roll < 0.5:
            size = 1000 + i
            sizes.append(size)
            stack.send(client, size)
        elif roll < 0.8:
            victim = rng.choice([a, b])
            sim.cluster.migrate(victim, rng.randrange(6))
        else:
            gossip_round(sim.cluster, sim.rng)
        sim.queue.run_until(sim.queue.now + rng.random())
    sim.queue.run_until(sim.queue.now + 10 ** 9)
    received = []
    while len(received) < len(sizes):
        got = stack.recv(server, sizes[len(received)])
        if not got:
            return False                       # lost or short message
        received.append(got)
    if stack.recv(server, 1) != 0:
        return False                           # duplicate or phantom bytes
    return received == sizes


def criterion_9():
    for transport in (TransportKind.RELAY, TransportKind.DIRECT, TransportKind.AUTO):
        for seed in range(100):
            if not transparency_trial(transport, seed):
                return False, f"violation under {transport.value} seed {seed}"
    return True, "3 transports x 100 seeded interleavings, exactly-once in-order"


# -- criterion 10: determinism ---------------------------------------------------------------

def criterion_10(tmp_base):
    outputs = []
    for run in range(2):
        outdir = tmp_base / f"run{run}"
        code_a = cli.main(["sweep", "--seed", "7", "--out", str(outdir / "sweep")])
        code_b = cli.main(["gossip-stats", "--seed", "7", "--nodes", "24",
                           "--out", str(outdir / "gs")])
        if code_a != 0 or code_b != 0:
            return False, "template run failed"
        blob = {}
        for sub in ("sweep", "gs"):
            for path in sorted((outdir / sub).iterdir()):
                blob[f"{sub}/{path.name}"] = path.read_bytes()
        outputs.append(blob)
    return outputs[0] == outputs[1], \
        f"{len(outputs[0])} report files byte-identical across reruns"


# -- harness -----------------------------------------------------------------------------------

CRITERIA = [
    (1, "hop-count oracle equivalence", criterion_1, 1.0),
    (2, "calibrated ratio targets (17% slowdown / 52% improvement)", criterion_2, 10.0),
    (3, "direct latency location independence", criterion_3, None),
    (4, "message size limit: direct cap = 2x relay cap", criterion_4, None),
    (5, "home-node bypass on the ring", criterion_5, 5.0),
    (6, "gossip bounds, monotonicity, dissemination", criterion_6, 30.0),
    (7, "stale/miss fallback exact trace", criterion_7, None),
    (8, "balancer improves makespan within 2x optimum", criterion_8, 1.0),
    (9, "socket transparency under migration", criterion_9, None),
    (10, "seeded determinism of report files", criterion_10, None),
]


def run_criterion(number, name, fn, budget, tmp_base=None):
    start = time.perf_counter()
    if fn is criterion_10:
        passed, detail = fn(tmp_base)
    else:
        passed, detail = fn()
    elapsed = time.perf_counter() - start
    status = "PASS" if passed else "FAIL"
    line = f"ACCEPTANCE {number:2d} {status} ({elapsed:6.2f}s)  {name} — {detail}"
    print(line)
    if budget is not None and elapsed >= budget:
        return False, f"runtime {elapsed:.2f}s exceeded {budget}s budget; {detail}"
    return passed, detail


@pytest.mark.parametrize("number,name,fn,budget", CRITERIA,
                         ids=[f"criterion_{n:02d}" for n, *_ in CRITERIA])
def test_acceptance(number, name, fn, budget, tmp_path):
    passed, detail = run_criterion(number, name, fn, budget, tmp_path)
    assert passed, f"criterion {number} ({name}): {detail}"


if __name__ == "__main__":
    import sys
    import tempfile
    from pathlib import Path

    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for number, name, fn, budget in CRITERIA:
            passed, _ = run_criterion(number, name, fn, budget, Path(tmp))
            failures += not passed
    sys.exit(1 if failures else 0)
