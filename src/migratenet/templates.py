"""Built-in experiment templates: each reproduces a standard experiment on
a fresh :class:`~migratenet.bench.Simulation` and re-derives every assertion
of its :class:`~migratenet.bench.Report` from raw simulation output.

Only the command line runs them, so importing :mod:`migratenet.bench` (as a
scenario run does) does not load them.
"""

from __future__ import annotations

from typing import Optional

from . import balancer, gossip
from .bench import Report, Simulation
from .cluster import GPid, Topology
from .errors import InvalidScenarioError, MessageTooLargeError
from .gossip import GossipConfig
from .simcore import LatencyModel, TransportKind
from .transport import TransportConfig

DEFAULT_SWEEP_SIZES = [2 ** k for k in range(10, 27)]   # 1 KiB .. 64 MiB


def _pair_sim(migrated: bool, model: Optional[LatencyModel], seed: int,
              trace: Optional[list] = None) -> tuple[Simulation, GPid, GPid]:
    """Two processes homed on nodes 0 and 1 of a 4-node mesh; `migrated`
    moves them to nodes 2 and 3.  Gossip is run to convergence."""
    sim = Simulation.build(Topology.mesh(4), model, seed=seed, trace=trace)
    a = sim.cluster.spawn(0, "pair")
    b = sim.cluster.spawn(1, "pair")
    if migrated:
        sim.cluster.migrate(a, 2)
        sim.cluster.migrate(b, 3)
    sim.converge()
    return sim, a, b


def latency_sweep(sizes: Optional[list[int]] = None,
                  model: Optional[LatencyModel] = None, seed: int = 0,
                  trace_enabled: bool = False) -> Report:
    """Latency as a function of message size for relay and direct transports,
    with endpoints at home ("local") and migrated off-home ("migrated")."""
    if sizes is None:
        sizes = DEFAULT_SWEEP_SIZES
    if not sizes:
        raise InvalidScenarioError("latency_sweep: sizes must be non-empty")
    sizes = sorted(sizes)
    trace: Optional[list] = [] if trace_enabled else None
    report = Report("latency_sweep", seed, trace=trace)
    curves: dict[str, list[float]] = {}
    for placement in ("local", "migrated"):
        sim, a, b = _pair_sim(placement == "migrated", model, seed, trace=trace)
        for transport in (TransportKind.RELAY, TransportKind.DIRECT):
            series = f"{placement}-{transport.value}"
            values = []
            for size in sizes:
                rep = sim.router.send(transport, a, b, size)
                values.append(rep.latency)
                report.latency_rows.append((size, rep.latency, series))
            curves[series] = values
        report.metrics = sim.metrics

    local_relay = curves["local-relay"]
    migrated_relay = curves["migrated-relay"]
    direct = curves["migrated-direct"]

    crossover = None
    for size, d, r in zip(sizes, direct, migrated_relay):
        if d < r:
            crossover = size
            break
    report.extra["crossover_size"] = str(crossover) if crossover is not None else "none"

    slowdown = sum(d / l - 1.0 for d, l in zip(direct, local_relay)) / len(sizes)
    improvement = sum(1.0 - d / r for d, r in zip(direct, migrated_relay)) / len(sizes)
    report.extra["mean_slowdown_vs_local_relay"] = repr(slowdown)
    report.extra["mean_improvement_vs_migrated_relay"] = repr(improvement)

    report.check("direct latency independent of placement",
                 curves["local-direct"] == curves["migrated-direct"],
                 "bit-identical curves")
    above = [i for i, size in enumerate(sizes)
             if crossover is not None and size >= crossover]
    report.check("ordering above crossover: local-relay < direct < migrated-relay",
                 all(local_relay[i] < direct[i] < migrated_relay[i] for i in above),
                 f"crossover={report.extra['crossover_size']}"
                 + ("" if above else " (vacuous: direct never wins in this sweep)"))
    monotone = all(all(v[i] <= v[i + 1] for i in range(len(v) - 1))
                   for v in curves.values())
    report.check("curves monotone in size", monotone)
    return report


def limit_test(seed: int = 0, trace_enabled: bool = False) -> Report:
    """Binary-search the maximum deliverable message size per transport and
    check the direct cap is exactly twice the relay cap."""
    trace: Optional[list] = [] if trace_enabled else None
    sim, a, b = _pair_sim(True, None, seed, trace=trace)
    caps = sim.router.config

    def max_deliverable(transport: TransportKind) -> int:
        lo, hi = 0, max(caps.relay_max, caps.direct_max) * 4
        while lo < hi:
            mid = (lo + hi + 1) // 2
            try:
                sim.router.send(transport, a, b, mid)
                lo = mid
            except MessageTooLargeError:
                hi = mid - 1
        return lo

    report = Report("limit_test", seed, trace=trace)
    relay_max = max_deliverable(TransportKind.RELAY)
    direct_max = max_deliverable(TransportKind.DIRECT)
    report.extra["relay_max"] = str(relay_max)
    report.extra["direct_max"] = str(direct_max)
    report.check("direct cap = 2 x relay cap", direct_max == 2 * relay_max,
                 f"{direct_max} vs 2*{relay_max}")
    try:
        sim.router.send_relay(a, b, relay_max)
        boundary_ok = True
    except MessageTooLargeError:
        boundary_ok = False
    report.check("relay delivers at its cap", boundary_ok)
    try:
        sim.router.send_relay(a, b, relay_max + 1)
        rejected = False
    except MessageTooLargeError:
        rejected = True
    report.check("relay rejects cap+1 with E_MSG_TOO_LARGE", rejected)
    report.metrics = sim.metrics
    return report


def ring_load(spokes: int = 8, size: int = 4096, seed: int = 0,
              trace_enabled: bool = False) -> Report:
    """All-pairs traffic between `spokes` processes homed on node 0 (the
    center) and migrated to nodes 1..spokes, one each; measures how much
    payload the center carries for each transport."""
    trace: Optional[list] = [] if trace_enabled else None

    def build() -> tuple[Simulation, list[GPid]]:
        sim = Simulation.build(Topology.mesh(spokes + 1), seed=seed, trace=trace)
        procs = [sim.cluster.spawn(0, "ring") for _ in range(spokes)]
        for i, pid in enumerate(procs):
            sim.cluster.migrate(pid, i + 1)
        return sim, procs

    def all_pairs(sim: Simulation, procs: list[GPid], transport: TransportKind) -> None:
        for src in procs:
            for dst in procs:
                if src != dst:
                    sim.router.send(transport, src, dst, size)

    report = Report("ring_load", seed, trace=trace)
    pairs = spokes * (spokes - 1)
    total_payload = pairs * size

    sim, procs = build()
    all_pairs(sim, procs, TransportKind.RELAY)
    relay_center = sim.metrics.relayed_bytes.get(0, 0)
    report.extra["relay_center_bytes"] = str(relay_center)
    report.check("relay: center carries every payload byte once",
                 relay_center == total_payload,
                 f"{relay_center} vs {total_payload}")

    sim, procs = build()   # cold start: no gossip rounds at all
    all_pairs(sim, procs, TransportKind.DIRECT)
    cold_center = sim.metrics.relayed_bytes.get(0, 0)
    report.extra["direct_cold_center_bytes"] = str(cold_center)
    report.check("direct cold: exactly one forward per first-contact pair",
                 cold_center == total_payload,
                 f"{cold_center} vs {total_payload}")
    all_pairs(sim, procs, TransportKind.DIRECT)   # second pass: caches are warm
    report.check("direct warm: no further center forwards",
                 sim.metrics.relayed_bytes.get(0, 0) == cold_center)

    sim, procs = build()
    rounds = sim.converge()
    all_pairs(sim, procs, TransportKind.DIRECT)
    converged_center = sim.metrics.relayed_bytes.get(0, 0)
    report.extra["direct_converged_center_bytes"] = str(converged_center)
    report.convergence_rounds = rounds
    report.check("direct converged: center fully bypassed", converged_center == 0)
    report.metrics = sim.metrics
    return report


def imbalance_test(seed: int = 0, preset: str = "imbalanced",
                   trace_enabled: bool = False) -> Report:
    """Two 3-process jobs crowded onto four of six nodes; balancing to a
    fixpoint should spread them out and beat the 2x-of-optimal bound.
    The "balanced" preset starts at one process per node instead."""
    trace: Optional[list] = [] if trace_enabled else None
    sim = Simulation.build(Topology.mesh(6), seed=seed, trace=trace)
    if preset == "imbalanced":
        placement_a = [0, 0, 2]
        placement_b = [1, 1, 3]
    elif preset == "balanced":
        placement_a = [0, 1, 2]
        placement_b = [3, 4, 5]
    else:
        raise InvalidScenarioError(f"imbalance_test: unknown preset {preset!r}")

    for name, placement in (("A", placement_a), ("B", placement_b)):
        for node in placement:
            sim.cluster.spawn(node, name)

    def worst_makespan() -> float:
        return max(balancer.job_makespan(sim.cluster, job) for job in ("A", "B"))

    report = Report("imbalance_test", seed, trace=trace)
    before = worst_makespan()
    moves = []
    for _ in range(32):
        sim.converge()
        step = balancer.balance_step(sim.cluster)
        if not step:
            break
        moves.extend(step)
        if trace is not None:
            for m in step:
                trace.append((sim.queue.now, "MIGRATE", str(m.pid), str(m.pid),
                              m.src, m.dst, 0))
    after = worst_makespan()
    optimum = balancer.optimal_joint_makespan(sim.cluster)

    report.extra["makespan_before"] = repr(before)
    report.extra["makespan_after"] = repr(after)
    report.extra["makespan_optimum"] = repr(optimum)
    report.extra["migrations"] = ";".join(
        f"{m.pid}:{m.src}->{m.dst}" for m in moves) or "none"
    if preset == "balanced":
        report.check("already balanced: no migrations", not moves)
        report.check("makespan unchanged", after == before)
    else:
        report.check("makespan strictly decreases", after < before,
                     f"{before} -> {after}")
        # the label names the optimum's former search; the pinned summaries hold it
        report.check("final makespan within 2x of brute-force optimum",
                     after <= 2 * optimum, f"{after} vs 2*{optimum}")
    report.metrics = sim.metrics
    return report


def gossip_stats(nodes: int = 32, seed: int = 0,
                 config: GossipConfig = GossipConfig(),
                 max_rounds: int = 50) -> Report:
    """Spread one fresh location fact and log per-round dissemination."""
    sim = Simulation.build(Topology.mesh(nodes), None, TransportConfig(), seed, config)
    pid = sim.cluster.spawn(0, "fact")
    report = Report("gossip_stats", seed)
    informed = gossip.informed_count(sim.cluster, pid)
    report.gossip_rows.append((0, informed, 0, 0))
    for _ in range(max_rounds):
        if informed == nodes:
            break
        round_report = gossip.gossip_round(sim.cluster, sim.rng, config)
        previous = informed
        informed = gossip.informed_count(sim.cluster, pid)
        report.gossip_rows.append((round_report.index, informed,
                                   round_report.frames, round_report.entries_moved))
        if informed < previous:
            report.check("informed set is non-decreasing", False,
                         f"round {round_report.index}")
    report.extra["rounds_to_full"] = str(report.gossip_rows[-1][0]) \
        if informed == nodes else "not reached"
    report.check("fact reached every node", informed == nodes,
                 f"{informed}/{nodes}")
    report.metrics = sim.metrics
    return report
