"""Seeded workload generators and drivers for the migratenet benchmark.

Each workload has a generator that turns ``(params, seed)`` into the inputs
the program receives (a scenario file, or a driver plan of connections,
migrations and sends), and a driver that runs those inputs through the
package's public API only.  Drivers take the freshly imported package as an
argument instead of importing it, so the benchmark can re-import it for every
set-up measurement and wrap its entry points for a traced run.

Why these three workloads:

* ``gossip_steady`` runs ``run_scenario`` on a large generated scenario whose
  facts (nodes + processes) fit one digest, so gossip converges and every
  digest ships whole; ``gossip_round`` dominates host time.
* ``send_storm`` packs 60,000 sends into a one-second horizon, so only ten
  gossip rounds run; ``Router.send``, scenario parsing, report writing and
  per-send memory dominate.
* ``churn_sockets`` drives long-lived sockets, the balancer and random
  migrations tick by tick on a cluster whose facts exceed the digest bound,
  so digests truncate; it never calls ``converge`` because gossip cannot
  converge above the bound.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import time
from array import array
from pathlib import Path
from typing import Any, Optional

import checks

clock = time.perf_counter

SCENARIO_PARAMS = {
    "gossip_steady": dict(nodes=16, processes=40, sends=5000, migrations=1000,
                          horizon_s=50.0, rounds_per_second=10.0,
                          size_min=1024, size_max=65536, transports=("auto",)),
    "send_storm": dict(nodes=8, processes=32, sends=60000, migrations=600,
                       horizon_s=1.0, rounds_per_second=10.0,
                       size_min=64, size_max=1 << 20,
                       transports=("relay", "direct", "auto")),
}

CHURN_PARAMS = {
    "churn_sockets": dict(nodes=32, processes=96, crowded_nodes=8,
                          connections_per_transport=8, ticks=100, tick_s=0.1,
                          migrations_per_tick=4, sends_per_tick=1000,
                          size_min=64, size_max=16384, recv_max=65536),
}

WORKLOADS = sorted([*SCENARIO_PARAMS, *CHURN_PARAMS])


def shuffled(rng: random.Random, values) -> list:
    values = list(values)
    rng.shuffle(values)
    return values


def balanced(n: int, k: int) -> list[int]:
    """n labels from range(k), each used as evenly as possible."""
    return [i % k for i in range(n)]


def size_grid(n: int, lo: int, hi: int) -> list[int]:
    """n sizes spread evenly over [lo, hi]."""
    return [round(lo + (hi - lo) * (k + 0.5) / n) for k in range(n)]


@dataclasses.dataclass
class Checked:
    """What one iteration produced, as the benchmark reports and checks it."""
    ops: int                      # operations attempted
    failed_ops: int               # operations that raised a SimulatorError
    latencies_us: array           # simulated per-message latency
    relayed_bytes: int            # payload bytes carried by neither end
    payload_delivered: int
    sha256: str                   # over the simulated outputs; equal seeds, equal digest
    failures: list[str]           # failed correctness checks
    evidence: dict[str, Any]      # raw outputs the checks read (the self-test doctors them)


# ---------------------------------------------------------------------------
# scenario workloads: gossip_steady, send_storm

def scenario_dict(name: str, params: dict, seed: int) -> dict:
    """A version-1 scenario file as ``migratenet run`` reads it.

    The seed decides who sends what to whom and when, but the totals are the
    same for every seed (homes, senders, migrations per process and
    transports are balanced; sizes are one fixed, evenly spaced set), so
    simulated outcomes differ little between seeds.  The last send lands
    exactly on the horizon, so the number of gossip rounds is a function of
    the parameters alone."""
    rng = random.Random(f"{name}/{seed}")
    nodes, procs, horizon = params["nodes"], params["processes"], params["horizon_s"]
    sends, moves = params["sends"], params["migrations"]
    ids = [f"p{i}" for i in range(procs)]
    processes = [{"id": pid, "home": home, "job": f"j{i % 4}", "work": 1.0}
                 for i, (pid, home) in enumerate(zip(ids, shuffled(rng, balanced(procs, nodes))))]
    migrations = [{"time": horizon * (k + rng.random()) / moves, "pid": ids[p],
                   "to": rng.randrange(nodes)}
                  for k, p in enumerate(shuffled(rng, balanced(moves, procs)))]
    transports = params["transports"]
    traffic = []
    for k, (src, kind, size) in enumerate(zip(
            shuffled(rng, balanced(sends, procs)),
            shuffled(rng, balanced(sends, len(transports))),
            shuffled(rng, size_grid(sends, params["size_min"], params["size_max"])))):
        traffic.append({"time": horizon if k == sends - 1 else horizon * (k + rng.random()) / sends,
                        "src": ids[src], "dst": ids[(src + 1 + rng.randrange(procs - 1)) % procs],
                        "transport": transports[kind], "size": size})
    return {"version": 1, "name": name, "seed": seed,
            "topology": {"kind": "mesh", "nodes": nodes},
            "processes": processes, "migrations": migrations, "traffic": traffic,
            "gossip": {"bound": 64, "drop_probability": 0.0,
                       "rounds_per_second": params["rounds_per_second"]},
            "pre_converge": True}


def scheduled_gossip_rounds(horizon: float, rounds_per_second: float) -> int:
    """Rounds ``run_scenario`` schedules: one per period up to the horizon,
    counted with the same accumulating float steps."""
    period = 1.0 / rounds_per_second
    rounds, at = 0, period
    while at <= horizon:
        rounds += 1
        at += period
    return rounds


class ScenarioWorkload:
    """Runs a generated scenario the way ``migratenet run`` does:
    ``Scenario.load``, ``run_scenario``, ``Report.write``."""

    def __init__(self, name: str, params: dict, seed: int, outdir: Path):
        data = scenario_dict(name, params, seed)
        self.scenario_path = outdir / "scenario.json"
        self.scenario_path.write_text(json.dumps(data), encoding="utf-8")
        self.report_dir = outdir / "report"
        self.scheduled_bytes = sum(t["size"] for t in data["traffic"])
        self.sends = len(data["traffic"])
        migrations = len(data["migrations"])
        rounds = scheduled_gossip_rounds(params["horizon_s"], params["rounds_per_second"])
        self.ops = self.sends + migrations + rounds
        self.op_counts = f"sends {self.sends}, migrations {migrations}, gossip rounds {rounds}"

    def setup(self, mn) -> Any:
        return mn.bench.Scenario.load(self.scenario_path)

    def run(self, mn, scenario) -> tuple[Any, float]:
        """The timed region; returns the outputs and when simulation ended."""
        try:
            report = mn.bench.run_scenario(scenario)
        except mn.errors.SimulatorError as exc:
            return exc, clock()
        simulated = clock()
        return (report, report.write(self.report_dir)), simulated

    def check(self, mn, scenario, outputs) -> Checked:
        if isinstance(outputs, Exception):
            return Checked(self.ops, self.ops, array("d"), 0, 0, "",
                           [f"run_scenario raised {outputs}"], {})
        report, files = outputs
        digest = hashlib.sha256()
        for path in files:
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        evidence = {"passed": report.passed, "metrics": report.metrics,
                    "scheduled_bytes": self.scheduled_bytes,
                    "sends_scheduled": self.sends, "sends_done": len(report.latency_rows)}
        return Checked(self.ops, 0, array("d", (row[1] * 1e6 for row in report.latency_rows)),
                       sum(report.metrics.relayed_bytes.values()),
                       report.metrics.payload_delivered, digest.hexdigest(),
                       checks.scenario_failures(evidence), evidence)


# ---------------------------------------------------------------------------
# churn_sockets

@dataclasses.dataclass
class ChurnPlan:
    """Driver inputs for churn_sockets, all indices into the spawn order."""
    homes: list[int]
    connections: list[tuple[str, int, int]]            # (transport, client, server)
    migrations: list[list[tuple[int, int]]]            # per tick: (process, node)
    sends: list[tuple[bytes, bytes, array]]            # per tick: each send's connection,
                                                       # direction and size


def churn_plan(name: str, params: dict, seed: int) -> ChurnPlan:
    """Like `scenario_dict`, the seed picks endpoints, order and targets;
    connection endpoints are distinct processes, and every tick sends the
    same sizes, balanced over connections and directions."""
    rng = random.Random(f"{name}/{seed}")
    procs, nodes = params["processes"], params["nodes"]
    per_tick = params["sends_per_tick"]
    kinds = [kind for kind in ("relay", "direct", "auto")
             for _ in range(params["connections_per_transport"])]
    ends = rng.sample(range(procs), 2 * len(kinds))
    connections = [(kind, ends[2 * c], ends[2 * c + 1]) for c, kind in enumerate(kinds)]
    sizes = size_grid(per_tick, params["size_min"], params["size_max"])
    migrations, sends = [], []
    for _ in range(params["ticks"]):
        migrations.append([(rng.randrange(procs), rng.randrange(nodes))
                           for _ in range(params["migrations_per_tick"])])
        sends.append((bytes(shuffled(rng, balanced(per_tick, len(connections)))),
                      bytes(shuffled(rng, balanced(per_tick, 2))),
                      array("l", shuffled(rng, sizes))))
    return ChurnPlan(balanced(procs, params["crowded_nodes"]), connections, migrations, sends)


@dataclasses.dataclass
class ChurnState:
    sim: Any
    stack: Any
    pids: list
    ends: list[tuple[Any, Any]]                        # per connection: (client, server)


class ChurnWorkload:
    """Ticks of gossip, balancing, migration and socket traffic, driven from
    outside ``run_scenario``."""

    def __init__(self, name: str, params: dict, seed: int):
        self.params = params
        self.seed = seed
        self.plan = churn_plan(name, params, seed)
        self.scheduled_bytes = sum(sum(sizes) for _, _, sizes in self.plan.sends)
        sends = sum(len(sizes) for _, _, sizes in self.plan.sends)
        migrations = sum(len(tick) for tick in self.plan.migrations)
        self.op_counts = f"socket sends {sends}, migrations {migrations}, " \
                         f"gossip rounds {params['ticks']}, balancer steps {params['ticks']}, " \
                         f"plus one op per socket recv"

    def setup(self, mn) -> ChurnState:
        """Simulation.build, the spawns and the socket handshakes."""
        sim = mn.bench.Simulation.build(mn.cluster.Topology.mesh(self.params["nodes"]),
                                        seed=self.seed)
        pids = [sim.cluster.spawn(home, f"j{i % 4}") for i, home in enumerate(self.plan.homes)]
        stack = mn.socket_api.SocketStack(sim.cluster, sim.router, sim.queue)
        kinds = {k.value: k for k in mn.simcore.TransportKind}
        pending = []
        for port, (transport, client, server) in enumerate(self.plan.connections, start=1000):
            listener = stack.socket(pids[server], kinds[transport])
            stack.bind(listener, port)
            stack.listen(listener)
            h = stack.socket(pids[client], kinds[transport])
            stack.connect(h, pids[server], port)
            pending.append((h, listener))
        sim.queue.run()
        ends = [(h, stack.accept(listener)) for h, listener in pending]
        return ChurnState(sim, stack, pids, ends)

    def run(self, mn, state: ChurnState) -> tuple[Any, float]:
        """The timed region, until the last byte has been received."""
        sim, stack, pids, ends = state.sim, state.stack, state.pids, state.ends
        cluster, queue, rng = sim.cluster, sim.queue, sim.rng
        gossip_round, balance_step = mn.gossip.gossip_round, mn.balancer.balance_step
        error = mn.errors.SimulatorError
        handles = [h for pair in ends for h in pair]
        sent = {h.id: 0 for h in handles}
        received = {h.id: 0 for h in handles}
        latencies = array("d")
        recv_max = self.params["recv_max"]
        ops = failed = 0

        def drain() -> tuple[int, int]:
            calls = errors = 0
            for h in stack.select(handles):
                while True:
                    calls += 1
                    try:
                        got = stack.recv(h, recv_max)
                    except error:
                        errors += 1
                        break
                    if not got:
                        break
                    received[h.id] += got
            return calls, errors

        for tick in range(self.params["ticks"]):
            queue.run_until((tick + 1) * self.params["tick_s"])
            steps = [(gossip_round, (cluster, rng, sim.gossip_config)),
                     (balance_step, (cluster,))]
            steps += [(cluster.migrate, (pids[proc], node))
                      for proc, node in self.plan.migrations[tick]]
            for call, args in steps:
                try:
                    call(*args)
                except error:
                    failed += 1
            now = queue.now
            conns, directions, sizes = self.plan.sends[tick]
            for conn, direction, size in zip(conns, directions, sizes):
                h, peer = ends[conn][direction], ends[conn][1 - direction]
                try:
                    stack.send(h, size)
                except error:
                    failed += 1
                    continue
                sent[h.id] += size
                latencies.append(peer.recv_queue[-1].ready_at - now)
            calls, errors = drain()
            ops += len(steps) + len(sizes) + calls
            failed += errors
        queue.run_until(queue.now + 1.0)      # every chunk still in flight arrives
        calls, errors = drain()
        return (latencies, sent, received, ops + calls, failed + errors), clock()

    def check(self, mn, state: ChurnState, outputs) -> Checked:
        latencies, sent, received, ops, failed = outputs
        metrics = state.sim.metrics
        digest = hashlib.sha256("\n".join(",".join(row) for row in metrics.rows()).encode())
        digest.update(repr(sorted(received.items())).encode())
        handshake_bytes = 2 * state.sim.router.config.control_size * len(state.ends)
        evidence = {"metrics": metrics, "scheduled_bytes": handshake_bytes + self.scheduled_bytes,
                    "pairs": [(client.id, server.id) for client, server in state.ends],
                    "sent": sent, "received": received,
                    "queued": sum(len(h.recv_queue) for pair in state.ends for h in pair)}
        return Checked(ops, failed, array("d", (x * 1e6 for x in latencies)),
                       sum(metrics.relayed_bytes.values()), metrics.payload_delivered,
                       digest.hexdigest(), checks.socket_failures(evidence), evidence)


def make(name: str, seed: int, outdir: Path, params: Optional[dict] = None):
    """The workload object for `name`, with its inputs generated from `seed`."""
    if name in SCENARIO_PARAMS:
        return ScenarioWorkload(name, params or SCENARIO_PARAMS[name], seed, outdir)
    return ChurnWorkload(name, params or CHURN_PARAMS[name], seed)
