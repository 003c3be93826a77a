"""Shared builders for the test suite."""

from __future__ import annotations

import json
import random
from pathlib import Path

from migratenet.bench import Simulation
from migratenet.cluster import Topology
from migratenet.gossip import GossipConfig
from migratenet.simcore import LatencyModel
from migratenet.transport import TransportConfig

# every pinned output, by kind: template outputs, workload digests, seeded
# report files, socket traffic and gossip goldens (tests/test_pins.py,
# tests/test_golden_reports.py, tests/test_socket_api.py, tests/test_gossip.py;
# CI reads the first two)
PINS = json.loads((Path(__file__).parent / "pins.json").read_text(encoding="utf-8"))

# hand-computable numbers: one hop = 1 + size/100, shared memory = 0.1 + size/1000
TEST_MODEL = LatencyModel(alpha_net=1.0, beta_net=100.0,
                          alpha_sm=0.1, beta_sm=1000.0,
                          direct_overhead=0.5)


def replaced(record, **changes):
    """A copy of a `LatencyModel` or `TransportConfig` with `changes` made."""
    return type(record)(**dict(vars(record), **changes))


def build_sim(nodes: int = 6, seed: int = 0, model: LatencyModel = TEST_MODEL,
              caps: TransportConfig = TransportConfig(),
              gossip_config: GossipConfig = GossipConfig(),
              trace: list | None = None) -> Simulation:
    return Simulation.build(Topology.mesh(nodes), model, caps, seed,
                            gossip_config, trace)


def place_pair(sim: Simulation, home_a: int, home_b: int,
               at_a: int | None = None, at_b: int | None = None):
    """Spawn two processes and optionally migrate them; returns their pids."""
    a = sim.cluster.spawn(home_a, "A")
    b = sim.cluster.spawn(home_b, "B")
    if at_a is not None:
        sim.cluster.migrate(a, at_a)
    if at_b is not None:
        sim.cluster.migrate(b, at_b)
    return a, b


def fresh_rng(seed: int = 0) -> random.Random:
    return random.Random(seed)


def force_convergence(state) -> None:
    """Write ground truth into every bulletin, each fact under its own fresh
    serial: a set-up shortcut for tests where gossip itself is not under
    study."""
    truth_load = [state.node_load(n) for n in range(state.node_count)]
    for b in state.bulletins:
        for pid, rec in state.procs.items():
            b.publish_location(pid, rec.current, state.stamp())
        for n in range(state.node_count):
            b._facts[n] = (truth_load[n], state.stamp())
