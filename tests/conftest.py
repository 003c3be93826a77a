"""Shared builders for the test suite."""

from __future__ import annotations

import json
import random
from pathlib import Path

from migratenet.bench import Simulation
from migratenet.cluster import Topology
from migratenet.gossip import Bulletin, GossipConfig, merge
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


def fill(bulletin: Bulletin, facts: dict) -> Bulletin:
    """Give `bulletin` each fact of `facts`, ``key -> (value, serial)``, in
    order, under the serial the test chose, and return it.  It goes in only
    as the API puts a fact in: a location by `publish_location`, the owner's
    own load by `publish_load`, and any other node's load, hearsay, by
    `merge`, which keeps a resident copy under a serial at least as large.

    Tests build bulletins only here, never by writing `Bulletin._facts`
    (`test_no_test_writes_the_facts_of_a_bulletin` checks it): every fact
    goes in through a method the package itself writes with."""
    for key, (value, serial) in facts.items():
        if isinstance(key, tuple):
            bulletin.publish_location(key, value, serial)
        elif key == bulletin.owner:
            bulletin.publish_load(value, serial)
        else:
            merge(bulletin, [(key, (value, serial))])
    return bulletin


def force_convergence(state) -> None:
    """Give every bulletin the ground truth through `fill`: each location
    under its own fresh serial, and each node's load under one fresh serial,
    the same in every bulletin, so a node's own copy keeps the largest serial
    of its key.  A set-up shortcut for tests where gossip itself is not under
    study."""
    loads = {n: (state.node_load(n), state.stamp()) for n in range(state.node_count)}
    for b in state.bulletins:
        fill(b, {pid: (rec.current, state.stamp()) for pid, rec in state.procs.items()})
        fill(b, loads)
