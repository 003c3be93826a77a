"""Byte-identity of seeded reports, pinned as SHA-256 digests.

Every file written by a small traced scenario run and by each CLI template
at seed 0 is hashed and compared with its pin under ``reports`` in
`pins.json`.  A refactor that claims byte-identical output must leave all of
them unchanged; a deliberate output change re-captures them and says why.
"""

import hashlib

from conftest import PINS
from migratenet import bench, cli

# relay, direct and auto sends; migrations; a stale bulletin entry (b moves
# from 3 to 4 at 0.62 and a sends to it before the next gossip round);
# lossy gossip during the run; and `model` / `caps` blocks
GOLDEN_SCENARIO = {
    "version": 1,
    "name": "golden",
    "seed": 3,
    "topology": {"kind": "mesh", "nodes": 5},
    "processes": [
        {"id": "a", "home": 0, "job": "A", "work": 2.0},
        {"id": "b", "home": 1, "job": "A"},
        {"id": "c", "home": 2},
        {"id": "d", "home": 0, "job": "B", "work": 0.5},
    ],
    "migrations": [
        {"time": 0.05, "pid": "b", "to": 3},
        {"time": 0.05, "pid": "c", "to": 4},
        {"time": 0.62, "pid": "b", "to": 4},
    ],
    "traffic": [
        {"time": 0.01, "src": "a", "dst": "b", "transport": "relay", "size": 1500,
         "count": 3, "interval": 0.2},
        {"time": 0.02, "src": "c", "dst": "a", "transport": "direct", "size": 70000},
        {"time": 0.3, "src": "a", "dst": "c", "transport": "auto", "size": 4096,
         "count": 2, "interval": 0.25},
        {"time": 0.63, "src": "a", "dst": "b", "transport": "direct", "size": 2048},
        {"time": 0.64, "src": "d", "dst": "a", "transport": "direct", "size": 100},
        {"time": 0.7, "src": "b", "dst": "c", "transport": "auto", "size": 65536},
    ],
    "gossip": {"bound": 16, "drop_probability": 0.25, "rounds_per_second": 10},
    "model": {"alpha_net": 2e-4, "home_leg_factor": 0.5},
    "caps": {"relay_max": 1 << 20, "control_size": 48},
}

TEMPLATES = {
    "sweep": ["sweep", "--sizes", "1024,65536,1048576", "--trace"],
    "limit": ["limit"],
    "ring": ["ring", "--spokes", "4", "--size", "3000", "--trace"],
    "imbalanced": ["imbalance", "--preset", "imbalanced", "--trace"],
    "balanced": ["imbalance", "--preset", "balanced"],
    "gossip": ["gossip-stats", "--nodes", "12", "--drop", "0.2"],
}

def digests(root):
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def write_reports(root):
    scenario = bench.Scenario.from_dict(GOLDEN_SCENARIO)
    bench.run_scenario(scenario, trace_enabled=True).write(root / "scenario")
    for label, argv in TEMPLATES.items():
        assert cli.main(argv + ["--seed", "0", "--out", str(root / label)]) in (0, 1)


def test_seeded_reports_match_golden_digests(tmp_path, capsys):
    write_reports(tmp_path)
    trace = (tmp_path / "scenario" / "golden_trace.csv").read_text()
    assert "NACK_UNKNOWN" in trace and "LOC_REPLY" in trace
    got, pinned = digests(tmp_path), PINS["reports"]["files"]
    wrong = [f"pin report {name}: sha256 is {got.get(name)}, pinned {pinned.get(name)}"
             for name in sorted(got.keys() | pinned.keys()) if got.get(name) != pinned.get(name)]
    assert not wrong, "\n".join(wrong)
