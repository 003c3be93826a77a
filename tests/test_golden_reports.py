"""Byte-identity of seeded reports, pinned as SHA-256 digests.

Every file written by a small traced scenario run and by each CLI template
at seed 0 is hashed and compared with the digest recorded when the test was
written.  A refactor that claims byte-identical output must leave all of
them unchanged; a deliberate output change re-captures them and says why.
"""

import hashlib

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

GOLDEN = {
    "balanced/imbalance_test_latency.csv":
        "0aef943bf5310d88e7c04ea1d3c73a4aea597b6a5638312aef613a6487a93c59",
    "balanced/imbalance_test_metrics.csv":
        "bbe52988863e73d4ea123a80233826b80d9ad297b4ccb3aba86defe3b851ee42",
    "balanced/imbalance_test_summary.txt":
        "456bee8aba48734c4142154aa9d7a6916ae97cd60d03e68536ae49b0a75645fc",
    "gossip/gossip_stats_gossip.csv":
        "d8f44179bf5d5a6155ac0df4f8552a88395114372ab6f2473fd7216903d4c0e8",
    "gossip/gossip_stats_latency.csv":
        "0aef943bf5310d88e7c04ea1d3c73a4aea597b6a5638312aef613a6487a93c59",
    "gossip/gossip_stats_metrics.csv":
        "e2ceaa9f1683972a95a32e0a0ed3dd79ed753faa1d1dff57e614535f9b744fbf",
    "gossip/gossip_stats_summary.txt":
        "1b94c0bfd601e876636416bd2ce85bda133bb58a59cb6059cc8e29286c5648f5",
    "imbalanced/imbalance_test_latency.csv":
        "0aef943bf5310d88e7c04ea1d3c73a4aea597b6a5638312aef613a6487a93c59",
    "imbalanced/imbalance_test_metrics.csv":
        "bbe52988863e73d4ea123a80233826b80d9ad297b4ccb3aba86defe3b851ee42",
    "imbalanced/imbalance_test_summary.txt":
        "17f2cc15ed319aec1a8676d1bd27961584d26fc8109e346a2ed30cfd997db608",
    "imbalanced/imbalance_test_trace.csv":
        "8e89f95656d30f62dfe492427e7dc6e7be5f8c1843403a1563d2d9f035b0a899",
    "limit/limit_test_latency.csv":
        "0aef943bf5310d88e7c04ea1d3c73a4aea597b6a5638312aef613a6487a93c59",
    "limit/limit_test_metrics.csv":
        "4026fb8154e3876ce66ad573a813c726eda02889ce2e6c62c99f597dc5e69bff",
    "limit/limit_test_summary.txt":
        "4b7546541c17223c02ce8198bda0bee572bf5d953fbe86e3ad783deebebdfdf5",
    "ring/ring_load_latency.csv":
        "0aef943bf5310d88e7c04ea1d3c73a4aea597b6a5638312aef613a6487a93c59",
    "ring/ring_load_metrics.csv":
        "9378bc4dc6c4d617d64527045368b13b728f1f379525aa3c9f492a50ed7bb84c",
    "ring/ring_load_summary.txt":
        "4907316a6daaa70336eafcca0b1ba090c1951721eda81c396a755f9b183f0785",
    "ring/ring_load_trace.csv":
        "fcadb969495c2d9e1087c3a0091ec380937b1998e49a00b821fabdb23e0ce956",
    "scenario/golden_latency.csv":
        "2735b3b74d5ab444b072fdb737f5f06d82c75a4718bc80c0f9dd115ed92749cc",
    "scenario/golden_metrics.csv":
        "659b5a7f66164b5de046fa3ccea3d5791626573af9f40af66e5627b4c129819e",
    "scenario/golden_summary.txt":
        "0cb91ae9016730a8969b89510771a3556839e9b8d01ed5925869fb434084f91e",
    "scenario/golden_trace.csv":
        "99562ea83cd969cb14f9972802b1ad0052605dfb063d94266d44e4c297565e42",
    "sweep/latency_sweep_latency.csv":
        "1e978fd758523e736fc34479a792b3f31d04b7ff01cab3867d8c510107baa69f",
    "sweep/latency_sweep_metrics.csv":
        "139d59d5fe6f37ec6e629b1e4730b7408802ed45b30535231fcbc6ac80307006",
    "sweep/latency_sweep_summary.txt":
        "22b8a313f292076e87fe36848c08f8369860a6f5cfb252c4f2152a167ecffb0a",
    "sweep/latency_sweep_trace.csv":
        "13110b9137f0c5aa586272a4dac6320ae3b80007915dfb2f66509ef3ceb50767",
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
    assert digests(tmp_path) == GOLDEN
