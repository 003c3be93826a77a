import csv
import json
import os
import re

import pytest

from migratenet import bench, cli, templates
from migratenet.errors import InvalidScenarioError
from migratenet.simcore import LatencyModel, load_model

SCENARIO = {
    "version": 1,
    "name": "cli_demo",
    "seed": 3,
    "topology": {"kind": "mesh", "nodes": 4},
    "processes": [{"id": "a", "home": 0}, {"id": "b", "home": 1}],
    "migrations": [{"time": 0.1, "pid": "a", "to": 2}],
    "traffic": [{"time": 1.0, "src": "a", "dst": "b", "transport": "auto",
                 "size": 4096}],
}


def write_scenario(tmp_path, data=SCENARIO):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    return str(path)


def read_all(outdir):
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


# -- exit codes ----------------------------------------------------------------

def test_run_missing_scenario_exits_2(tmp_path, capsys):
    assert cli.main(["run", "missing.json", "--out", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_run_invalid_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert cli.main(["run", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert "E_INVALID_SCENARIO" in capsys.readouterr().err


def test_run_non_utf8_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"name": "\xff"}')
    assert cli.main(["run", str(bad), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "E_INVALID_SCENARIO" in err and "Traceback" not in err


def test_run_too_deeply_nested_json_exits_2(tmp_path, capsys):
    # deeper than the parser's recursion limit: json raises RecursionError
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    assert cli.main(["run", str(deep), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "E_INVALID_SCENARIO" in err and "not valid JSON" in err
    assert not (tmp_path / "out").exists()


def test_sweep_too_deeply_nested_config_exits_2(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    assert cli.main(["sweep", "--sizes", "1024", "--config", str(deep),
                     "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "E_INVALID_SCENARIO" in err and f"config {deep}: not valid JSON" in err


def test_run_schema_violation_exits_2(tmp_path, capsys):
    data = json.loads(json.dumps(SCENARIO))
    data["traffic"][0]["src"] = "ghost"
    assert cli.main(["run", write_scenario(tmp_path, data),
                     "--out", str(tmp_path / "out")]) == 2
    assert "traffic[0].src" in capsys.readouterr().err


def test_run_negative_home_leg_factor_exits_2(tmp_path, capsys):
    data = json.loads(json.dumps(SCENARIO))
    data["model"] = {"home_leg_factor": -0.5}
    assert cli.main(["run", write_scenario(tmp_path, data),
                     "--out", str(tmp_path / "out")]) == 2
    assert "home_leg_factor must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("gossip,needle", [
    ({"bound": 0}, "gossip.bound"), ({"bound": -3}, "gossip.bound"),
    ({"drop_probability": -0.1}, "gossip.drop_probability"),
    ({"drop_probability": 1.5}, "gossip.drop_probability"),
    ({"drop_probability": float("nan")}, "gossip.drop_probability"),
    ({"rounds_per_second": 0}, "gossip.rounds_per_second"),
    ({"rounds_per_second": -2.0}, "gossip.rounds_per_second"),
    ({"rounds_per_second": float("inf")}, "gossip.rounds_per_second"),
    ({"rounds_per_second": float("nan")}, "gossip.rounds_per_second"),
    ([], "scenario.gossip"),
])
def test_run_bad_gossip_block_exits_2(tmp_path, capsys, gossip, needle):
    data = dict(SCENARIO, gossip=gossip)
    with pytest.raises(InvalidScenarioError, match=needle):
        bench.Scenario.from_dict(data)
    assert cli.main(["run", write_scenario(tmp_path, data),
                     "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert needle in err and "Traceback" not in err


def test_run_without_convergence_exits_2(tmp_path, capsys):
    # every exchange is lost, so pre-convergence fails before any round
    data = dict(SCENARIO, gossip={"drop_probability": 1.0})
    assert cli.main(["run", write_scenario(tmp_path, data),
                     "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "E_NO_CONVERGENCE" in err and "Traceback" not in err


def _set(path, value):
    """A mutation that sets the field at `path` (keys and list indices)."""
    def apply(data):
        target = data
        for step in path[:-1]:
            target = target[step]
        target[path[-1]] = value
    return apply


@pytest.mark.parametrize("mutate,needle", [
    (_set(["processes"], [5]), "processes[0]"),
    (_set(["processes", 0, "work"], "heavy"), "processes[0].work"),
    (_set(["processes", 0, "job"], 5), "processes[0].job"),
    (_set(["caps"], 5), "scenario.caps"),
    (_set(["caps"], {"bogus": 1}), "caps.bogus"),
    (_set(["caps"], {"relay_max": 2.5}), "caps.relay_max"),
    (_set(["caps"], {"relay_max": -1}), "caps.relay_max"),
    (_set(["model"], 5), "scenario.model"),
    (_set(["model"], {"bogus": 1.0}), "model.bogus"),
    (_set(["model"], {"alpha_net": "fast"}), "model.alpha_net"),
    (_set(["gossip"], {"bound": 2.7}), "gossip.bound"),
    (_set(["gossip"], {"bound": "x"}), "gossip.bound"),
    (_set(["pre_converge"], "no"), "scenario.pre_converge"),
    (_set(["seed"], 2.7), "scenario.seed"),
    (_set(["migrations"], {"time": 0.1}), "scenario.migrations"),
    (_set(["migrations", 0, "time"], float("inf")), "migrations[0].time"),
    (_set(["migrations", 0, "time"], -1.0), "migrations[0].time"),
    (_set(["traffic", 0, "time"], float("inf")), "traffic[0].time"),
    (_set(["traffic", 0, "time"], float("nan")), "traffic[0].time"),
    (_set(["traffic", 0, "time"], 10 ** 400), "traffic[0].time"),
    (_set(["traffic", 0, "time"], True), "traffic[0].time"),
    (_set(["traffic", 0, "interval"], -0.5), "traffic[0].interval"),
    (_set(["traffic", 0, "count"], 2.5), "traffic[0].count"),
    (_set(["topology"], {"kind": "explicit", "nodes": 4}),
     "topology.kind: expected 'mesh', got 'explicit'"),
    (_set(["topology"], {"kind": "ring_with_center", "nodes": 4}),
     "topology.kind: expected 'mesh', got 'ring_with_center'"),
    (_set(["topology"], {"kind": "mesh", "nodes": 4, "edges": [[0, 1]]}),
     "topology.edges: unknown field"),
    (_set(["topology"], {"kind": "mesh", "nodes": 10 ** 400}), "topology.nodes"),
    (_set(["pre_convergee"], False), "scenario.pre_convergee: unknown field"),
    (_set(["topology", "nodez"], 4), "topology.nodez: unknown field"),
    (_set(["processes", 1, "hom"], 1), "processes[1].hom: unknown field"),
    (_set(["migrations", 0, "node"], 3), "migrations[0].node: unknown field"),
    (_set(["traffic", 0, "bytes"], 4096), "traffic[0].bytes: unknown field"),
    (_set(["gossip"], {"bonud": 1}), "gossip.bonud: unknown field"),
    # timelines past bench.MAX_TIMELINE_ROWS, which `run` would lay whole
    (_set(["traffic", 0, "count"], 10 ** 12), "traffic[0].count: "),
    (_set(["gossip"], {"rounds_per_second": 1e9}), "gossip.rounds_per_second: "),
    (_set(["version"], True), "scenario.version: expected int, got bool"),
    (_set(["version"], 1.0), "scenario.version: expected int, got float"),
])
def test_run_bad_field_exits_2_with_its_path(tmp_path, capsys, mutate, needle):
    data = json.loads(json.dumps(SCENARIO))
    mutate(data)
    # checked before running: an infinite time accepted here would hang `run`
    with pytest.raises(InvalidScenarioError, match=re.escape(needle)):
        bench.Scenario.from_dict(data)
    assert cli.main(["run", write_scenario(tmp_path, data),
                     "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "E_INVALID_SCENARIO" in err and needle in err and "Traceback" not in err


def test_unknown_subcommand_exits_2(capsys):
    assert cli.main(["frobnicate"]) == 2


@pytest.mark.parametrize("argv", [
    ["limit", "--config", "model.json"], ["ring", "--config", "model.json"],
    ["imbalance", "--config", "model.json"], ["gossip-stats", "--config", "model.json"],
    ["calibrate", "--config", "model.json"], ["gossip-stats", "--trace"],
    ["calibrate", "--trace"], ["calibrate", "--seed", "3"],
    ["calibrate", "--fix-overhead", "0"], ["calibrate", "--defaults-out", "x"],
])
def test_flag_the_command_does_not_read_exits_2(tmp_path, capsys, argv):
    # each command takes only the flags its output reads
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["../escaped", "sub/dir", "two\nlines", "delete\x7f",
                                  "next\x85line", "a\u2028b", "para\u2029graph"])
def test_run_scenario_name_with_a_path_separator_exits_2(tmp_path, capsys, name):
    scenario = write_scenario(tmp_path, dict(SCENARIO, name=name))
    assert cli.main(["run", scenario, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "E_INVALID_SCENARIO" in err and "scenario.name" in err
    assert [p.name for p in tmp_path.rglob("*")] == ["scenario.json"]


def test_run_over_long_scenario_name_exits_2_before_simulating(tmp_path, capsys):
    # 244 bytes with `_summary.txt` pass the 255-byte file-name limit; the
    # name is checked before --out is made, not when the files are written
    scenario = write_scenario(tmp_path, dict(SCENARIO, name="a" * 244))
    assert cli.main(["run", scenario, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "E_INVALID_SCENARIO" in err and "scenario.name: must be at most 243" in err
    assert [p.name for p in tmp_path.rglob("*")] == ["scenario.json"]


def test_run_send_over_its_cap_exits_2_before_simulating(tmp_path, capsys):
    # the relay send over the relay cap comes last; it is rejected with the
    # scenario, before --out is made and the sends before it are simulated
    data = dict(SCENARIO, topology={"kind": "mesh", "nodes": 2},
                migrations=[], traffic=[dict(SCENARIO["traffic"][0], count=100),
                                        dict(SCENARIO["traffic"][0], time=2.0,
                                             transport="relay", size=2_000_000_000)])
    assert cli.main(["run", write_scenario(tmp_path, data), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "E_INVALID_SCENARIO: traffic[1].size: 2000000000 is over the relay cap" in err
    assert not (tmp_path / "out").exists()


def test_run_valid_scenario_exits_0(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["run", write_scenario(tmp_path), "--out", str(out)]) == 0
    names = {p.name for p in out.iterdir()}
    assert names == {"cli_demo_latency.csv", "cli_demo_metrics.csv",
                     "cli_demo_summary.txt"}


def test_limit_subcommand_exits_0(tmp_path, capsys):
    assert cli.main(["limit", "--out", str(tmp_path)]) == 0
    summary = (tmp_path / "limit_test_summary.txt").read_text()
    assert "[PASS] direct cap = 2 x relay cap" in summary


def test_imbalance_and_ring_exit_0(tmp_path, capsys):
    assert cli.main(["imbalance", "--out", str(tmp_path / "i")]) == 0
    assert cli.main(["ring", "--spokes", "4", "--out", str(tmp_path / "r")]) == 0
    # 40 locations and 41 loads: more facts than one digest of 64 carries
    assert cli.main(["ring", "--spokes", "40", "--out", str(tmp_path / "r40")]) == 0


def test_run_converges_with_more_facts_than_one_digest(tmp_path, capsys):
    # 60 locations and 8 loads against the default digest bound of 64
    data = dict(SCENARIO, topology={"kind": "mesh", "nodes": 8},
                processes=[{"id": f"p{i}", "home": i % 8} for i in range(60)],
                migrations=[{"time": 0.1, "pid": "p0", "to": 5}],
                traffic=[dict(SCENARIO["traffic"][0], src="p0", dst="p9")])
    out = tmp_path / "out"
    assert cli.main(["run", write_scenario(tmp_path, data), "--out", str(out)]) == 0
    assert "gossip rounds to converge: " in (out / "cli_demo_summary.txt").read_text()


# -- determinism ------------------------------------------------------------------

def test_sweep_same_seed_byte_identical_outputs(tmp_path, capsys):
    sizes = "1024,4096,65536,1048576"
    for d in ("one", "two"):
        assert cli.main(["sweep", "--seed", "7", "--sizes", sizes,
                         "--out", str(tmp_path / d)]) == 0
    assert read_all(tmp_path / "one") == read_all(tmp_path / "two")


def test_template_seed_is_the_flag_else_0_whatever_the_environment(tmp_path, capsys,
                                                                   monkeypatch):
    # no command reads an environment variable: a seed comes from --seed only
    monkeypatch.setenv("MIGRATENET_SEED", "5")
    assert cli.main(["gossip-stats", "--nodes", "12", "--out", str(tmp_path / "env")]) == 0
    monkeypatch.delenv("MIGRATENET_SEED")
    assert cli.main(["gossip-stats", "--nodes", "12", "--seed", "0",
                     "--out", str(tmp_path / "zero")]) == 0
    assert read_all(tmp_path / "env") == read_all(tmp_path / "zero")
    rows = (tmp_path / "env" / "gossip_stats_gossip.csv").read_text().splitlines()
    assert rows[0] == "round,informed_count,frames,entries_moved"


def test_run_seed_is_the_flag_then_the_scenario_seed(tmp_path, capsys):
    scenario = write_scenario(tmp_path)
    for label, flags, seed in (("flag", ["--seed", "7"], 7), ("scenario", [], 3)):
        out = tmp_path / label
        assert cli.main(["run", scenario, "--out", str(out)] + flags) == 0
        assert f"\nseed: {seed}\n" in (out / "cli_demo_summary.txt").read_text()


@pytest.mark.parametrize("argv,path", [
    (["run", "{tmp}/missing.json"], "missing.json"),
    (["run", "{scenario}", "--config", "{tmp}/missing_defaults.json"], "missing_defaults.json"),
    (["limit", "--out", "{scenario}"], "scenario.json"),
])
def test_file_error_exits_2_with_the_io_code_and_its_path(tmp_path, capsys, argv, path):
    scenario = write_scenario(tmp_path)
    assert cli.main([a.format(tmp=tmp_path, scenario=scenario) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: E_IO: ") and path in err


def test_run_makes_its_out_directory_before_simulating(tmp_path, capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("simulated although --out is a file")
    monkeypatch.setattr(bench, "run_scenario", no_run)
    scenario = write_scenario(tmp_path)
    assert cli.main(["run", scenario, "--out", scenario]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: E_IO: ") and "scenario.json" in err


def test_run_quotes_a_scenario_name_that_holds_csv_specials(tmp_path, capsys):
    name = 'a,"b'
    send = SCENARIO["traffic"][0]
    data = dict(SCENARIO, name=name,
                traffic=[dict(send, transport=kind, count=4, interval=0.1)
                         for kind in ("relay", "direct", "auto")])
    out = tmp_path / "out"
    assert cli.main(["run", write_scenario(tmp_path, data), "--out", str(out)]) == 0
    with open(out / f"{name}_metrics.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "scenario" and len(rows) > 1
    assert all(row[0] == name and len(row) == 5 for row in rows[1:])
    with open(out / f"{name}_latency.csv", newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["size", "latency", "series"]
    report = bench.run_scenario(bench.Scenario.from_dict(data))
    assert len(report.latency_rows) == 12
    assert [(int(size), float(latency), series) for size, latency, series in rows] \
        == report.latency_rows
    assert f"scenario: {name}\n" in (out / f"{name}_summary.txt").read_text()


def test_trace_flag_writes_trace_csv(tmp_path, capsys):
    assert cli.main(["run", write_scenario(tmp_path), "--trace",
                     "--out", str(tmp_path / "out")]) == 0
    trace = (tmp_path / "out" / "cli_demo_trace.csv").read_text().splitlines()
    assert trace[0] == "time,kind,src,dst,from_node,to_node,size"


def test_config_flag_selects_model(tmp_path, capsys):
    config = tmp_path / "custom.json"
    config.write_text(json.dumps(
        {"version": 1, "model": dict(vars(load_model()), direct_overhead=0.5)}))
    out = tmp_path / "out"
    assert cli.main(["sweep", "--sizes", "1024", "--config", str(config),
                     "--out", str(out)]) == 0
    text = (out / "latency_sweep_latency.csv").read_text()
    assert "local-direct" in text


MODEL_WITHOUT_BETA_NET = {"alpha_net": 1e-4, "alpha_sm": 1e-5, "beta_sm": 1e9,
                          "direct_overhead": 1e-5}


@pytest.mark.parametrize("config,needle", [
    ({"version": 1}, "config.model: missing"),
    ({"version": 1, "model": MODEL_WITHOUT_BETA_NET}, "config.model.beta_net: missing"),
    ({"version": 1, "model": 5}, "config.model: expected dict"),
    ({"version": 1, "model": dict(MODEL_WITHOUT_BETA_NET, beta_net="fast")},
     "config.model.beta_net: expected float"),
    ({"version": 1, "model": dict(MODEL_WITHOUT_BETA_NET, beta_net=-1.0)},
     "config.model: beta_net must be strictly positive"),
    ([1], "config: expected an object"),
    ({"version": 1, "model": dict(MODEL_WITHOUT_BETA_NET, beta_net=1e8, home_leg_facter=0.5)},
     "config.model.home_leg_facter: unknown field"),
    ({"version": 99, "model": {}}, "config.version"),
])
def test_bad_config_file_exits_2_with_its_path(tmp_path, capsys, config, needle):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli.main(["sweep", "--sizes", "1024", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "E_INVALID_SCENARIO" in err and needle in err and "Traceback" not in err


@pytest.mark.parametrize("argv,needle", [
    (["sweep", "--sizes", "1k"], "--sizes: expected an integer"),
    (["sweep", "--sizes", ","], "--sizes: expected an integer"),
    (["sweep", "--sizes", "0,-5"], "--sizes: must be non-negative"),
    (["ring", "--size", "-1"], "--size: must be non-negative"),
    (["gossip-stats", "--drop", "2"], "--drop: must be in [0, 1]"),
    (["gossip-stats", "--drop", "nan"], "--drop: must be in [0, 1]"),
    (["gossip-stats", "--max-rounds", "0"], "--max-rounds: must be >= 1"),
    (["gossip-stats", "--max-rounds", "-1"], "--max-rounds: must be >= 1"),
    (["ring", "--spokes", "1"], "--spokes: must be >= 2"),
    (["gossip-stats", "--drop", "-0.1"], "--drop: must be in [0, 1]"),
    (["gossip-stats", "--nodes", "65537"], "--nodes: must be >= 1 and <= 65536"),
    (["sweep", "--sizes", "1024,,2048"], "--sizes: expected an integer"),
    (["gossip-stats", "--nodes", "0"], "--nodes: must be >= 1"),
    (["gossip-stats", "--nodes", "-3"], "--nodes: must be >= 1"),
    (["gossip-stats", "--nodes", "70000"], "--nodes: must be >= 1 and <= 65536"),
    (["ring", "--spokes", "65536"], "--spokes: must be >= 2 and <= 65535"),
    # the templates send with the default caps, the smaller the relay's 2**30
    (["sweep", "--sizes", "1024,2000000000"], "--sizes: must be non-negative and <= 1073741824"),
    (["ring", "--size", "2000000000"], "--size: must be non-negative and <= 1073741824"),
])
def test_bad_template_flag_exits_2_with_its_name(tmp_path, capsys, argv, needle):
    # a flag that stands for a scenario field obeys that field's rule
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "E_INVALID_SCENARIO" in err and needle in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_run_config_is_the_base_of_the_scenario_model(tmp_path, capsys):
    config = tmp_path / "custom.json"
    config.write_text(json.dumps({"version": 1,
                                  "model": dict(vars(load_model()), alpha_net=5.0)}))
    latencies = {}
    for label, block, flags in (("packaged", None, []),
                                ("config", None, ["--config", str(config)]),
                                ("overlay", {"alpha_net": 7.0}, ["--config", str(config)])):
        data = dict(SCENARIO, traffic=[dict(SCENARIO["traffic"][0], transport="direct")])
        if block is not None:
            data["model"] = block
        out = tmp_path / label
        assert cli.main(["run", write_scenario(tmp_path, data), "--out", str(out)]
                        + flags) == 0
        latencies[label] = float((out / "cli_demo_latency.csv").read_text()
                                 .splitlines()[1].split(",")[1])
    assert latencies["packaged"] < 1.0
    assert 5.0 < latencies["config"] < 6.0
    assert latencies["overlay"] - latencies["config"] == pytest.approx(2.0)


# -- calibration --------------------------------------------------------------------

def test_calibrate_reports_no_solution_with_nearest_fit(tmp_path, capsys, monkeypatch):
    # an improvement below -slowdown needs a negative home-leg factor
    monkeypatch.setattr(cli, "TARGET_IMPROVEMENT", -0.5)
    out = tmp_path / "cal"
    assert cli.main(["calibrate", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "E_NO_SOLUTION" in err and "nearest" in err
    payload = json.loads((out / "latency_defaults.json").read_text())
    calibration = payload["calibration"]
    assert calibration["solvable"] is False
    # the nearest fit clamps the factor at 0; it is the model written
    assert payload["model"]["home_leg_factor"] == 0.0
    assert calibration["achieved_slowdown"] == pytest.approx(cli.TARGET_SLOWDOWN, abs=1e-9)
    assert calibration["achieved_improvement"] == pytest.approx(-cli.TARGET_SLOWDOWN, abs=1e-9)


def test_calibrate_hits_slowdown_target_exactly():
    payload = cli.calibrate()
    calibration = payload["calibration"]
    assert calibration["solvable"]
    assert calibration["achieved_slowdown"] == pytest.approx(cli.TARGET_SLOWDOWN, abs=1e-9)
    assert calibration["achieved_improvement"] == pytest.approx(cli.TARGET_IMPROVEMENT, abs=1e-9)
    # with every hop at full cost the two means are locked together
    homogeneous = LatencyModel(**dict(payload["model"], home_leg_factor=1.0))
    report = templates.latency_sweep(model=homogeneous)
    slowdown = float(report.extra["mean_slowdown_vs_local_relay"])
    improvement = float(report.extra["mean_improvement_vs_migrated_relay"])
    assert slowdown == pytest.approx(calibration["achieved_slowdown"], abs=1e-12)
    assert improvement == pytest.approx(2 / 3 - slowdown / 3, abs=1e-9)


def test_shipped_defaults_match_regenerated_calibration():
    regenerated = cli.calibrate()
    shipped_path = os.path.join(os.path.dirname(cli.__file__), "defaults.json")
    with open(shipped_path, encoding="utf-8") as fh:
        shipped = json.load(fh)
    assert shipped == regenerated
    # the file holds the model once: no key under calibration, at any depth,
    # repeats a model field
    def keys(node):
        return set(node).union(*map(keys, node.values())) if isinstance(node, dict) else set()

    assert not set(LatencyModel.__annotations__) & keys(shipped["calibration"])


def test_shipped_defaults_loadable_and_consistent():
    model = load_model()
    payload = cli.calibrate()
    assert model == LatencyModel(**payload["model"])
