"""Outputs pinned byte for byte: each template output and each seed-1
workload digest in `pins.json`, which CI's template and workload steps read
too, and the defaults file `calibrate` writes.  The other pins of
`pins.json` are checked where their outputs are made: the report files in
`test_golden_reports.py`, the socket traffic in `test_socket_api.py` and the
gossip goldens in `test_gossip.py`."""

import hashlib
import importlib
from importlib import resources
from pathlib import Path

import pytest

import migratenet
import migratenet.bench
from conftest import PINS
from migratenet import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("pin", PINS["templates"], ids=lambda pin: " ".join(pin["argv"]))
def test_template_output_matches_its_pin(pin, tmp_path, capsys):
    name = " ".join(pin["argv"])
    assert cli.main([*pin["argv"], "--out", str(tmp_path)]) == 0, f"pin {name!r}: exit code"
    got = hashlib.sha256((tmp_path / pin["file"]).read_bytes()).hexdigest()
    assert got == pin["sha256"], f"pin {name!r}: {pin['file']} has sha256 {got}"


def test_calibrate_writes_the_packaged_defaults_byte_for_byte(tmp_path, capsys):
    assert cli.main(["calibrate", "--out", str(tmp_path)]) == 0
    shipped = resources.files("migratenet").joinpath("defaults.json").read_bytes()
    assert (tmp_path / "latency_defaults.json").read_bytes() == shipped


@pytest.mark.parametrize("pin", [pin for pin in PINS["workloads"] if pin["seed"] == 1],
                         ids=lambda pin: f"{pin['workload']} seed {pin['seed']}")
def test_workload_digest_matches_its_pin(pin, tmp_path, monkeypatch):
    """The `report_sha256` that `perfbench/run.py --seed S` prints: each input
    generated from the seed is set up, run and checked once, in the already
    imported package, and the digest hashes the inputs' digests joined."""
    name = f"{pin['workload']} seed {pin['seed']}"
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run, workloads = importlib.import_module("run"), importlib.import_module("workloads")
    digests = []
    for index in range(run.INPUTS):
        outdir = tmp_path / f"input{index}"
        outdir.mkdir()
        workload = workloads.make(pin["workload"], pin["seed"] * run.INPUTS + index, outdir)
        state = workload.setup(migratenet)
        outputs, _ = workload.run(migratenet, state)
        checked = workload.check(migratenet, state, outputs)
        assert not checked.failures, f"pin {name}: {checked.failures}"
        digests.append(checked.sha256)
    got = hashlib.sha256("".join(digests).encode()).hexdigest()
    assert got == pin["report_sha256"], f"pin {name}: report_sha256 is {got}"
