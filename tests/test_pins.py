"""Outputs pinned byte for byte: each template output in `pins.json`, which
CI's template step reads too, and the defaults file `calibrate` writes."""

import hashlib
import json
from importlib import resources
from pathlib import Path

import pytest

from migratenet import cli

PINS = json.loads((Path(__file__).parent / "pins.json").read_text(encoding="utf-8"))


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
