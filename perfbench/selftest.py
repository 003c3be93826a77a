"""Self-test of the benchmark on tiny versions of its three workloads.

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is printed with its unit, in
the untraced and the traced mode, and that each correctness check fails on
a doctored output and makes the run exit non-zero.  Exits 0 when every test
passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import checks
import run
import workloads

TINY = {
    "gossip_steady": dict(nodes=4, processes=6, sends=60, migrations=10, horizon_s=1.0,
                          rounds_per_second=10.0, size_min=1024, size_max=65536,
                          transports=("auto",)),
    "send_storm": dict(nodes=4, processes=8, sends=300, migrations=10, horizon_s=0.5,
                       rounds_per_second=10.0, size_min=64, size_max=1 << 20,
                       transports=("relay", "direct", "auto")),
    "churn_sockets": dict(nodes=8, processes=12, crowded_nodes=2, connections_per_transport=1,
                          ticks=5, tick_s=0.1, migrations_per_tick=2, sends_per_tick=30,
                          size_min=64, size_max=16384, recv_max=65536),
}
SPEC = json.loads((run.HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_tiny(name: str, trace: int) -> tuple[int, list[str], dict]:
    """Exit code, printed lines and result object of one tiny run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(["--workload", name, "--seed", "3", "--seconds", "0",
                         "--trace", str(trace)], params=TINY[name])
    lines = out.getvalue().splitlines()
    return code, lines, json.loads(lines[-1])


def test_metrics_printed(name: str) -> list[str]:
    problems = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        code, lines, result = run_tiny(name, trace)
        if code != 0 or not result["correct"]:
            problems.append(f"trace {trace}: exit {code}, correct={result['correct']}")
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        printed = {m: v["unit"] for m, v in result["metrics"].items()}
        if printed != expected:
            problems.append(f"trace {trace}: result metrics {printed} != {expected}")
        for metric, unit in expected.items():
            if not any(line.startswith(f"{metric}: ") and line.endswith(f" {unit}")
                       for line in lines):
                problems.append(f"trace {trace}: no line '{metric}: <value> {unit}'")
        if not any(line.startswith("report_sha256: ") for line in lines):
            problems.append(f"trace {trace}: no report_sha256 line")
    return problems


def one_iteration(name: str) -> workloads.Checked:
    outdir = run.OUT / name / "doctored"
    outdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.make(name, 5, outdir, TINY[name])
    mn = run.import_program()
    state = workload.setup(mn)
    outputs, _ = workload.run(mn, state)
    return workload.check(mn, state, outputs)


# Each doctor spoils one output the checks read, in a copy of the evidence.

def drop_delivered_byte(evidence):
    evidence["metrics"] = evidence["metrics"].snapshot()
    node = next(iter(evidence["metrics"].delivered_bytes))
    evidence["metrics"].delivered_bytes[node] -= 1


def drop_payload_byte(evidence):
    evidence["metrics"] = evidence["metrics"].snapshot()
    evidence["metrics"].payload_delivered -= 1


def fail_report(evidence):
    evidence["passed"] = False


def lose_send(evidence):
    evidence["sends_done"] -= 1


def receive_one_byte_less(evidence):
    evidence["received"] = dict(evidence["received"])
    handle = next(iter(evidence["received"]))
    evidence["received"][handle] -= 1


def leave_chunk_queued(evidence):
    evidence["queued"] += 1


SCENARIO_DOCTORS = (drop_delivered_byte, drop_payload_byte, fail_report, lose_send)
SOCKET_DOCTORS = (drop_delivered_byte, drop_payload_byte, receive_one_byte_less,
                  leave_chunk_queued)


def test_checks_fail_when_doctored(name: str) -> list[str]:
    problems = []
    checked = one_iteration(name)
    if checked.failures:
        problems.append(f"undoctored output fails: {checked.failures}")
    if name in workloads.SCENARIO_PARAMS:
        check, doctors = checks.scenario_failures, SCENARIO_DOCTORS
    else:
        check, doctors = checks.socket_failures, SOCKET_DOCTORS
    for doctor in doctors:
        evidence = dict(checked.evidence)
        doctor(evidence)
        if not check(evidence):
            problems.append(f"{doctor.__name__}: check passed on a doctored output")
    if not checks.repeat_failures(["a" * 64, "b" * 64]):
        problems.append("repeat check passed on differing digests")
    return problems


def test_exit_code_on_failed_check(name: str) -> list[str]:
    """A doctored output inside a real run makes it exit 1 with correct=false."""
    attr = "scenario_failures" if name in workloads.SCENARIO_PARAMS else "socket_failures"
    original = getattr(checks, attr)

    def doctored(evidence):
        evidence = dict(evidence)
        drop_delivered_byte(evidence)
        return original(evidence)

    setattr(checks, attr, doctored)
    try:
        code, _, result = run_tiny(name, 0)
    finally:
        setattr(checks, attr, original)
    if code != 1 or result["correct"] or result["failed"] < 1:
        return [f"exit {code}, correct={result['correct']}, failed={result['failed']}"]
    return []


def main() -> int:
    run.OUT = run.HERE / "out" / "selftest"
    sys.path.insert(0, str(run.SRC))
    failed = 0
    for name in workloads.WORKLOADS:
        for test in (test_metrics_printed, test_checks_fail_when_doctored,
                     test_exit_code_on_failed_check):
            problems = test(name)
            failed += bool(problems)
            print(f"{'FAIL' if problems else 'PASS'} {test.__name__}[{name}]")
            for problem in problems:
                print(f"    {problem}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
