"""Command-line entry point: scenario execution, built-in experiments, and
latency-model calibration.

Exit codes are a stable contract: 0 = success with all scenario assertions
passing, 1 = assertion (or calibration) failure, 2 = usage/config error.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from pathlib import Path
from typing import Optional

from . import bench, templates
from .errors import E_IO, E_NO_SOLUTION, InvalidScenarioError, SimulatorError
from .simcore import AT_LEAST_ONE, DEFAULTS_VERSION, NODE_COUNT, LatencyModel, check, load_model
from .transport import DEFAULT_RELAY_MAX

# Calibration conventions.  The two ratio targets cannot pin six model
# parameters, so the network scale is fixed at round 2009-era values and the
# shared-memory parameters at fixed ratios; the direct overhead and the
# home-leg factor are solved for.  Absolute seconds are not meaningful,
# ratios are.
CAL_ALPHA_NET = 1e-4          # seconds per network hop
CAL_BETA_NET = 1e8            # bytes per second per hop
SM_ALPHA_DIVISOR = 10.0       # alpha_sm = alpha_net / 10
SM_BETA_FACTOR = 10.0         # beta_sm  = beta_net * 10
TARGET_SLOWDOWN = 0.17        # mean direct / local-relay - 1
TARGET_IMPROVEMENT = 0.52     # mean 1 - direct / migrated-relay
TOLERANCE = 0.01
# mean of 1 / (one network hop) over the default sweep's sizes
MEAN_INV_HOP = (sum(1.0 / (CAL_ALPHA_NET + s / CAL_BETA_NET)
                    for s in templates.DEFAULT_SWEEP_SIZES) / len(templates.DEFAULT_SWEEP_SIZES))

# the rule of `ring --spokes` (see simcore.check): a ring has a node per
# spoke and its center
SPOKES = (2, NODE_COUNT[1] - 1, f"must be >= 2 and <= {NODE_COUNT[1] - 1}")
# the rule of `sweep --sizes` and `ring --size`: the templates use the default caps
SIZE = (0, DEFAULT_RELAY_MAX, f"must be non-negative and <= {DEFAULT_RELAY_MAX}, the relay cap")


def calibrate() -> dict:
    """Fit the latency model to the target ratios over the default sweep and
    return the defaults-file payload.

    The network and shared-memory scale is fixed; the direct overhead and
    the home-leg factor k are solved in closed form.  The local relay has no
    home legs, so the overhead alone sets the slowdown,
    ``overhead * mean(1 / hop)``.  On the migrated placement the relay costs
    (1 + 2k) hops, so the mean improvement is 1 - (1 + slowdown) / (1 + 2k).
    A negative k (improvement < -slowdown) is clamped at 0, the nearest joint
    fit.  One sweep then checks both targets: `solvable` says whether both
    are met within `TOLERANCE`.
    """
    factor = ((1 + TARGET_SLOWDOWN) / (1 - TARGET_IMPROVEMENT) - 1) / 2
    model = LatencyModel(
        alpha_net=CAL_ALPHA_NET,
        beta_net=CAL_BETA_NET,
        alpha_sm=CAL_ALPHA_NET / SM_ALPHA_DIVISOR,
        beta_sm=CAL_BETA_NET * SM_BETA_FACTOR,
        direct_overhead=TARGET_SLOWDOWN / MEAN_INV_HOP,
        home_leg_factor=max(0.0, factor),
    )
    report = templates.latency_sweep(templates.DEFAULT_SWEEP_SIZES, model)
    slowdown = float(report.extra["mean_slowdown_vs_local_relay"])
    improvement = float(report.extra["mean_improvement_vs_migrated_relay"])
    return {
        "version": DEFAULTS_VERSION,
        "model": vars(model),
        "calibration": {
            "sweep_sizes": list(templates.DEFAULT_SWEEP_SIZES),
            "target_slowdown": TARGET_SLOWDOWN,
            "target_improvement": TARGET_IMPROVEMENT,
            "tolerance": TOLERANCE,
            "achieved_slowdown": slowdown,
            "achieved_improvement": improvement,
            "solvable": (abs(slowdown - TARGET_SLOWDOWN) <= TOLERANCE
                         and abs(improvement - TARGET_IMPROVEMENT) <= TOLERANCE),
        },
    }


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    # chained parents; each command takes the shortest chain its output reads
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default="out", help="output directory")
    seeded = argparse.ArgumentParser(add_help=False, parents=[out])
    seeded.add_argument("--seed", type=int, default=None,
                        help="RNG seed (default: for run the scenario's seed, otherwise 0)")
    traced = argparse.ArgumentParser(add_help=False, parents=[seeded])
    traced.add_argument("--trace", action="store_true",
                        help="also write a per-frame trace CSV")
    modeled = argparse.ArgumentParser(add_help=False, parents=[traced])
    modeled.add_argument("--config", default=None,
                         help="latency defaults file (default: packaged defaults)")

    parser = argparse.ArgumentParser(
        prog="migratenet",
        description="Deterministic cluster simulator: direct vs home-relay "
                    "messaging, gossip dissemination, load balancing.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", parents=[modeled], help="run a scenario file")
    p.add_argument("scenario", help="path to a scenario JSON file")

    p = sub.add_parser("sweep", parents=[modeled], help="latency vs size sweep")
    p.add_argument("--sizes", default=None,
                   help="comma-separated byte sizes (default: 1KiB..64MiB doublings)")

    sub.add_parser("limit", parents=[traced], help="maximum message size test")

    p = sub.add_parser("ring", parents=[traced],
                       help="home-node bypass: processes homed on node 0")
    p.add_argument("--spokes", type=int, default=8)
    p.add_argument("--size", type=int, default=4096)

    p = sub.add_parser("imbalance", parents=[traced], help="load-balancing test")
    p.add_argument("--preset", choices=["imbalanced", "balanced"], default="imbalanced")

    p = sub.add_parser("gossip-stats", parents=[seeded],
                       help="dissemination statistics for one fresh fact")
    p.add_argument("--nodes", type=int, default=32)
    p.add_argument("--max-rounds", type=int, default=50)
    p.add_argument("--drop", type=float, default=0.0,
                   help="per-exchange drop probability")

    sub.add_parser("calibrate", parents=[out],
                   help="fit the latency model to the target ratios, "
                        "write <out>/latency_defaults.json")

    return parser


def _size(text, flag: str) -> int:
    """A message size given by `flag`, under the rule `SIZE`."""
    try:
        size = int(text)
    except ValueError:
        raise InvalidScenarioError(f"{flag}: expected an integer, got {text!r}") from None
    return check(size, SIZE, flag)


def _emit(report: bench.Report, outdir: str) -> int:
    files = report.write(outdir)
    for a in report.assertions:
        status = "PASS" if a.passed else "FAIL"
        print(f"[{status}] {report.name}: {a.name}" +
              (f" ({a.detail})" if a.detail else ""))
    for f in files:
        print(f"wrote {f}")
    return 0 if report.passed else 1


def _run_calibrate(args) -> int:
    payload = calibrate()
    out_path = Path(args.out) / "latency_defaults.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out_path}")
    cal, model = payload["calibration"], payload["model"]
    print(f"achieved slowdown    : {cal['achieved_slowdown']:.4f} "
          f"(target {TARGET_SLOWDOWN} +- {TOLERANCE})")
    print(f"achieved improvement : {cal['achieved_improvement']:.4f} "
          f"(target {TARGET_IMPROVEMENT} +- {TOLERANCE})")
    if not cal["solvable"]:
        print(f"{E_NO_SOLUTION}: both targets are unreachable together "
              f"with a non-negative home_leg_factor; wrote the nearest joint fit "
              f"(direct_overhead={model['direct_overhead']:.6g}, "
              f"home_leg_factor={model['home_leg_factor']:.6g})",
              file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.command == "calibrate":
            return _run_calibrate(args)

        # check every input first, then make --out, then simulate: a bad
        # input leaves no directory behind, and a bad --out costs no run
        if args.command == "run":
            # the scenario's model block overrides the --config model
            base = load_model(args.config) if args.config else None
            scenario = bench.Scenario.load(args.scenario, base)
            if args.seed is not None:   # else the scenario's seed
                scenario.seed = args.seed
            job = partial(bench.run_scenario, scenario, trace_enabled=args.trace)
        else:
            seed = args.seed or 0   # a template's seed: --seed, else 0
            if args.command == "sweep":
                sizes = None
                if args.sizes:
                    sizes = [_size(s, "--sizes") for s in args.sizes.split(",")]
                model = load_model(args.config) if args.config else None
                job = partial(templates.latency_sweep, sizes, model, seed,
                              trace_enabled=args.trace)
            elif args.command == "limit":
                job = partial(templates.limit_test, seed, trace_enabled=args.trace)
            elif args.command == "ring":
                job = partial(templates.ring_load, check(args.spokes, SPOKES, "--spokes"),
                              _size(args.size, "--size"), seed, trace_enabled=args.trace)
            elif args.command == "imbalance":
                job = partial(templates.imbalance_test, seed, preset=args.preset,
                              trace_enabled=args.trace)
            else:   # gossip-stats
                config = bench.GossipConfig(drop_probability=check(
                    args.drop, bench.LIMITS[bench.GossipConfig]["drop_probability"], "--drop"))
                job = partial(templates.gossip_stats, check(args.nodes, NODE_COUNT, "--nodes"),
                              seed, config,
                              check(args.max_rounds, AT_LEAST_ONE, "--max-rounds"))
        Path(args.out).mkdir(parents=True, exist_ok=True)
        return _emit(job(), args.out)
    except (SimulatorError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a file that cannot be read or written; names its path
        print(f"error: {E_IO}: {exc}", file=sys.stderr)
        return 2


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
