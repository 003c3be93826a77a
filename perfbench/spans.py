"""Span tracing of migratenet's public entry points, from outside the package.

`install` replaces each entry point on the freshly imported package with a
wrapper that records a span (name, start, end, parent) and, where the layer
can waste work or choose between outcomes, a counter read from the call's
arguments or result.  Nothing under ``src/`` changes; a new import of the
package is clean again.  Spans stay in memory until `write` saves them.

A span's self time is its duration minus its children's.  The root span
``driver.run`` covers the timed region of one iteration, so the self times
of every span under it add up to the traced ``run_s``; the root's own self
time is the benchmark driver's.  Counter hooks run beside the wrapped call
in spans of their own (``trace.hook``), so their cost shows as the
``trace`` layer instead of in the caller's self time; the rest of the
tracing cost is in ``trace.overhead_ratio``.
"""

from __future__ import annotations

import gzip
import math
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Callable, Optional

clock = time.perf_counter
ROOT = "driver.run"
HOOK = "trace.hook"

LAYERS = ("simcore", "cluster", "gossip", "transport", "socket", "balancer", "bench",
          "driver", "trace")

# (metric, unit) in the order they are printed
PER_LAYER = [
    ("simcore.events", "count"), ("simcore.dispatch_self_s", "s"),
    ("cluster.migrate.calls", "count"), ("cluster.migrate.self_s", "s"),
    ("gossip.round.calls", "count"), ("gossip.round.ms_p50", "ms"),
    ("gossip.round.ms_p99", "ms"), ("gossip.make_digest.self_s", "s"),
    ("gossip.merge.self_s", "s"), ("gossip.is_converged.self_s", "s"),
    ("gossip.converge.rounds", "count"), ("gossip.entries_moved", "count"),
    ("gossip.digest_truncated_ratio", "ratio"), ("gossip.merge_accept_ratio", "ratio"),
    *[(f"transport.{kind}.{stat}", unit) for kind in ("relay", "direct", "auto")
      for stat, unit in (("calls", "count"), ("us_p50", "us"), ("us_p99", "us"))],
    ("transport.self_s", "s"), ("transport.frames_per_send", "count"),
    *[(f"transport.direct.{outcome}", "count") for outcome in ("local", "hit", "miss", "stale")],
    ("transport.auto.direct_share", "ratio"),
    ("socket.send.calls", "count"), ("socket.send.us_p50", "us"), ("socket.send.us_p99", "us"),
    ("socket.recv.calls", "count"), ("socket.recv.us_p50", "us"),
    ("socket.recv.empty_ratio", "ratio"), ("socket.select.self_s", "s"),
    ("balancer.step.calls", "count"), ("balancer.step.ms_p50", "ms"),
    ("balancer.moves", "count"), ("balancer.productive_step_ratio", "ratio"),
    ("bench.load_s", "s"), ("bench.run_scenario_s", "s"), ("bench.report_write_s", "s"),
    ("bench.report_bytes", "bytes"),
    *[(f"{layer}.share", "ratio") for layer in
      LAYERS],
    ("driver.self_s", "s"), ("trace.run_s", "s"), ("trace.overhead_ratio", "ratio"),
]


def tail_percentile(n: int) -> int:
    """p99 when at least 1,000 samples exist; otherwise the highest whole
    percentile that leaves ten samples beyond it (p50 below 20 samples)."""
    if n >= 1000:
        return 99
    return max(50, math.floor(100 * (n - 10) / n)) if n > 10 else 50


def percentile(values: list[float], pct: int) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct / 100 * len(ordered))) - 1]


class Recorder:
    """Spans in parallel arrays (parents precede children) plus counters."""

    def __init__(self):
        self.names: list[str] = []
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.counts: dict[str, float] = defaultdict(float)

    def wrap(self, name: str, fn: Callable, before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        names, parents, starts, ends, stack = (self.names, self.parents, self.starts,
                                               self.ends, self.stack)

        def hook(call, *args):
            j = len(names)
            names.append(HOOK)
            parents.append(stack[-1])
            ends.append(0.0)
            starts.append(clock())
            call(*args)
            ends[j] = clock()

        def traced(*args, **kwargs):
            if before is not None:
                hook(before, *args)
            i = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                hook(after, result, *args)
            return result
        return traced

    def root(self, fn: Callable) -> Callable:
        """`fn` wrapped as the ``driver.run`` root; counters restart here so
        they cover the timed region only."""
        self.counts.clear()
        return self.wrap(ROOT, fn)

    def parent_name(self) -> str:
        return self.names[self.stack[-1]] if self.stack[-1] >= 0 else ""

    def write(self, path: Path) -> None:
        """Gzipped CSV, one span per row in start order; times are integer
        nanoseconds since the first span, parent is a row index (-1: none)."""
        origin = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name,start_ns,end_ns,parent\n")
            for i, name in enumerate(self.names):
                fh.write(f"{name},{round((self.starts[i] - origin) * 1e9)},"
                         f"{round((self.ends[i] - origin) * 1e9)},{self.parents[i]}\n")

    def metrics(self) -> tuple[dict[str, float], list[str]]:
        """Per-layer metrics of the spans under the ``driver.run`` root, plus
        ``bench.load`` from the set-up before it; and notes naming the
        percentile each ``_p99`` metric holds."""
        n = len(self.names)
        root = self.names.index(ROOT)
        duration = [self.ends[i] - self.starts[i] for i in range(n)]
        child_time = [0.0] * n
        under_root = [False] * n
        under_root[root] = True
        for i in range(root + 1, n):
            p = self.parents[i]
            if p >= 0:
                child_time[p] += duration[i]
                under_root[i] = under_root[p]
        self_by_name: dict[str, float] = defaultdict(float)
        durations: dict[str, list[float]] = defaultdict(list)
        for i in range(root, n):
            if under_root[i]:
                self_by_name[self.names[i]] += duration[i] - child_time[i]
                durations[self.names[i]].append(duration[i])
        load_s = sum((duration[i] for i in range(root) if self.names[i] == "bench.load"), 0.0)

        c = self.counts
        run_s = duration[root]

        def calls(name):
            return len(durations[name])

        def pct(name, p, scale):
            return percentile(durations[name], p) * scale

        def tail(name, scale):
            return pct(name, tail_percentile(calls(name)), scale)

        def ratio(a, b):
            return a / b if b else 0.0

        out = {
            "simcore.events": c["simcore.events"],
            "simcore.dispatch_self_s": self_by_name["simcore.dispatch"],
            "cluster.migrate.calls": calls("cluster.migrate"),
            "cluster.migrate.self_s": self_by_name["cluster.migrate"],
            "gossip.round.calls": calls("gossip.round"),
            "gossip.round.ms_p50": pct("gossip.round", 50, 1e3),
            "gossip.round.ms_p99": tail("gossip.round", 1e3),
            "gossip.make_digest.self_s": self_by_name["gossip.make_digest"],
            "gossip.merge.self_s": self_by_name["gossip.merge"],
            "gossip.is_converged.self_s": self_by_name["gossip.is_converged"],
            "gossip.converge.rounds": c["gossip.converge.rounds"],
            "gossip.entries_moved": c["gossip.entries_moved"],
            "gossip.digest_truncated_ratio": ratio(c["gossip.digests_truncated"],
                                                   calls("gossip.make_digest")),
            "gossip.merge_accept_ratio": ratio(c["gossip.merge.accepted"],
                                               c["gossip.merge.offered"]),
        }
        for kind in ("relay", "direct", "auto"):
            name = f"transport.{kind}"
            out[f"{name}.calls"] = calls(name)
            out[f"{name}.us_p50"] = pct(name, 50, 1e6)
            out[f"{name}.us_p99"] = tail(name, 1e6)
        out["transport.self_s"] = sum(t for name, t in self_by_name.items()
                                      if name.startswith("transport."))
        out["transport.frames_per_send"] = ratio(c["transport.frames"], c["transport.sends"])
        for outcome in ("local", "hit", "miss", "stale"):
            out[f"transport.direct.{outcome}"] = c[f"transport.direct.{outcome}"]
        out["transport.auto.direct_share"] = ratio(c["transport.auto.direct"],
                                                   calls("transport.auto"))
        out.update({
            "socket.send.calls": calls("socket.send"),
            "socket.send.us_p50": pct("socket.send", 50, 1e6),
            "socket.send.us_p99": tail("socket.send", 1e6),
            "socket.recv.calls": calls("socket.recv"),
            "socket.recv.us_p50": pct("socket.recv", 50, 1e6),
            "socket.recv.empty_ratio": ratio(c["socket.recv.empty"], calls("socket.recv")),
            "socket.select.self_s": self_by_name["socket.select"],
            "balancer.step.calls": calls("balancer.step"),
            "balancer.step.ms_p50": pct("balancer.step", 50, 1e3),
            "balancer.moves": c["balancer.moves"],
            "balancer.productive_step_ratio": ratio(c["balancer.productive_steps"],
                                                    calls("balancer.step")),
            "bench.load_s": load_s,
            "bench.run_scenario_s": sum(durations["bench.run_scenario"], 0.0),
            "bench.report_write_s": sum(durations["bench.report_write"], 0.0),
            "bench.report_bytes": c["bench.report_bytes"],
        })
        shares: dict[str, float] = defaultdict(float)
        for name, t in self_by_name.items():
            shares[name.partition(".")[0]] += t
        for layer in LAYERS:
            out[f"{layer}.share"] = ratio(shares[layer], run_s)
        out["driver.self_s"] = self_by_name[ROOT]
        out["trace.run_s"] = run_s
        notes = [f"{name}: p99 reported as p{tail_percentile(calls(name))} (n={calls(name)})"
                 for name in ("gossip.round", "transport.relay", "transport.direct",
                              "transport.auto", "socket.send") if calls(name)]
        return out, notes


def install(rec: Recorder, mn) -> None:
    """Wrap the public entry points of the package `mn` (freshly imported)."""
    c = rec.counts
    gossip, bench = mn.gossip, mn.bench

    def patch(owner, attr: str, name: str, before=None, after=None, static=False):
        wrapped = rec.wrap(name, getattr(owner, attr), before, after)
        setattr(owner, attr, staticmethod(wrapped) if static else wrapped)

    def count(key: str, amount: Callable):
        def hook(result, *args):
            c[key] += amount(result, *args)
        return hook

    def digest_taken(bulletin, bound):
        c["gossip.digests_truncated"] += len(bulletin) > bound

    def merged(accepted, bulletin, digest):
        c["gossip.merge.accepted"] += accepted
        c["gossip.merge.offered"] += len(digest)

    def classify_direct(router, src, dst, size):
        """Direct outcome as the router will meet it: the sender's bulletin
        hint against the true residency (a hint naming the sender itself is
        wrong, so it counts as stale)."""
        sender = router.cluster.residency(src)
        true_node = router.cluster.residency(dst)
        if true_node == sender:
            outcome = "local"
        else:
            hint = router.cluster.bulletins[sender].lookup_location(dst)
            outcome = "miss" if hint is None else "hit" if hint[0] == true_node else "stale"
        c[f"transport.direct.{outcome}"] += 1

    def sent(report, router, kind, src, dst, size):
        if not rec.parent_name().startswith("transport."):
            c["transport.sends"] += 1
            c["transport.frames"] += report.frames_emitted

    def stepped(moves, *args):
        c["balancer.moves"] += len(moves)
        c["balancer.productive_steps"] += bool(moves)

    patch(mn.simcore.EventQueue, "run", "simcore.dispatch",
          after=count("simcore.events", lambda events, *a: events))
    patch(gossip, "gossip_round", "gossip.round",
          after=count("gossip.entries_moved", lambda report, *a: report.entries_moved))
    patch(gossip, "make_digest", "gossip.make_digest", before=digest_taken)
    patch(gossip, "merge", "gossip.merge", after=merged)
    patch(gossip, "is_converged", "gossip.is_converged")
    patch(gossip, "converge", "gossip.converge",
          after=count("gossip.converge.rounds", lambda rounds, *a: rounds))
    router = mn.transport.Router
    patch(router, "send", "transport.send", after=sent)
    patch(router, "send_relay", "transport.relay")
    patch(router, "send_direct", "transport.direct", before=classify_direct)
    patch(router, "send_auto", "transport.auto",
          after=count("transport.auto.direct",
                      lambda report, *a: report.transport.value == "direct"))
    patch(mn.cluster.ClusterState, "migrate", "cluster.migrate")
    stack = mn.socket_api.SocketStack
    patch(stack, "send", "socket.send")
    patch(stack, "recv", "socket.recv",
          after=count("socket.recv.empty", lambda got, *a: not got))
    patch(stack, "select", "socket.select")
    patch(mn.balancer, "balance_step", "balancer.step", after=stepped)
    patch(bench.Scenario, "load", "bench.load", static=True)
    patch(bench, "run_scenario", "bench.run_scenario")
    patch(bench.Report, "write", "bench.report_write",
          after=count("bench.report_bytes",
                      lambda files, *a: sum(p.stat().st_size for p in files)))
