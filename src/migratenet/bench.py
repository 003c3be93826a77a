"""Benchmark scenarios and structured reports.

A :class:`Scenario` is a declarative experiment (JSON-friendly) that
`run_scenario` executes deterministically into a :class:`Report`; the
built-in templates, which write the same reports, are in
:mod:`migratenet.templates`.

Scenario file schema (version 1): one JSON object with ``version`` (1),
``name``, ``seed``, ``pre_converge``, a ``topology`` (``kind`` ``mesh``, the
one kind: every node reaches every other; ``nodes``, 1 to 65,536) and the
blocks ``processes``, ``migrations`` and ``traffic`` (lists of
:class:`ProcessSpec`, :class:`MigrationSpec` and :class:`TrafficSpec`),
``gossip`` (:class:`GossipConfig`), ``model`` (overrides of the base
:class:`LatencyModel`) and ``caps`` (:class:`TransportConfig`).  A block's
keys, types and defaults are the fields of its class (a named tuple for the
list rows and ``gossip``, a plain class for the others), and `LIMITS` holds
their value rules; migration times must not decrease, and the timeline a
run lays (the migrations, the sends and a gossip round per period up to the
last of them) holds at most `MAX_TIMELINE_ROWS` rows.
"""

from __future__ import annotations

import gc
import json
import math
import random
from itertools import islice
from operator import countOf, itemgetter
from pathlib import Path
from typing import NamedTuple, Optional

from . import gossip
from .cluster import ClusterState, GPid, Topology
from .errors import InvalidScenarioError
from .gossip import GossipConfig
from .simcore import (AT_LEAST_ONE, NON_NEGATIVE, POSITIVE, UNIT_INTERVAL, EventQueue,
                      LatencyModel, Metrics, Record, TransportKind, expect_keys, load_model,
                      need, read)
from .transport import Router, TransportConfig

SCENARIO_VERSION = 1
# the most rows a scenario may lay on its timeline (migrations, sends and
# gossip rounds).  At the bound, on 4 nodes and a 2-CPU host, `run` took
# 13 s and 229 MB peak RSS with sends, and 31 s and 132 MB with gossip rounds
MAX_TIMELINE_ROWS = 10 ** 6
# the longest scenario name in UTF-8 bytes: the name prefixes the report file
# names, and with the longest suffix, `_summary.txt` (12 bytes), it fits the
# 255-byte file-name limit of common file systems
MAX_NAME_BYTES = 243
# the most rows of a report table joined into one write, which bounds the
# memory a long latency or trace table takes on top of its rows
TABLE_CHUNK_ROWS = 16384


class Simulation:
    """One self-contained simulation instance; instances never share state."""

    def __init__(self, cluster: ClusterState, queue: EventQueue, metrics: Metrics,
                 router: Router, rng: random.Random, gossip_config: GossipConfig):
        self.cluster = cluster
        self.queue = queue
        self.metrics = metrics
        self.router = router
        self.rng = rng
        self.gossip_config = gossip_config

    @classmethod
    def build(cls, topology: Topology, model: Optional[LatencyModel] = None,
              caps: TransportConfig = TransportConfig(), seed: int = 0,
              gossip_config: GossipConfig = GossipConfig(),
              trace: Optional[list] = None) -> "Simulation":
        if model is None:
            model = load_model()
        cluster = ClusterState(topology)
        queue = EventQueue()
        metrics = Metrics()
        router = Router(cluster, model, metrics, queue, caps, trace)
        return cls(cluster, queue, metrics, router, random.Random(seed), gossip_config)

    def converge(self) -> int:
        return gossip.converge(self.cluster, self.rng, self.gossip_config)


class Assertion(NamedTuple):
    name: str
    passed: bool
    detail: str


class _Fields(dict):
    """Each string's field in csv's `excel` dialect, worked out once: a
    string holding `,`, `"`, CR or LF is quoted and its quotes doubled."""

    def __missing__(self, text: str) -> str:
        if any(c in text for c in ',"\r\n'):
            self[text] = '"' + text.replace('"', '""') + '"'
        else:
            self[text] = text
        return self[text]


class Report(Record):
    """A run's outputs; a list, dict or `Metrics` left out of the
    constructor starts empty."""
    name: str
    seed: int
    latency_rows: list[tuple[int, float, str]]
    metrics: Metrics
    convergence_rounds: Optional[int]
    assertions: list[Assertion]
    extra: dict[str, str]
    gossip_rows: list[tuple[int, int, int, int]]
    trace: Optional[list]

    def __init__(self, name, seed, latency_rows=None, metrics=None, convergence_rounds=None,
                 assertions=None, extra=None, gossip_rows=None, trace=None):
        self.name = name
        self.seed = seed
        self.latency_rows = [] if latency_rows is None else latency_rows
        self.metrics = Metrics() if metrics is None else metrics
        self.convergence_rounds = convergence_rounds
        self.assertions = [] if assertions is None else assertions
        self.extra = {} if extra is None else extra
        self.gossip_rows = [] if gossip_rows is None else gossip_rows
        self.trace = trace

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions)

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.assertions.append(Assertion(name, bool(passed), detail))

    def write(self, outdir) -> list[Path]:
        """Emit CSV tables, plot data, and a text summary; file contents are
        a pure function of the report, so equal seeds give equal bytes.
        The tables are in csv's `excel` dialect, as `csv.writer` writes
        them: CRLF line ends, ints as `str`, floats as `repr`, and a string
        holding `,`, `"`, CR or LF quoted with its quotes doubled (`_Fields`)."""
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        written = []
        q = _Fields()

        def table(suffix, header, lines):
            path = outdir / f"{self.name}_{suffix}.csv"
            with open(path, "w", newline="", encoding="utf-8") as fh:
                fh.write(",".join(map(q.__getitem__, header)) + "\r\n")
                while chunk := "".join(islice(lines, TABLE_CHUNK_ROWS)):
                    fh.write(chunk)
            written.append(path)

        table("latency", ["size", "latency", "series"],
              (f"{size},{latency!r},{q[series]}\r\n"
               for size, latency, series in self.latency_rows))
        scenario = f"{q[self.name]},{self.seed},"
        table("metrics", ["scenario", "seed", "metric", "key", "value"],
              (f"{scenario}{q[metric]},{q[key]},{q[value]}\r\n"
               for metric, key, value in self.metrics.rows()))
        if self.gossip_rows:
            table("gossip", ["round", "informed_count", "frames", "entries_moved"],
                  (f"{r},{informed},{frames},{moved}\r\n"
                   for r, informed, frames, moved in self.gossip_rows))
        if self.trace is not None:
            table("trace", ["time", "kind", "src", "dst", "from_node", "to_node", "size"],
                  (f"{t!r},{q[kind]},{q[src]},{q[dst]},{frm},{to},{size}\r\n"
                   for t, kind, src, dst, frm, to, size in self.trace))

        path = outdir / f"{self.name}_summary.txt"
        lines = [f"scenario: {self.name}", f"seed: {self.seed}"]
        if self.convergence_rounds is not None:
            lines.append(f"gossip rounds to converge: {self.convergence_rounds}")
        for key in sorted(self.extra):
            lines.append(f"{key}: {self.extra[key]}")
        for a in self.assertions:
            status = "PASS" if a.passed else "FAIL"
            lines.append(f"[{status}] {a.name}" + (f" — {a.detail}" if a.detail else ""))
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        written.append(path)
        return written


# ---------------------------------------------------------------------------
# declarative scenarios

class ProcessSpec(NamedTuple):
    id: str
    home: int
    job: str = "job"
    work: float = 1.0


class MigrationSpec(NamedTuple):
    time: float
    pid: str
    to: int


class TrafficSpec(NamedTuple):
    time: float
    src: str
    dst: str
    transport: TransportKind
    size: int
    count: int = 1
    interval: float = 0.0


# the value rules of each schema's fields, beyond their types; the scenario
# reader checks against them, and so does `gossip-stats --drop`
LIMITS = {
    ProcessSpec: {"work": NON_NEGATIVE},
    TrafficSpec: {"time": NON_NEGATIVE, "size": NON_NEGATIVE, "count": AT_LEAST_ONE,
                  "interval": NON_NEGATIVE},
    GossipConfig: {"bound": AT_LEAST_ONE, "drop_probability": UNIT_INTERVAL,
                   "rounds_per_second": POSITIVE},
    TransportConfig: dict.fromkeys(TransportConfig.__annotations__, NON_NEGATIVE),
}


# the keys of a traffic row in canonical form, in order
_CANONICAL = tuple(name for name in TrafficSpec._fields if name not in TrafficSpec._field_defaults)


class _Loaded(TrafficSpec):
    """A traffic row `Scenario.load` built while decoding its file; only
    `load` makes one, and `from_dict` takes it as it is.  It equals the
    `TrafficSpec` that `read` builds from the same row."""
    __slots__ = ()


def _traffic_builder():
    """The one test of a traffic row in canonical form: `build`, which turns
    such a row into a `_Loaded` and returns any other value as it is, and
    `built`, which counts the rows it built.

    Its keys are exactly `TrafficSpec`'s required fields in declaration
    order, its time is a finite float and its size an int (not a bool), each
    within its `LIMITS` rule, its src and dst are strings, and its transport
    names a `TransportKind`.  Such a row reads as `read` would read it.
    Equal ids share one string, so a row keeps none of the decoder's."""
    limits = LIMITS[TrafficSpec]
    get = itemgetter(*_CANONICAL)
    (time_lo, time_hi, _), (size_lo, size_hi, _) = limits["time"], limits["size"]
    count, interval = TrafficSpec._field_defaults.values()
    kinds = {kind.value: kind for kind in TransportKind}
    new, isfinite, name, built = tuple.__new__, math.isfinite, {}.setdefault, 0

    def build(raw):
        nonlocal built
        if type(raw) is dict and tuple(raw) == _CANONICAL:
            time, src, dst, transport, size = get(raw)
            if (type(time) is float and isfinite(time) and time_lo <= time <= time_hi
                    and type(src) is str and type(dst) is str and type(transport) is str
                    and transport in kinds
                    and type(size) is int and size_lo <= size <= size_hi):
                built += 1
                return new(_Loaded, (time, name(src, src), name(dst, dst), kinds[transport],
                                     size, count, interval))
        return raw
    return build, lambda: built


def _unbuilt(data, keep):
    """`data` with each row `load` built outside the list `keep` turned
    back into the dict it was decoded from, which, being canonical, it
    holds in full.  Walked without recursion, as deep as the decoder went."""
    top = [data]
    stack = [top]
    while stack:
        node = stack.pop()
        for key, value in (node.items() if type(node) is dict else enumerate(node)):
            if type(value) is _Loaded and node is not keep:
                node[key] = dict(zip(_CANONICAL, (*value[:3], value.transport.value, value.size)))
            elif type(value) in (dict, list):
                stack.append(value)
    return top[0]


class Scenario(Record):
    """A declarative experiment; `migrations` and `traffic` left out of the
    constructor start empty.  `pre_converge` and `seed` keep their defaults
    on the class, where `from_dict` reads them."""
    name: str
    topology: Topology
    processes: list[ProcessSpec]
    migrations: list[MigrationSpec]
    traffic: list[TrafficSpec]
    gossip_config: GossipConfig
    pre_converge: bool = True
    seed: int = 0
    model: Optional[LatencyModel]
    caps: TransportConfig

    def __init__(self, name, topology, processes, migrations=None, traffic=None,
                 gossip_config=GossipConfig(), pre_converge=pre_converge, seed=seed, model=None,
                 caps=TransportConfig()):
        self.name = name
        self.topology = topology
        self.processes = processes
        self.migrations = [] if migrations is None else migrations
        self.traffic = [] if traffic is None else traffic
        self.gossip_config = gossip_config
        self.pre_converge = pre_converge
        self.seed = seed
        self.model = model
        self.caps = caps

    @classmethod
    def load(cls, path, base: Optional[LatencyModel] = None) -> "Scenario":
        """`from_dict` of the JSON file at `path`.  Each traffic row in
        canonical form is built as soon as the decoder ends it, so the
        decoded rows never exist together; a row built anywhere but in the
        `traffic` list is turned back into its dict before `from_dict`, so a
        file reads, or fails, as its decoded JSON would."""
        build, built = _traffic_builder()
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh, object_hook=build)
            except (ValueError, RecursionError) as exc:   # not UTF-8, not JSON, or nested too deep
                raise InvalidScenarioError(f"{path}: not valid JSON ({exc})") from exc
        rows = data.get("traffic") if type(data) is dict else None
        rows = rows if type(rows) is list else []
        if countOf(map(type, rows), _Loaded) != built():   # a row built elsewhere
            data = _unbuilt(data, rows)
        return cls.from_dict(data, base)

    @classmethod
    def from_dict(cls, data: dict, base: Optional[LatencyModel] = None) -> "Scenario":
        """Validate a scenario mapping; every fault is an
        `InvalidScenarioError` naming its field.  Each block is read through
        its class (:func:`read`); checked here is what no field type can say:
        the version, the name, the topology and the references between
        blocks.  A `model` block overrides `base` (default: the packaged
        model)."""
        if not isinstance(data, dict):
            raise InvalidScenarioError("scenario: expected a JSON object")
        version = need(data, "version", int, "scenario", None)
        if version != SCENARIO_VERSION:
            raise InvalidScenarioError(f"version: expected {SCENARIO_VERSION}, got {version!r}")
        expect_keys(data, ("version", "name", "seed", "topology", "processes", "migrations",
                           "traffic", "gossip", "pre_converge", "model", "caps"), "scenario")
        name = need(data, "name", str, "scenario")
        # it prefixes the report file names, and it opens lines of the summary
        # and the console, which a control character or line separator would split
        if any(c in "/\\\u2028\u2029" or c < " " or "\x7f" <= c <= "\x9f" for c in name):
            raise InvalidScenarioError(
                f"scenario.name: must not contain '/', '\\', a control character "
                f"(U+0000-U+001F, U+007F-U+009F) or U+2028/U+2029, got {name!r}")
        try:
            size = len(name.encode("utf-8"))
        except UnicodeEncodeError:   # a lone surrogate, which JSON can escape
            raise InvalidScenarioError(
                f"scenario.name: not encodable as UTF-8, got {name!r}") from None
        if size > MAX_NAME_BYTES:
            raise InvalidScenarioError(
                f"scenario.name: must be at most {MAX_NAME_BYTES} UTF-8 bytes, got {size}")

        topo = need(data, "topology", dict, "scenario")
        expect_keys(topo, ("kind", "nodes"), "topology")
        kind = need(topo, "kind", str, "topology")
        if kind != "mesh":
            raise InvalidScenarioError(f"topology.kind: expected 'mesh', got {kind!r}")
        nodes = need(topo, "nodes", int, "topology")
        topology = Topology.mesh(nodes)

        def rows(key: str, schema: type, *default) -> list:
            raws = need(data, key, list, "scenario", *default)
            limits = LIMITS.get(schema)
            built = _Loaded if schema is TrafficSpec else None   # a row `load` built
            try:    # a failed row is read again, to name it by its index
                return [raw if type(raw) is built else read(raw, schema, key, limits)
                        for raw in raws]
            except InvalidScenarioError:
                for i, raw in enumerate(raws):
                    if type(raw) is not built:
                        read(raw, schema, f"{key}[{i}]", limits)
                raise

        processes = rows("processes", ProcessSpec)
        ids = set()
        for i, p in enumerate(processes):
            if p.id in ids:
                raise InvalidScenarioError(f"processes[{i}].id: duplicate id {p.id!r}")
            ids.add(p.id)
            if not 0 <= p.home < nodes:
                raise InvalidScenarioError(f"processes[{i}].home: node {p.home} out of range")

        migrations = rows("migrations", MigrationSpec, [])
        last_time = 0.0
        for i, m in enumerate(migrations):
            if m.pid not in ids:
                raise InvalidScenarioError(f"migrations[{i}].pid: unknown process {m.pid!r}")
            if not 0 <= m.to < nodes:
                raise InvalidScenarioError(f"migrations[{i}].to: node {m.to} out of range")
            if m.time < last_time:
                raise InvalidScenarioError(
                    f"migrations[{i}].time: times must be non-negative and non-decreasing")
            last_time = m.time

        caps = read(need(data, "caps", dict, "scenario", {}), TransportConfig, "caps",
                    LIMITS[TransportConfig])
        # each send's cap, auto's the larger; a size within both needs no lookup
        size_caps = {TransportKind.RELAY: caps.relay_max, TransportKind.DIRECT: caps.direct_max,
                     TransportKind.AUTO: max(caps.relay_max, caps.direct_max)}
        small_cap = min(size_caps.values())
        # count the timeline's rows as `run_scenario` lays them, before any is
        # laid: the migrations, each send, and a gossip round per period up
        # to the last row's time
        laid, horizon = len(migrations), last_time
        traffic = rows("traffic", TrafficSpec, [])
        # the usual rows, checked in C-level passes over the fields (by
        # position: 0 time, 1 src, 2 dst, 4 size, 5 count): known ids, sizes
        # within both caps, each sent once (so last at its time) and not too
        # many; other rows are walked one by one, which names the first fault
        if (ids.issuperset(map(itemgetter(1), traffic))
                and ids.issuperset(map(itemgetter(2), traffic))
                and max(map(itemgetter(4), traffic), default=0) <= small_cap
                and max(map(itemgetter(5), traffic), default=1) == 1
                and laid + len(traffic) <= MAX_TIMELINE_ROWS):
            laid += len(traffic)
            horizon = max(horizon, max(map(itemgetter(0), traffic), default=horizon))
        else:
            for i, t in enumerate(traffic):
                if t.src not in ids or t.dst not in ids:
                    label, pid = ("src", t.src) if t.src not in ids else ("dst", t.dst)
                    raise InvalidScenarioError(f"traffic[{i}].{label}: unknown process {pid!r}")
                if t.size > small_cap and t.size > size_caps[t.transport]:
                    raise InvalidScenarioError(f"traffic[{i}].size: {t.size} is over the "
                                               f"{t.transport.value} cap {size_caps[t.transport]}")
                try:    # the last send's time, as `run_scenario` lays it
                    last = t.time + (t.count - 1) * t.interval
                except OverflowError:   # a count beyond float range
                    last = math.inf
                if not math.isfinite(last):
                    raise InvalidScenarioError(
                        f"traffic[{i}]: last send at time + (count - 1) * interval is not finite")
                laid += t.count
                if laid > MAX_TIMELINE_ROWS:
                    raise InvalidScenarioError(f"traffic[{i}].count: {laid} migrations and "
                                               f"sends pass {MAX_TIMELINE_ROWS} timeline rows")
                if last > horizon:
                    horizon = last

        gossip_config = read(need(data, "gossip", dict, "scenario", {}), GossipConfig,
                             "gossip", LIMITS[GossipConfig])
        if laid + math.floor(min(horizon * gossip_config.rounds_per_second,
                                 MAX_TIMELINE_ROWS + 1)) > MAX_TIMELINE_ROWS:
            raise InvalidScenarioError(
                f"gossip.rounds_per_second: {laid} migrations and sends and a gossip round "
                f"per period up to time {horizon!r} pass {MAX_TIMELINE_ROWS} timeline rows")
        block = need(data, "model", dict, "scenario", {})
        model = read(block, LatencyModel, "model", base=base or load_model()) if block else base
        return cls(name, topology, processes, migrations, traffic, gossip_config,
                   need(data, "pre_converge", bool, "scenario", cls.pre_converge),
                   need(data, "seed", int, "scenario", cls.seed), model, caps)


def run_scenario(scenario: Scenario, trace_enabled: bool = False) -> Report:
    """Execute a declarative scenario; same scenario in, same report out,
    bit for bit.

    The cyclic garbage collector is paused while the timeline is laid and
    run, and is enabled afterwards only if it was enabled on entry, also
    when a send raises.  Each timeline row holds a closure and a spec, so the
    collector would rescan the rows again and again: on a 60,000-send run,
    about 170 collections took a tenth of the time and freed nothing.  The
    pause holds back no memory because a run makes no reference cycles; its
    objects are freed by reference counting alone."""
    trace: Optional[list] = [] if trace_enabled else None
    sim = Simulation.build(scenario.topology, scenario.model, scenario.caps,
                           scenario.seed, scenario.gossip_config, trace)
    pids: dict[str, GPid] = {}
    for spec in scenario.processes:
        pids[spec.id] = sim.cluster.spawn(spec.home, spec.job, spec.work)

    report = Report(scenario.name, scenario.seed, trace=trace)
    if scenario.pre_converge:
        report.convergence_rounds = sim.converge()

    # the whole timeline as (time, action, arg) rows laid on the queue, in
    # the order the rows count as scheduled: migrations, sends, gossip rounds
    cluster, router, rows = sim.cluster, sim.router, report.latency_rows
    series = {kind: kind.value for kind in TransportKind}

    def migrate(m: MigrationSpec) -> None:
        cluster.migrate(pids[m.pid], m.to)

    def send(t: TrafficSpec) -> None:
        rep = router.send(t.transport, pids[t.src], pids[t.dst], t.size)
        rows.append((t.size, rep.latency, series[t.transport]))

    def gossip_round(config: GossipConfig) -> None:
        sim.metrics.add_round(gossip.gossip_round(cluster, sim.rng, config))

    collecting = gc.isenabled()
    gc.disable()
    try:
        timeline = [(m.time, migrate, m) for m in scenario.migrations]
        timeline += [(t.time + k * t.interval, send, t)
                     for t in scenario.traffic for k in range(t.count)]
        horizon = max((at for at, _, _ in timeline), default=0.0)
        period = 1.0 / scenario.gossip_config.rounds_per_second
        next_round = period
        while next_round <= horizon:
            timeline.append((next_round, gossip_round, scenario.gossip_config))
            next_round += period

        sim.queue.lay(timeline)
        sim.metrics.events = sim.queue.run()
    finally:
        if collecting:
            gc.enable()
    report.metrics = sim.metrics
    report.extra["sends"] = str(len(report.latency_rows))
    return report
