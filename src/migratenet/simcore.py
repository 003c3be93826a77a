"""Discrete-event engine, parametric latency model, and metrics collection.

Everything here is deterministic: the event queue orders strictly by
(time, insertion sequence), and the latency model is pure arithmetic, so a
(scenario, seed) pair always reproduces bit-identical outputs.
"""

from __future__ import annotations

import heapq
import json
import math
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Callable, Optional, get_type_hints

from .errors import InvalidScenarioError, TimeTravelError

DEFAULTS_RESOURCE = "defaults.json"
DEFAULTS_VERSION = 1


class TransportKind(Enum):
    RELAY = "relay"
    DIRECT = "direct"
    AUTO = "auto"


@dataclass(frozen=True)
class LatencyModel:
    """Per-hop link cost model.

    Network hops cost ``alpha_net + size / beta_net`` each; a shared-memory
    delivery costs ``alpha_sm + size / beta_sm``.  Direct-transport messages
    pay a fixed per-message ``direct_overhead`` on top.  On a relay route the
    legs between a process's node and its home node (the home-node deputy
    legs) cost ``home_leg_factor`` hops each; the leg between the two homes
    costs a full hop.  ``home_leg_factor = 1`` is the homogeneous model in
    which every hop costs the same.
    """
    alpha_net: float
    beta_net: float
    alpha_sm: float
    beta_sm: float
    direct_overhead: float
    home_leg_factor: float = 1.0

    def __post_init__(self):
        for name in ("alpha_net", "alpha_sm", "direct_overhead", "home_leg_factor"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        for name in ("beta_net", "beta_sm"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")

    def net_hop(self, size: int) -> float:
        return self.alpha_net + size / self.beta_net

    def shared_memory(self, size: int) -> float:
        return self.alpha_sm + size / self.beta_sm

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict, where: str = "model") -> "LatencyModel":
        """Build a model from a mapping through :func:`read`; any fault is an
        `InvalidScenarioError` naming its field under `where`."""
        return read(d, cls, where)


def latency_of(path: list[int], size: int, model: LatencyModel,
               transport: TransportKind) -> float:
    """Latency of one message over a collapsed path.

    A single-node path is a shared-memory delivery; otherwise every hop costs
    the full per-hop latency (store-and-forward).  Direct transport adds its
    fixed per-message overhead.  Relay routes, whose home legs may cost less
    than a full hop, are priced by :func:`relay_latency` instead.

    Nothing in the package calls this; it stays as the homogeneous per-hop
    reference oracle the tests check :func:`relay_latency` against.
    """
    if len(path) <= 1:
        total = model.shared_memory(size)
    else:
        total = (len(path) - 1) * model.net_hop(size)
    if transport is TransportKind.DIRECT:
        total += model.direct_overhead
    return total


def relay_latency(legs: list[tuple[int, int, bool]], size: int,
                  model: LatencyModel) -> float:
    """Latency of a relay route given as ``(from, to, home_leg)`` legs.

    No legs is a shared-memory delivery.  Each home leg costs
    ``home_leg_factor`` hops, any other leg one full hop (store-and-forward).
    """
    if not legs:
        return model.shared_memory(size)
    hop = model.net_hop(size)
    home = hop * model.home_leg_factor
    total = 0.0
    for _, _, home_leg in legs:
        total += home if home_leg else hop
    return total


def load_model(path: Optional[str] = None) -> LatencyModel:
    """Load the latency model from a defaults file (the packaged calibrated
    defaults when no path is given); a malformed file raises
    `InvalidScenarioError` with the field path under ``config``."""
    source = (resources.files(__package__).joinpath(DEFAULTS_RESOURCE) if path is None
              else Path(path))
    try:
        data = json.loads(source.read_text(encoding="utf-8"))
    except ValueError as exc:   # not UTF-8, or not JSON
        raise InvalidScenarioError(f"config {path}: not valid JSON ({exc})") from exc
    version = need(data, "version", int, "config", None)
    if version != DEFAULTS_VERSION:
        raise InvalidScenarioError(
            f"config.version: expected {DEFAULTS_VERSION}, got {version!r}")
    return LatencyModel.from_dict(need(data, "model", dict, "config"), "config.model")


def need(mapping, key: str, kind: type, where: str, default=MISSING):
    """`mapping[key]` of type `kind`, or `default` when the key is absent
    (an error when no default is given).  An int is accepted as a float,
    a bool only as a bool, and a float must be finite."""
    if not isinstance(mapping, dict):
        raise InvalidScenarioError(f"{where}: expected an object, got {type(mapping).__name__}")
    if key not in mapping:
        if default is MISSING:
            raise InvalidScenarioError(f"{where}.{key}: missing")
        return default
    value = mapping[key]
    if type(value) is not kind:
        if kind is float and type(value) is int:
            # an integer beyond float range would make float() raise
            value = float(value) if abs(value) <= sys.float_info.max else math.inf
        elif not isinstance(value, kind) or isinstance(value, bool):
            raise InvalidScenarioError(
                f"{where}.{key}: expected {kind.__name__}, got {type(value).__name__}")
    if kind is float and not math.isfinite(value):
        raise InvalidScenarioError(f"{where}.{key}: must be finite, got {value!r}")
    return value


# value rules (lo, hi, fault): a value passes when lo <= value <= hi
NON_NEGATIVE = (0, math.inf, "must be non-negative")
AT_LEAST_ONE = (1, math.inf, "must be >= 1")
UNIT_INTERVAL = (0, 1, "must be in [0, 1]")
POSITIVE = (math.ulp(0.0), math.inf, "must be > 0")   # the least float above 0


def check(value, limit: tuple, where: str):
    """`value` if it passes the rule `limit`, else an error at `where`."""
    if not limit[0] <= value <= limit[1]:
        raise InvalidScenarioError(f"{where}: {limit[2]}")
    return value


def expect_keys(raw, names, where: str) -> None:
    """Raise unless `raw` is an object whose keys are all in `names`."""
    if not isinstance(raw, dict):
        raise InvalidScenarioError(f"{where}: expected an object, got {type(raw).__name__}")
    for key in raw:
        if key not in names:
            raise InvalidScenarioError(f"{where}.{key}: unknown field")


_PLANS: dict = {}   # dataclass -> (field names, one step per field, limits)


def read(raw, schema: type, where: str, limits: Optional[dict] = None, base=None):
    """Build the dataclass `schema` from the JSON object `raw` found at `where`.

    The keys must be fields of `schema`; each value is read as its field's
    type under :func:`need`'s rules (an enum by value) and must pass its rule
    in `limits`.  An absent field takes its value from `base` if given, else
    its default.  Every fault is an `InvalidScenarioError` naming its field.
    """
    plan = _PLANS.get(schema)
    if plan is None or plan[2] is not limits:   # first read, or other limits
        hints = get_type_hints(schema)
        plan = _PLANS[schema] = (frozenset(f.name for f in fields(schema)), tuple(
            (f.name, hints[f.name], f.default,
             {m.value: m for m in hints[f.name]} if issubclass(hints[f.name], Enum) else None,
             (limits or {}).get(f.name)) for f in fields(schema)), limits)
    names, steps, _ = plan
    if type(raw) is not dict or not names.issuperset(raw):
        expect_keys(raw, names, where)
    values = []
    for name, kind, default, members, limit in steps:
        value = raw.get(name, MISSING)
        if value is MISSING:
            value = default if base is None else getattr(base, name)
            if value is MISSING:
                raise InvalidScenarioError(f"{where}.{name}: missing")
        elif members is not None:   # an enum, named by its value
            value = members.get(value) if type(value) is str else None
            if value is None:
                need(raw, name, str, where)     # raises unless the value is a string
                raise InvalidScenarioError(f"{where}.{name}: unknown {name} {raw[name]!r}")
        else:
            if type(value) is not kind or (kind is float and not math.isfinite(value)):
                value = need(raw, name, kind, where)    # an int as a float, or a fault
            if limit is not None and not limit[0] <= value <= limit[1]:
                check(value, limit, f"{where}.{name}")   # raises
        values.append(value)
    try:
        return schema(*values)
    except ValueError as exc:
        raise InvalidScenarioError(f"{where}: {exc}") from exc


class EventQueue:
    """Deterministic event queue: dequeues strictly by (time, insertion seq)."""

    def __init__(self):
        self.now = 0.0
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, t: float, action: Callable[[], None]) -> None:
        if not t >= self.now:   # NaN too: it would never come due
            raise TimeTravelError(f"schedule at {t} before now={self.now}")
        heapq.heappush(self._heap, (t, self._seq, action))
        self._seq += 1

    def run_until(self, t_end: float) -> int:
        """Execute all events with time <= t_end; the clock ends at t_end."""
        count = self._dispatch(t_end)
        self.now = max(self.now, t_end)
        return count

    def run(self) -> int:
        """Drain the queue completely."""
        return self._dispatch(math.inf)

    def _dispatch(self, t_end: float) -> int:
        """Execute events in order while the earliest is due by `t_end`;
        returns how many ran."""
        count = 0
        while self._heap and self._heap[0][0] <= t_end:
            t, _, action = heapq.heappop(self._heap)
            self.now = t
            action()
            count += 1
        return count


@dataclass
class Metrics:
    """Byte and frame counters plus per-message latency samples.

    Conservation invariant: the sum of `delivered_bytes` equals the payload
    bytes of every delivered message (`payload_delivered`).
    """
    relayed_bytes: dict[int, int] = field(default_factory=dict)
    delivered_bytes: dict[int, int] = field(default_factory=dict)
    frames_handled: dict[int, int] = field(default_factory=dict)
    link_bytes: dict[tuple[int, int], int] = field(default_factory=dict)
    latencies: list[tuple[str, int, float]] = field(default_factory=list)
    payload_delivered: int = 0

    def relay(self, node: int, size: int) -> None:
        self.relayed_bytes[node] = self.relayed_bytes.get(node, 0) + size

    def deliver(self, node: int, size: int) -> None:
        self.delivered_bytes[node] = self.delivered_bytes.get(node, 0) + size
        self.payload_delivered += size

    def handle(self, node: int) -> None:
        self.frames_handled[node] = self.frames_handled.get(node, 0) + 1

    def link(self, frm: int, to: int, size: int) -> None:
        key = (frm, to)
        self.link_bytes[key] = self.link_bytes.get(key, 0) + size

    def sample(self, transport: str, size: int, latency: float) -> None:
        self.latencies.append((transport, size, latency))

    def snapshot(self) -> "Metrics":
        return Metrics(
            relayed_bytes=dict(self.relayed_bytes),
            delivered_bytes=dict(self.delivered_bytes),
            frames_handled=dict(self.frames_handled),
            link_bytes=dict(self.link_bytes),
            latencies=list(self.latencies),
            payload_delivered=self.payload_delivered,
        )

    def rows(self) -> list[tuple[str, str, str]]:
        """Flatten to (metric, key, value) rows in a fixed order for CSV."""
        out: list[tuple[str, str, str]] = []
        for name in ("relayed_bytes", "delivered_bytes", "frames_handled"):
            counters: dict[int, int] = getattr(self, name)
            for node in sorted(counters):
                out.append((name, str(node), repr(counters[node])))
        for (frm, to) in sorted(self.link_bytes):
            out.append(("link_bytes", f"{frm}->{to}", repr(self.link_bytes[(frm, to)])))
        for i, (transport, size, latency) in enumerate(self.latencies):
            out.append(("latency", f"{transport}/{size}/{i}", repr(latency)))
        out.append(("payload_delivered", "total", repr(self.payload_delivered)))
        return out
