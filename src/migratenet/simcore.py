"""Discrete-event engine, parametric latency model, and metrics collection.

Everything here is deterministic: the event queue runs events in (time,
scheduling order), laid rows counting as scheduled in the order given, and
the latency model is pure arithmetic, so a (scenario, seed) pair always
reproduces bit-identical outputs.
"""

from __future__ import annotations

import json
import math
import sys
from bisect import insort
from enum import Enum
from importlib import resources
from inspect import signature
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable, Iterable, Optional, get_type_hints

from .errors import InvalidScenarioError, TimeTravelError

DEFAULTS_RESOURCE = "defaults.json"
DEFAULTS_VERSION = 1


class TransportKind(Enum):
    RELAY = "relay"
    DIRECT = "direct"
    AUTO = "auto"


class Record:
    """Base of the plain record classes: ``repr`` and ``==`` as a dataclass
    gives them, over the instance's attributes in the order `__init__` sets
    them.  An instance equals only one of its own class, so it is not
    hashable."""
    __slots__ = ()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return vars(self) == vars(other)


class LatencyModel(Record):
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
    home_leg_factor: float

    def __init__(self, alpha_net, beta_net, alpha_sm, beta_sm, direct_overhead,
                 home_leg_factor=1.0):
        self.alpha_net = alpha_net
        self.beta_net = beta_net
        self.alpha_sm = alpha_sm
        self.beta_sm = beta_sm
        self.direct_overhead = direct_overhead
        self.home_leg_factor = home_leg_factor
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


def load_model(path: Optional[str] = None) -> LatencyModel:
    """Load the latency model from a defaults file (the packaged calibrated
    defaults when no path is given); a malformed file raises
    `InvalidScenarioError` with the field path under ``config``."""
    source = (resources.files(__package__).joinpath(DEFAULTS_RESOURCE) if path is None
              else Path(path))
    try:
        data = json.loads(source.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:   # not UTF-8, not JSON, or nested too deep
        raise InvalidScenarioError(f"config {path}: not valid JSON ({exc})") from exc
    version = need(data, "version", int, "config", None)
    if version != DEFAULTS_VERSION:
        raise InvalidScenarioError(
            f"config.version: expected {DEFAULTS_VERSION}, got {version!r}")
    return read(need(data, "model", dict, "config"), LatencyModel, "config.model")


MISSING = object()   # no default: a required key or field


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
# a cluster holds about 760 B per node before anything runs: 50 MB at most
NODE_COUNT = (1, 2 ** 16, "must be >= 1 and <= 65536")
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


_PLANS: dict = {}   # schema -> (field index, defaults, named tuple?, limits)


def read(raw, schema: type, where: str, limits: Optional[dict] = None, base=None):
    """Build `schema`, a named tuple or a class whose fields are annotated
    in its body, from the JSON object `raw` found at `where`.

    One pass over `raw`'s keys: each must be a parameter of `schema`'s
    constructor, and its value is read as the field's annotated type under
    :func:`need`'s rules (an int as a float, an enum by value) and must pass
    its rule in `limits`.  An absent field takes its value from `base` if
    given, else its default.  Every fault is an `InvalidScenarioError`
    naming its field: the first bad key in `raw`'s own order, else the first
    missing field in `schema`'s order.  A named tuple is built without its
    Python-level ``__new__``.
    """
    plan = _PLANS.get(schema)
    if plan is None or plan[3] is not limits:   # first read, or other limits
        hints = get_type_hints(schema)
        params = signature(schema).parameters
        index = {name: (i, hints[name],
                        {m.value: m for m in hints[name]} if issubclass(hints[name], Enum)
                        else None, (limits or {}).get(name))
                 for i, name in enumerate(params)}   # name -> (position, type, members, limit)
        defaults = [MISSING if p.default is p.empty else p.default for p in params.values()]
        plan = _PLANS[schema] = (index, defaults, issubclass(schema, tuple), limits)
    index, defaults, named_tuple, _ = plan
    if type(raw) is not dict:
        expect_keys(raw, index, where)  # raises unless `raw` is an object
    values = defaults.copy() if base is None else [getattr(base, name) for name in index]
    for name, value in raw.items():
        step = index.get(name)
        if step is None:
            raise InvalidScenarioError(f"{where}.{name}: unknown field")
        pos, kind, members, limit = step
        if members is not None:     # an enum, named by its value
            value = members.get(value) if type(value) is str else None
            if value is None:
                need(raw, name, str, where)     # raises unless the value is a string
                raise InvalidScenarioError(f"{where}.{name}: unknown {name} {raw[name]!r}")
        else:
            if type(value) is not kind or (kind is float and not math.isfinite(value)):
                value = need(raw, name, kind, where)    # an int as a float, or a fault
            if limit is not None and not limit[0] <= value <= limit[1]:
                check(value, limit, f"{where}.{name}")   # raises
        values[pos] = value
    if MISSING in values:
        raise InvalidScenarioError(f"{where}.{list(index)[values.index(MISSING)]}: missing")
    if named_tuple:
        return tuple.__new__(schema, values)
    try:
        return schema(*values)
    except ValueError as exc:
        raise InvalidScenarioError(f"{where}: {exc}") from exc


class EventQueue:
    """Deterministic event queue: runs events in (time, scheduling order).

    The queue is one list of `(time, fn, arg)` rows sorted by time and a read
    position.  `lay` sorts a whole timeline onto an empty queue in one step;
    `schedule` inserts one action after every row of equal time, so actions
    can schedule further actions.
    """

    def __init__(self):
        self.now = 0.0
        self._rows: list[tuple[float, Callable[[Any], None], Any]] = []
        self._pos = 0   # the next row to run

    def __len__(self) -> int:
        return len(self._rows) - self._pos

    def schedule(self, t: float, action: Callable[[], None]) -> None:
        if not t >= self.now:   # NaN too: it would never come due
            raise TimeTravelError(f"schedule at {t} before now={self.now}")
        insort(self._rows, (t, _call, action), lo=self._pos, key=itemgetter(0))

    def lay(self, entries: Iterable[tuple[float, Callable[[Any], None], Any]]) -> None:
        """Lay `(time, fn, arg)` rows on the queue; each runs as `fn(arg)` at
        its time, rows of equal time in the order given."""
        if len(self):
            raise TimeTravelError(f"lay on a queue that still holds {len(self)} events")
        rows = sorted(entries, key=itemgetter(0))   # stable: ties keep their order
        now = self.now
        for t, _, _ in rows:
            if not t >= now:    # NaN too, as in `schedule`
                raise TimeTravelError(f"lay at {t} before now={now}")
        self._rows, self._pos = rows, 0

    def run_until(self, t_end: float) -> int:
        """Execute all events with time <= t_end; the clock ends at t_end."""
        if math.isnan(t_end):   # no row is after NaN, so every row would run
            raise TimeTravelError(f"run_until {t_end}: not a time")
        count = self._dispatch(t_end)
        self.now = max(self.now, t_end)
        return count

    def run(self) -> int:
        """Drain the queue completely."""
        return self._dispatch(math.inf)

    def _dispatch(self, t_end: float) -> int:
        """Execute events in order while the next is due by `t_end`; returns
        how many ran."""
        count = 0
        while True:
            rows, pos = self._rows, self._pos   # an action may lay new rows
            if pos == len(rows) or rows[pos][0] > t_end:
                break
            t, fn, arg = rows[pos]
            self._pos = pos + 1
            self.now = t
            fn(arg)
            count += 1
        # let the rows already run go, so a queue that never drains holds at
        # most twice the events still due
        if self._pos > len(self._rows) // 2:
            del self._rows[:self._pos]
            self._pos = 0
        return count


def _call(action: Callable[[], None]) -> None:
    action()


class Metrics(Record):
    """Byte and frame counters per node and per link, and fixed-size counters
    of what each layer did.

    Nothing here grows with the number of sends: a report's latency rows are
    the one per-send record.  `Router._carry` writes the per-node and
    per-link counters.  The fixed counters are written after the
    per-node and per-link rows, in this order, even when they are zero:

    * `sends`: sends carried by each transport, auto's picks included;
    * `direct_outcomes`: each direct send by what the sender's bulletin entry
      met: local (co-resident), hit (the entry names the receiver's node),
      miss (no entry) or stale (any other entry, one naming the sender's own
      node or the receiver's home included);
    * `control_frames`: NACK_UNKNOWN and LOC_REPLY frames sent;
    * `auto_picks`: each auto send by the transport it picked, and
      `auto_error`, the sum of |estimate - charged latency| over them
      (written as a mean);
    * `gossip_totals`: the gossip rounds run on a scenario's timeline
      (rounds, exchanges, dropped exchanges, frames, entries moved);
    * `events`: the events a scenario's queue executed.

    A counter dict left out of the constructor starts empty, or zero for
    each of its keys.  Conservation invariant: the sum of `delivered_bytes`
    equals the payload bytes of every delivered message
    (`payload_delivered`).
    """
    relayed_bytes: dict[int, int]
    delivered_bytes: dict[int, int]
    frames_handled: dict[int, int]
    link_bytes: dict[tuple[int, int], int]
    payload_delivered: int
    sends: dict[str, int]
    direct_outcomes: dict[str, int]
    control_frames: dict[str, int]
    auto_picks: dict[str, int]
    auto_error: float
    gossip_totals: dict[str, int]
    events: int

    def __init__(self, relayed_bytes=None, delivered_bytes=None, frames_handled=None,
                 link_bytes=None, payload_delivered=0, sends=None, direct_outcomes=None,
                 control_frames=None, auto_picks=None, auto_error=0.0, gossip_totals=None,
                 events=0):
        self.relayed_bytes = {} if relayed_bytes is None else relayed_bytes
        self.delivered_bytes = {} if delivered_bytes is None else delivered_bytes
        self.frames_handled = {} if frames_handled is None else frames_handled
        self.link_bytes = {} if link_bytes is None else link_bytes
        self.payload_delivered = payload_delivered
        self.sends = {"relay": 0, "direct": 0} if sends is None else sends
        self.direct_outcomes = ({"local": 0, "hit": 0, "miss": 0, "stale": 0}
                                if direct_outcomes is None else direct_outcomes)
        self.control_frames = ({"NACK_UNKNOWN": 0, "LOC_REPLY": 0}
                               if control_frames is None else control_frames)
        self.auto_picks = {"relay": 0, "direct": 0} if auto_picks is None else auto_picks
        self.auto_error = auto_error
        self.gossip_totals = ({"rounds": 0, "exchanges": 0, "dropped": 0, "frames": 0,
                               "entries_moved": 0} if gossip_totals is None else gossip_totals)
        self.events = events

    def add_round(self, report) -> None:
        """Add one gossip round's `RoundReport` to `gossip_totals`."""
        totals = self.gossip_totals
        totals["rounds"] += 1
        totals["exchanges"] += report.exchanges
        totals["dropped"] += report.dropped
        totals["frames"] += report.frames
        totals["entries_moved"] += report.entries_moved

    def snapshot(self) -> "Metrics":
        """A copy whose counters can be edited without touching these
        (``perfbench/selftest.py`` spoils such copies)."""
        return Metrics(**{name: value.copy() if isinstance(value, dict) else value
                          for name, value in vars(self).items()})

    def rows(self) -> list[tuple[str, str, str]]:
        """Flatten to (metric, key, value) rows in a fixed order for CSV."""
        out: list[tuple[str, str, str]] = []
        for name in ("relayed_bytes", "delivered_bytes", "frames_handled"):
            counters: dict[int, int] = getattr(self, name)
            for node in sorted(counters):
                out.append((name, str(node), repr(counters[node])))
        for (frm, to) in sorted(self.link_bytes):
            out.append(("link_bytes", f"{frm}->{to}", repr(self.link_bytes[(frm, to)])))
        out.append(("payload_delivered", "total", repr(self.payload_delivered)))
        for name in ("sends", "direct_outcomes", "control_frames", "auto_picks"):
            for key, value in getattr(self, name).items():
                out.append((name, key, repr(value)))
        picks = sum(self.auto_picks.values())
        out.append(("auto_error", "mean", repr(self.auto_error / picks if picks else 0.0)))
        for key, value in self.gossip_totals.items():
            out.append(("gossip_totals", key, repr(value)))
        out.append(("events", "executed", repr(self.events)))
        return out
