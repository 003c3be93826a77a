import csv
import gc
import io
import json
import math
import os
import random
import re
import tempfile
import tracemalloc
from enum import Enum
from inspect import signature
from typing import get_type_hints

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TEST_MODEL, replaced
from migratenet import bench, gossip, templates
from migratenet.cluster import Topology
from migratenet.errors import InvalidScenarioError, MessageTooLargeError
from migratenet.simcore import (NON_NEGATIVE, POSITIVE, LatencyModel, Metrics, TransportKind,
                                load_model, read)
from migratenet.transport import Router, TransportConfig

VALID_SCENARIO = {
    "version": 1,
    "name": "demo",
    "seed": 5,
    "topology": {"kind": "mesh", "nodes": 4},
    "processes": [
        {"id": "p0", "home": 0, "job": "A"},
        {"id": "p1", "home": 1, "job": "A"},
    ],
    "migrations": [
        {"time": 0.5, "pid": "p0", "to": 2},
        {"time": 0.5, "pid": "p1", "to": 3},
    ],
    "traffic": [
        {"time": 1.0, "src": "p0", "dst": "p1", "transport": "direct",
         "size": 2048, "count": 3, "interval": 0.25},
        {"time": 2.0, "src": "p1", "dst": "p0", "transport": "relay", "size": 512},
    ],
    "gossip": {"bound": 32, "rounds_per_second": 20.0},
}


# -- scenario parsing -----------------------------------------------------------

def test_scenario_round_trip():
    s = bench.Scenario.from_dict(VALID_SCENARIO)
    assert s.name == "demo" and s.seed == 5
    assert s.topology.nodes == 4
    assert len(s.processes) == 2 and len(s.traffic) == 2
    assert s.traffic[0].transport is TransportKind.DIRECT
    assert s.gossip_config.bound == 32


def test_scenario_rows_are_immutable_and_hold_their_declared_types():
    # every send laid from a row shares it, so no row may change after reading;
    # and a named tuple does not convert, so the reader must: 0 is read as 0.0
    data = json.loads(json.dumps(VALID_SCENARIO))
    data["traffic"][0]["time"] = 0
    data["migrations"][0]["time"] = 0
    s = bench.Scenario.from_dict(data)
    for row in (s.processes[0], s.migrations[0], s.traffic[0]):
        for name in row._fields:
            with pytest.raises(AttributeError):
                setattr(row, name, getattr(row, name))
    assert type(s.traffic[0].time) is float and s.traffic[0].time == 0.0
    assert type(s.migrations[0].time) is float
    assert type(s.traffic[1].interval) is float and type(s.traffic[1].count) is int
    assert type(s.processes[0].work) is float


@pytest.mark.parametrize("mutate,needle", [
    (lambda d: d.update(version=2), "version"),
    (lambda d: d.update(version=True), "scenario.version: expected int, got bool"),
    (lambda d: d.update(version=1.0), "scenario.version: expected int, got float"),
    (lambda d: d.pop("name"), "scenario.name"),
    (lambda d: d["topology"].update(kind="torus"), "topology.kind"),
    (lambda d: d["processes"].append({"id": "p0", "home": 0}), "processes[2].id"),
    (lambda d: d["processes"].append({"id": "p9", "home": 40}), "processes[2].home"),
    (lambda d: d["migrations"].append({"time": 0.1, "pid": "nope", "to": 1}),
     "migrations[2].pid"),
    (lambda d: d["migrations"].append({"time": 0.1, "pid": "p0", "to": 1}),
     "migrations[2].time"),
    (lambda d: d["traffic"].append({"time": 3.0, "src": "px", "dst": "p1",
                                    "transport": "relay", "size": 1}),
     "traffic[2].src"),
    (lambda d: d["traffic"].append({"time": 3.0, "src": "p0", "dst": "p1",
                                    "transport": "warp", "size": 1}),
     "traffic[2].transport"),
    # the last send's time overflows, so a run's horizon would be infinite:
    # through a large time, and through a count beyond float range
    (lambda d: d["traffic"].append({"time": 1e308, "src": "p0", "dst": "p1",
                                    "transport": "relay", "size": 1,
                                    "count": 2, "interval": 1e308}),
     "traffic[2]: last send"),
    (lambda d: d["traffic"].append({"time": 0.0, "src": "p0", "dst": "p1",
                                    "transport": "relay", "size": 1,
                                    "count": 10 ** 400, "interval": 1.0}),
     "traffic[2]: last send at time + (count - 1) * interval"),
])
def test_scenario_validation_reports_field_paths(mutate, needle):
    data = json.loads(json.dumps(VALID_SCENARIO))
    mutate(data)
    with pytest.raises(InvalidScenarioError) as err:
        bench.Scenario.from_dict(data)
    assert needle in str(err.value)


@pytest.mark.parametrize("relay_max,direct_max", [(1000, 2000), (2000, 1000)])
def test_a_send_over_its_cap_is_rejected(relay_max, direct_max):
    # relay and direct each take up to their own cap, auto up to the larger
    caps = {"relay": relay_max, "direct": direct_max, "auto": max(relay_max, direct_max)}
    for transport, cap in caps.items():
        for size, accepted in ((cap, True), (cap + 1, False)):
            data = json.loads(json.dumps(VALID_SCENARIO))
            data["caps"] = {"relay_max": relay_max, "direct_max": direct_max}
            for row in data["traffic"]:
                row["size"] = min(row["size"], relay_max, direct_max)
            data["traffic"].append({"time": 3.0, "src": "p0", "dst": "p1",
                                    "transport": transport, "size": size})
            if accepted:
                assert bench.Scenario.from_dict(data).traffic[2].size == size
            else:
                with pytest.raises(InvalidScenarioError, match=re.escape(
                        f"traffic[2].size: {size} is over the {transport} cap {cap}")):
                    bench.Scenario.from_dict(data)


def test_timeline_rows_are_counted_as_run_scenario_lays_them():
    # the count is checked against the events a small run executes; the
    # scenarios at and past the bound are only read, never run.  Rounds are
    # counted as floor(horizon * rate), which a sum of inexact periods can
    # undershoot by one, so the period here is exact in binary
    data = dict(VALID_SCENARIO, gossip={"rounds_per_second": 16.0})
    events = bench.run_scenario(bench.Scenario.from_dict(data)).metrics.events
    assert events == 2 + 4 + 32     # migrations, sends, rounds up to t = 2.0 at 16/s
    slack = bench.MAX_TIMELINE_ROWS - events

    def with_burst(count):  # `count` more sends at t = 0, which moves no round
        data = json.loads(json.dumps(VALID_SCENARIO))
        data["gossip"] = {"rounds_per_second": 16.0}
        data["traffic"].append({"time": 0.0, "src": "p0", "dst": "p1",
                                "transport": "relay", "size": 1, "count": count})
        return data

    assert bench.Scenario.from_dict(with_burst(slack)).traffic[-1].count == slack
    with pytest.raises(InvalidScenarioError, match=r"gossip\.rounds_per_second: .* pass "):
        bench.Scenario.from_dict(with_burst(slack + 1))


@pytest.mark.parametrize("mutate,needle", [
    (lambda d: d["traffic"][0].update(count=10 ** 12), "traffic[0].count: "),
    (lambda d: d["traffic"][1].update(count=bench.MAX_TIMELINE_ROWS),
     "traffic[1].count: "),
    (lambda d: d["traffic"][1].update(time=10.0) or d["gossip"].update(rounds_per_second=1e9),
     "gossip.rounds_per_second"),
    # horizon x rounds_per_second beyond float range
    (lambda d: d["traffic"][1].update(time=1e300) or d["gossip"].update(rounds_per_second=1e300),
     "gossip.rounds_per_second"),
])
def test_scenario_past_the_row_bound_is_rejected(mutate, needle):
    data = json.loads(json.dumps(VALID_SCENARIO))
    mutate(data)
    with pytest.raises(InvalidScenarioError) as err:
        bench.Scenario.from_dict(data)
    assert needle in str(err.value) and str(bench.MAX_TIMELINE_ROWS) in str(err.value)


@pytest.mark.parametrize("name", ["../escaped", "sub/dir", "back\\slash", "nul\0byte",
                                  "two\nlines", "carriage\rreturn", "tab\there",
                                  "\x01start", "unit\x1fseparator", "delete\x7f",
                                  "\x80c1", "next\x85line", "c1\x9f", "a\u2028b",
                                  "para\u2029graph"])
def test_scenario_name_with_a_path_separator_is_rejected(name):
    # the name prefixes the report file names, so it must stay one file name;
    # it opens lines of the summary and the console, so a control character
    # (C0, U+007F or C1) or U+2028/U+2029, each of which str.splitlines()
    # splits on, could split them and forge a report line
    with pytest.raises(InvalidScenarioError, match="scenario.name: must not contain"):
        bench.Scenario.from_dict(dict(VALID_SCENARIO, name=name))


@pytest.mark.parametrize("name,accepted", [
    ("a" * 243, True), ("a" * 244, False),
    ("\u20ac" * 81, True), ("\u20ac" * 81 + "a", False),   # 3 UTF-8 bytes each
])
def test_scenario_name_is_at_most_243_utf8_bytes(name, accepted):
    # with `_summary.txt` a report file name fits the 255-byte limit
    data = dict(VALID_SCENARIO, name=name)
    if accepted:
        assert bench.Scenario.from_dict(data).name == name
    else:
        with pytest.raises(InvalidScenarioError,
                           match="scenario.name: must be at most 243 UTF-8 bytes, got 244"):
            bench.Scenario.from_dict(data)


def test_scenario_name_with_a_lone_surrogate_is_rejected():
    # JSON can escape one ("\ud800"), and no report file could be named by it
    with pytest.raises(InvalidScenarioError, match="scenario.name: not encodable as UTF-8"):
        bench.Scenario.from_dict(json.loads('{"version": 1, "name": "x\\ud800"}'))


def test_scenario_load_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(InvalidScenarioError):
        bench.Scenario.load(path)


# -- the row reader ------------------------------------------------------------------

# the value rules of the model's fields, which its __post_init__ checks
MODEL_LIMITS = {"alpha_net": NON_NEGATIVE, "beta_net": POSITIVE, "alpha_sm": NON_NEGATIVE,
                "beta_sm": POSITIVE, "direct_overhead": NON_NEGATIVE,
                "home_leg_factor": NON_NEGATIVE}


def valid_value(kind, limit):
    """A strategy of (JSON value, the value the reader must return) pairs for
    a field of type `kind` under the rule `limit`: an enum by its value, and
    a float also as an int."""
    if issubclass(kind, Enum):
        return st.sampled_from(list(kind)).map(lambda m: (m.value, m))
    if kind is str:
        return st.text(max_size=6).map(lambda v: (v, v))
    lo, hi = (limit[0], None if limit[1] == math.inf else limit[1]) if limit else (None, None)
    ints = st.integers(None if lo is None else math.ceil(lo), hi)
    if kind is int:
        return ints.map(lambda v: (v, v))
    return st.one_of(st.floats(lo, hi, allow_nan=False, allow_infinity=False).map(
        lambda v: (v, v)), ints.map(lambda v: (v, float(v))))


@st.composite
def valid_rows(draw, schema, limits, base):
    """A valid JSON row for `schema`, its keys shuffled and some of its
    optional fields absent, and the row built by `schema`'s constructor."""
    raw, given = {}, {}
    for name, p in signature(schema).parameters.items():
        if (p.default is not p.empty or base is not None) and draw(st.booleans()):
            continue
        raw[name], given[name] = draw(valid_value(get_type_hints(schema)[name],
                                                  limits.get(name)))
    raw = {key: raw[key] for key in draw(st.permutations(list(raw)))}
    return raw, schema(**{**({} if base is None else vars(base)), **given})


@pytest.mark.parametrize("schema,limits,base", [
    (bench.ProcessSpec, bench.LIMITS[bench.ProcessSpec], None),
    (bench.MigrationSpec, {}, None),
    (bench.TrafficSpec, bench.LIMITS[bench.TrafficSpec], None),
    (gossip.GossipConfig, bench.LIMITS[gossip.GossipConfig], None),
    (TransportConfig, bench.LIMITS[TransportConfig], None),
    (LatencyModel, MODEL_LIMITS, TEST_MODEL),
])
@given(data=st.data())
def test_a_valid_row_reads_as_its_class_builds_it(schema, limits, base, data):
    raw, expected = data.draw(valid_rows(schema, limits, base))
    row = read(raw, schema, "row", bench.LIMITS.get(schema), base)
    assert type(row) is schema and row == expected
    names = list(signature(schema).parameters)
    assert [type(getattr(row, n)) for n in names] == [type(getattr(expected, n)) for n in names]
    if issubclass(schema, tuple):
        assert row._asdict() == expected._asdict()
        assert row._replace(**{names[0]: getattr(expected, names[0])}) == expected


@pytest.mark.parametrize("raw,needle", [
    # two bad keys: the first in the row's own order is named
    ({"time": "x", "src": "a", "dst": "b", "transport": "relay", "size": -1},
     "traffic[0].time: expected float, got str"),
    ({"size": -1, "src": "a", "dst": "b", "transport": "relay", "time": "x"},
     "traffic[0].size: must be non-negative"),
    ({"bytes": 1, "time": 1.0, "src": "a", "dst": "b", "transport": "relay", "size": -1},
     "traffic[0].bytes: unknown field"),
    ({"time": 1.0, "src": "a", "dst": "b", "transport": "relay", "size": -1, "bytes": 1},
     "traffic[0].size: must be non-negative"),
    # a bad key is named before a missing field, and a missing field in the
    # schema's order once every key is good
    ({"time": 1.0, "src": "a", "transport": "relay", "size": -1},
     "traffic[0].size: must be non-negative"),
    ({"size": 1, "transport": "relay", "time": 1.0}, "traffic[0].src: missing"),
])
def test_a_row_names_its_first_bad_key_then_its_first_missing_field(raw, needle):
    with pytest.raises(InvalidScenarioError, match=re.escape(needle)):
        read(raw, bench.TrafficSpec, "traffic[0]", bench.LIMITS[bench.TrafficSpec])


# -- traffic rows in canonical form --------------------------------------------------

def perturb(row: dict, how: str, draw):
    """`row` changed by the perturbation `how`, which may take it out of
    canonical form (or, by chance, keep it there)."""
    row = dict(row)
    if how == "shuffle":
        return {key: row[key] for key in draw(st.permutations(list(row)))}
    if how == "drop":
        del row[draw(st.sampled_from(list(row)))]
    elif how == "optional":
        row.update(draw(st.fixed_dictionaries({}, optional={
            "count": st.integers(0, 3), "interval": st.sampled_from([0.0, 0, 0.5])})))
    elif how == "int time":
        row["time"] = draw(st.integers(-1, 3))
    elif how == "bool size":
        row["size"] = draw(st.booleans())
    elif how == "float size":
        row["size"] = 512.0
    elif how == "negative":
        row[draw(st.sampled_from(["time", "size"]))] = -1
    elif how == "negative time":
        row["time"] = -draw(st.floats(0, 1e6))
    elif how == "non-finite":
        row["time"] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    elif how == "transport":
        row["transport"] = draw(st.sampled_from(["warp", "RELAY", "", 1, None, ["relay"]]))
    elif how == "ids":
        row[draw(st.sampled_from(["src", "dst"]))] = draw(st.sampled_from([0, None, ["p0"]]))
    elif how == "not a dict":
        return draw(st.sampled_from([None, 1, "row", list(row.values()), list(row.items())]))
    return row


PERTURBATIONS = ["shuffle", "drop", "optional", "int time", "bool size", "float size",
                 "negative", "negative time", "non-finite", "transport", "ids", "not a dict"]


@st.composite
def traffic_rows(draw):
    """A traffic row in canonical form, or one that one or two perturbations
    take out of it."""
    row = {"time": draw(st.floats(0, 1e9, allow_nan=False, allow_infinity=False)),
           "src": draw(st.sampled_from(["p0", "p1", ""])),
           "dst": draw(st.sampled_from(["p0", "p1"])),
           "transport": draw(st.sampled_from([kind.value for kind in TransportKind])),
           "size": draw(st.integers(0, 2 ** 40))}
    for how in draw(st.lists(st.sampled_from(PERTURBATIONS), max_size=2)):
        if type(row) is dict:
            row = perturb(row, how, draw)
    return row


def traffic_outcome(read_rows):
    """The rows `read_rows()` returns, with each field's type, or the text of
    the `InvalidScenarioError` it raises."""
    try:
        rows = read_rows()
    except InvalidScenarioError as exc:
        return str(exc)
    return [(row, [type(value) for value in row]) for row in rows]


@settings(max_examples=400, deadline=None)
@given(raw=traffic_rows())
def test_a_traffic_row_reads_as_the_generic_reader_reads_it(raw):
    # the decode hook leaves a row as it is, for `read`, or builds the row
    # `read` reads from it, field types included
    build, _ = bench._traffic_builder()
    built = build(raw)
    if built is not raw:
        limits = bench.LIMITS[bench.TrafficSpec]
        assert traffic_outcome(lambda: [built]) == \
            traffic_outcome(lambda: [read(raw, bench.TrafficSpec, "traffic[0]", limits)])


def test_a_canonical_traffic_row_is_built_without_the_generic_reader(monkeypatch):
    row = {"time": 1.5, "src": "p0", "dst": "p1", "transport": "auto", "size": 7}
    expected = read(row, bench.TrafficSpec, "traffic", bench.LIMITS[bench.TrafficSpec])
    monkeypatch.setattr(bench, "read", None)   # a call would raise TypeError
    build, built = bench._traffic_builder()
    spec = build(row)
    assert spec == expected and type(spec) is bench._Loaded and built() == 1


def test_a_scenario_of_non_canonical_traffic_reads_as_its_canonical_twin(tmp_path):
    # the twin's rows have their keys reversed, the optional fields given at
    # their defaults, and every other time as an int: none is canonical, so
    # `load` builds every row of the original and none of the twin
    canonical = json.loads(json.dumps(VALID_SCENARIO))
    canonical["traffic"] = [
        {"time": float(i % 5), "src": f"p{i % 2}", "dst": f"p{1 - i % 2}",
         "transport": ("relay", "direct", "auto")[i % 3], "size": 64 * i}
        for i in range(30)]
    twin = json.loads(json.dumps(canonical))
    twin["traffic"] = [
        dict(reversed([*row.items(), ("count", 1), ("interval", 0.0)]),
             time=int(row["time"]) if i % 2 else row["time"])
        for i, row in enumerate(twin["traffic"])]
    for name, data in (("canonical", canonical), ("twin", twin)):
        (tmp_path / name).write_text(json.dumps(data), encoding="utf-8")
    read_canonical, read_twin = (bench.Scenario.load(tmp_path / name)
                                 for name in ("canonical", "twin"))
    assert {type(t) for t in read_canonical.traffic} == {bench._Loaded}
    assert {type(t) for t in read_twin.traffic} == {bench.TrafficSpec}
    assert read_twin == read_canonical
    assert [list(map(type, t)) for t in read_twin.traffic] == \
        [list(map(type, t)) for t in read_canonical.traffic]


# -- Scenario.load, which builds canonical rows while decoding ----------------------

CANONICAL_ROW = {"time": 0.5, "src": "p0", "dst": "p1", "transport": "relay", "size": 64}


class Pairs(list):
    """A JSON object written as these (key, value) pairs, a repeated key
    included."""


def dump(value) -> str:
    """`value` as JSON text, each `Pairs` written pair by pair."""
    if isinstance(value, dict):
        value = Pairs(value.items())
    if isinstance(value, Pairs):
        return "{" + ", ".join(f"{json.dumps(key)}: {dump(v)}" for key, v in value) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(dump, value)) + "]"
    return json.dumps(value)


@st.composite
def file_rows(draw):
    """A traffic row as a file holds it: canonical, with a -0.0 time, with a
    repeated key, or `traffic_rows`' canonical or perturbed row."""
    how = draw(st.sampled_from(["canonical", "-0.0", "repeated key", "perturbed"]))
    if how == "perturbed":
        return draw(traffic_rows())
    row = dict(CANONICAL_ROW, time=draw(st.floats(0, 3)), size=draw(st.integers(0, 10000)),
               transport=draw(st.sampled_from(["relay", "direct", "auto"])))
    if how == "-0.0":
        row["time"] = -0.0
    elif how == "repeated key":   # the decoder keeps the first place and the last value
        key = draw(st.sampled_from(list(row)))
        pair = (key, draw(st.sampled_from([row[key], "x", 1, -1.0])))
        row = Pairs([pair, *row.items()] if draw(st.booleans()) else [*row.items(), pair])
    return row


# where a canonical-looking row may sit outside the traffic list
MISPLACED = ["top", "processes", "migrations", "gossip", "caps", "model", "topology",
             "nested", "first of two traffic lists"]


@st.composite
def scenario_files(draw):
    """The text of FULL_SCENARIO with generated traffic rows, and perhaps a
    canonical-looking row placed outside the traffic list."""
    data = json.loads(json.dumps(FULL_SCENARIO))
    data["traffic"] = draw(st.lists(file_rows(), max_size=6))
    places = draw(st.lists(st.sampled_from(MISPLACED), max_size=2))
    for where in places:
        if where == "top":
            return dump(CANONICAL_ROW)
        if where in ("processes", "migrations"):
            data[where][0] = CANONICAL_ROW
        elif where == "nested":   # inside a row that is then not canonical
            data["traffic"].append(dict(CANONICAL_ROW, **{
                draw(st.sampled_from(list(CANONICAL_ROW))): CANONICAL_ROW}))
        elif where != "first of two traffic lists":
            data[where] = CANONICAL_ROW
    if "first of two traffic lists" in places:   # the decoder keeps the last
        data = Pairs([("traffic", [CANONICAL_ROW] * 2), *data.items()])
    return dump(data)


def load_outcome(read_file):
    """The scenario `read_file()` returns, with the type of each field of its
    traffic rows, or the text of the `InvalidScenarioError` it raises."""
    try:
        scenario = read_file()
    except InvalidScenarioError as exc:
        return str(exc)
    return scenario, [list(map(type, t)) for t in scenario.traffic]


@settings(max_examples=400, deadline=None)
@given(text=scenario_files())
def test_a_file_loads_as_its_decoded_json_reads(text):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "scenario.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        assert load_outcome(lambda: bench.Scenario.load(path)) == \
            load_outcome(lambda: bench.Scenario.from_dict(json.loads(text)))


@pytest.mark.parametrize("place,needle", [
    (lambda d: CANONICAL_ROW, "version: expected 1, got None"),
    (lambda d: d["processes"].__setitem__(0, CANONICAL_ROW), "processes[0].time: unknown field"),
    (lambda d: d.__setitem__("gossip", CANONICAL_ROW), "gossip.time: unknown field"),
    (lambda d: d["traffic"].append(dict(CANONICAL_ROW, size=CANONICAL_ROW)),
     "traffic[2].size: expected int, got dict"),
])
def test_a_canonical_row_outside_the_traffic_list_fails_as_a_dict(tmp_path, place, needle):
    data = json.loads(json.dumps(VALID_SCENARIO))
    data = place(data) or data
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(InvalidScenarioError, match=re.escape(needle)):
        bench.Scenario.load(path)


def single_sends(rows: int) -> dict:
    """VALID_SCENARIO with `rows` canonical rows, each sent once, so the
    traffic is checked in whole-list passes."""
    data = json.loads(json.dumps(VALID_SCENARIO))
    data["traffic"] = [dict(CANONICAL_ROW, time=0.5 * i, src=f"p{i % 2}", dst=f"p{1 - i % 2}",
                            transport="direct") for i in range(rows)]
    return data


@pytest.mark.parametrize("mutate,rows_bound,needle", [
    (lambda d: d["traffic"][3].update(src="ghost"), 10 ** 6,
     "traffic[3].src: unknown process 'ghost'"),
    (lambda d: d["traffic"][3].update(dst="ghost"), 10 ** 6,
     "traffic[3].dst: unknown process 'ghost'"),
    (lambda d: d.update(caps={"relay_max": 63}), 10 ** 6,
     "traffic[2].size: 64 is over the relay cap 63"),
    (lambda d: d["gossip"].update(rounds_per_second=1e6), 10 ** 6,
     "7 migrations and sends and a gossip round per period up to time 2.0 pass"),
    (lambda d: None, 5, "traffic[3].count: 6 migrations and sends pass 5 timeline rows"),
])
def test_a_fault_among_single_sends_is_named_by_its_row(monkeypatch, mutate, rows_bound,
                                                        needle):
    data = single_sends(5)
    data["traffic"][2]["transport"] = "relay"
    mutate(data)
    monkeypatch.setattr(bench, "MAX_TIMELINE_ROWS", rows_bound)
    with pytest.raises(InvalidScenarioError, match=re.escape(needle)):
        bench.Scenario.from_dict(data)


def test_single_sends_over_the_smaller_cap_are_checked_row_by_row():
    data = single_sends(4)
    data["caps"] = {"relay_max": 63, "direct_max": 64}
    scenario = bench.Scenario.from_dict(data)
    assert [t.size for t in scenario.traffic] == [64] * 4
    data["traffic"][1]["transport"] = "relay"
    with pytest.raises(InvalidScenarioError, match=re.escape("traffic[1].size: 64 is over")):
        bench.Scenario.from_dict(data)


def test_only_load_passes_rows_it_built():
    data = json.loads(json.dumps(VALID_SCENARIO))
    data["traffic"] = [read(CANONICAL_ROW, bench.TrafficSpec, "traffic",
                            bench.LIMITS[bench.TrafficSpec])]
    with pytest.raises(InvalidScenarioError,
                       match=re.escape("traffic[0]: expected an object, got TrafficSpec")):
        bench.Scenario.from_dict(data)


def traced_peak(action) -> int:
    """The most memory `action()` held at once, in bytes (tracemalloc)."""
    gc.collect()
    tracemalloc.start()
    try:
        action()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_load_holds_less_than_the_decoded_json(tmp_path):
    # the decoded rows never exist together: relative to the decoder's own
    # peak, so the bound holds whatever the sizes of objects
    data = json.loads(json.dumps(VALID_SCENARIO))
    data["processes"] = [{"id": f"p{i}", "home": i % 4} for i in range(32)]
    data["traffic"] = [{"time": i / 20000, "src": f"p{i % 32}", "dst": f"p{(i + 1) % 32}",
                        "transport": ("relay", "direct", "auto")[i % 3], "size": 64 + i}
                       for i in range(20000)]
    text = json.dumps(data)
    del data
    path = tmp_path / "scenario.json"
    path.write_text(text, encoding="utf-8")
    assert traced_peak(lambda: bench.Scenario.load(path)) < \
        0.75 * traced_peak(lambda: json.loads(text))


# -- run_scenario -----------------------------------------------------------------

def test_empty_traffic_gives_empty_latency_table():
    data = json.loads(json.dumps(VALID_SCENARIO))
    data["traffic"] = []
    data["migrations"] = []
    report = bench.run_scenario(bench.Scenario.from_dict(data))
    assert report.latency_rows == []
    assert report.metrics.payload_delivered == 0


def test_run_scenario_executes_all_sends():
    report = bench.run_scenario(bench.Scenario.from_dict(VALID_SCENARIO))
    assert len(report.latency_rows) == 4
    assert report.metrics.payload_delivered == 3 * 2048 + 512


def test_run_scenario_deterministic_files(tmp_path):
    scenario = bench.Scenario.from_dict(VALID_SCENARIO)
    blobs = []
    for d in ("one", "two"):
        report = bench.run_scenario(scenario)
        files = report.write(tmp_path / d)
        blobs.append(b"".join(p.read_bytes() for p in files))
    assert blobs[0] == blobs[1]


def test_run_scenario_seed_override_changes_only_seed_field():
    scenario = bench.Scenario.from_dict(VALID_SCENARIO)
    scenario.seed = 99
    report = bench.run_scenario(scenario)
    assert report.seed == 99


@pytest.mark.parametrize("enabled", [True, False])
def test_run_scenario_leaves_the_collector_as_it_found_it(monkeypatch, enabled):
    states = []
    round_ = gossip.gossip_round

    def recorded(*args):
        states.append(gc.isenabled())
        return round_(*args)

    monkeypatch.setattr(gossip, "gossip_round", recorded)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        # pre_converge off: its rounds run before the timeline, collector on
        bench.run_scenario(bench.Scenario.from_dict(dict(VALID_SCENARIO, pre_converge=False)))
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert states and not any(states)   # paused while the timeline runs


def test_run_scenario_enables_the_collector_again_when_a_send_raises():
    # the relay send at t = 2.0 is over the cap, after the three direct sends;
    # the cap is set after parsing, which rejects a size over its cap
    scenario = bench.Scenario.from_dict(VALID_SCENARIO)
    scenario.caps = replaced(scenario.caps, relay_max=256)
    assert gc.isenabled()
    with pytest.raises(MessageTooLargeError):
        bench.run_scenario(scenario)
    assert gc.isenabled()


@pytest.mark.parametrize("seed", [1, 2])
def test_a_run_leaves_no_reference_cycles(seed):
    # the premise of the collector's pause in run_scenario: were a run to
    # make cycles, the pause would let them pile up until it ends
    scenario = bench.Scenario.from_dict(generated_scenario(seed, sends=1000))
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        report = bench.run_scenario(scenario, trace_enabled=True)
        assert len(report.latency_rows) == 1000 and report.trace
        assert {series for _, _, series in report.latency_rows} == {"relay", "direct", "auto"}
        assert report.metrics.gossip_totals["rounds"] and scenario.migrations
        del report
        assert gc.collect() == 0
    finally:
        if was:
            gc.enable()


# -- latency sweep ------------------------------------------------------------------

def test_sweep_assertions_pass_under_test_model():
    report = templates.latency_sweep([1024, 4096, 65536], TEST_MODEL)
    assert report.passed, [a for a in report.assertions if not a.passed]


def test_sweep_rows_cover_all_series():
    sizes = [1024, 4096]
    report = templates.latency_sweep(sizes, TEST_MODEL)
    series = {s for _, _, s in report.latency_rows}
    assert series == {"local-relay", "local-direct", "migrated-relay", "migrated-direct"}
    assert len(report.latency_rows) == len(series) * len(sizes)


def test_sweep_direct_curve_identical_across_placements():
    report = templates.latency_sweep([1024, 2048], TEST_MODEL)
    local = [(s, l) for s, l, series in report.latency_rows if series == "local-direct"]
    migrated = [(s, l) for s, l, series in report.latency_rows
                if series == "migrated-direct"]
    assert local == migrated


def test_sweep_reports_measured_crossover():
    # TEST_MODEL overhead 0.5 vs 2 hops of (1 + s/100): direct wins from s=0
    report = templates.latency_sweep([16, 64, 256], TEST_MODEL)
    assert report.extra["crossover_size"] == "16"


def test_sweep_rejects_empty_sizes():
    with pytest.raises(InvalidScenarioError):
        templates.latency_sweep([], TEST_MODEL)


# -- ring load -----------------------------------------------------------------------

def test_ring_load_center_accounting():
    report = templates.ring_load(spokes=5, size=1000)
    assert report.passed, [a for a in report.assertions if not a.passed]
    pairs = 5 * 4
    assert report.extra["relay_center_bytes"] == str(pairs * 1000)
    assert report.extra["direct_cold_center_bytes"] == str(pairs * 1000)
    assert report.extra["direct_converged_center_bytes"] == "0"


# -- imbalance ------------------------------------------------------------------------

def test_imbalance_report():
    report = templates.imbalance_test()
    assert report.passed
    assert float(report.extra["makespan_after"]) < float(report.extra["makespan_before"])
    assert float(report.extra["makespan_after"]) <= \
        2 * float(report.extra["makespan_optimum"])


def test_imbalance_balanced_preset_makes_no_moves():
    report = templates.imbalance_test(preset="balanced")
    assert report.passed
    assert report.extra["migrations"] == "none"


# -- gossip stats ----------------------------------------------------------------------

def test_gossip_stats_one_node_is_full_at_round_zero():
    report = templates.gossip_stats(nodes=1, seed=4)
    assert report.passed
    assert report.extra["rounds_to_full"] == "0"
    assert report.gossip_rows == [(0, 1, 0, 0)]


def test_gossip_stats_rows_and_convergence():
    report = templates.gossip_stats(nodes=16, seed=4)
    assert report.passed
    counts = [informed for _, informed, _, _ in report.gossip_rows]
    assert counts == sorted(counts)
    assert counts[-1] == 16
    frames = [f for _, _, f, _ in report.gossip_rows[1:]]
    assert all(f <= 2 * 16 for f in frames)


# -- report files ------------------------------------------------------------------------

def test_report_file_schemas(tmp_path):
    report = templates.latency_sweep([1024], TEST_MODEL)
    files = {p.name: p for p in report.write(tmp_path)}
    header = files["latency_sweep_latency.csv"].read_text().splitlines()[0]
    assert header == "size,latency,series"
    header = files["latency_sweep_metrics.csv"].read_text().splitlines()[0]
    assert header == "scenario,seed,metric,key,value"
    summary = files["latency_sweep_summary.txt"].read_text()
    assert "result: PASS" in summary


def test_trace_file_written_when_enabled(tmp_path):
    report = templates.ring_load(spokes=3, size=100, trace_enabled=True)
    files = {p.name: p for p in report.write(tmp_path)}
    lines = files["ring_load_trace.csv"].read_text().splitlines()
    assert lines[0] == "time,kind,src,dst,from_node,to_node,size"
    assert len(lines) > 1


# the characters csv quotes for, other controls, spaces and non-ASCII text of
# two to four UTF-8 bytes; no NUL, which no report field holds
CSV_TEXT = st.text(st.sampled_from(',"\r\n \t\'ab9\x7f\u00e9\u20ac\U0001f600'), max_size=8)
CSV_FLOAT = st.one_of(st.sampled_from([-0.0, 5e-324, 1e300, 0.1]), st.floats())


def csv_writer_text(rows) -> bytes:
    buffer = io.StringIO(newline="")
    csv.writer(buffer).writerows(rows)
    return buffer.getvalue().encode("utf-8")


@settings(max_examples=200, deadline=None)
@given(name=CSV_TEXT.filter(lambda s: s and "/" not in s), seed=st.integers(),
       latency=st.lists(st.tuples(st.integers(), CSV_FLOAT, CSV_TEXT), max_size=6),
       sends=st.dictionaries(CSV_TEXT, st.one_of(st.integers(), CSV_FLOAT, CSV_TEXT),
                             max_size=4),
       gossip_rows=st.lists(st.tuples(*[st.integers()] * 4), max_size=4),
       trace=st.lists(st.tuples(CSV_FLOAT, CSV_TEXT, CSV_TEXT, CSV_TEXT,
                                st.integers(), st.integers(), st.integers()), max_size=6))
def test_report_tables_are_the_bytes_csv_writer_writes(name, seed, latency, sends,
                                                       gossip_rows, trace):
    metrics = Metrics(sends=sends)
    report = bench.Report(name, seed, latency, metrics, gossip_rows=gossip_rows,
                          trace=trace)
    expected = {
        "latency": [["size", "latency", "series"], *latency],
        "metrics": [["scenario", "seed", "metric", "key", "value"],
                    *([name, seed, *row] for row in metrics.rows())],
    }
    if gossip_rows:
        expected["gossip"] = [["round", "informed_count", "frames", "entries_moved"],
                              *gossip_rows]
    expected["trace"] = [["time", "kind", "src", "dst", "from_node", "to_node", "size"],
                         *trace]
    with tempfile.TemporaryDirectory() as d:
        files = report.write(d)
        assert [p.name for p in files] == [f"{name}_{suffix}.csv" for suffix in expected] \
            + [f"{name}_summary.txt"]
        for path, rows in zip(files, expected.values()):
            assert path.read_bytes() == csv_writer_text(rows), path.name


def test_report_tables_are_written_in_bounded_chunks(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "TABLE_CHUNK_ROWS", 3)
    rows = [(size, size / 7, "relay" if size % 2 else 'a,"b') for size in range(10)]
    report = bench.Report("chunks", 0, rows)
    report.write(tmp_path)
    got = (tmp_path / "chunks_latency.csv").read_bytes()
    assert got == csv_writer_text([["size", "latency", "series"], *rows])


# -- the record classes --------------------------------------------------------------

def test_records_left_without_a_list_or_dict_get_their_own():
    one, two = bench.Report("a", 0), bench.Report("a", 0)
    for name in ("latency_rows", "assertions", "extra", "gossip_rows", "metrics"):
        assert getattr(one, name) is not getattr(two, name), name
    one.extra["k"] = "v"
    one.check("c", True)
    assert two.extra == {} and two.assertions == []

    first, second = Metrics(), Metrics()
    counters = [name for name, value in vars(first).items() if isinstance(value, dict)]
    assert len(counters) == 9
    for name in counters:
        assert getattr(first, name) is not getattr(second, name), name
    first.sends["relay"] += 1
    assert second.sends == {"relay": 0, "direct": 0}

    topology, processes = Topology.mesh(2), []
    left = bench.Scenario("s", topology, processes)
    right = bench.Scenario("s", topology, processes)
    assert left.migrations == [] and left.traffic == []
    assert left.migrations is not right.migrations and left.traffic is not right.traffic


def test_records_compare_by_value():
    topology, processes = Topology.mesh(2), []
    cases = [   # equal twins, one field changed
        (replaced(TEST_MODEL), TEST_MODEL, replaced(TEST_MODEL, beta_sm=2000.0)),
        (TransportConfig(), TransportConfig(), TransportConfig(relay_max=1)),
        (Metrics(), Metrics(), Metrics(events=1)),
        (bench.Scenario("s", topology, processes), bench.Scenario("s", topology, processes),
         bench.Scenario("s", topology, processes, seed=1)),
    ]
    for record, twin, changed in cases:
        assert record is not twin and record == twin and not record != twin
        assert record != changed and not record == changed
        values = tuple(vars(record).values())
        assert record != values and values != record
        assert record.__eq__(values) is NotImplemented


# -- counters ------------------------------------------------------------------------

def generated_scenario(seed: int, sends: int = 300) -> dict:
    """`sends` relay, direct and auto sends among 12 processes on 8 nodes, with a
    migration halfway between every two gossip rounds and lossy gossip that
    starts cold, so sends meet every direct outcome."""
    rng = random.Random(seed)
    nodes = 8
    ids = [f"p{i}" for i in range(12)]
    return {
        "version": 1, "name": "counted", "seed": seed, "pre_converge": False,
        "topology": {"kind": "mesh", "nodes": nodes},
        "processes": [{"id": pid, "home": rng.randrange(nodes)} for pid in ids],
        "migrations": [{"time": 0.05 + 0.1 * k, "pid": rng.choice(ids),
                        "to": rng.randrange(nodes)} for k in range(20)],
        "traffic": [{"time": rng.uniform(0.0, 2.0), "src": src, "dst": dst,
                     "transport": rng.choice(("relay", "direct", "auto")),
                     "size": rng.choice((64, 4096, 1 << 20))}
                    for src, dst in (rng.sample(ids, 2) for _ in range(sends))],
        "gossip": {"bound": 8, "drop_probability": 0.3, "rounds_per_second": 10.0},
    }


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_counters_match_outside_classification(monkeypatch, seed):
    router = Router
    send_direct, send_auto, auto_estimates = router.send_direct, router.send_auto, router._estimates
    outcomes = dict.fromkeys(("local", "hit", "miss", "stale"), 0)
    auto_error = 0.0
    last_estimates = {}

    def classify(self, src, dst):
        # the sender's bulletin entry against the true node, before the send
        sender = self.cluster.residency(src)
        true_node = self.cluster.residency(dst)
        hint = self.cluster.bulletins[sender].lookup_location(dst)
        return ("local" if true_node == sender else "miss" if hint is None
                else "hit" if hint[0] == true_node else "stale")

    def classified(self, src, dst, size):
        outcomes[classify(self, src, dst)] += 1
        return send_direct(self, src, dst, size)

    def estimated(self, *args):
        relay, direct = auto_estimates(self, *args)   # each (price, route)
        last_estimates.update({TransportKind.RELAY: relay[0], TransportKind.DIRECT: direct[0]})
        return relay, direct

    def picked(self, src, dst, size):
        nonlocal auto_error
        outcome = classify(self, src, dst)
        report = send_auto(self, src, dst, size)
        auto_error += abs(last_estimates[report.transport] - report.latency)
        if report.transport is TransportKind.DIRECT:
            # auto carries its direct picks itself, not through send_direct
            outcomes[outcome] += 1
        return report

    monkeypatch.setattr(router, "send_direct", classified)
    monkeypatch.setattr(router, "send_auto", picked)
    monkeypatch.setattr(router, "_estimates", estimated)
    scenario = bench.Scenario.from_dict(generated_scenario(seed))
    report = bench.run_scenario(scenario)
    m = report.metrics

    asked = {kind: sum(t.count for t in scenario.traffic if t.transport.value == kind)
             for kind in ("relay", "direct", "auto")}
    assert m.direct_outcomes == outcomes and all(outcomes.values())
    assert sum(outcomes.values()) == m.sends["direct"] == asked["direct"] + m.auto_picks["direct"]
    assert m.sends["relay"] == asked["relay"] + m.auto_picks["relay"]
    assert sum(m.auto_picks.values()) == asked["auto"]
    assert m.auto_error == auto_error
    assert m.control_frames["NACK_UNKNOWN"] > 0 and m.control_frames["LOC_REPLY"] > 0
    assert m.gossip_totals["rounds"] == 19      # every 0.1 s up to the last send, after 1.9 s
    assert m.events == m.gossip_totals["rounds"] + len(scenario.migrations) + sum(asked.values())


# -- the event tape --------------------------------------------------------------

def heap_run_scenario(scenario: bench.Scenario) -> bench.Report:
    """Reference for `run_scenario`: the same timeline scheduled on the
    queue's heap, one closure and one heap event per migration, send and
    gossip round, in the same order."""
    sim = bench.Simulation.build(scenario.topology, scenario.model, scenario.caps,
                                 scenario.seed, scenario.gossip_config)
    pids = {spec.id: sim.cluster.spawn(spec.home, spec.job, spec.work)
            for spec in scenario.processes}
    report = bench.Report(scenario.name, scenario.seed)
    if scenario.pre_converge:
        report.convergence_rounds = sim.converge()

    horizon = 0.0
    for m in scenario.migrations:
        horizon = max(horizon, m.time)
        sim.queue.schedule(m.time, lambda m=m: sim.cluster.migrate(pids[m.pid], m.to))
    for t in scenario.traffic:
        for k in range(t.count):
            at = t.time + k * t.interval
            horizon = max(horizon, at)

            def fire(t=t, at=at):
                rep = sim.router.send(t.transport, pids[t.src], pids[t.dst], t.size)
                report.latency_rows.append((t.size, rep.latency, t.transport.value))

            sim.queue.schedule(at, fire)

    period = 1.0 / scenario.gossip_config.rounds_per_second
    next_round = period
    while next_round <= horizon:
        sim.queue.schedule(next_round, lambda: sim.metrics.add_round(
            gossip.gossip_round(sim.cluster, sim.rng, scenario.gossip_config)))
        next_round += period

    sim.metrics.events = sim.queue.run()
    report.metrics = sim.metrics.snapshot()
    return report


def tied_scenario(seed: int) -> dict:
    """Sends, migrations and lossy gossip rounds on shared times: every
    migration and most bursts of sends (`count` > 1 at `interval` 0) land on
    a gossip round's time, so the order of ties decides what each send meets."""
    rng = random.Random(seed)
    nodes, rounds_per_second = 6, 10.0
    ids = [f"p{i}" for i in range(10)]
    round_times, at = [], 1.0 / rounds_per_second
    for _ in range(12):     # accumulated as run_scenario accumulates them
        round_times.append(at)
        at += 1.0 / rounds_per_second
    return {
        "version": 1, "name": "tied", "seed": seed, "pre_converge": False,
        "topology": {"kind": "mesh", "nodes": nodes},
        "processes": [{"id": pid, "home": rng.randrange(nodes)} for pid in ids],
        "migrations": [{"time": t, "pid": rng.choice(ids), "to": rng.randrange(nodes)}
                       for t in round_times for _ in range(2)],
        "traffic": [{"time": rng.choice([0.0, *round_times]), "src": src, "dst": dst,
                     "transport": rng.choice(("relay", "direct", "auto")),
                     "size": rng.choice((64, 4096, 1 << 20)),
                     "count": rng.randint(1, 4), "interval": rng.choice((0.0, 0.0, 0.05))}
                    for src, dst in (rng.sample(ids, 2) for _ in range(150))],
        "gossip": {"bound": 4, "drop_probability": 0.2, "rounds_per_second": rounds_per_second},
    }


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_run_scenario_matches_heap_reference_on_tied_times(seed):
    scenario = bench.Scenario.from_dict(tied_scenario(seed))
    expected = heap_run_scenario(scenario)
    report = bench.run_scenario(scenario)
    assert report.latency_rows == expected.latency_rows
    assert report.metrics.rows() == expected.metrics.rows()
    m = report.metrics
    sends = sum(t.count for t in scenario.traffic)
    assert m.events == expected.metrics.events
    assert m.events == m.gossip_totals["rounds"] + len(scenario.migrations) + sends


def test_metrics_file_size_does_not_grow_with_sends(tmp_path):
    lengths = []
    for count in (10, 1000):
        data = json.loads(json.dumps(VALID_SCENARIO))
        data["traffic"][0]["count"] = count
        report = bench.run_scenario(bench.Scenario.from_dict(data))
        assert len(report.latency_rows) == count + 1
        report.write(tmp_path / str(count))
        lengths.append(len((tmp_path / str(count) / "demo_metrics.csv").read_text().splitlines()))
    assert lengths[0] == lengths[1]


# -- scenario fuzzing -------------------------------------------------------------

FULL_SCENARIO = dict(
    VALID_SCENARIO,
    topology={"kind": "mesh", "nodes": 4},
    processes=[{"id": "p0", "home": 0, "job": "A", "work": 1.5},
               {"id": "p1", "home": 1, "job": "B", "work": 0}],
    gossip={"bound": 32, "drop_probability": 0.1, "rounds_per_second": 20.0},
    pre_converge=False,
    model={"alpha_net": 2e-4, "home_leg_factor": 1.0},
    caps={"relay_max": 4096, "direct_max": 8192},
)

JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 70), st.just(10 ** 400),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=3),
    st.lists(st.integers(-2, 5), max_size=3),
    st.dictionaries(st.sampled_from(["id", "time", "bogus", "relay_max"]),
                    st.integers(-2, 5), max_size=2))


def field_paths(value, prefix=()):
    """The path (keys and list indices) of every value in a JSON-like value,
    the root included."""
    yield prefix
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from field_paths(child, prefix + (key,))


PATHS = list(field_paths(FULL_SCENARIO))


def holds(container, key):
    return (isinstance(container, dict) and key in container) or \
        (isinstance(container, list) and isinstance(key, int) and key < len(container))


@st.composite
def mutated_scenarios(draw):
    """FULL_SCENARIO with one to three fields replaced by junk or deleted."""
    data = json.loads(json.dumps(FULL_SCENARIO))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(PATHS))
        junk = draw(JUNK)
        if not path:
            return junk
        parent = data
        for step in path[:-1]:
            parent = parent[step] if holds(parent, step) else None
        if not holds(parent, path[-1]):
            continue   # an earlier mutation removed or replaced this field
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = junk
    return data


def test_full_scenario_is_valid():
    assert bench.Scenario.from_dict(FULL_SCENARIO).caps.relay_max == 4096


@settings(max_examples=500, deadline=None)
@given(mutated_scenarios())
def test_from_dict_raises_only_invalid_scenario(data):
    # from_dict only: a valid but huge scenario must not be run here
    try:
        bench.Scenario.from_dict(data)
    except InvalidScenarioError:
        pass


FULL_CONFIG = {"version": 1, "model": dict(vars(TEST_MODEL), home_leg_factor=0.5)}


@st.composite
def mutated_configs(draw):
    """The bytes of a `--config` file: FULL_CONFIG with one value replaced
    by junk, deleted or joined by an unknown key, or junk outright."""
    data = json.loads(json.dumps(FULL_CONFIG))
    path = draw(st.sampled_from(list(field_paths(FULL_CONFIG))))
    if not path:
        return draw(st.one_of(JUNK.map(json.dumps).map(str.encode), st.binary(max_size=6)))
    parent = data["model"] if len(path) == 2 else data
    action = draw(st.sampled_from(["junk", "delete", "unknown"]))
    if action == "junk":
        parent[path[-1]] = draw(JUNK)
    elif action == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1] + "_"] = draw(JUNK)
    return json.dumps(data).encode()


def test_full_config_is_valid(tmp_path):
    path = tmp_path / "config.json"
    path.write_bytes(json.dumps(FULL_CONFIG).encode())
    assert load_model(str(path)).home_leg_factor == 0.5


@settings(max_examples=300, deadline=None)
@given(mutated_configs())
def test_load_model_raises_only_invalid_scenario(payload):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "config.json")
        with open(path, "wb") as fh:
            fh.write(payload)
        try:
            load_model(path)
        except InvalidScenarioError:
            pass
