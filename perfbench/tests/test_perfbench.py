"""Tests of the benchmark's own machinery: the gate, the spans, the metric list."""

import json
import math
import sys
import types
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import gate  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, summarize_scan  # noqa: E402

SCAN_COLUMNS = (
    "N", "n_N", "max_supnorm", "lower_env", "upper_env", "trivial_lb",
    "is_bdb", "witness_index", "cluster_dim",
)


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value)


def _write_scan(tmp_path, items, witness=0):
    rows = [",".join(SCAN_COLUMNS)]
    for fields in items.values():
        row = dict(fields, witness_index=witness)
        rows.append(",".join(_cell(row[c]) for c in SCAN_COLUMNS))
    (tmp_path / "scan.csv").write_text("\n".join(rows) + "\n")
    (tmp_path / "scan.svg").write_text('<svg xmlns="http://www.w3.org/2000/svg">\n</svg>\n')
    return summarize_scan({"out": tmp_path / "scan.csv", "svg": tmp_path / "scan.svg"})


@pytest.fixture(scope="module")
def scan_reference():
    stored = json.loads((HERE.parent / "reference" / "scan-long.json").read_text())
    return stored["variants"][0][0]["items"]


def test_gate_accepts_reference_rows(tmp_path, scan_reference):
    computed = _write_scan(tmp_path, scan_reference, witness=7)
    assert gate.compare_items(scan_reference, computed) == {}


@pytest.mark.parametrize(
    "field, change",
    [
        ("max_supnorm", lambda v: v * (1 + 1e-6)),
        ("n_N", lambda v: v + 1),
        ("cluster_dim", lambda v: v + 1),
        ("is_bdb", lambda v: not v),
    ],
)
def test_gate_rejects_perturbed_record(tmp_path, scan_reference, field, change):
    items = {k: dict(v) for k, v in scan_reference.items()}
    key = "N=101"
    items[key][field] = change(items[key][field])
    problems = gate.compare_items(scan_reference, _write_scan(tmp_path, items))
    assert problems == {key: "%s differ" % field}


def test_gate_tolerates_last_digit_noise_and_flags_missing_rows(tmp_path, scan_reference):
    items = {k: dict(v) for k, v in scan_reference.items()}
    items["N=101"]["max_supnorm"] *= 1 + 1e-13
    del items["N=103"]
    assert gate.compare_items(scan_reference, _write_scan(tmp_path, items)) == {"N=103": "missing"}


def test_phases_match_across_the_cut():
    two_pi = 2 * math.pi
    ref = [1e-12, 1.0, 2.0]
    assert gate.field_matches("phases", ref, [1.0, 2.0, two_pi - 1e-12])
    assert not gate.field_matches("phases", ref, [1.0, 2.0 + 1e-6, two_pi - 1e-12])
    assert not gate.field_matches("phases", ref, [1.0, 2.0])


def test_clusters_pair_by_phase():
    ref = [[0.0, 2, 0.5], [3.0, 1, 0.25]]
    assert gate.field_matches("clusters", ref, [[3.0, 1, 0.25], [2 * math.pi - 1e-12, 2, 0.5]])
    assert not gate.field_matches("clusters", ref, [[0.0, 1, 0.5], [3.0, 2, 0.25]])
    assert not gate.field_matches("clusters", ref, [[0.0, 2, 0.5], [3.0, 1, 0.26]])


def test_self_times_on_hand_built_tree():
    # root (thread 1) has child a (thread 1) and child b (thread 2), which
    # overlap in time; a has child a1 (thread 1).
    spans = [
        Span(0, "root", None, 1, 0.0, 10.0, cpu=9.0),
        Span(1, "a", 0, 1, 1.0, 4.0, cpu=3.0),
        Span(2, "b", 0, 2, 3.0, 6.0, cpu=2.5),
        Span(3, "a1", 1, 1, 2.0, 3.0, cpu=1.0),
    ]
    own = self_times(spans)
    assert own[0].wall == pytest.approx(10.0 - 5.0)  # children cover [1, 6]
    assert own[0].cpu == pytest.approx(9.0 - 3.0)  # b burnt thread 2's CPU
    assert own[1].wall == pytest.approx(2.0)
    assert own[1].cpu == pytest.approx(2.0)
    assert own[2].wall == pytest.approx(3.0) and own[2].cpu == pytest.approx(2.5)
    assert own[3].wall == pytest.approx(1.0) and own[3].cpu == pytest.approx(1.0)


def test_tracer_patches_every_binding_and_parents_pool_work():
    lib = types.ModuleType("lib")
    lib.leaf = lambda n: n * n
    user = types.ModuleType("user")
    user.leaf = lib.leaf  # imported by name

    def sweep(values):
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(user.leaf, values))

    user.sweep = sweep

    def count(counts, args, kwargs, result):
        counts["squares"] += result

    tracer = Tracer()
    tracer.install([(lib, "leaf", "lib.leaf", count), (user, "sweep", "user.sweep", None)], [lib, user])
    assert user.sweep([1, 2, 3]) == [1, 4, 9]
    assert lib.leaf(4) == 16
    tracer.uninstall()
    assert user.leaf is lib.leaf and not hasattr(user.leaf, "__wrapped__")

    by_name = Counter(s.name for s in tracer.spans)
    assert by_name == {"lib.leaf": 4, "user.sweep": 1}
    (root,) = [s for s in tracer.spans if s.name == "user.sweep"]
    pooled = [s for s in tracer.spans if s.name == "lib.leaf" and s.start < root.end and s.end > root.start]
    assert len(pooled) == 3 and all(s.parent == root.id for s in pooled)
    assert tracer.counts["squares"] == 1 + 4 + 9 + 16


def test_benchmark_json_names_the_metrics_the_code_reports():
    spec = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS


def test_short_period_items_are_map_and_n_values():
    stored = json.loads((HERE.parent / "reference" / "short-period.json").read_text())
    keys = [key for entry in stored["variants"][0] for key in entry["items"]]
    items = {WORKLOADS["short-period"].item_of(key) for key in keys}
    assert len(keys) == 9  # five profiles, four spectra
    assert items == {"2,3,1,2:N=71", "2,3,1,2:N=265", "2,3,1,2:N=989", "4,3,5,4:N=71", "4,3,5,4:N=559"}
