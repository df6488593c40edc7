"""The benchmark's workloads: CLI calls per seed variant, and output summaries.

Every workload is a fixed list of `catlab` command lines (one round).
The seed picks one of VARIANTS input variants; all variants of a
workload keep the N values and |b| (so the cost and the dominant layer
stay put) and change the map: inverse and conjugate maps of the same
trace, or other maps with the same |b| for the export.

A summary turns a call's output files into {key: {field: value}},
the form the reference files store and gate.compare_items checks. It
parses the files itself rather than through catlab's readers, and it
leaves out `witness_index`, which may legitimately pick another of
several tied coordinates after an eigensolver change.

A workload's items, which items_per_s counts, are N values for scans and
spectra, (N, j) rows for dispersive and matrices for the export. Most
summary keys are items already; short-period has a profile key and a
spectrum key per (map, N), and that N value counts once, when all of
its keys pass the gate.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from gate import TWO_PI

VARIANTS = 4

Map = tuple[int, int, int, int]

# Trace-4 maps with |b| = 3: (2,3,1,2), its inverse, and two conjugates.
TRACE4_B3: tuple[Map, ...] = ((2, 3, 1, 2), (2, -3, -1, 2), (8, 3, -11, -4), (-4, 3, -11, 8))
# Trace-8 maps with |b| = 3, paired with TRACE4_B3 by variant.
TRACE8_B3: tuple[Map, ...] = ((4, 3, 5, 4), (4, -3, -5, 4), (10, 3, -7, -2), (-2, 3, -7, 10))
# Quantizable maps with |b| = 45, so the kernel r-sum costs the same.
B45: tuple[Map, ...] = ((26, 45, 15, 26), (26, -45, -15, 26), (2, 45, 3, 68), (4, 45, 3, 34))

SCAN_RANGE = (3, 201)
SCAN_JOBS = 2
# Short-period moduli: N_k of the trace-4 maps (quantum periods 7, 9, 11
# at 71, 265, 989) and of the trace-8 maps (periods 5, 7 at 71, 559).
SHORT_PERIOD_N = ((71, 265, 989), (71, 559))
# N=989 gets the profile only: one call there already pays the M^11 power
# of snap clustering, and a second would double the round length.
PROFILE_ONLY_N = (989,)
DISPERSIVE_N = (101, 243, 401, 501)
DISPERSIVE_JMAX = 40
EXPORT_N = (201, 401, 801)


@dataclass(frozen=True)
class Call:
    """One `catlab` invocation; `{name}` tokens in argv name output files."""

    argv: tuple[str, ...]
    outputs: dict[str, str]
    summarize: Callable[[dict[str, Path]], dict] | None = None

    def resolve(self, workdir: Path) -> tuple[list[str], dict[str, Path]]:
        paths = {role: workdir / filename for role, filename in self.outputs.items()}
        argv = [token.format(**{r: str(p) for r, p in paths.items()}) for token in self.argv]
        return argv, paths


def _key_is_item(key: str) -> str:
    return key


def _map_and_n(key: str) -> str:
    """'profile:2,3,1,2:N=71' and 'spectrum:2,3,1,2:N=71' are one item."""
    return key.split(":", 1)[1]


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: int
    calls: Callable[[int], list[Call]]
    warmup: Call
    item_of: Callable[[str], str] = _key_is_item


def _map_args(m: Map) -> tuple[str, ...]:
    a, b, c, d = m
    return ("-a", str(a), "-b", str(b), "-c", str(c), "-d", str(d))


def _svg_ok(path: Path) -> bool:
    text = path.read_text(encoding="utf-8")
    return text.startswith("<svg") and text.rstrip().endswith("</svg>")


def _opt_int(cell: str) -> int | None:
    return None if cell == "" else int(cell)


def _opt_float(cell: str) -> float | None:
    return None if cell == "" else float(cell)


def summarize_scan(paths: dict[str, Path]) -> dict:
    svg_ok = _svg_ok(paths["svg"])
    items = {}
    with open(paths["out"], newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            items["N=%s" % row["N"]] = {
                "N": int(row["N"]),
                "n_N": _opt_int(row["n_N"]),
                "max_supnorm": _opt_float(row["max_supnorm"]),
                "lower_env": float(row["lower_env"]),
                "upper_env": float(row["upper_env"]),
                "trivial_lb": float(row["trivial_lb"]),
                "is_bdb": row["is_bdb"] == "true",
                "cluster_dim": _opt_int(row["cluster_dim"]),
                "error": row["max_supnorm"] == "",
                "svg_ok": svg_ok,
            }
    return items


def summarize_profile(key: str):
    def summarize(paths: dict[str, Path]) -> dict:
        with open(paths["out"], newline="", encoding="utf-8") as fh:
            values = [float(row["abs_u_i"]) for row in csv.DictReader(fh)]
        return {
            key: {
                "coords": len(values),
                "sorted": sorted(values),
                "svg_ok": _svg_ok(paths["svg"]),
            }
        }

    return summarize


def summarize_spectrum(key: str):
    def summarize(paths: dict[str, Path]) -> dict:
        payload = json.loads(paths["out"].read_text(encoding="utf-8"))
        values = np.array([complex(re, im) for re, im in payload["eigenvalues"]])
        n = payload["N"]
        return {
            key: {
                "N": n,
                "phases": sorted(np.mod(np.angle(values), TWO_PI).tolist()),
                "clusters": sorted([c["phase"], c["dim"], c["supnorm"]] for c in payload["clusters"]),
                "global_phase": payload["global_phase"],
                "unit_moduli": bool(np.all(np.abs(np.abs(values) - 1.0) <= 1e-8)),
                "residual_ok": payload["residual_max"] <= 1e-8 * math.sqrt(n),
            }
        }

    return summarize


def summarize_dispersive(paths: dict[str, Path]) -> dict:
    svg_ok = _svg_ok(paths["svg"])
    items = {}
    with open(paths["out"], newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            items["N=%s,j=%s" % (row["N"], row["j"])] = {
                "N": int(row["N"]),
                "j": int(row["j"]),
                "norm_1_inf": _opt_float(row["norm_1_inf"]),
                "bound": _opt_float(row["bound"]),
                "svg_ok": svg_ok,
            }
    return items


MATRIX_HEADER = struct.Struct("<4sII4x")
SAMPLES_PER_MATRIX = 64


def summarize_matrix(key: str, n: int):
    def summarize(paths: dict[str, Path]) -> dict:
        path = paths["out"]
        with open(path, "rb") as fh:
            magic, size, reserved = MATRIX_HEADER.unpack(fh.read(MATRIX_HEADER.size))
        data = np.fromfile(path, dtype="<f8", offset=MATRIX_HEADER.size)
        matrix = data.reshape(n, n, 2)
        row_norms = np.einsum("ijk,ijk->i", matrix, matrix)
        rng = np.random.default_rng(n)
        rows = rng.integers(0, n, SAMPLES_PER_MATRIX)
        cols = rng.integers(0, n, SAMPLES_PER_MATRIX)
        samples = [
            [int(i), int(j), float(matrix[i, j, 0]), float(matrix[i, j, 1])]
            for i, j in zip(rows, cols)
        ]
        return {
            key: {
                "header": [magic.decode("latin-1"), size, reserved],
                "bytes": path.stat().st_size,
                "rows_unit": bool(np.all(np.abs(row_norms - 1.0) <= 1e-9)),
                "samples": samples,
            }
        }

    return summarize


def _scan_calls(variant: int) -> list[Call]:
    lo, hi = SCAN_RANGE
    argv = ("scan",) + _map_args(TRACE4_B3[variant]) + (
        "--n-min", str(lo), "--n-max", str(hi), "--jobs", str(SCAN_JOBS),
        "--out", "{out}", "--svg", "{svg}",
    )
    return [Call(argv, {"out": "scan.csv", "svg": "scan.svg"}, summarize_scan)]


def _short_period_calls(variant: int) -> list[Call]:
    calls = []
    for m, moduli in zip((TRACE4_B3[variant], TRACE8_B3[variant]), SHORT_PERIOD_N):
        tag = "%d,%d,%d,%d" % m
        for n in moduli:
            args = _map_args(m) + ("--n", str(n))
            stem = "%s_%d" % (tag.replace(",", "_").replace("-", "m"), n)
            calls.append(Call(
                ("profile",) + args + ("--out", "{out}", "--svg", "{svg}"),
                {"out": "profile_%s.csv" % stem, "svg": "profile_%s.svg" % stem},
                summarize_profile("profile:%s:N=%d" % (tag, n)),
            ))
            if n in PROFILE_ONLY_N:
                continue
            calls.append(Call(
                ("spectrum",) + args + ("--format", "json", "--out", "{out}"),
                {"out": "spectrum_%s.json" % stem},
                summarize_spectrum("spectrum:%s:N=%d" % (tag, n)),
            ))
    return calls


def _dispersive_calls(variant: int) -> list[Call]:
    return [
        Call(
            ("dispersive",) + _map_args(TRACE4_B3[variant]) + (
                "--n", str(n), "--jmax", str(DISPERSIVE_JMAX), "--out", "{out}", "--svg", "{svg}",
            ),
            {"out": "dispersive_%d.csv" % n, "svg": "dispersive_%d.svg" % n},
            summarize_dispersive,
        )
        for n in DISPERSIVE_N
    ]


def _export_calls(variant: int) -> list[Call]:
    return [
        Call(
            ("propagator",) + _map_args(B45[variant]) + (
                "--n", str(n), "--format", "binary", "--out", "{out}",
            ),
            {"out": "propagator_%d.bin" % n},
            summarize_matrix("N=%d" % n, n),
        )
        for n in EXPORT_N
    ]


def _warmup(*argv: str) -> Call:
    """A tiny call that pays imports and BLAS/LAPACK lazy set-up."""
    outputs = {"out": "warmup.out", "svg": "warmup.svg"}
    return Call(argv, {r: f for r, f in outputs.items() if "{%s}" % r in argv})


WORKLOADS = {
    w.name: w
    for w in (
        Workload("scan-long", SCAN_JOBS, _scan_calls,
                 _warmup("scan", "--n-min", "3", "--n-max", "9", "--out", "{out}", "--svg", "{svg}")),
        Workload("short-period", 1, _short_period_calls,
                 _warmup("profile", "--n", "9", "--out", "{out}", "--svg", "{svg}"),
                 _map_and_n),
        Workload("dispersive", 1, _dispersive_calls,
                 _warmup("dispersive", "--n", "9", "--jmax", "3", "--out", "{out}", "--svg", "{svg}")),
        Workload("propagator-export", 1, _export_calls,
                 _warmup("propagator", "--n", "9", "--format", "binary", "--out", "{out}")),
    )
}


def variant_of(seed: int) -> int:
    return seed % VARIANTS
