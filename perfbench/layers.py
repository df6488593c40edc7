"""Which library functions the traced run wraps, and the per-layer metrics.

Layers are catlab's modules. Counters are exact: computed from each
call's inputs and returned values, never timed, so they repeat exactly
from run to run. Per-layer values are per round (totals over the traced
rounds divided by their number), comparable with the round's wall_s.

busy_s of a function is the CPU time of the thread that ran it, from
entry to exit, same-thread children included. self_s of a layer sums
the self CPU time of its spans (see spans.self_times).
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict

import numpy as np

from spans import Span, self_times
from workloads import MATRIX_HEADER

UNITS = {
    "arith.quantum_period.busy_s": "s",
    "arith.quantum_period.calls": "count",
    "arith.order_steps": "count",
    "arith.self_s": "s",
    "quantize.build_propagator.busy_s": "s",
    "quantize.build_propagator.calls": "count",
    "quantize.kernel_terms": "count",
    "quantize.write_matrix_binary.busy_s": "s",
    "quantize.bytes_written": "bytes",
    "quantize.self_s": "s",
    "spectral.eigendecompose.busy_s": "s",
    "spectral.eigendecompose.calls": "count",
    "spectral.eigendecompose.n3": "count",
    "spectral.cluster_eigenvalues.busy_s": "s",
    "spectral.snap_ratio": "1",
    "spectral.clusters": "count",
    "spectral.supnorm_summary.busy_s": "s",
    "spectral.report_to_dict.busy_s": "s",
    "spectral.self_s": "s",
    "experiments.self_s": "s",
    "experiments.gemm_count": "count",
    "experiments.worker_util": "1",
    "experiments.error_rows": "count",
    "svg.render.busy_s": "s",
    "svg.bytes_written": "bytes",
    "svg.self_s": "s",
    "cli.main.busy_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

LAYERS = ("arith", "quantize", "spectral", "experiments", "svg", "cli")


def _order_steps(counts, args, kwargs, record):
    counts["arith.order_steps"] += record.T_N


def _kernel_terms(counts, args, kwargs, prop):
    counts["quantize.kernel_terms"] += prop.N * prop.N * abs(prop.A.b)


def _binary_bytes(counts, args, kwargs, result):
    counts["quantize.bytes_written"] += MATRIX_HEADER.size + 16 * np.asarray(args[0]).size


def _eigen_n3(counts, args, kwargs, report):
    counts["spectral.eigendecompose.n3"] += report.N ** 3


def _clustering(counts, args, kwargs, report):
    counts["spectral.clustered"] += 1
    counts["spectral.snapped"] += report.global_phase is not None
    counts["spectral.clusters"] += len(report.clusters)


def _scan_rows(counts, args, kwargs, records):
    counts["experiments.error_rows"] += sum(r.error is not None for r in records)


def _dispersive_rows(counts, args, kwargs, records):
    """Per N with J rows dispersive_scan ran J drift checks and J-1 products."""
    rows_per_n = Counter(r.N for r in records)
    counts["experiments.gemm_count"] += sum(2 * j - 1 for j in rows_per_n.values())
    counts["experiments.error_rows"] += sum(r.error is not None for r in records)


def targets(catlab_modules: dict):
    """(module, attribute, span name, counter) for every wrapped function."""
    arith, quantize, spectral = (catlab_modules[k] for k in ("arith", "quantize", "spectral"))
    experiments, svg, cli = (catlab_modules[k] for k in ("experiments", "svg", "cli"))
    return [
        (arith, "quantum_period", "arith.quantum_period", _order_steps),
        (quantize, "build_propagator", "quantize.build_propagator", _kernel_terms),
        (quantize, "write_matrix_binary", "quantize.write_matrix_binary", _binary_bytes),
        (spectral, "eigendecompose", "spectral.eigendecompose", _eigen_n3),
        (spectral, "cluster_eigenvalues", "spectral.cluster_eigenvalues", _clustering),
        (spectral, "supnorm_summary", "spectral.supnorm_summary", None),
        (spectral, "report_to_dict", "spectral.report_to_dict", None),
        (experiments, "scan_supnorms", "experiments.scan_supnorms", _scan_rows),
        (experiments, "eigenfunction_profile", "experiments.eigenfunction_profile", None),
        (experiments, "dispersive_scan", "experiments.dispersive_scan", _dispersive_rows),
        (experiments, "write_scan_csv", "experiments.write_scan_csv", None),
        (experiments, "write_profile_csv", "experiments.write_profile_csv", None),
        (experiments, "write_dispersive_csv", "experiments.write_dispersive_csv", None),
        (svg, "render_scan_svg", "svg.render", None),
        (svg, "render_profile_svg", "svg.render", None),
        (svg, "render_dispersive_svg", "svg.render", None),
        (cli, "main", "cli.main", None),
    ]


def per_layer_metrics(
    spans: list[Span],
    counts: Counter,
    traced_walls: list[float],
    untraced_walls: list[float],
    worker_utils: list[float],
) -> tuple[dict[str, float], list[tuple[str, float, float]]]:
    """Per-round per-layer metrics, and span names ranked by self CPU.

    Ranking rows are (name, self CPU, self wall) per round; where self wall
    exceeds self CPU the thread was waiting, e.g. for the interpreter lock.
    """
    rounds = len(traced_walls)
    own = self_times(spans)
    busy: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    self_by_name: dict[str, float] = defaultdict(float)
    self_wall_by_name: dict[str, float] = defaultdict(float)
    for span in spans:
        busy[span.name] += span.cpu
        calls[span.name] += 1
        self_by_name[span.name] += own[span.id].cpu
        self_wall_by_name[span.name] += own[span.id].wall
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, value in self_by_name.items():
        layer_self[name.split(".", 1)[0]] += value

    m = {}
    for name in (
        "arith.quantum_period", "quantize.build_propagator", "quantize.write_matrix_binary",
        "spectral.eigendecompose", "spectral.cluster_eigenvalues", "spectral.supnorm_summary",
        "spectral.report_to_dict", "svg.render", "cli.main",
    ):
        m[name + ".busy_s"] = busy[name] / rounds
    for name in ("arith.quantum_period", "quantize.build_propagator", "spectral.eigendecompose"):
        m[name + ".calls"] = calls[name] / rounds
    for layer in LAYERS:
        m[layer + ".self_s"] = layer_self[layer] / rounds
    for name in (
        "arith.order_steps", "quantize.kernel_terms", "quantize.bytes_written",
        "spectral.eigendecompose.n3", "spectral.clusters", "experiments.gemm_count",
        "experiments.error_rows", "svg.bytes_written", "cli.bytes_written",
    ):
        m[name] = counts[name] / rounds
    clustered = counts["spectral.clustered"]
    m["spectral.snap_ratio"] = counts["spectral.snapped"] / clustered if clustered else 0.0
    m["experiments.worker_util"] = statistics.median(worker_utils)
    m["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced_walls)
    m["trace.spans"] = len(spans) / rounds
    assert set(m) == set(UNITS), sorted(set(m) ^ set(UNITS))
    ranking = sorted(
        ((n, v / rounds, self_wall_by_name[n] / rounds) for n, v in self_by_name.items()),
        key=lambda row: -row[1],
    )
    return m, ranking
