"""One workload process: set up, run timed rounds of CLI calls, check outputs.

Started by run.py; make_reference.py imports it for run_call and the
BLAS pin. BLAS threads are pinned to 1 here, before numpy loads, and
nowhere else: with two BLAS threads on a 2-core machine the scan was
about 1.5x slower and single Schur calls jumped by more than 10x.

A round runs every call of the workload once through `catlab.cli.main`
and is timed; the correctness gate then checks the round's outputs
outside the timed region. Rounds repeat for about --seconds, at least
MIN_ROUNDS times. In trace mode, rounds alternate untraced and
traced, so the tracing overhead is measured inside one run.

Writes a JSON result to the path given by --result.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import catlab  # noqa: E402
from catlab import arith, cli, experiments, quantize, spectral, svg  # noqa: E402

import gate  # noqa: E402
import layers  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, variant_of  # noqa: E402

MIN_ROUNDS = 3
HARD_CAP_S = 110.0  # stop starting rounds here, so the whole run ends in time
CATLAB_MODULES = {
    "arith": arith, "quantize": quantize, "spectral": spectral,
    "experiments": experiments, "svg": svg, "cli": cli,
}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_pin": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "nproc": os.cpu_count(),
    }


def run_call(argv: list[str]) -> str | None:
    """Run one CLI call; return None on success, else what went wrong."""
    try:
        code = cli.main(argv)
    except Exception:  # a traceback out of the CLI is a failed call, not a dead run
        traceback.print_exc()
        return "exception"
    return None if code == 0 else "exit code %d" % code


def check_call(call, paths, reference: dict) -> dict[str, str]:
    """{key: what is wrong} for one finished call's outputs."""
    try:
        computed = call.summarize(paths)
    except (OSError, ValueError, KeyError) as exc:
        return {key: "unreadable output: %s" % exc for key in reference}
    return gate.compare_items(reference, computed)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before it started this process")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--reference")
    parser.add_argument("--spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    argv, _ = workload.warmup.resolve(workdir)
    warm_error = run_call(argv)
    setup_s = time.monotonic() - args.spawned_at
    result = {"setup_s": setup_s, "warmup_error": warm_error}
    if args.setup_only or warm_error:
        Path(args.result).write_text(json.dumps(result))
        return 0

    variant = variant_of(args.seed)
    calls = workload.calls(variant)
    stored = json.loads(Path(args.reference).read_text(encoding="utf-8"))["variants"][variant]
    resolved = [call.resolve(workdir) for call in calls]
    if [list(c.argv) for c in calls] != [entry["argv"] for entry in stored]:
        raise SystemExit("reference file does not match the workload's calls; regenerate it")

    tracer = Tracer() if args.trace else None
    rounds = []
    problems: list[str] = []
    durations: list[float] = []
    start = time.monotonic()
    while True:
        round_start = time.monotonic()
        traced = bool(args.trace) and len(rounds) % 2 == 1
        if traced:
            tracer.install(layers.targets(CATLAB_MODULES), [catlab, *CATLAB_MODULES.values()])
        wall = 0.0
        cpu0 = os.times()
        errors = []
        for argv, _ in resolved:
            t0 = time.perf_counter()
            errors.append(run_call(argv))
            wall += time.perf_counter() - t0
        cpu1 = os.times()
        if traced:
            tracer.uninstall()
        cpu = sum(cpu1[:4]) - sum(cpu0[:4])

        keys: set[str] = set()
        bad: dict[str, str] = {}
        for call, (_, paths), error, entry in zip(calls, resolved, errors, stored):
            keys.update(entry["items"])
            if error is not None:
                bad.update((key, error) for key in entry["items"])
                continue
            found = check_call(call, paths, entry["items"])
            keys.update(found)
            bad.update(found)
            if traced:
                for role, path in paths.items():
                    size = path.stat().st_size
                    tracer.counts["cli.bytes_written"] += size
                    if role == "svg":
                        tracer.counts["svg.bytes_written"] += size
        problems.extend("%s: %s" % pair for pair in sorted(bad.items()))
        items = {workload.item_of(key) for key in keys}
        failed = {workload.item_of(key) for key in bad}
        rounds.append({
            "wall": wall,
            "completed": len(items - failed),
            "attempted": len(items),
            "failed": len(failed),
            "traced": traced,
            "worker_util": cpu / (wall * workload.jobs),
        })
        durations.append(time.monotonic() - round_start)
        # Stop before a round that would end past --seconds, so every run
        # lasts about the same time whatever the round length.
        elapsed = time.monotonic() - start
        expected_end = elapsed + statistics.median(durations)
        if elapsed >= HARD_CAP_S or (expected_end > args.seconds and len(rounds) >= MIN_ROUNDS):
            break

    result.update({
        "variant": variant,
        "rounds": rounds,
        "problems": problems[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(),
    })
    if tracer is not None:
        untraced = [r for r in rounds if not r["traced"]]
        traced = [r for r in rounds if r["traced"]]
        metrics, ranking = layers.per_layer_metrics(
            tracer.spans,
            tracer.counts,
            [r["wall"] for r in traced],
            [r["wall"] for r in untraced],
            [r["worker_util"] for r in untraced],
        )
        result["per_layer"] = metrics
        result["per_layer_units"] = layers.UNITS
        result["ranking"] = ranking[:8]
        result["traced_wall_s"] = statistics.median(r["wall"] for r in traced)
        Path(args.spans).write_text(json.dumps([s.to_dict() for s in tracer.spans]))
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
