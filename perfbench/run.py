"""catlab benchmark entry point.

    python3 perfbench/run.py --workload scan-long --seed 0 --seconds 30 --trace 0

Runs one workload (see workloads.py and BENCHMARK.json) from the root of
a catlab checkout. The workload runs in a fresh child process
(child.py) with BLAS pinned to one thread; a few extra child processes
only set up, so set-up time is a median. The child's outputs are
checked against the references in perfbench/reference/.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics. With --trace 0 the metrics are the end-to-end ones,
with --trace 1 the per-layer ones from a traced run (spans are written
to .perfbench_run/). Lines before it name every metric with its unit,
the seed, the environment and, in a traced run, the self-time ranking.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = ROOT / ".perfbench_run"
DEFAULT_SEED = 0
SETUP_PROBES = 4  # set-up-only processes, besides the workload process itself
BUDGET_S = 170.0  # the whole run, probes included, must end within 180 s
END_TO_END_UNITS = {"wall_s": "s", "items_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def run_child(args: argparse.Namespace, workdir: Path, result: Path, deadline: float,
              setup_only: bool) -> dict:
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir), "--result", str(result),
        "--reference", str(HERE / "reference" / (args.workload + ".json")),
        "--spans", str(RUN_DIR / ("spans-%s-seed%d.json" % (args.workload, args.seed))),
    ]
    if setup_only:
        command.append("--setup-only")
    spawned_at = time.monotonic()
    proc = subprocess.Popen(
        command + ["--spawned-at", repr(spawned_at)],
        stdout=sys.stderr, cwd=ROOT,
    )
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit("workload process overran the time budget")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise SystemExit("workload process exited with code %d" % code)
    data = json.loads(result.read_text(encoding="utf-8"))
    if data["warmup_error"]:
        raise SystemExit("warm-up call failed: %s" % data["warmup_error"])
    return data


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "catlab" / "cli.py").is_file():
        print("run.py: no catlab sources under %s; run from a catlab checkout" % ROOT,
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    workdir = RUN_DIR / ("work-%d" % os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)

    # Half the set-up probes run before the workload and half after, so
    # their median spans the run rather than one moment of the machine.
    def probe() -> float:
        return run_child(args, workdir, workdir / "setup.json", deadline, True)["setup_s"]

    try:
        setups = [probe() for _ in range(SETUP_PROBES // 2)]
        data = run_child(args, workdir, workdir / "result.json", deadline, False)
        setups += [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.insert(0, data["setup_s"])

    rounds = data["rounds"]
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    print("workload %s, seed %d (default %d), variant %d, %d rounds (%d traced)"
          % (args.workload, args.seed, DEFAULT_SEED, data["variant"], len(rounds),
             sum(r["traced"] for r in rounds)))
    print("environment: %s" % json.dumps(data["environment"], sort_keys=True))
    print("round walls (s): %s" % ", ".join("%.4f" % r["wall"] for r in rounds))
    print("setup_s of the workload process, then of the probes (s): %s"
          % ", ".join("%.4f" % s for s in setups))
    print("failed_ratio = %s (1): %d of %d items" % (failed / attempted, failed, attempted))
    for problem in data["problems"]:
        print("mismatch: %s" % problem)

    if args.trace:
        units = data["per_layer_units"]
        values = data["per_layer"]
        print("traced round wall_s (median) = %.4f s" % data["traced_wall_s"])
        for name, self_cpu, self_wall in data["ranking"]:
            print("self CPU %-36s %.4f s/round (%.1f%% of traced wall), self wall %.4f s"
                  % (name, self_cpu, 100.0 * self_cpu / data["traced_wall_s"], self_wall))
    else:
        units = END_TO_END_UNITS
        untraced = [r for r in rounds if not r["traced"]]
        values = {
            "wall_s": statistics.median(r["wall"] for r in untraced),
            "items_per_s": statistics.median(r["completed"] / r["wall"] for r in untraced),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": data["peak_rss_mb"],
        }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, metric in metrics.items():
        print("%s = %r %s" % (name, metric["value"], metric["unit"]))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
