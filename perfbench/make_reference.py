"""Regenerate perfbench/reference/<workload>.json from the current sources.

    python3 perfbench/make_reference.py [workload ...]

Runs every call of every seed variant once and stores the output
summaries the correctness gate compares against. Run it only at a commit
whose outputs are known good: the references define correct.
"""

import json
import shutil
import sys
from pathlib import Path

import child  # pins BLAS threads before numpy loads
from workloads import VARIANTS, WORKLOADS

HERE = Path(__file__).resolve().parent


def _rounded(value):
    """Floats to 12 significant digits, far below the gate's tolerances."""
    if isinstance(value, float):
        return float("%.12g" % value)
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    return value


def main(names: list[str]) -> int:
    workdir = HERE.parent / ".perfbench_run" / "reference-work"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name in names or sorted(WORKLOADS):
            variants = []
            for variant in range(VARIANTS):
                entries = []
                for call in WORKLOADS[name].calls(variant):
                    argv, paths = call.resolve(workdir)
                    error = child.run_call(argv)
                    if error:
                        raise SystemExit("%s failed: %s" % (" ".join(argv), error))
                    entries.append({"argv": list(call.argv), "items": call.summarize(paths)})
                variants.append(entries)
            out = HERE / "reference" / (name + ".json")
            out.parent.mkdir(exist_ok=True)
            text = json.dumps(_rounded({"variants": variants}), separators=(",", ":"))
            out.write_text(text + "\n", encoding="utf-8")
            print("wrote %s" % out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
