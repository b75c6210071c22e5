"""Run the evograph benchmark.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N      # every workload in turn
    python3 perfbench/run.py --workload citations --seed N --describe

Each workload runs in a fresh interpreter (``bench.py``) with
``PYTHONHASHSEED`` set from the seed, because citation keys are strings and
string hashing would otherwise vary from run to run.  The child's output is
passed through; its last line is the result object.  With ``--workload
all`` a last line merges the results, naming each metric
``<workload>/<metric>``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("edge-growth", "stamp-growth", "citations", "engines")
CHILD_TIMEOUT_S = 170


def run_child(workload: str, args) -> tuple[int, str]:
    """Run one workload in a fresh interpreter; its exit code and output."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(args.seed % 2**32)
    env.pop("EVOGRAPH_VERIFY_THREADS", None)
    cmd = [sys.executable, str(HERE / "bench.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.describe:
        cmd.append("--describe")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"# {workload}: no result within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1, ""
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode, proc.stdout


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="evograph benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--describe", action="store_true",
                    help="write the inputs to .perfbench/inputs/ and print their make-up")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "evograph" / "__init__.py").is_file():
        print(f"error: no evograph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        code, out = run_child(name, args)
        if code != 0:
            return code
        if not args.describe:
            results[name] = json.loads(out.strip().splitlines()[-1])
    if len(names) > 1 and not args.describe:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{m}": v for w, r in results.items()
                        for m, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
