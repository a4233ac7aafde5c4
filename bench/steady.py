"""Run-to-run steadiness of the end-to-end metrics.

    python3 bench/steady.py [--workload NAME ...] [--runs 10] [--first-seed 1]

Runs ``bench/run.py`` untraced ``--runs`` times per workload, one run after
the other, each with its own seed and the run length of ``BENCHMARK.json``.
For every end-to-end metric it prints the median, the quartiles and the
spread (distance between the quartiles of ``statistics.quantiles(values,
n=4)`` as a share of the median) next to the metric's bound, and it checks
that the share of failed operations is exactly the same in every run; it
also prints how long each run took.  The spread of ``setup_s`` is shown but
is not held to its bound.  Exit code 1 if a spread exceeds its bound or the
failed shares differ; the figures are also written to
``bench/out/steady-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    start = time.perf_counter()
    child = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    if child.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {child.returncode}:\n{child.stderr}")
    result = json.loads(child.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - start
    return result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="*", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    steady = True
    for workload in args.workload:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            results.append(run_once(workload, seed, spec["run_seconds"]))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{m} {v['value']:.6g}" for m, v in results[-1]["metrics"].items())
                + f" ({results[-1]['wall_s']:.1f} s)", flush=True)
        shares = {Fraction(r["failed"], r["attempted"]) for r in results}
        summary = {"workload": workload, "runs": args.runs, "failed_shares": sorted(map(str, shares)),
                   "wall_s": [r["wall_s"] for r in results],
                   "correct": all(r["correct"] for r in results), "metrics": {}}
        steady &= len(shares) == 1 and summary["correct"]
        print(f"{workload}: failed share {', '.join(map(str, sorted(shares)))}"
              f"{'' if len(shares) == 1 else '  DIFFERS'}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            held = name != "setup_s"
            ok = not held or spread <= metric["bound"]
            steady &= ok
            summary["metrics"][name] = {"values": values, "q1": q1, "median": median, "q3": q3,
                                        "spread": spread, "bound": metric["bound"]}
            print(f"  {name:<12} median {median:.6g} {metric['unit']}, quartiles {q1:.6g}..{q3:.6g},"
                  f" spread {spread:.4f} (bound {metric['bound']}, a third {metric['bound'] / 3:.4f})"
                  f"{'' if ok else '  OVER BOUND'}{'' if held else '  (not held to the bound)'}")
        (HERE / "out").mkdir(exist_ok=True)
        (HERE / "out" / f"steady-{workload}.json").write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
