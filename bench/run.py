"""Benchmark of the tandemreco package, driven through its public API.

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout: the package is imported from ``src/``
next to this directory, never from an installed copy.  One process, one
thread.  ``--workload all`` runs every workload in a child process of its
own, one after the other, so that memory is measured per workload.

A run sets up its workload at least three times and until one second of
set-up has accumulated (importing the package afresh each time, then
preparing inputs), and reports the median set-up time.  It then
repeats whole rounds of the workload's operations until ``--seconds`` have
passed, checks the outputs, and prints a report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``setup_s``,
``round_s``, ``peak_rss_mb``).  With ``--trace 1`` the run first times one
untraced round, then installs the tracer of ``spans.py``, sets up once more
and runs traced rounds; the metrics are the per-layer ones, for one set-up
plus one average round, and the spans are written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import workloads
from spans import TRACED, Tracer
from speed import SlotTimes, SpeedSampler, quietest_half

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
# set up at least MIN_SETUPS times and until SETUP_SECONDS have been spent
MIN_SETUPS, SETUP_SECONDS, MAX_SETUPS = 3, 1.0, 30

END_TO_END = [("setup_s", "s"), ("round_s", "s"), ("peak_rss_mb", "MB")]

_UNITS = {"self_s": "s", "s": "s", "distinct_ratio": "ratio"}


def _per_layer() -> list[tuple[str, str]]:
    out = []
    for _module, _path, prefix, _kind, _opts, stats in TRACED:
        out += [(f"{prefix}.{stat}", _UNITS.get(stat, "count")) for stat in stats]
    for suite in workloads.ORACLE_SUITES:
        out += [(f"oracles.{suite}.s", "s"), (f"oracles.{suite}.checks", "count")]
    out.append(("bench.trace_overhead", "ratio"))
    return out


PER_LAYER = _per_layer()


def import_package() -> SimpleNamespace:
    """Import tandemreco afresh from the checkout's sources."""
    for name in [m for m in sys.modules if m == "tandemreco" or m.startswith("tandemreco.")]:
        del sys.modules[name]
    pkg = importlib.import_module("tandemreco")
    api = SimpleNamespace(
        package=pkg,
        **{
            name: importlib.import_module(f"tandemreco.{name}")
            for name in ("capacity", "duplication", "metric", "simplex", "utr", "oracles", "cli")
        },
    )
    if SRC not in Path(pkg.__file__).resolve().parents:
        raise ImportError(f"tandemreco imported from {pkg.__file__}, not from {SRC}")
    return api


def run_rounds(wl, state, seconds: float, sampler, tracer=None, slots=None) -> list:
    """Whole rounds until `seconds` have passed; at least one."""
    slots = SlotTimes() if slots is None else slots
    recs = []
    start = time.perf_counter()
    while not recs or time.perf_counter() - start < seconds:
        rec = workloads.Recorder(tracer)
        if tracer:
            tracer.begin_phase(f"round {len(recs)}")
        wl.round(state, rec)
        if tracer:
            tracer.end_phase()
        rec.settle(sampler, slots)
        recs.append(rec)
    return recs


def set_up(wl, seed: int, sampler) -> tuple[object, float, float, float]:
    """Import the package afresh and prepare the workload.

    Returns the state, the wall time, the time in reference seconds and the
    mean speed-loop time.
    """
    start = time.perf_counter()
    state = wl.prepare(import_package(), seed)
    end = time.perf_counter()
    return state, end - start, sampler.scaled(start, end), sampler.loop_time(start, end)


def _kind_report(recs) -> list[str]:
    """Per-operation figures for the report (not part of the JSON metrics)."""
    lines = []
    kinds = {kind for rec in recs for kind in rec.times}
    for kind in sorted(kinds):
        per_round = [sum(rec.times.get(kind, [])) for rec in recs]
        lines.append(f"  {kind + '_s':<24} {statistics.median(per_round):.6f} s per round (median)")
    decode = sorted(t for rec in recs for t in rec.times.get("decode", []))
    if decode:
        n = len(decode)
        lines.append(f"  decode_per_s             {n / sum(decode):.1f} 1/s over {n} decodes")
        lines.append(f"  decode_p50_us            {1e6 * decode[n // 2]:.1f} us")
        lines.append(f"  decode_p99_us            {1e6 * decode[min(n - 1, (99 * n) // 100)]:.1f} us")
    checks = sum(v for rec in recs for k, v in rec.counts.items() if k.endswith(".checks"))
    if checks:
        busy = sum(rec.busy for rec in recs)
        lines.append(f"  oracle_checks_per_s      {checks / busy:.1f} 1/s over {checks} checks")
    return lines


def _verdict(recs, final) -> tuple[bool, int, int, list[str]]:
    errors = [e for rec in [*recs, final] for e in rec.errors]
    attempted = sum(rec.attempted for rec in recs)
    failed = sum(rec.failed for rec in recs)
    failures: dict[str, int] = {}
    for rec in recs:
        for reason, count in rec.failures.items():
            failures[reason] = failures.get(reason, 0) + count
    notes = [f"  failed {count}x  {reason}" for reason, count in sorted(failures.items())]
    notes += [f"  WRONG  {e}" for e in errors[:10]]
    return not errors, attempted, failed, notes


def run_plain(name: str, seed: int, seconds: float, workdir: Path, sampler) -> dict:
    wl = workloads.make(name, workdir)
    setups, setup_walls, setup_loops = [], [], []
    while len(setups) < MIN_SETUPS or (
        sum(setup_walls) < SETUP_SECONDS and len(setups) < MAX_SETUPS
    ):
        state = None
        gc.collect()  # the previous set-up's modules, so memory does not grow with the count
        state, wall, scaled, loop_time = set_up(wl, seed, sampler)
        setups.append(scaled)
        setup_walls.append(wall)
        setup_loops.append(loop_time)
    slots = SlotTimes()
    recs = run_rounds(wl, state, seconds, sampler, slots=slots)
    final = workloads.Recorder()
    wl.finish(state, final)
    correct, attempted, failed, notes = _verdict(recs, final)
    values = {
        "setup_s": statistics.median(quietest_half(setups, setup_loops)),
        "round_s": slots.round_time(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    wall = statistics.median(rec.wall for rec in recs)
    speed = statistics.median(rec.busy / rec.wall for rec in recs)
    report = [f"{name}: {len(setups)} set-ups, {len(recs)} rounds, seed {seed};"
              " times in reference seconds (see speed.py)"]
    report += [f"  {m:<24} {values[m]:.6f} {unit}" for m, unit in END_TO_END]
    report += _kind_report(recs) + notes
    report.append(f"  plain wall time: set-up {statistics.median(setup_walls):.6f} s,"
                  f" round {wall:.6f} s (machine at {speed:.3f}x reference speed)")
    metrics = {m: {"value": values[m], "unit": unit} for m, unit in END_TO_END}
    return {"report": report, "correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_traced(name: str, seed: int, seconds: float, workdir: Path, sampler) -> dict:
    wl = workloads.make(name, workdir)
    start = time.perf_counter()
    state = wl.prepare(import_package(), seed)
    (reference,) = run_rounds(wl, state, 0, sampler)

    tracer = Tracer()
    api = import_package()
    tracer.install(vars(api))
    tracer.begin_phase("setup")
    state = wl.prepare(api, seed)
    tracer.end_phase()
    recs = run_rounds(wl, state, seconds - (time.perf_counter() - start), sampler, tracer)
    tracer.uninstall()
    final = workloads.Recorder()
    wl.finish(state, final)
    correct, attempted, failed, notes = _verdict([reference, *recs], final)

    setup, rounds = tracer.derive()
    for fig, rec in zip(rounds, recs):
        fig.update(rec.counts)
    values = {}
    for metric, _ in PER_LAYER:
        per_round = [fig.get(metric, 0) for fig in rounds]
        mean = sum(per_round) / len(per_round)
        values[metric] = mean if metric.endswith(".distinct_ratio") else setup.get(metric, 0) + mean
    values["bench.trace_overhead"] = statistics.median(rec.busy for rec in recs) / reference.busy
    tracer.write(OUT / f"trace-{name}")

    report = [f"{name} (traced): {len(recs)} traced rounds, seed {seed},"
              f" {len(tracer.col_name)} spans written to {OUT.name}/trace-{name}.*"]
    report += [f"  {m:<40} {values[m]:.6g} {unit}" for m, unit in PER_LAYER if values[m]]
    report += notes
    metrics = {
        m: {"value": int(values[m]) if float(values[m]).is_integer() else values[m], "unit": unit}
        for m, unit in PER_LAYER
    }
    return {"report": report, "correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_all(args) -> int:
    """Each workload in its own child process; prints each report, then a summary line."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if child.returncode not in (0, 1) or not lines:
            sys.stderr.write(child.stderr)
            return 2
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        print(f"  attempted {result['attempted']}, failed {result['failed']},"
              f" correct {result['correct']}", flush=True)
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tandemreco" / "__init__.py").is_file():
        print(f"error: no tandemreco sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir, SpeedSampler() as sampler:
        run = run_traced if args.trace else run_plain
        result = run(args.workload, args.seed, args.seconds, Path(workdir), sampler)
    print("\n".join(result.pop("report")), flush=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
