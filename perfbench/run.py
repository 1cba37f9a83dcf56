"""The netmatch benchmark: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload lattice|regions|simulate --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One client issues operations back to back (a closed loop, one
process, one thread) in a child process, for S seconds.  Inputs are JSON
documents generated from the seed; every output is then checked by an
oracle that shares no code with netmatch, outside the timed region.

The report ends with one JSON line: ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones
(see BENCHMARK.json); with ``--trace 1`` each round runs twice, without and
with spans around netmatch's public functions, and the metrics are the
per-layer ones, per round.  Spans are written to ``.perfbench/``.
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
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import oracle  # noqa: E402
import speed  # noqa: E402

#: Fresh interpreters timed for setup_s (after one that compiles bytecode).
SETUP_SAMPLES = 5
#: A run must end within 180 s; the worker is stopped before that.
RUN_LIMIT_S = 170
LATENCIES = ("decide_s", "verify_s.rational", "verify_s.float", "certify_s.feasible",
             "certify_s.infeasible", "separate_s.feasible", "separate_s.infeasible")


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # netmatch makes no BLAS calls; one thread keeps the client single-threaded.
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_child(argv, timeout) -> str:
    try:
        proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv[0]} did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{argv[0]} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def measure_setup() -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters that import netmatch (and numpy),
    and the machine slowdown around each (see speed.py)."""
    argv = ["-c", "import netmatch, netmatch.cli"]
    run_child(argv, 60)  # writes bytecode caches; not timed
    meter = speed.Meter()
    samples, calibration = [], []
    for _ in range(SETUP_SAMPLES):
        before = meter.sample()
        start = time.perf_counter()
        run_child(argv, 60)
        samples.append(time.perf_counter() - start)
        calibration.append((before, meter.sample()))
    return samples, speed.slowdowns(calibration)


def run_probes(workdir: Path) -> dict:
    path = workdir / "probes.json"
    path.write_text(json.dumps(gen.probes(workdir)))
    return json.loads(run_child([str(HERE / "probe.py"), str(path)], 60).strip().splitlines()[-1])


def evaluate(rounds: list, records: list, refs: dict) -> list[tuple]:
    """(op, record, problems) for every recorded operation."""
    judged = []
    for record in records:
        op = rounds[record["round"] % len(rounds)][record["op"]]
        judged.append((op, record, oracle.judge(op, record, refs)))
    sims = [(op, rec) for op, rec, problems in judged
            if op["kind"] == "simulate" and not problems]
    broken = oracle.simulation_gates(sims)
    for op, record, problems in judged:
        if op["kind"] == "simulate" and (op["n"], op["fixed"]) in broken:
            problems += broken[(op["n"], op["fixed"])]
    return judged


def tail_percentile(values: list) -> str:
    """The highest of p99, p95, p90 and p75 with at least ten samples above it."""
    for p in (99, 95, 90, 75):
        if len(values) * (100 - p) >= 1000:
            return f"p{p} {statistics.quantiles(values, n=100)[p - 1]:.6g}"
    return ""


def end_to_end(judged, slowdowns, rss_kb, setup, setup_slowdowns) -> dict:
    """name -> (value, unit, samples, raw wall-clock value[, tail percentile]).

    Times are divided by each operation's slowdown and rates multiplied
    by it (see speed.py); each set-up sample is scaled the same way.
    """
    by_metric: dict[str, list] = {}
    for (op, record, _), op_slow in zip(judged, slowdowns):
        if record.get("seconds") is not None:
            by_metric.setdefault(op["metric"], []).append((op, record["seconds"], op_slow))
    scaled_setup = [t / slow for t, slow in zip(setup, setup_slowdowns)]
    metrics = {"setup_s": (statistics.median(scaled_setup), "s", len(setup),
                           statistics.median(setup)),
               "peak_rss_mb": (rss_kb / 1024, "MB", 1, rss_kb / 1024)}
    for key in LATENCIES:
        ops = by_metric.get(key, [])
        scaled = [s / slow for _, s, slow in ops]
        raw = [s for _, s, _ in ops]
        metrics[f"{key}.p50"] = (statistics.median(scaled) if ops else 0.0, "s", len(ops),
                                 statistics.median(raw) if ops else 0.0)
        tail = tail_percentile(scaled)
        if tail:
            metrics[f"{key}.p50"] += (tail,)
    for mode in ("fresh", "fixed"):
        ops = by_metric.get(f"trials.{mode}", [])
        trials = sum(op["trials"] for op, _, _ in ops)
        scaled = sum(s / slow for _, s, slow in ops)
        raw = sum(s for _, s, _ in ops)
        metrics[f"trials_per_s.{mode}"] = (trials / scaled if ops else 0.0, "1/s", len(ops),
                                           trials / raw if ops else 0.0)
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()
    if not (ROOT / "src" / "netmatch" / "__init__.py").is_file():
        print(f"no netmatch sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    out_dir = ROOT / ".perfbench"
    workdir = out_dir / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        setup, setup_slowdowns = ([], []) if args.trace else measure_setup()
        rounds, inputs = gen.build(args.workload, args.seed, workdir)
        probes = run_probes(workdir)
        plan = workdir / "plan.json"
        results_path = workdir / "results.json"
        trace_out = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        plan.write_text(json.dumps({"rounds": rounds, "seconds": args.seconds,
                                    "trace": args.trace, "trace_out": str(trace_out)}))
        remaining = RUN_LIMIT_S - (time.perf_counter() - started)
        run_child([str(HERE / "worker.py"), str(plan), str(results_path)], remaining)
        results = json.loads(results_path.read_text())
        judged = evaluate(rounds, results["records"], inputs.refs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [(op, problems) for op, _, problems in judged if problems]
    attempted = len(judged)
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}: {results['rounds']} rounds, {attempted} operations")
    print(f"fail_share {len(failures) / attempted:.4f} ({len(failures)} of {attempted})")
    for op, problems in failures[:10]:
        print(f"  FAILED {op['metric']} {op['check']}: {'; '.join(problems[:3])}")
    for name, probe in probes.items():
        outcome = (f"raised {probe['error']}" if probe["outcome"] == "raised"
                   else f"exit {probe['exit']}")
        status = "ok" if probe.get("exit") == 0 else "known defect"
        print(f"probe {name}: {outcome} after {probe['seconds']:.3f} s ({status}; "
              f"not counted as an operation)")
    if args.trace:
        layers = results["layers"]
        print("per-layer metrics, per round (span = timed from spans, computed = counted "
              "from call arguments, return values and call counts):")
        for name, m in layers.items():
            print(f"  {name:42s} {m['value']:14.6g} {m['unit']:6s} {m['source']}")
        print("waits: none; one thread runs every layer in turn, with no queues, locks "
              "or I/O waits between layers")
        if results["absent"]:
            print("absent from the program (reported as 0): " + ", ".join(results["absent"]))
        print(f"spans written to {trace_out.relative_to(ROOT)}")
        metrics = {name: {"value": m["value"], "unit": m["unit"]} for name, m in layers.items()}
    else:
        slow = speed.slowdowns([record["calibration"] for _, record, _ in judged])
        e2e = end_to_end(judged, slow, results["rss_kb"], setup, setup_slowdowns)
        print(f"machine slowdown against the reference speed: median "
              f"{statistics.median(slow):.3f} over the operations, "
              f"{statistics.median(setup_slowdowns):.3f} over set-up; each time is divided "
              f"by its operation's slowdown, each rate multiplied")
        print(f"  {'metric':28s} {'value':>14s} {'unit':4s} {'raw wall clock':>14s}  samples")
        for name, (value, unit, count, raw, *tail) in e2e.items():
            print(f"  {name:28s} {value:14.6g} {unit:4s} {raw:14.6g}  n={count} {''.join(tail)}")
        metrics = {name: {"value": row[0], "unit": row[1]} for name, row in e2e.items()}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(1)
