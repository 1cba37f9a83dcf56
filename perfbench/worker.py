"""Runs one workload's operations against netmatch and records the outcomes.

Started by run.py in a process of its own, so that the peak RSS it
reports belongs to the program and its inputs, not to the oracle.
Operations go through public entry points only: ``netmatch.cli.run`` with
stdout captured, and ``netmatch.estimate_error``.  Only the call itself is
timed; parsing a document for ``estimate_error`` and rendering its result
happen outside the timed region.

    python3 perfbench/worker.py PLAN.json RESULTS.json
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import netmatch  # noqa: E402
import netmatch.cli  # noqa: E402

from spans import Tracer, layer_metrics  # noqa: E402
from speed import Meter  # noqa: E402


def run_cli(op: dict) -> dict:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = netmatch.cli.run(op["argv"])
    return {"seconds": time.perf_counter() - start, "exit": code,
            "stdout": out.getvalue(), "stderr": err.getvalue()[-400:]}


def run_simulate(op: dict) -> dict:
    net = netmatch.parse_network(Path(op["network"]).read_text())
    model = netmatch.parse_source_model(Path(op["source"]).read_text())
    start = time.perf_counter()
    result = netmatch.estimate_error(net, model, op["n"], Fraction(op["tau"]),
                                     Fraction(op["delta"]), op["lam"], op["trials"],
                                     op["seed"], fixed_code=op["fixed"])
    seconds = time.perf_counter() - start
    return {"seconds": seconds, "exit": 0, "doc": result.to_document()}


def run_op(op: dict) -> dict:
    try:
        return run_cli(op) if op["kind"] == "cli" else run_simulate(op)
    except Exception as exc:  # an operation that raises is a failed operation
        return {"seconds": None, "exit": None, "error": f"{type(exc).__name__}: {exc}"[:400]}


def run_round(ops: list, index: int, traced: bool, tracer: Tracer | None,
              meter: Meter) -> tuple[list, float]:
    """Run one round; returns its records and its wall time without calibration.

    A calibration sample is taken before and after every operation, outside
    its timed region, and kept with the operation's record.
    """
    records = []
    busy = 0.0
    for k, op in enumerate(ops):
        before = meter.sample()
        start = time.perf_counter()
        if traced:
            with tracer.root(f"op.{op['metric']}"):
                record = run_op(op)
        else:
            record = run_op(op)
        busy += time.perf_counter() - start
        record.update(round=index, op=k, calibration=[before, meter.sample()])
        records.append(record)
    return records, busy


def main(plan_path: str, results_path: str) -> None:
    plan = json.loads(Path(plan_path).read_text())
    rounds, seconds, trace = plan["rounds"], plan["seconds"], plan["trace"]
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    meter = Meter()
    records, pairs = [], []
    deadline = time.perf_counter() + seconds
    index = 0
    while index == 0 or time.perf_counter() < deadline:
        ops = rounds[index % len(rounds)]
        done, plain = run_round(ops, index, False, tracer, meter)
        records += done
        if trace:
            # The same round again with spans on: the difference is the overhead.
            tracer.enable()
            try:
                done, traced = run_round(ops, index, True, tracer, meter)
            finally:
                tracer.disable()
            records += done
            pairs.append(traced - plain)
        index += 1
    results = {"records": records, "rounds": index,
               "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if trace:
        metrics, absent = layer_metrics(tracer.spans, tracer.names, index,
                                        sum(pairs) / len(pairs))
        results.update(layers=metrics, absent=absent)
        Path(plan["trace_out"]).write_text(json.dumps(
            {"fields": ["id", "parent", "name", "start", "end", "computed"],
             "spans": tracer.spans}))
    Path(results_path).write_text(json.dumps(results))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
