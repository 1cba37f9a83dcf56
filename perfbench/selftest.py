"""Self-test: the benchmark counts corrupted outputs as failed operations.

Runs a few real operations on small generated instances, checks that the
oracle accepts their genuine outputs, then corrupts each output (a flipped
verdict, a wrong rho string, a rate point outside the region, a wrong
separability answer, an impossible error count, swapped simulation
results, an exception, a usage-error exit) and checks that every
corruption is counted as failed.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import copy
import json
import random
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

#: Trials per simulation: enough for the n=6 gate to separate the cases.
TRIALS = 80


def edit_json(record: dict, change) -> dict:
    out = copy.deepcopy(record)
    doc = json.loads(out["stdout"])
    change(doc)
    out["stdout"] = json.dumps(doc)
    return out


def main() -> int:
    workdir = run.ROOT / ".perfbench" / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return check(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check(workdir: Path) -> int:
    rng = random.Random(0)
    inputs = gen.Inputs(workdir)
    net_doc, src_doc, ref = gen.regions_instance(rng, feasible=True)
    net, src = inputs.instance("inst", net_doc, src_doc, ref)
    ops = {
        "decide": gen.op_decide("inst", net, src),
        "certify": gen.op_certify("inst", net, src, True, separation=False),
        "separate": gen.op_certify("inst", net, src, True, separation=True),
    }
    for case in ("boundary", "halved"):
        case_net, case_src = inputs.instance(case, *gen.FIXTURE_CASES[case][:2])
        ops[case] = gen.op_simulate(case, case_net, case_src, 6, TRIALS, 7, False)
    rounds = [list(ops.values())]
    index = {name: k for k, name in enumerate(ops)}
    genuine = {name: dict(worker.run_op(op), round=0, op=index[name])
               for name, op in ops.items()}

    def failed(records) -> int:
        return sum(1 for _, _, problems in run.evaluate(rounds, records, inputs.refs)
                   if problems)

    def first_row(doc):
        return doc["rows"][0]

    corruptions = {
        "flipped verdict": edit_json(genuine["decide"], lambda d: d.update(
            verdict="not-transmissible" if d["verdict"] == "transmissible" else "transmissible")),
        "wrong rho string": edit_json(genuine["decide"], lambda d: first_row(d).update(
            rho=first_row(d)["rho"] + "1")),
        "rate point outside the region": edit_json(genuine["certify"], lambda d: [
            entry["witness"].update({s: "0" for s in entry["witness"]})
            for entry in d["per_sink"].values()]),
        "flipped separability": edit_json(genuine["separate"], lambda d: d.update(
            separable=False)),
        "errors above trials": dict(copy.deepcopy(genuine["boundary"])),
        "raised": dict(genuine["decide"], error="RuntimeError: injected", exit=None),
        "usage-error exit": dict(genuine["decide"], exit=64),
    }
    corruptions["errors above trials"]["doc"]["sinks"]["t1"]["errors"] = TRIALS + 1

    problems = []
    if failed(list(genuine.values())):
        problems.append("genuine outputs were counted as failed")
    for name, bad in corruptions.items():
        records = [bad if r["op"] == bad["op"] else r for r in genuine.values()]
        if failed(records) < 1:
            problems.append(f"{name}: not counted as failed")
    swapped = [dict(genuine["boundary"], op=index["halved"]),
               dict(genuine["halved"], op=index["boundary"])]
    if failed(swapped) != 2:
        problems.append("swapped simulation results: gate did not fail both operations")

    for problem in problems:
        print(f"FAIL {problem}")
    total = len(corruptions) + 2
    print(f"selftest: {total - len(problems)} of {total} checks passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
