"""Seeded inputs for the benchmark: JSON documents plus the operations on them.

Every workload is a list of *rounds*; a round is a fixed group of
operations, and a run repeats rounds until its time is up, so each run
keeps the same operation mix.  Each operation carries what the oracle
needs to check it.  Documents are written under the run's work directory,
and the program only ever sees those files.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path

from oracle import Reference, fmt_fraction, label, nonempty_subsets

TAU, DELTA, LAM = "1/4", "1/20", 3 / 32

# Layered family: k sources, 4 relay layers of 6 nodes, 3 sinks, and half
# of the node pairs of consecutive layers joined by an edge.
LAYERS, WIDTH, SINKS = 4, 6, 3
LATTICE_K = 8
# A k=4 infeasible instance needs a per-row deletion filter over 60 rows
# (2.4 s for --separation), too few samples in a run to repeat within a
# tenth; the infeasible class therefore uses k=3.
REGIONS_K = {True: 4, False: 3}
# Rounds generated per run; a run that finishes them all starts again.
LATTICE_ROUNDS = 16
REGIONS_ROUNDS = 24
SIMULATE_ROUNDS = 16
# Simulator sizes: the simulate workload's own block length and trial
# counts, and the small ones other workloads use to cover trials_per_s.
SIM_N, SIM_FRESH, SIM_FIXED = 8, 60, 120
SMALL_N, SMALL_FRESH, SMALL_FIXED = 6, 30, 60


class Inputs:
    """Writes documents into the work directory and remembers their references."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.refs: dict[str, Reference] = {}
        self._paths: dict[str, tuple[str, str]] = {}
        self._count = 0

    def write(self, doc: dict) -> str:
        self._count += 1
        path = self.workdir / f"doc{self._count}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def instance(self, name: str, net_doc: dict, src_doc: dict, ref: Reference | None = None):
        """Register an instance once; returns its (network path, source path)."""
        if name not in self._paths:
            self.refs[name] = ref or Reference(net_doc, src_doc)
            self._paths[name] = self.write(net_doc), self.write(src_doc)
        return self._paths[name]


# --------------------------------------------------------------------------
# Documents.


def net_document(nodes, sources, sinks, edges) -> dict:
    return {
        "nodes": list(nodes),
        "edges": [{"from": u, "to": v, "capacity": fmt_fraction(c)} for u, v, c in edges],
        "sources": list(sources),
        "sinks": list(sinks),
    }


def layered_edges(rng: random.Random, k: int):
    sources = [f"s{i}" for i in range(k)]
    layers = ([sources] + [[f"r{l}_{j}" for j in range(WIDTH)] for l in range(LAYERS)]
              + [[f"t{j}" for j in range(SINKS)]])
    edges = []
    for upper, lower in zip(layers, layers[1:]):
        # Each forward pair is an edge with probability 1/2; drawing exactly
        # half of the pairs keeps the edge count, and so the work, steady.
        pairs = [(u, v) for u in upper for v in lower]
        for u, v in sorted(rng.sample(pairs, len(pairs) // 2), key=pairs.index):
            den = rng.choice((1, 2, 4))
            edges.append((u, v, Fraction(rng.randint(1, 4 * den), den)))
    return [n for layer in layers for n in layer], sources, layers[-1], edges


def binary_source(rng: random.Random, sources) -> dict:
    """Random rational pmf on bits: integer weights 0..8 over all tuples."""
    k = len(sources)
    weights = [rng.randint(0, 8) for _ in range(1 << k)]
    if not any(weights):
        weights[rng.randrange(len(weights))] = 1
    total = sum(weights)
    pmf = [{"symbols": [(t >> (k - 1 - i)) & 1 for i in range(k)],
            "p": fmt_fraction(Fraction(w, total))}
           for t, w in enumerate(weights) if w]
    return {"sources": list(sources), "alphabets": [2] * k, "pmf": pmf}


def scaled_instance(rng: random.Random, k: int, transmissible: bool):
    """A layered instance whose capacities are scaled to the wanted verdict.

    Scaling every capacity by one factor leaves the max-flow path sequence
    unchanged, so the verdict is chosen without changing the work.  A
    failing instance fails at every sink.  Instances whose margins sit
    near the tolerance, or where some subset has no capacity at all, are
    redrawn.
    """
    while True:
        nodes, sources, sinks, edges = layered_edges(rng, k)
        src = binary_source(rng, sources)
        tails = {u for u, _, _ in edges}
        heads = {v for _, v, _ in edges}
        if not (set(sources) <= tails and set(sinks) <= heads):
            continue
        ref = Reference(net_document(nodes, sources, sinks, edges), src)
        if any(ref.rho_t[t][S] == 0 for t in sinks for S in ref.subsets):
            continue
        per_sink = [max(ref.sigma[S] / float(ref.rho_t[t][S]) for S in ref.subsets)
                    for t in sinks]
        u = rng.uniform(0.1, 0.4)
        grid = 64
        if transmissible:
            c = Fraction(math.ceil(max(per_sink) * (1 + u) * grid), grid)
        else:
            c = Fraction(math.floor(min(per_sink) * (1 - u) * grid), grid)
        if c <= 0:
            continue
        ref = ref.scaled(c)
        if not ref.ambiguous():
            return net_document(nodes, sources, sinks, [(a, b, w * c) for a, b, w in edges]), src, ref


def coverage_document(rng: random.Random, ground, items: int = 10) -> dict:
    """Weighted coverage function: a rational polymatroid by construction."""
    weights = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(items)]
    covers = {g: {i for i in range(items) if rng.random() < 0.35} for g in ground}
    values = {}
    for S in nonempty_subsets(list(ground)):
        union = set().union(*(covers[g] for g in S))
        values[label(S)] = fmt_fraction(sum((weights[i] for i in union), Fraction(0)))
    return {"ground": list(ground), "values": values}


def entropy_document(ref: Reference) -> dict:
    """The instance's conditional entropies: a float co-polymatroid."""
    return {"ground": ref.sources, "values": {label(S): ref.sigma[S] for S in ref.subsets}}


def binary_entropy(p: float) -> float:
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def butterfly(capacity: Fraction, cross: Fraction | None = None) -> dict:
    """The butterfly network; ``cross`` replaces the two mixer cross edges
    of the correlated-source variant."""
    if cross is not None:
        nodes = ["s1", "s2", "v1", "v2", "t1", "t2"]
        edges = [("s1", "t1", capacity), ("s1", "v1", capacity), ("s2", "v1", cross),
                 ("v1", "t1", capacity), ("s2", "t2", capacity), ("s2", "v2", capacity),
                 ("s1", "v2", cross), ("v2", "t2", capacity)]
    else:
        nodes = ["s1", "s2", "u", "w", "t1", "t2"]
        edges = [("s1", "u", capacity), ("s2", "u", capacity), ("u", "w", capacity),
                 ("w", "t1", capacity), ("w", "t2", capacity), ("s1", "t1", capacity),
                 ("s2", "t2", capacity)]
    return net_document(nodes, ["s1", "s2"], ["t1", "t2"], edges)


def pair_source(same: Fraction, diff: Fraction) -> dict:
    return {"sources": ["s1", "s2"], "alphabets": [2, 2],
            "pmf": [{"symbols": [a, b], "p": fmt_fraction(same if a == b else diff)}
                    for a in (0, 1) for b in (0, 1)]}


P = Fraction(11, 100)
# name -> (network, source, regions LPs feasible)
FIXTURE_CASES = {
    "boundary": (butterfly(Fraction(1)), pair_source(Fraction(1, 4), Fraction(1, 4)), True),
    "halved": (butterfly(Fraction(1, 2)), pair_source(Fraction(1, 4), Fraction(1, 4)), False),
    "dsbs": (butterfly(Fraction(1)), pair_source((1 - P) / 2, P / 2), True),
}


def probes(workdir: Path) -> dict:
    """Known defects, run apart from the workload: name -> CLI arguments.
    A correct program exits 0 on each.

    ``simulate`` on the correlated-source demo network: the cross capacity
    h(0.11) on the 1e-12 grid makes ``floor_pow2`` shift by ~10^12 bits.
    ``setfunc verify --tol 0`` on a rational polymatroid: the float
    tolerance turns exact sums into floats, so ties can read as violations.
    """
    h = Fraction(round(binary_entropy(float(P)) * 10**12), 10**12)
    net, src, fn = (workdir / name for name in ("probe-net.json", "probe-src.json",
                                                "probe-fn.json"))
    net.write_text(json.dumps(butterfly(Fraction(1), cross=h)))
    src.write_text(json.dumps(pair_source((1 - P) / 2, P / 2)))
    fn.write_text(json.dumps({"ground": ["s1", "s2"],
                              "values": {"s1": "7/3", "s2": "3", "s1+s2": "10/3"}}))
    return {
        "simulate-demo-example2":
            ["--format", "json", "simulate", "--network", str(net), "--source", str(src),
             "--n", "8", "--tau", TAU, "--delta", DELTA, "--trials", "10", "--seed", "1"],
        "verify-explicit-tol-0":
            ["--format", "json", "setfunc", "verify", "--kind", "poly", "--input", str(fn),
             "--tol", "0"],
    }


# --------------------------------------------------------------------------
# Operations.


def op_decide(name, net, src):
    return {"kind": "cli", "metric": "decide_s", "check": ["decide", name],
            "argv": ["--format", "json", "check", "--network", net, "--source", src,
                     "--tol", "1e-9"]}


def op_verify(kind, path):
    """Rational functions use the default tolerance, which is exactly 0 for
    them; an explicit ``--tol 0`` is a float and is the subject of a probe."""
    if kind == "poly":
        return {"kind": "cli", "metric": "verify_s.rational", "check": ["verify", kind],
                "argv": ["--format", "json", "setfunc", "verify", "--kind", kind,
                         "--input", path]}
    return {"kind": "cli", "metric": "verify_s.float", "check": ["verify", kind],
            "argv": ["--format", "json", "setfunc", "verify", "--kind", kind,
                     "--input", path, "--tol", "1e-9"]}


def op_certify(name, net, src, feasible, separation):
    cls = "feasible" if feasible else "infeasible"
    argv = ["--format", "json", "regions", "--network", net, "--source", src, "--tol", "1e-9"]
    if separation:
        return {"kind": "cli", "metric": f"separate_s.{cls}",
                "check": ["separate", name, feasible], "argv": argv + ["--separation"]}
    return {"kind": "cli", "metric": f"certify_s.{cls}",
            "check": ["certify", name, feasible], "argv": argv}


def op_simulate(name, net, src, n, trials, seed, fixed):
    mode = "fixed" if fixed else "fresh"
    return {"kind": "simulate", "metric": f"trials.{mode}", "check": ["simulate", name],
            "network": net, "source": src, "n": n, "tau": TAU, "delta": DELTA, "lam": LAM,
            "trials": trials, "seed": seed, "fixed": fixed}


def fixture_ops(inputs: Inputs, rng: random.Random, *, decide: bool, certify: bool,
                simulate: bool) -> list:
    """Operations on the three butterfly cases, for metrics outside a
    workload's own layer."""
    ops = []
    if decide:
        ops.append(op_verify("poly", inputs.write(coverage_document(rng, ["s1", "s2"]))))
    for case, (net_doc, src_doc, feasible) in FIXTURE_CASES.items():
        net, src = inputs.instance(case, net_doc, src_doc)
        if decide:
            ops.append(op_decide(case, net, src))
            ops.append(op_verify("copoly", inputs.write(entropy_document(inputs.refs[case]))))
        if certify:
            ops.append(op_certify(case, net, src, feasible, separation=False))
            ops.append(op_certify(case, net, src, feasible, separation=True))
        if simulate:
            seed = rng.randrange(1 << 30)
            ops.append(op_simulate(case, net, src, SMALL_N, SMALL_FRESH, seed, False))
            ops.append(op_simulate(case, net, src, SMALL_N, SMALL_FIXED, seed, True))
    return ops


def lattice_rounds(inputs: Inputs, rng: random.Random) -> list:
    rounds = []
    for i in range(LATTICE_ROUNDS):
        name = f"lattice{i}"
        net_doc, src_doc, ref = scaled_instance(rng, LATTICE_K, transmissible=i % 2 == 0)
        net, src = inputs.instance(name, net_doc, src_doc, ref)
        ops = [op_decide(name, net, src),
               op_verify("poly", inputs.write(coverage_document(rng, ref.sources))),
               op_verify("copoly", inputs.write(entropy_document(ref)))]
        rounds.append(ops + fixture_ops(inputs, rng, decide=False, certify=True, simulate=True))
    return rounds


def regions_instance(rng: random.Random, feasible: bool):
    """An instance whose per-sink and all-sink LPs are all feasible, or
    all infeasible, by a margin HiGHS resolves."""
    while True:
        net, src, ref = scaled_instance(rng, REGIONS_K[feasible], transmissible=feasible)
        if feasible and ref.feasible_lp(ref.sinks, 1e-6):
            return net, src, ref
        if not feasible and not any(ref.feasible_lp([t], -1e-6) for t in ref.sinks):
            return net, src, ref


def regions_rounds(inputs: Inputs, rng: random.Random) -> list:
    rounds = []
    for i in range(REGIONS_ROUNDS):
        ops = []
        # Two infeasible instances per round: each costs about half a
        # feasible one, and the samples even out the two classes' spreads.
        for k, feasible in enumerate((True, False, False)):
            name = f"regions{i}.{k}"
            net_doc, src_doc, ref = regions_instance(rng, feasible)
            net, src = inputs.instance(name, net_doc, src_doc, ref)
            ops += [op_certify(name, net, src, feasible, separation=False),
                    op_certify(name, net, src, feasible, separation=True)]
            if feasible:  # one instance size per latency metric
                ops += [op_decide(name, net, src),
                        op_verify("copoly", inputs.write(entropy_document(ref))),
                        op_verify("poly", inputs.write(coverage_document(rng, ref.sources)))]
        rounds.append(ops + fixture_ops(inputs, rng, decide=False, certify=False, simulate=True))
    return rounds


def simulate_rounds(inputs: Inputs, rng: random.Random) -> list:
    rounds = []
    for _ in range(SIMULATE_ROUNDS):
        ops = []
        for case, (net_doc, src_doc, _) in FIXTURE_CASES.items():
            net, src = inputs.instance(case, net_doc, src_doc)
            seed = rng.randrange(1 << 30)
            ops.append(op_simulate(case, net, src, SIM_N, SIM_FRESH, seed, False))
            ops.append(op_simulate(case, net, src, SIM_N, SIM_FIXED, seed, True))
        rounds.append(ops + fixture_ops(inputs, rng, decide=True, certify=True, simulate=False))
    return rounds


WORKLOADS = {
    "lattice": lattice_rounds,
    "regions": regions_rounds,
    "simulate": simulate_rounds,
}


def build(workload: str, seed: int, workdir: Path):
    """The workload's rounds and the references their checks use."""
    inputs = Inputs(workdir)
    rounds = WORKLOADS[workload](inputs, random.Random(f"{workload}:{seed}"))
    return rounds, inputs
