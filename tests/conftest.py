"""Shared test utilities: seeded random instances and the acceptance report."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest

from netmatch.entropy import SourceModel, joint_entropy
from netmatch.graph import Edge, Network
from netmatch.setfunc import AxiomReport, SetFunction


def random_network(
    rng: random.Random,
    *,
    max_nodes: int = 8,
    max_sources: int = 3,
    max_sinks: int = 2,
    cap_limit: int = 4,
    edge_prob: float = 0.5,
) -> Network:
    """A random normalized DAG: sources first, edges forward, none into sources."""
    n_nodes = rng.randint(3, max_nodes)
    n_sources = rng.randint(1, min(max_sources, n_nodes - 1))
    n_sinks = rng.randint(1, min(max_sinks, n_nodes - n_sources))
    names = [f"v{k}" for k in range(n_nodes)]
    sources = tuple(names[:n_sources])
    sinks = tuple(names[-n_sinks:])
    edges = []
    for i in range(n_nodes):
        for j in range(max(i + 1, n_sources), n_nodes):
            if rng.random() < edge_prob:
                den = rng.choice((1, 2, 4))
                cap = Fraction(rng.randint(0, cap_limit * den), den)
                edges.append(Edge(names[i], names[j], cap))
    if not edges:  # keep at least one edge so flows are not all trivially zero
        edges.append(Edge(names[0], names[-1], Fraction(1)))
    return Network(nodes=tuple(names), edges=tuple(edges), sources=sources, sinks=sinks)


def random_source_model(
    rng: random.Random,
    sources,
    *,
    min_alphabet: int = 2,
    max_alphabet: int = 3,
    rational: bool = True,
) -> SourceModel:
    """A random joint pmf over small alphabets, exact by default."""
    sources = tuple(sources)
    sizes = tuple(rng.randint(min_alphabet, max_alphabet) for _ in sources)
    tuples = [()]
    for size in sizes:
        tuples = [t + (x,) for t in tuples for x in range(size)]
    weights = [rng.randint(0, 8) for _ in tuples]
    if sum(weights) == 0:
        weights[rng.randrange(len(weights))] = 1
    total = sum(weights)
    if rational:
        pmf = {t: Fraction(w, total) for t, w in zip(tuples, weights) if w}
    else:
        pmf = {t: w / total for t, w in zip(tuples, weights) if w}
    return SourceModel(sources=sources, alphabet_sizes=sizes, pmf=pmf)


def reference_axioms(f: SetFunction, tol=None, *, submodular: bool) -> AxiomReport:
    """The O(4^k) pair-by-pair axiom scan on frozensets: the test oracle.

    Same tolerance defaults as ``is_polymatroid``/``is_copolymatroid``;
    the witness is the first violating pair in canonical order, monotone
    pairs (empty set included) before the proper pairs.
    """
    if tol is None:
        tol = 0 if f.is_rational() else 1e-9
    if f.is_rational():
        tol = Fraction(tol)
    subsets = (frozenset(),) + f.subsets
    for S in subsets:
        for T in subsets:
            if S != T and S <= T and f(S) > f(T) + tol:
                return AxiomReport(False, "monotonicity", (S, T))
    kind = "submodularity" if submodular else "supermodularity"
    proper = f.subsets
    for i, S in enumerate(proper):
        for T in proper[i + 1:]:
            lhs = f(S & T) + f(S | T)
            rhs = f(S) + f(T)
            bad = lhs > rhs + tol if submodular else lhs < rhs - tol
            if bad:
                return AxiomReport(False, kind, (S, T))
    return AxiomReport(True)


def reference_candidates(order, m: SourceModel, n: int, lam):
    """Every length-n block of ``m`` with its source order changed to
    ``order``, candidate by candidate in plain Python: the simulator's
    candidate space as a test oracle.

    Candidates come in id order: blocks of joint symbols, most significant
    first, each joint symbol a tuple of per-source symbols in row-major
    order.  Returns (symbol tuples per candidate, {source: sequence code
    per candidate}, typical flag per candidate).  Floats follow the
    simulator's order of operations: a subset's marginal adds the joint
    symbols' probabilities in joint-symbol order, and a block's log2
    probability adds its symbols' terms in time order, starting from 0.0.
    """
    perm = [m.sources.index(s) for s in order]
    sizes = tuple(m.alphabet_sizes[k] for k in perm)
    pmf = {tuple(tup[k] for k in perm): p for tup, p in m.pmf.items()}
    aligned = SourceModel(sources=tuple(order), alphabet_sizes=sizes, pmf=pmf)
    joint = list(itertools.product(*map(range, sizes)))
    blocks = [list(block) for block in itertools.product(joint, repeat=n)]
    codes = {}
    for pos, s in enumerate(order):
        codes[s] = []
        for block in blocks:
            code = 0
            for tup in block:
                code = code * sizes[pos] + tup[pos]
            codes[s].append(code)
    typical = [True] * len(blocks)
    for r in range(1, len(order) + 1):
        for kept in itertools.combinations(range(len(order)), r):
            marginal: dict = {}
            for tup in joint:
                key = tuple(tup[k] for k in kept)
                marginal[key] = marginal.get(key, 0.0) + float(pmf.get(tup, 0.0))
            entropy = joint_entropy(aligned, [order[k] for k in kept])
            for j, block in enumerate(blocks):
                logp = 0.0
                for tup in block:
                    p = marginal[tuple(tup[k] for k in kept)]
                    logp += math.log2(p) if p > 0.0 else -math.inf
                typical[j] = typical[j] and abs(-logp / n - entropy) < float(lam)
    return blocks, codes, typical


_CRITERION_LINES: list[str] = []


@pytest.fixture
def criterion():
    """Recorder for acceptance-criterion pass/fail lines."""

    def record(number: int, description: str, passed: bool, elapsed: float | None = None):
        status = "PASS" if passed else "FAIL"
        timing = f" ({elapsed:.2f}s)" if elapsed is not None else ""
        _CRITERION_LINES.append(f"[criterion {number:2d}] {status}{timing}  {description}")

    return record


def pytest_terminal_summary(terminalreporter):
    if _CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_CRITERION_LINES):
            terminalreporter.write_line(line)
