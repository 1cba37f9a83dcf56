"""Shared test utilities: seeded random instances and the acceptance report."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from netmatch.entropy import SourceModel
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
    max_alphabet: int = 3,
    rational: bool = True,
) -> SourceModel:
    """A random joint pmf over small alphabets, exact by default."""
    sources = tuple(sources)
    sizes = tuple(rng.randint(2, max_alphabet) for _ in sources)
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
