"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with plain ``pytest``; the per-criterion lines appear in the
"acceptance criteria" section of the terminal summary.
"""

import json
import math
import random
import time
from decimal import Decimal, getcontext
from fractions import Fraction

from netmatch import fixtures
from netmatch.entropy import binary_entropy, entropy_profile
from netmatch.graph import Edge, Network
from netmatch.mincut import capacity_profile, max_flow
from netmatch.regions import equivalence_check, sandwich_feasible, separation_check
from netmatch.setfunc import SetFunction, is_copolymatroid, is_polymatroid
from netmatch import simplex
from netmatch.simulator import butterfly_xor, estimate_error
from netmatch.transmissibility import check

from conftest import (enumerate_min_cut, iter_nonempty_subsets, random_network,
                      random_source_model, set_function)


def _oracle_h(p: float) -> float:
    getcontext().prec = 60
    x = Decimal(p)
    return float(-(x * x.ln() + (1 - x) * (1 - x).ln()) / Decimal(2).ln())


def _finish(criterion, number, description, failures, started):
    elapsed = time.perf_counter() - started
    criterion(number, description, not failures, elapsed)
    assert not failures, f"criterion {number}: " + "; ".join(failures)


def test_criterion_1_first_demo_reproduction(criterion):
    started = time.perf_counter()
    failures = []
    net = fixtures.butterfly_network()
    m = fixtures.uniform_pair_source()
    profile = capacity_profile(net)
    s1, s2 = frozenset({"s1"}), frozenset({"s2"})
    both = frozenset({"s1", "s2"})
    expected_per_sink = {
        ("t1", s2): 1, ("t2", s1): 1,
        ("t1", s1): 2, ("t2", s2): 2,
        ("t1", both): 2, ("t2", both): 2,
    }
    for key, value in expected_per_sink.items():
        t, S = key
        rho_t = profile.rho_t_function(t)
        if rho_t(S) != Fraction(value):
            failures.append(f"rho_{t}({sorted(S)}) = {rho_t(S)} != {value}")
    for S, value in {s1: 1, s2: 1, both: 2}.items():
        if profile.rho_n_function()(S) != Fraction(value):
            failures.append(f"rho_N({sorted(S)}) != {value}")
    ep = entropy_profile(m)
    if [ep.sigma(S) for S in (s1, s2, both)] != [1.0, 1.0, 2.0]:
        failures.append("conditional entropies differ from (1, 1, 2)")
    report = check(net, m)
    if report.verdict != "boundary":
        failures.append(f"verdict {report.verdict} != boundary")
    if any(row.margin != 0.0 for row in report.rows):
        failures.append("some margin is not exactly 0")
    if time.perf_counter() - started >= 1.0:
        failures.append("runtime exceeded 1 s")
    _finish(criterion, 1, "butterfly fixture reproduces all demo values exactly",
            failures, started)


def test_criterion_2_second_demo_reproduction(criterion):
    started = time.perf_counter()
    failures = []
    p = 0.11
    net = fixtures.dsbs_network(p)
    m = fixtures.dsbs_source(p)
    h = _oracle_h(p)
    profile = capacity_profile(net)
    s1, s2 = frozenset({"s1"}), frozenset({"s2"})
    both = frozenset({"s1", "s2"})
    for S, target in ((s1, h), (s2, h), (both, 2.0)):
        got = float(profile.rho_n_function()(S))
        if abs(got - target) > 1e-9:
            failures.append(f"rho_N({sorted(S)}) = {got} vs {target}")
    ep = entropy_profile(m)
    for S, target in ((s1, h), (s2, h), (both, 1 + h)):
        if abs(ep.sigma(S) - target) > 1e-9:
            failures.append(f"sigma({sorted(S)}) = {ep.sigma(S)} vs {target}")
    report = check(net, m)
    if report.verdict != "transmissible":
        failures.append(f"verdict {report.verdict} != transmissible")
    joint_row = report.rows[2]
    if abs(joint_row.margin - (1 - h)) > 1e-9:
        failures.append(f"joint margin {joint_row.margin} vs {1 - h}")
    if time.perf_counter() - started >= 1.0:
        failures.append("runtime exceeded 1 s")
    _finish(criterion, 2, "correlated fixture at p=0.11 matches the entropy oracle",
            failures, started)


def _nonempty_subsets(names):
    names = list(names)
    return [
        frozenset(n for k, n in enumerate(names) if mask >> k & 1)
        for mask in range(1, 1 << len(names))
    ]


def test_criterion_3_mincut_vs_enumeration(criterion):
    started = time.perf_counter()
    failures = []
    rng = random.Random(30303)
    for instance in range(200):
        net = random_network(rng)
        for t in net.sinks:
            for S in _nonempty_subsets(net.sources):
                flow_value, members = max_flow(net, S, t)
                oracle_value, _ = enumerate_min_cut(net, S, t)
                if flow_value != oracle_value:
                    failures.append(
                        f"instance {instance}: flow {flow_value} != cut {oracle_value}"
                    )
    elapsed = time.perf_counter() - started
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s exceeded 30 s")
    _finish(criterion, 3, "max-flow equals exhaustive min cut on 200 random DAGs",
            failures, started)


def test_criterion_4_polymatroid_properties(criterion):
    started = time.perf_counter()
    failures = []
    rng = random.Random(40404)
    for instance in range(200):
        net = random_network(rng)
        profile = capacity_profile(net)
        for t in net.sinks:
            report = is_polymatroid(profile.rho_t_function(t), tol=0)
            if not report.holds:
                failures.append(f"instance {instance}: rho_{t} fails {report.axiom}")
        m = random_source_model(rng, net.sources, rational=rng.random() < 0.5)
        sigma = entropy_profile(m).sigma
        report = is_copolymatroid(sigma, tol=1e-9)
        if not report.holds:
            failures.append(f"instance {instance}: sigma fails {report.axiom}")
    # The network-wide minimum need not be submodular: exhibit a witness.
    crossing = Network(
        nodes=("a", "b", "t1", "t2"),
        edges=(
            Edge("a", "t1", Fraction(1)), Edge("a", "t2", Fraction(2)),
            Edge("b", "t1", Fraction(2)), Edge("b", "t2", Fraction(1)),
        ),
        sources=("a", "b"),
        sinks=("t1", "t2"),
    )
    rho_n = capacity_profile(crossing).rho_n_function()
    report = is_polymatroid(rho_n, tol=0)
    if report.holds:
        failures.append("expected rho_N submodularity failure was not detected")
    elif report.axiom != "submodularity":
        failures.append(f"rho_N violation misreported as {report.axiom}")
    else:
        S, T = report.witness
        if rho_n(S & T) + rho_n(S | T) <= rho_n(S) + rho_n(T):
            failures.append("rho_N witness does not re-evaluate to a violation")
    _finish(criterion, 4,
            "per-sink capacity functions are polymatroids, entropies are "
            "co-polymatroids, and a network-wide counterexample exists",
            failures, started)


def test_criterion_5_statement_equivalence(criterion):
    started = time.perf_counter()
    failures = []
    rng = random.Random(50505)
    for instance in range(500):
        net = random_network(rng)
        m = random_source_model(rng, net.sources, rational=rng.random() < 0.5)
        report = equivalence_check(net, m)
        if report.agreement not in ("agree", "boundary"):
            failures.append(f"instance {instance}: {report.agreement}")
    elapsed = time.perf_counter() - started
    if elapsed >= 120.0:
        failures.append(f"runtime {elapsed:.1f}s exceeded 2 min")
    _finish(criterion, 5,
            "pointwise condition and region nonemptiness agree on 500 instances",
            failures, started)


def _random_copolymatroid(rng, ground):
    weights = {g: Fraction(rng.randint(0, 8), rng.choice((1, 2))) for g in ground}
    bump = Fraction(rng.randint(0, 6), 2)
    values = {}
    for S in iter_nonempty_subsets(ground):
        total = sum((weights[g] for g in S), Fraction(0))
        if len(S) == len(ground):
            total += bump
        values[S] = total
    return set_function(ground, values)


def _random_polymatroid(rng, ground):
    if rng.random() < 0.5:
        net = random_network(rng, max_sources=len(ground))
        if len(net.sources) == len(ground):
            profile = capacity_profile(net)
            # The same values over ground: bit p stands for ground[p].
            return SetFunction(ground, profile.per_sink[net.sinks[0]])
    weights = {g: Fraction(rng.randint(0, 8), rng.choice((1, 2))) for g in ground}
    budget = Fraction(rng.randint(0, 14), 2)
    values = {
        S: min(sum((weights[g] for g in S), Fraction(0)), budget)
        for S in iter_nonempty_subsets(ground)
    }
    return set_function(ground, values)


def test_criterion_6_sandwich_property(criterion):
    started = time.perf_counter()
    failures = []
    rng = random.Random(60606)
    for instance in range(200):
        size = rng.randint(1, 4)
        ground = tuple(f"g{k}" for k in range(size))
        sigma = _random_copolymatroid(rng, ground)
        rho = _random_polymatroid(rng, ground)
        subsets = iter_nonempty_subsets(ground)
        pointwise = all(sigma(S) <= rho(S) for S in subsets)
        result = sandwich_feasible(sigma, rho)
        constraints = []
        for S in subsets:
            constraints.append((S, ">=", sigma(S)))
            constraints.append((S, "<=", rho(S)))
        lp_point = simplex.point_or_iis(ground, constraints)[0]
        if (result.point is not None) != pointwise:
            failures.append(f"instance {instance}: verdict != pointwise comparison")
        if (lp_point is not None) != pointwise:
            failures.append(f"instance {instance}: LP oracle disagrees")
        if result.point is not None:
            for S in subsets:
                total = result.point.total(S)
                if not sigma(S) <= total <= rho(S):
                    failures.append(f"instance {instance}: witness violates {sorted(S)}")
    elapsed = time.perf_counter() - started
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s exceeded 30 s")
    _finish(criterion, 6,
            "sandwich feasibility equals pointwise dominance, LP cross-validated, "
            "on 200 random pairs",
            failures, started)


def test_criterion_7_separation(criterion):
    started = time.perf_counter()
    failures = []
    report = separation_check(fixtures.butterfly_network(), fixtures.uniform_pair_source())
    if not report.separable:
        failures.append("butterfly fixture should be separable")
    elif report.witness.rates != {"s1": Fraction(1), "s2": Fraction(1)}:
        failures.append(f"witness {report.witness.rates} != (1, 1)")
    p = 0.11
    report2 = separation_check(fixtures.dsbs_network(p), fixtures.dsbs_source(p))
    if report2.separable:
        failures.append("correlated fixture should not be separable")
    elif report2.infeasibility is None:
        failures.append("missing infeasibility certificate")
    else:
        bounds = {}
        for name, S, sense, bound in report2.infeasibility.constraints:
            bounds[(name, frozenset(S), sense)] = bound
        upper1 = bounds.get(("cut[t1]", frozenset({"s2"}), "<="))
        upper2 = bounds.get(("cut[t2]", frozenset({"s1"}), "<="))
        lower = bounds.get(("slepian-wolf", frozenset({"s1", "s2"}), ">="))
        if upper1 is None or upper2 is None or lower is None:
            failures.append(f"unexpected certificate: {report2.infeasibility}")
        elif not upper1 + upper2 < lower:
            failures.append("certificate does not exhibit 2h < 1+h")
    if time.perf_counter() - started >= 1.0:
        failures.append("runtime exceeded 1 s")
    _finish(criterion, 7,
            "separation holds on the butterfly at (1,1) and fails for the "
            "correlated fixture with a 2h < 1+h certificate",
            failures, started)


def test_criterion_8_xor_scheme_exhaustive(criterion):
    started = time.perf_counter()
    failures = []
    n = 8
    mismatches = 0
    for a in range(1 << n):
        x1 = tuple(a >> k & 1 for k in range(n - 1, -1, -1))
        for b in range(1 << n):
            x2 = tuple(b >> k & 1 for k in range(n - 1, -1, -1))
            out = butterfly_xor(x1, x2)
            if out["t1"] != (x1, x2) or out["t2"] != (x1, x2):
                mismatches += 1
    if mismatches:
        failures.append(f"{mismatches} failing input pairs")
    elapsed = time.perf_counter() - started
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.1f}s exceeded 5 s")
    _finish(criterion, 8, "deterministic XOR scheme is exact on all 65536 pairs",
            failures, started)


def test_criterion_9_random_coding_trend(criterion):
    started = time.perf_counter()
    failures = []
    net = fixtures.butterfly_network()
    m = fixtures.uniform_pair_source()
    tau, delta = Fraction(1, 4), Fraction(1, 20)
    lam = 3 / 32  # 3*tau/8
    trials = 2000
    results = {
        n: estimate_error(net, m, n, tau, delta, lam, trials=trials, seed=90909)
        for n in (2, 4, 6, 8)
    }
    for t in ("t1", "t2"):
        p2 = results[2].per_sink[t].rate
        p8 = results[8].per_sink[t].rate
        se = math.sqrt(p2 * (1 - p2) / trials + p8 * (1 - p8) / trials)
        if not p8 < p2:
            failures.append(f"{t}: rate at n=8 ({p8}) not below n=2 ({p2})")
        elif (p2 - p8) / se <= 1.645:
            failures.append(f"{t}: improvement not significant at 95%")
    halved = estimate_error(fixtures.scaled_butterfly(Fraction(1, 2)), m, 8,
                            tau, delta, lam, trials=trials, seed=90909)
    for t in ("t1", "t2"):
        if halved.per_sink[t].rate < 0.5:
            failures.append(f"halved variant {t}: rate {halved.per_sink[t].rate} < 0.5")
    elapsed = time.perf_counter() - started
    if elapsed >= 600.0:
        failures.append(f"runtime {elapsed:.1f}s exceeded 10 min")
    _finish(criterion, 9,
            "error rate falls from n=2 to n=8 at 95% confidence, and the "
            "non-transmissible variant stays above 1/2",
            failures, started)


def test_criterion_10_simulation_determinism(criterion):
    started = time.perf_counter()
    failures = []
    net = fixtures.butterfly_network()
    m = fixtures.uniform_pair_source()
    for fixed in (False, True):
        a = estimate_error(net, m, 3, Fraction(1, 4), Fraction(1, 20), 3 / 32,
                           trials=60, seed=111, fixed_code=fixed)
        b = estimate_error(net, m, 3, Fraction(1, 4), Fraction(1, 20), 3 / 32,
                           trials=60, seed=111, fixed_code=fixed)
        if a.to_json() != b.to_json():
            failures.append(f"fixed_code={fixed}: documents differ")
        if json.loads(a.to_json()) != a.to_document():
            failures.append("document does not round-trip")
    _finish(criterion, 10, "same seed reproduces byte-identical simulation documents",
            failures, started)
