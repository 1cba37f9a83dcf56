"""Reference answers for the benchmark, computed without netmatch.

Nothing here imports the package under test.  Minimum cuts come from
scipy's integer max-flow on capacities scaled by the LCM of their
denominators, entropies from numpy, and LP feasibility from scipy's HiGHS
solver.  The checks compare a program output (the text ``netmatch`` printed,
or a simulation document) against these answers and return a list of
problems; an empty list means the output is accepted.
"""

from __future__ import annotations

import copy
import json
import math
from fractions import Fraction
from itertools import combinations

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

#: Tolerance the benchmark passes to ``check`` and ``regions``.
TOL = 1e-9
#: Grid the program snaps float entropies onto before its LPs.
SNAP = 10**12


def nonempty_subsets(names):
    """Nonempty subsets as name tuples, by size then member positions."""
    return [tuple(names[k] for k in combo)
            for r in range(1, len(names) + 1)
            for combo in combinations(range(len(names)), r)]


def label(subset) -> str:
    return "+".join(subset)


def fmt_fraction(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def round9(x: float) -> float:
    return float(f"{x:.9g}")


def close9(printed, exact: float) -> bool:
    """A value printed to 9 significant digits matches ``exact`` (within
    one unit in the 9th digit, or 1e-9 absolute near 0)."""
    return isinstance(printed, (int, float)) and math.isclose(
        printed, exact, rel_tol=1e-8, abs_tol=1e-9)


class Reference:
    """Exact capacity functions and float entropies of one instance."""

    def __init__(self, net_doc: dict, src_doc: dict):
        self.sources = list(net_doc["sources"])
        self.sinks = list(net_doc["sinks"])
        self.subsets = nonempty_subsets(self.sources)
        self._flows(net_doc)
        self._entropies(src_doc)

    def _flows(self, net_doc):
        index = {name: k for k, name in enumerate(net_doc["nodes"])}
        caps = [Fraction(e["capacity"]) for e in net_doc["edges"]]
        scale = math.lcm(*(c.denominator for c in caps)) if caps else 1
        ints = [int(c * scale) for c in caps]
        big = sum(ints) + 1
        n = len(index) + 1
        tails = [index[e["from"]] for e in net_doc["edges"]]
        heads = [index[e["to"]] for e in net_doc["edges"]]
        self.rho_t = {t: {} for t in self.sinks}
        for S in self.subsets:
            rows = tails + [n - 1] * len(S)
            cols = heads + [index[s] for s in S]
            data = ints + [big] * len(S)
            graph = csr_matrix((np.array(data, dtype=np.int32), (rows, cols)), shape=(n, n))
            for t in self.sinks:
                value = maximum_flow(graph, n - 1, index[t]).flow_value
                if value >= big:
                    raise ValueError("benchmark instances have finite cuts")
                self.rho_t[t][S] = Fraction(int(value), scale)
        self._set_rho_n()

    def _set_rho_n(self):
        self.rho_n = {S: min(self.rho_t[t][S] for t in self.sinks) for S in self.subsets}

    def scaled(self, factor: Fraction) -> "Reference":
        """The reference of the same instance with every capacity times ``factor``."""
        out = copy.copy(self)
        out.rho_t = {t: {S: v * factor for S, v in row.items()} for t, row in self.rho_t.items()}
        out._set_rho_n()
        return out

    def _entropies(self, src_doc):
        order = [src_doc["sources"].index(s) for s in self.sources]
        pmf = np.zeros(tuple(src_doc["alphabets"]))
        for entry in src_doc["pmf"]:
            pmf[tuple(entry["symbols"])] = float(Fraction(entry["p"]))
        pmf = pmf.transpose(order)
        axis = {s: k for k, s in enumerate(self.sources)}

        def joint(S):
            drop = tuple(axis[s] for s in self.sources if s not in S)
            p = pmf.sum(axis=drop).ravel() if drop else pmf.ravel()
            p = p[p > 0]
            return float(-(p * np.log2(p)).sum())

        full = joint(tuple(self.sources))
        self.sigma = {}
        for S in self.subsets:
            rest = tuple(s for s in self.sources if s not in S)
            self.sigma[S] = max(0.0, full - joint(rest)) if rest else full

    def margin(self, S) -> float:
        return float(self.rho_n[S]) - self.sigma[S]

    def status(self, S) -> str:
        m = self.margin(S)
        return "fail" if m < -TOL else ("tight" if m <= TOL else "pass")

    def verdict(self) -> str:
        statuses = [self.status(S) for S in self.subsets]
        if "fail" in statuses:
            return "not-transmissible"
        return "boundary" if all(s == "tight" for s in statuses) else "transmissible"

    def ambiguous(self) -> bool:
        """Some margin sits so close to a tolerance edge that rounding could flip it."""
        return any(abs(abs(self.margin(S)) - TOL) < 1e-7 for S in self.subsets)

    def snapped_sigma(self, S) -> Fraction:
        return Fraction(round(self.sigma[S] * SNAP), SNAP)

    def feasible_lp(self, sinks, slack: float) -> bool:
        """HiGHS feasibility of sigma(S) + slack <= R(S) <= rho_t(S) - slack for every t."""
        rows, bounds = [], []
        for S in self.subsets:
            coeffs = [1.0 if s in S else 0.0 for s in self.sources]
            rows.append([-c for c in coeffs])
            bounds.append(-(self.sigma[S] + slack))
            for t in sinks:
                rows.append(coeffs)
                bounds.append(float(self.rho_t[t][S]) - slack)
        return _lp_feasible(len(self.sources), rows, bounds)

    def is_polymatroid_rho_n(self) -> bool:
        """Exact local test: f(S) <= f(S+i) and f(S+i)+f(S+j) >= f(S+i+j)+f(S)."""
        def f(members):
            key = tuple(s for s in self.sources if s in members)
            return self.rho_n[key] if key else Fraction(0)

        ground = set(self.sources)
        for r in range(len(self.sources) + 1):
            for base in combinations(self.sources, r):
                B = set(base)
                outside = sorted(ground - B, key=self.sources.index)
                for i in outside:
                    if f(B) > f(B | {i}):
                        return False
                for i, j in combinations(outside, 2):
                    if f(B | {i}) + f(B | {j}) < f(B | {i, j}) + f(B):
                        return False
        return True


def _lp_feasible(nvars, rows, bounds) -> bool:
    result = linprog(np.zeros(nvars), A_ub=np.array(rows), b_ub=np.array(bounds),
                     bounds=[(0, None)] * nvars, method="highs")
    if result.status not in (0, 2):
        raise RuntimeError(f"reference LP ended with status {result.status}: {result.message}")
    return result.status == 0


# --------------------------------------------------------------------------
# Output checks.  Each returns a list of problems (empty when accepted).


def check_decide(ref: Reference, text: str) -> list[str]:
    doc = json.loads(text)
    problems = []
    if doc.get("verdict") != ref.verdict():
        problems.append(f"verdict {doc.get('verdict')!r}, expected {ref.verdict()!r}")
    rows = {row.get("subset"): row for row in doc.get("rows", [])}
    if (len(doc.get("rows", [])) != len(ref.subsets)
            or sorted(rows) != sorted(label(S) for S in ref.subsets)):
        return problems + ["rows do not cover every nonempty subset exactly once"]
    for S in ref.subsets:
        row = rows[label(S)]
        if row["rho"] != fmt_fraction(ref.rho_n[S]):
            problems.append(f"rho({label(S)}) = {row['rho']!r}, expected {fmt_fraction(ref.rho_n[S])}")
        if not close9(row["sigma"], ref.sigma[S]):
            problems.append(f"sigma({label(S)}) = {row['sigma']!r}, expected {ref.sigma[S]:.12g}")
        if not close9(row["margin"], ref.margin(S)):
            problems.append(f"margin({label(S)}) = {row['margin']!r}, expected {ref.margin(S):.12g}")
        if row["status"] != ref.status(S):
            problems.append(f"status({label(S)}) = {row['status']!r}, expected {ref.status(S)!r}")
        sink = row.get("binding_sink")
        if sink not in ref.rho_t or ref.rho_t[sink][S] != ref.rho_n[S]:
            problems.append(f"binding sink {sink!r} of {label(S)} does not attain rho_N")
        if len(problems) > 5:
            break
    return problems


def check_verify(kind: str, text: str) -> list[str]:
    doc = json.loads(text)
    if doc != {"kind": kind, "holds": True}:
        return [f"verify {kind}: {doc!r}; the input satisfies the axioms by construction"]
    return []


def _point_problems(ref: Reference, point: dict, sinks, where: str) -> list[str]:
    if sorted(point) != sorted(ref.sources):
        return [f"{where}: rate point names {sorted(point)}"]
    R = {s: Fraction(v) for s, v in point.items()}
    problems = [f"{where}: negative rate for {s}" for s, v in R.items() if v < 0]
    for S in ref.subsets:
        total = sum(R[s] for s in S)
        if total < ref.snapped_sigma(S) - Fraction(1, SNAP):
            problems.append(f"{where}: R({label(S)}) = {total} below sigma {ref.sigma[S]:.12g}")
        for t in sinks:
            if total > ref.rho_t[t][S]:
                problems.append(f"{where}: R({label(S)}) = {total} above rho_{t} {ref.rho_t[t][S]}")
    return problems


def _conflict_problems(ref: Reference, lines, where: str) -> list[str]:
    """The listed rows are rows of the instance, contradict each other, and
    each one is needed for the contradiction."""
    rows, bounds = [], []
    for line in lines:
        try:
            set_name, rest = line.split(": ", 1)
            lhs, sense, bound = rest.split(" ")
            S = tuple(s for s in ref.sources if s in lhs[2:-1].split("+"))
            bound = Fraction(bound)
        except ValueError:
            return [f"{where}: unreadable conflict row {line!r}"]
        if set_name == "slepian-wolf" and sense == ">=":
            if abs(bound - ref.snapped_sigma(S)) > Fraction(1, SNAP):
                return [f"{where}: {line!r} is not the instance's SW bound {ref.sigma[S]:.12g}"]
        elif set_name.startswith("cut[") and sense == "<=":
            t = set_name[4:-1]
            if t not in ref.rho_t or bound != ref.rho_t[t][S]:
                return [f"{where}: {line!r} is not a cut-set row of the instance"]
        else:
            return [f"{where}: unknown conflict row {line!r}"]
        sign = 1.0 if sense == "<=" else -1.0
        rows.append([sign if s in S else 0.0 for s in ref.sources])
        bounds.append(sign * float(bound))
    n = len(ref.sources)
    if _lp_feasible(n, rows, bounds):
        return [f"{where}: conflict rows are jointly feasible"]
    for k in range(len(rows)):
        if not _lp_feasible(n, rows[:k] + rows[k + 1:], bounds[:k] + bounds[k + 1:]):
            return [f"{where}: conflict row {lines[k]!r} is not needed"]
    return []


def check_certify(ref: Reference, feasible: bool, text: str) -> list[str]:
    doc = json.loads(text)
    problems = []
    if doc.get("agreement") == "inconsistent":
        problems.append("agreement is 'inconsistent'")
    if doc.get("condition_holds") != doc.get("regions_nonempty"):
        problems.append("condition_holds differs from regions_nonempty")
    if doc.get("condition_holds") is not feasible:
        problems.append(f"condition_holds {doc.get('condition_holds')!r}, expected {feasible}")
    per_sink = doc.get("per_sink", {})
    if sorted(per_sink) != sorted(ref.sinks):
        return problems + [f"per_sink names {sorted(per_sink)}"]
    for t, entry in per_sink.items():
        if entry.get("feasible") is not feasible:
            problems.append(f"sink {t}: feasible {entry.get('feasible')!r}, expected {feasible}")
        elif feasible:
            problems += _point_problems(ref, entry["witness"], [t], f"sink {t}")
        else:
            problems += _conflict_problems(ref, entry["conflict"], f"sink {t}")
    return problems


def check_separate(ref: Reference, feasible: bool, text: str) -> list[str]:
    doc = json.loads(text)
    problems = []
    if doc.get("separable") is not feasible:
        problems.append(f"separable {doc.get('separable')!r}, expected {feasible}")
    elif feasible:
        problems += _point_problems(ref, doc.get("witness", {}), ref.sinks, "witness")
    else:
        problems += _conflict_problems(ref, doc.get("conflict", []), "conflict")
    if doc.get("rho_N_polymatroid") is not ref.is_polymatroid_rho_n():
        problems.append(f"rho_N_polymatroid {doc.get('rho_N_polymatroid')!r}, "
                        f"expected {ref.is_polymatroid_rho_n()}")
    return problems


def check_simulation(doc: dict, *, n: int, trials: int, seed: int, fixed: bool, sinks) -> list[str]:
    problems = []
    for key, want in (("n", n), ("trials", trials), ("seed", seed), ("fixed_code", fixed)):
        if doc.get(key) != want:
            problems.append(f"{key} = {doc.get(key)!r}, expected {want!r}")
    if sorted(doc.get("sinks", {})) != sorted(sinks):
        return problems + [f"sinks {sorted(doc.get('sinks', {}))}, expected {sorted(sinks)}"]
    for t, stats in doc["sinks"].items():
        errors = stats.get("errors")
        if not isinstance(errors, int) or not 0 <= errors <= trials:
            problems.append(f"sink {t}: errors {errors!r} outside [0, {trials}]")
            continue
        p = errors / trials
        if stats.get("rate") != round9(p):
            problems.append(f"sink {t}: rate {stats.get('rate')!r} != errors/trials")
        if stats.get("half_width") != round9(1.96 * math.sqrt(p * (1 - p) / trials)):
            problems.append(f"sink {t}: half_width {stats.get('half_width')!r} is not the 95% normal half-width")
    return problems


def exceeds(high_errors: int, high_trials: int, low_errors: int, low_trials: int) -> bool:
    """The first error rate exceeds the second at 95% confidence (Wilson bounds)."""
    return _wilson(high_errors, high_trials)[0] > _wilson(low_errors, low_trials)[1]


def _wilson(errors: int, trials: int, z: float = 1.96):
    p = errors / trials
    centre = (p + z * z / (2 * trials)) / (1 + z * z / trials)
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / (1 + z * z / trials)
    return centre - half, centre + half


# --------------------------------------------------------------------------
# Judging one recorded operation.

_VERDICT_EXIT = {"transmissible": 0, "not-transmissible": 1, "boundary": 2}


def judge(op: dict, record: dict, refs: dict) -> list[str]:
    """Problems with one operation's outcome; empty when it succeeded.

    An operation fails when it raises, exits with a code other than
    0/1/2, exits with the wrong one of those, or prints a wrong answer.
    """
    if record.get("error"):
        return [f"raised {record['error']}"]
    code = record["exit"]
    if code not in (0, 1, 2):
        return [f"exit code {code}: {record.get('stderr', '').strip()}"]
    kind, *rest = op["check"]
    if kind == "simulate":
        return check_simulation(record["doc"], n=op["n"], trials=op["trials"], seed=op["seed"],
                                fixed=op["fixed"], sinks=refs[rest[0]].sinks)
    if kind == "verify":
        want = {0}
    elif kind == "decide":
        want = {_VERDICT_EXIT[refs[rest[0]].verdict()]}
    else:
        want = {0, 2} if rest[1] else {1}
    problems = [] if code in want else [f"exit code {code}, expected one of {sorted(want)}"]
    try:
        if kind == "verify":
            problems += check_verify(rest[0], record["stdout"])
        elif kind == "decide":
            problems += check_decide(refs[rest[0]], record["stdout"])
        elif kind == "certify":
            problems += check_certify(refs[rest[0]], rest[1], record["stdout"])
        else:
            problems += check_separate(refs[rest[0]], rest[1], record["stdout"])
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return problems


#: Per block length, the cases whose error rate the halved butterfly (the
#: converse side, rate 1) must exceed at 95% confidence.  At n=6 the
#: correlated source is still mostly atypical, so only the boundary
#: butterfly is compared there.
GATES = {8: ("boundary", "dsbs"), 6: ("boundary",)}


def simulation_gates(pairs) -> dict:
    """Pool simulation outcomes per (n, mode) and apply the gates.

    ``pairs`` holds (op, record) for successful simulation operations.
    Returns {(n, fixed): [problems]} for every group that breaks a gate.
    """
    pooled: dict = {}
    for op, record in pairs:
        group = pooled.setdefault((op["n"], op["fixed"]), {})
        case = group.setdefault(op["check"][1], {})
        for t, stats in record["doc"]["sinks"].items():
            errors, trials = case.get(t, (0, 0))
            case[t] = (errors + stats["errors"], trials + op["trials"])
    broken = {}
    for (n, fixed), group in pooled.items():
        high = group.get("halved", {})
        for low_name in GATES.get(n, ()):
            for t, (low_err, low_trials) in group.get(low_name, {}).items():
                if t in high and not exceeds(*high[t], low_err, low_trials):
                    broken.setdefault((n, fixed), []).append(
                        f"n={n} {'fixed' if fixed else 'fresh'} sink {t}: halved butterfly "
                        f"{high[t][0]}/{high[t][1]} does not exceed {low_name} "
                        f"{low_err}/{low_trials} at 95%")
    return broken
