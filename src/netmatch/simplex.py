"""Exact feasibility of subset-sum systems over nonnegative variables.

One private solver decides every system: a compact dictionary simplex.
Each row becomes a.x <= b with a slack w = b - a.x, and the dictionary
holds each basic variable as an affine function of the k + 1 nonbasic
ones, so a pivot updates (rows) x (k + 2) entries.  Bounds are scaled to
integers and pivots are fraction-free, so instances lying exactly on a
face are decided exactly.  Phase 1 is Chvatal's single-auxiliary one: x0
joins every row, pivots in at the most negative bound (lowest row on
ties), and -x0 is maximised by Bland's rule on variable ids (x0 is 0,
x_1..x_k are 1..k in variable order, row r's slack is k + 1 + r): the
lowest id with a positive objective coefficient enters, and min-ratio
ties leave at the lowest basic id.

Vertex rule: a feasible system returns the vertex where that pivot
sequence stops (the origin if it is feasible).  Otherwise the objective
row's negated slack coefficients are a Farkas certificate y >= 0 with
y.A >= 0 and y.b < 0 on at most k + 1 rows.  A point is checked exactly
against every row, a certificate over its support; a failed check raises
``AssertionError``.

The irreducible infeasible subset that :func:`point_or_iis` returns is
the deletion filter's (Chinneck and Dravnieks, 1991): rows in order, each
dropped iff the rest stays infeasible.  A row outside the current
certificate's support is dropped without a solve, as the certificate
still holds for the rest; the filter keeps the rows a filter solving
every row would keep.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence


def _rows(variables: Sequence[str], constraints: Sequence[tuple]) -> list[tuple]:
    """Each constraint as (integer coefficients a, Fraction b) of a.x <= b."""
    pos = {v: i for i, v in enumerate(variables)}
    rows = []
    for subset, sense, bound in constraints:
        if sense not in ("<=", ">="):
            raise ValueError(f"unknown constraint sense {sense!r}")
        a = [0] * len(pos)
        for v in subset:
            a[pos[v]] += 1
        bound = Fraction(bound)
        rows.append((a, bound) if sense == "<=" else ([-c for c in a], -bound))
    return rows


def _solve(rows: Sequence[tuple], k: int) -> tuple:
    """(point, None) with x >= 0 meeting every row, or (None, y) with y a
    Farkas certificate {row index: positive int}."""
    m = len(rows)
    scale = math.lcm(*(b.denominator for _, b in rows))
    bounds = [b.numerator * (scale // b.denominator) for _, b in rows]
    # The dictionary of the rows scaled by `scale`, times the common
    # denominator d: table[r] = [constant, coefficients of the nonbasic
    # variables] for basic[r]; the last row is the objective, -x0.
    table = [[b, 1] + [-c for c in a] for (a, _), b in zip(rows, bounds)] + [[0, -1] + [0] * k]
    obj = table[-1]
    basic = [k + 1 + r for r in range(m)]
    nonbasic = list(range(k + 1))
    d = 1

    def pivot(r: int, s: int) -> None:
        nonlocal d
        row, sign = table[r], 1 if table[r][s] > 0 else -1
        for other in table:  # every division by the old denominator is exact
            if other is not row:
                q = other[s]
                other[:] = [sign * (x * row[s] - q * row[j]) // d for j, x in enumerate(other)]
                other[s] = sign * q
        table[r] = [-sign * x for x in row]
        table[r][s], d = sign * d, sign * row[s]
        basic[r], nonbasic[s - 1] = nonbasic[s - 1], basic[r]

    if m and min(bounds) < 0:
        pivot(bounds.index(min(bounds)), 1)
        while entering := [(nonbasic[j - 1], j) for j in range(1, k + 2) if obj[j] > 0]:
            s = min(entering)[1]
            leave = None  # min ratio t[0] / -t[s] by cross-multiplication
            for r, t in enumerate(table[:m]):
                if t[s] < 0 and (leave is None or (t[0] * -table[leave][s], basic[r])
                                 < (table[leave][0] * -t[s], basic[leave])):
                    leave = r
            pivot(leave, s)

    if obj[0] < 0:
        y = {nonbasic[j - 1] - k - 1: -obj[j]
             for j in range(1, k + 2) if nonbasic[j - 1] > k and obj[j]}
        if (min(y.values(), default=0) <= 0 or sum(v * bounds[r] for r, v in y.items()) >= 0
                or any(sum(v * rows[r][0][i] for r, v in y.items()) < 0 for i in range(k))):
            raise AssertionError("simplex found an invalid Farkas certificate")
        return None, y
    value = dict(zip(basic, (t[0] for t in table)))
    point = [value.get(var, 0) for var in range(1, k + 1)]
    if min(point, default=0) < 0 or any(
            sum(c * x for c, x in zip(a, point) if c) > b * d for (a, _), b in zip(rows, bounds)):
        raise AssertionError("simplex found a point outside the system")
    return [Fraction(x, d * scale) for x in point], None


def solve_feasibility(
    variables: Sequence[str],
    constraints: Sequence[tuple],
) -> Optional[dict]:
    """Nonnegative values meeting every constraint sum_{v in subset} x_v
    <sense> bound: the vertex of the module's rule as a dict variable ->
    Fraction, or None when the system is infeasible."""
    point, _ = _solve(_rows(variables, constraints), len(variables))
    return None if point is None else dict(zip(variables, point))


def point_or_iis(
    variables: Sequence[str],
    constraints: Sequence[tuple],
) -> tuple[Optional[dict], Optional[list[int]]]:
    """(point, None) as :func:`solve_feasibility` finds it, or (None, the
    indices of the deletion filter's irreducible infeasible subsystem),
    solving the full system once."""
    rows, k = _rows(variables, constraints), len(variables)
    point, y = _solve(rows, k)
    if point is not None:
        return dict(zip(variables, point)), None
    keep = list(range(len(rows)))
    for r in range(len(rows)):
        trial = [i for i in keep if i != r]
        if r in y:
            point, sub = _solve([rows[i] for i in trial], k)
            if point is not None:
                continue
            y = {trial[i]: v for i, v in sub.items()}
        keep = trial
    return None, keep
