"""The headline check: can the correlated sources be multicast at all?

The matching condition compares, for every nonempty subset S of sources,
the conditional entropy rate of S given the rest against the network-wide
capacity function rho_n(S).  The sources are transmissible exactly when no
subset's entropy exceeds its capacity.  The flagship instances sit exactly
on the boundary, so each row carries a three-valued status (pass / tight /
fail) instead of a bare boolean, and the overall verdict distinguishes
"boundary" (every subset tight) from plain "transmissible".

The comparison is on floats: rho_n(S) as a float minus the float entropy,
against the tolerance.  It reads the same :class:`regions.Analysis` as
:func:`regions.equivalence_check`, whose comparison is exact on entropies
snapped at 1e-12; the regions module docstring gives a case where the two
differ.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .entropy import SourceModel
from .graph import Edge, Network
from .mincut import max_flow
from .regions import DEFAULT_TOLERANCE, Analysis, prepare_profiles
from .scalars import check_tolerance, format_scalar, to_float
from .setfunc import members, subset_labels, subset_masks


@dataclass(frozen=True)
class SubsetRow:
    """One subset's entropy/capacity comparison.

    ``margin`` is rho_n(S) minus the conditional entropy of S; the status
    is "fail" below -tolerance, "tight" within it, "pass" above.
    ``binding_sink`` attains the minimum over sinks;
    :meth:`TransmissibilityReport.cut_edges` names a minimum cut for it.
    """

    subset: frozenset
    label: str
    sigma: float
    rho: object  # Fraction or inf
    margin: float
    status: str
    binding_sink: str


@dataclass(frozen=True)
class TransmissibilityReport:
    """The verdict, and every subset's margin and status.

    ``margins`` and ``statuses`` are in row order: the subsets of
    ``setfunc.subset_masks``, over ``sources``.  ``rows`` gives the same
    values, with each subset's entropy, capacity and binding sink, as
    :class:`SubsetRow` objects, built on first read; :meth:`rows_at`
    builds only the rows asked for.
    """

    verdict: str  # "transmissible" | "not-transmissible" | "boundary"
    tolerance: float
    sources: tuple[str, ...]
    sinks: tuple[str, ...]
    margins: tuple[float, ...]
    statuses: tuple[str, ...]
    analysis: Analysis = field(repr=False, compare=False)  # the profiles behind the verdict

    @functools.cached_property
    def rows(self) -> tuple[SubsetRow, ...]:
        return tuple(self.rows_at(range(len(self.margins))))

    def rows_at(self, indices) -> list[SubsetRow]:
        """The rows at ``indices``, positions in row order."""
        profile, sigma = self.analysis.capacity, self.analysis.entropy.sigma.values
        labels, masks = subset_labels(self.sources), subset_masks(len(self.sources))
        return [SubsetRow(subset=members(masks[i], self.sources), label=labels[masks[i]],
                          sigma=sigma[masks[i]], rho=profile.network_wide[masks[i]],
                          margin=self.margins[i], status=self.statuses[i],
                          binding_sink=profile.binding[masks[i]])
                for i in indices]

    @property
    def min_margin(self) -> float:
        return min(self.margins)

    @property
    def worst_row(self) -> SubsetRow:
        return self.rows_at([self.margins.index(self.min_margin)])[0]

    @property
    def transmissible(self) -> bool:
        return self.verdict != "not-transmissible"

    def cut_edges(self, row: SubsetRow) -> tuple[Edge, ...]:
        """The network's edges across ``row``'s minimum cut (one
        :func:`max_flow`, for its subset and binding sink), in edge order.
        A binding sink inside the subset has no cut: ``max_flow`` raises."""
        net = self.analysis.network
        members = max_flow(net, row.subset, row.binding_sink)[1]
        return tuple(e for e in net.edges if e.tail in members and e.head not in members)


def check(
    net: Network,
    m: SourceModel,
    tol: float = DEFAULT_TOLERANCE,
) -> TransmissibilityReport:
    """Evaluate the matching condition with per-subset diagnostics.

    The network is read as given and fixes the source order, whatever the
    model's: rows are labeled, and ``sources`` reported, in its order, and
    listed by subset size, then lexicographically by source position.
    Margins and statuses are read off the profiles' mask-indexed values;
    no row object is built here.
    """
    tol = check_tolerance(tol)
    analysis = prepare_profiles(net, m)
    profile, sigma = analysis.capacity, analysis.entropy.sigma.values
    rho = profile.network_wide
    margins = tuple([to_float(rho[mask]) - sigma[mask]
                     for mask in subset_masks(len(profile.sources))])
    statuses = tuple(["fail" if margin < -tol else "tight" if margin <= tol else "pass"
                      for margin in margins])
    if "fail" in statuses:
        verdict = "not-transmissible"
    elif "pass" not in statuses:
        verdict = "boundary"
    else:
        verdict = "transmissible"
    return TransmissibilityReport(
        verdict=verdict,
        tolerance=tol,
        sources=profile.sources,
        sinks=profile.sinks,
        margins=margins,
        statuses=statuses,
        analysis=analysis,
    )


def diagnose(report: TransmissibilityReport) -> str:
    """Human-readable summary: tightest subsets, binding sinks, and the
    smallest total capacity increase that could restore a failing check,
    across the worst subset's minimum cut (the one max-flow run here)."""
    lines = [f"verdict: {report.verdict} (tolerance {report.tolerance:g})"]
    failing = report.statuses.count("fail")
    worst = report.worst_row
    if failing:
        delta = -worst.margin
        lines.append(
            f"violated on {failing} subset(s); worst is {{{worst.label}}} "
            f"with margin {worst.margin:.9g} at sink {worst.binding_sink}"
        )
        edges = ", ".join(f"({e.tail}->{e.head}, {format_scalar(e.capacity)})"
                          for e in report.cut_edges(worst))
        lines.append(
            f"any fix must add at least {delta:.9g} bits/symbol of capacity "
            f"across the minimum cut of {{{worst.label}}}: edges {edges}"
        )
    else:
        lines.append(
            f"transmissible with minimum margin {worst.margin:.9g} "
            f"on subset {{{worst.label}}}"
        )
    tight = [i for i, status in enumerate(report.statuses) if status == "tight"]
    for row in report.rows_at(tight):
        lines.append(f"tight subset {{{row.label}}}: binding sink {row.binding_sink}")
    return "\n".join(lines)
