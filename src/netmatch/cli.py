"""Command-line front end: check, mincut, entropy, setfunc, regions,
simulate, demo.

Exit codes: 0 success / condition passes, 1 condition fails, 2 boundary
(every subset tight within tolerance), 64 usage error, 65 input error.
Rational quantities print as exact fractions, floats to 9 significant
digits; ``--format json`` emits the same values as a structured document
(sorted keys, stable bytes for fixed inputs and seed).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import fixtures
from .entropy import (
    conditional_entropy,
    entropy_profile,
    joint_entropy,
    parse_source_model,
)
from .errors import NetmatchError
from .graph import parse_network
from .mincut import capacity_profile, rho_n, rho_t
from .regions import separation_check, equivalence_check
from .scalars import format_scalar, parse_scalar
from .setfunc import is_copolymatroid, is_polymatroid, parse_setfunction, subset_label
from .simulator import estimate_error, exhaustive_xor_check
from .transmissibility import check as transmissibility_check
from .transmissibility import diagnose

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_BOUNDARY = 2
EXIT_USAGE = 64
EXIT_DATA = 65

_VERDICT_EXIT = {
    "transmissible": EXIT_PASS,
    "not-transmissible": EXIT_FAIL,
    "boundary": EXIT_BOUNDARY,
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="netmatch", description=__doc__)
    parser.add_argument("--format", choices=("table", "json"), default="table")
    parser.add_argument("--quiet", action="store_true", help="suppress normal output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="transmissibility verdict with per-subset margins")
    p.add_argument("--network", required=True)
    p.add_argument("--source", required=True)
    p.add_argument("--tol", default="1e-9", type=float)
    p.add_argument("--max-sources", default=16, type=int)

    p = sub.add_parser("mincut", help="capacity functions rho_t / rho_N")
    p.add_argument("--network", required=True)
    p.add_argument("--subset", help="comma-separated source names")
    p.add_argument("--sink")
    p.add_argument("--all", action="store_true", help="full capacity profile")
    p.add_argument("--max-sources", default=16, type=int)

    p = sub.add_parser("entropy", help="joint and conditional entropy rates")
    p.add_argument("--source", required=True)
    p.add_argument("--subset", help="comma-separated source names")
    p.add_argument("--max-sources", default=16, type=int)

    p = sub.add_parser("setfunc", help="set-function axioms")
    setfunc_sub = p.add_subparsers(dest="setfunc_command", required=True)
    v = setfunc_sub.add_parser("verify", help="check polymatroid axioms")
    v.add_argument("--kind", choices=("poly", "copoly"), required=True)
    v.add_argument("--input", required=True)
    v.add_argument("--tol", default=None, type=float)

    p = sub.add_parser("regions", help="rate-region equivalence and separation")
    p.add_argument("--network", required=True)
    p.add_argument("--source", required=True)
    p.add_argument("--separation", action="store_true")
    p.add_argument("--tol", default="1e-9", type=float)
    p.add_argument("--max-sources", default=16, type=int)

    p = sub.add_parser("simulate", help="random-binning Monte-Carlo error estimation")
    p.add_argument("--network", required=True)
    p.add_argument("--source", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--tau", default="1/4")
    p.add_argument("--delta", default="1/20")
    p.add_argument("--lambda", dest="lam", default=None,
                   help="typicality slack (default 3*tau/8)")
    p.add_argument("--trials", default=1000, type=int)
    p.add_argument("--seed", default=0, type=int)
    p.add_argument("--fixed-code", action="store_true",
                   help="reuse one random code across trials")
    p.add_argument("--sweep", help="comma-separated block lengths")

    p = sub.add_parser("demo", help="built-in worked instances")
    p.add_argument("name", choices=("example1", "example2"))
    p.add_argument("--p", default="0.11", help="crossover probability for example2")
    return parser


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise NetmatchError(f"cannot read {path}: {exc}") from exc


def _emit(args, text: str) -> None:
    if not args.quiet:
        print(text)


def _dump(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


def _round9(x: float) -> float:
    return float(f"{float(x):.9g}")


def _table(headers, rows) -> str:
    cells = [list(map(str, headers))] + [list(map(str, r)) for r in rows]
    widths = [max(len(row[c]) for row in cells) for c in range(len(headers))]
    lines = []
    for k, row in enumerate(cells):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if k == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _split_subset(raw: str) -> list[str]:
    parts = [part.strip() for part in raw.split(",") if part.strip()]
    if not parts:
        raise _UsageError("--subset must name at least one source")
    return parts


def _report_document(report) -> dict:
    return {
        "verdict": report.verdict,
        "tolerance": report.tolerance,
        "sources": list(report.sources),
        "sinks": list(report.sinks),
        "rows": [
            {
                "subset": row.label,
                "sigma": _round9(row.sigma),
                "rho": format_scalar(row.rho),
                "margin": _round9(row.margin),
                "status": row.status,
                "binding_sink": row.binding_sink,
            }
            for row in report.rows
        ],
    }


def _cmd_check(args) -> int:
    net = parse_network(_read(args.network))
    model = parse_source_model(_read(args.source))
    report = transmissibility_check(net, model, args.tol, max_sources=args.max_sources)
    if args.format == "json":
        _emit(args, _dump(_report_document(report)))
    else:
        rows = [
            (row.label, f"{row.sigma:.9g}", format_scalar(row.rho),
             f"{row.margin:.9g}", row.status, row.binding_sink)
            for row in report.rows
        ]
        _emit(args, _table(
            ("subset", "H(S|rest)", "rho_N", "margin", "status", "binding sink"), rows))
        _emit(args, diagnose(report))
    return _VERDICT_EXIT[report.verdict]


def _profile_subsets(profile) -> list:
    return sorted(profile.network_wide, key=lambda S: (len(S), sorted(S)))


def _profile_document(profile) -> dict:
    """Per-sink and network-wide capacity functions keyed by subset label."""
    subsets = _profile_subsets(profile)
    return {
        "per_sink": {
            t: {subset_label(S, profile.sources): format_scalar(profile.per_sink[t][S])
                for S in subsets}
            for t in profile.sinks
        },
        "network_wide": {
            subset_label(S, profile.sources): format_scalar(profile.network_wide[S])
            for S in subsets
        },
    }


def _profile_table(profile) -> str:
    headers = ("subset",) + tuple(f"rho_{t}" for t in profile.sinks) + ("rho_N",)
    rows = [
        (subset_label(S, profile.sources),)
        + tuple(format_scalar(profile.per_sink[t][S]) for t in profile.sinks)
        + (format_scalar(profile.network_wide[S]),)
        for S in _profile_subsets(profile)
    ]
    return _table(headers, rows)


def _entropy_document(ep, sources) -> dict:
    """Joint and conditional entropy rates keyed by subset label."""
    return {
        "joint": {subset_label(S, sources): _round9(ep.joint(S)) for S in ep.sigma.subsets},
        "conditional": {subset_label(S, sources): _round9(ep.sigma(S)) for S in ep.sigma.subsets},
    }


def _entropy_table(ep, sources) -> str:
    rows = [
        (subset_label(S, sources), f"{ep.joint(S):.9g}", f"{ep.sigma(S):.9g}")
        for S in ep.sigma.subsets
    ]
    return _table(("subset", "H(S)", "H(S|rest)"), rows)


def _cmd_mincut(args) -> int:
    net = parse_network(_read(args.network))
    if args.all or not args.subset:
        profile = capacity_profile(net, max_sources=args.max_sources)
        if args.format == "json":
            _emit(args, _dump({"sources": list(profile.sources), "sinks": list(profile.sinks),
                               **_profile_document(profile)}))
        else:
            _emit(args, _profile_table(profile))
        return EXIT_PASS
    subset = _split_subset(args.subset)
    if args.sink:
        value = rho_t(net, subset, args.sink)
        label = f"rho_{args.sink}({'+'.join(subset)})"
    else:
        value = rho_n(net, subset)
        label = f"rho_N({'+'.join(subset)})"
    if args.format == "json":
        _emit(args, _dump({label: format_scalar(value)}))
    else:
        _emit(args, f"{label} = {format_scalar(value)}")
    return EXIT_PASS


def _cmd_entropy(args) -> int:
    model = parse_source_model(_read(args.source))
    if args.subset:
        subset = _split_subset(args.subset)
        joint = joint_entropy(model, subset)
        sigma = conditional_entropy(model, subset)
        doc = {
            "subset": "+".join(subset),
            "joint": _round9(joint),
            "conditional": _round9(sigma),
        }
        if args.format == "json":
            _emit(args, _dump(doc))
        else:
            _emit(args, f"H({doc['subset']}) = {joint:.9g}")
            _emit(args, f"H({doc['subset']}|rest) = {sigma:.9g}")
        return EXIT_PASS
    ep = entropy_profile(model, max_sources=args.max_sources)
    if args.format == "json":
        _emit(args, _dump({"sources": list(model.sources),
                           **_entropy_document(ep, model.sources)}))
    else:
        _emit(args, _entropy_table(ep, model.sources))
    return EXIT_PASS


def _cmd_setfunc(args) -> int:
    f = parse_setfunction(_read(args.input))
    checker = is_polymatroid if args.kind == "poly" else is_copolymatroid
    report = checker(f, args.tol)
    doc = {"kind": args.kind, "holds": report.holds}
    if not report.holds:
        doc["axiom"] = report.axiom
        doc["witness"] = [subset_label(S, f.ground) if S else "{}" for S in report.witness]
    if args.format == "json":
        _emit(args, _dump(doc))
    elif report.holds:
        _emit(args, f"{args.kind}: axioms hold")
    else:
        _emit(args, f"{args.kind}: {report.axiom} fails on ({doc['witness'][0] or '{}'}, "
                    f"{doc['witness'][1] or '{}'})")
    return EXIT_PASS if report.holds else EXIT_FAIL


def _rate_point_doc(point, sources) -> dict:
    return {s: format_scalar(point.rates[s]) for s in sources}


def _rate_point_line(point, sources) -> str:
    return ", ".join(f"R[{s}]={format_scalar(point.rates[s])}" for s in sources)


def _cmd_regions(args) -> int:
    net = parse_network(_read(args.network))
    model = parse_source_model(_read(args.source))
    if args.separation:
        report = separation_check(net, model, args.tol, max_sources=args.max_sources)
        doc = {
            "separable": report.separable,
            "rho_N_polymatroid": report.rho_n_polymatroid.holds,
        }
        if report.witness is not None:
            doc["witness"] = _rate_point_doc(report.witness, report.sources)
        if report.infeasibility is not None:
            doc["conflict"] = report.infeasibility.describe(report.sources)
        if args.format == "json":
            _emit(args, _dump(doc))
        else:
            _emit(args, f"separable: {report.separable}")
            _emit(args, f"rho_N polymatroid: {report.rho_n_polymatroid.holds}")
            if report.witness is not None:
                _emit(args, "witness: " + _rate_point_line(report.witness, report.sources))
            if report.infeasibility is not None:
                _emit(args, "contradiction:")
                for line in report.infeasibility.describe(report.sources):
                    _emit(args, "  " + line)
        return EXIT_PASS if report.separable else EXIT_FAIL
    report = equivalence_check(net, model, args.tol, max_sources=args.max_sources)
    doc = {
        "condition_holds": report.condition_holds,
        "min_margin": _round9(report.min_margin),
        "worst_subset": subset_label(report.worst_subset, report.sources),
        "regions_nonempty": report.regions_nonempty,
        "agreement": report.agreement,
        "per_sink": {
            t: (
                {"feasible": True, "witness": _rate_point_doc(res.point, report.sources)}
                if res.point is not None
                else {"feasible": False, "conflict": res.witness.describe(report.sources)}
            )
            for t, res in report.per_sink.items()
        },
    }
    if args.format == "json":
        _emit(args, _dump(doc))
    else:
        _emit(args, f"condition holds: {report.condition_holds} "
                    f"(min margin {report.min_margin:.9g} on {doc['worst_subset']})")
        _emit(args, f"regions nonempty: {report.regions_nonempty} [{report.agreement}]")
        for t, res in report.per_sink.items():
            if res.point is not None:
                _emit(args, f"  {t}: feasible, witness "
                            + _rate_point_line(res.point, report.sources))
            else:
                _emit(args, f"  {t}: infeasible")
    if report.agreement == "inconsistent":
        print("internal consistency failure between the two statements", file=sys.stderr)
        return EXIT_DATA
    if not report.condition_holds:
        return EXIT_FAIL
    return EXIT_BOUNDARY if report.agreement == "boundary" else EXIT_PASS


def _cmd_simulate(args) -> int:
    net = parse_network(_read(args.network))
    model = parse_source_model(_read(args.source))
    tau = parse_scalar(args.tau, allow_inf=False)
    delta = parse_scalar(args.delta, allow_inf=False)
    lam = Fraction(3, 8) * tau if args.lam is None else parse_scalar(args.lam, allow_inf=False)
    if args.sweep:
        lengths = [int(part) for part in args.sweep.split(",") if part.strip()]
    elif args.n is not None:
        lengths = [args.n]
    else:
        raise _UsageError("simulate needs --n or --sweep")
    results = [
        estimate_error(net, model, n, tau, delta, lam, args.trials, args.seed,
                       fixed_code=args.fixed_code)
        for n in lengths
    ]
    if args.format == "json":
        docs = [r.to_document() for r in results]
        _emit(args, _dump(docs[0] if len(docs) == 1 else {"sweep": docs}))
    else:
        headers = ("n",) + tuple(
            f"err_{t}" for t in results[0].per_sink
        ) + tuple(f"ci95_{t}" for t in results[0].per_sink)
        rows = []
        for r in results:
            rows.append(
                (r.n,)
                + tuple(f"{stats.rate:.9g}" for stats in r.per_sink.values())
                + tuple(f"{stats.half_width:.9g}" for stats in r.per_sink.values())
            )
        _emit(args, _table(headers, rows))
    return EXIT_PASS


def _demo_instance(args):
    if args.name == "example1":
        return fixtures.butterfly_network(), fixtures.uniform_pair_source()
    try:
        p = parse_scalar(args.p, allow_inf=False)
    except ValueError as exc:
        raise _UsageError(f"--p: {exc}") from exc
    if not 0 <= p <= Fraction(1, 2):
        raise _UsageError("--p must lie in [0, 1/2]")
    return fixtures.dsbs_network(p), fixtures.dsbs_source(p)


def _cmd_demo(args) -> int:
    report = transmissibility_check(*_demo_instance(args))
    profile, ep = report.analysis.capacity, report.analysis.entropy
    doc = {
        "name": args.name,
        **_profile_document(profile),
        "entropies": _entropy_document(ep, profile.sources),
        "verdict": report.verdict,
    }
    if args.name == "example1":
        doc["xor_failures"] = exhaustive_xor_check(8)
        doc["xor_pairs"] = 1 << 16
    if args.format == "json":
        _emit(args, _dump(doc))
        return EXIT_PASS
    _emit(args, _profile_table(profile))
    _emit(args, "")
    _emit(args, _entropy_table(ep, profile.sources))
    _emit(args, "")
    _emit(args, diagnose(report))
    if args.name == "example1":
        failures = doc["xor_failures"]
        _emit(args, "")
        _emit(args, f"xor scheme, all {doc['xor_pairs']} input pairs at n=8: "
                    f"{failures} decoding errors")
    return EXIT_PASS


_DISPATCH = {
    "check": _cmd_check,
    "mincut": _cmd_mincut,
    "entropy": _cmd_entropy,
    "setfunc": _cmd_setfunc,
    "regions": _cmd_regions,
    "simulate": _cmd_simulate,
    "demo": _cmd_demo,
}


def run(argv) -> int:
    """Parse arguments and dispatch; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _DISPATCH[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NetmatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
