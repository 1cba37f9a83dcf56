"""Command-line front end: check, mincut, entropy, setfunc, regions,
simulate, demo.

Exit codes: 0 success / condition passes, 1 condition fails, 2 boundary
(every subset tight within tolerance), 64 usage error, 65 input error.
Each subcommand builds one document; ``--format json`` prints it (sorted
keys, stable bytes for fixed inputs and seed) and the default table is
rendered from it, so both show the same values: rationals as exact
fractions, floats rounded to 9 significant digits.  The JSON writer,
errors.dump_json, prints the bytes of json.dumps(doc, indent=2,
sort_keys=True) with the C encoder, and check builds its rows straight
from the report's mask-indexed values.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from pathlib import Path

from . import fixtures
from .entropy import conditional_entropy, entropy_profile, joint_entropy, parse_source_model
from .errors import NetmatchError, dump_json
from .graph import parse_network
from .mincut import capacity_profile, rho_n, rho_t
from .regions import DEFAULT_TOLERANCE, equivalence_check, separation_check
from .scalars import check_tolerance, format_scalar, parse_scalar, round_float
from .setfunc import (is_copolymatroid, is_polymatroid, parse_setfunction, subset_label,
                      subset_labels, subset_masks)
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


# Built once per process: building it takes longer than running a small command.
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="netmatch", description=__doc__)
    parser.add_argument("--format", choices=("table", "json"), default="table")
    parser.add_argument("--quiet", action="store_true", help="suppress normal output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="transmissibility verdict with per-subset margins")
    p.add_argument("--network", required=True)
    p.add_argument("--source", required=True)
    p.add_argument("--tol", default=DEFAULT_TOLERANCE, type=float)

    p = sub.add_parser("mincut", help="capacity functions rho_t / rho_N")
    p.add_argument("--network", required=True)
    p.add_argument("--subset", help="comma-separated source names")
    p.add_argument("--sink")
    p.add_argument("--all", action="store_true", help="full capacity profile")

    p = sub.add_parser("entropy", help="joint and conditional entropy rates")
    p.add_argument("--source", required=True)
    p.add_argument("--subset", help="comma-separated source names")

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
    p.add_argument("--tol", default=DEFAULT_TOLERANCE, type=float,
                   help="only marks an agreement within it as boundary; "
                   "--separation does not read it")

    p = sub.add_parser("simulate", help="random-binning Monte-Carlo error estimation",
                       description="Index-set sizes are exact for any rational capacity, "
                       "tau and delta; each edge's bins are a keyed 64-bit hash, evaluated "
                       "only where queried.  Past 2^24 candidate blocks, past 2^30 "
                       "(block, source subset) pairs in the typicality test, or for a "
                       "node input domain past int64, simulate exits 65.")
    p.add_argument("--network", required=True)
    p.add_argument("--source", required=True)
    p.add_argument("--n", type=int, help="block length, at least 1")
    p.add_argument("--tau", default="1/4")
    p.add_argument("--delta", default="1/20")
    p.add_argument("--lambda", dest="lam", default=None,
                   help="typicality slack (default 3*tau/8)")
    p.add_argument("--trials", default=1000, type=int)
    p.add_argument("--seed", default=0, type=int)
    p.add_argument("--fixed-code", action="store_true",
                   help="reuse one random code across trials")
    p.add_argument("--sweep", help="comma-separated block lengths, each at least 1")

    p = sub.add_parser("demo", help="built-in worked instances")
    p.add_argument("name", choices=("example1", "example2"))
    p.add_argument("--p", default="0.11", help="crossover probability for example2")
    return parser


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise NetmatchError(f"cannot read {path}: {exc}") from exc


def _table(headers, rows) -> str:
    """Aligned columns; document floats (already rounded) print as ``.9g``."""
    cells = [[f"{v:.9g}" if isinstance(v, float) else str(v) for v in row]
             for row in [headers, *rows]]
    widths = [max(len(row[c]) for row in cells) for c in range(len(headers))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in cells]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _split_subset(raw: str) -> list[str]:
    parts = [part.strip() for part in raw.split(",") if part.strip()]
    if not parts:
        raise _UsageError("--subset must name at least one source")
    for i, part in enumerate(parts):
        if part in parts[:i]:
            raise _UsageError(f"--subset names {part!r} twice")
    return parts


# Each _cmd_* returns (exit code, document, table renderer); the renderer
# reads the document's values, and run() calls it only for --format table.

def _cmd_check(args):
    net = parse_network(_read(args.network))
    model = parse_source_model(_read(args.source))
    report = transmissibility_check(net, model, args.tol)
    profile, sigma = report.analysis.capacity, report.analysis.entropy.sigma.values
    labels = subset_labels(report.sources)
    # capacity_profile makes one object per distinct value (a Fraction
    # hashes slowly), so each is formatted once, looked up by identity.
    distinct = {id(value): value for value in profile.network_wide}
    rho_text = {key: format_scalar(value) for key, value in distinct.items()}
    doc = {
        "verdict": report.verdict,
        "tolerance": report.tolerance,
        "sources": list(report.sources),
        "sinks": list(report.sinks),
        "rows": [
            {  # in the table's column order
                "subset": labels[mask],
                "sigma": round_float(sigma[mask]),
                "rho": rho_text[id(profile.network_wide[mask])],
                "margin": round_float(margin),
                "status": status,
                "binding_sink": profile.binding[mask],
            }
            for mask, margin, status in zip(subset_masks(len(report.sources)), report.margins,
                                            report.statuses)
        ],
    }

    def table():
        headers = ("subset", "H(S|rest)", "rho_N", "margin", "status", "binding sink")
        rows = [row.values() for row in doc["rows"]]
        return _table(headers, rows) + "\n" + diagnose(report)

    return _VERDICT_EXIT[report.verdict], doc, table


def _labels(sources) -> list:
    """(label, mask) of every nonempty subset, in the canonical mask order."""
    labels = subset_labels(sources)
    return [(labels[mask], mask) for mask in subset_masks(len(sources))]


def _profile_document(profile) -> dict:
    """Per-sink and network-wide capacity functions keyed by subset label."""
    labels = _labels(profile.sources)

    def column(rho):
        return {label: format_scalar(rho[mask]) for label, mask in labels}

    return {
        "per_sink": {t: column(profile.per_sink[t]) for t in profile.sinks},
        "network_wide": column(profile.network_wide),
    }


def _profile_table(doc) -> str:
    per_sink = doc["per_sink"]
    headers = ["subset", *(f"rho_{t}" for t in per_sink), "rho_N"]
    rows = [[label, *(column[label] for column in per_sink.values()), rho]
            for label, rho in doc["network_wide"].items()]
    return _table(headers, rows)


def _entropy_document(ep) -> dict:
    """Joint and conditional entropy rates keyed by subset label."""
    labels = _labels(ep.sigma.ground)
    return {
        "joint": {label: round_float(ep.joint.values[mask]) for label, mask in labels},
        "conditional": {label: round_float(ep.sigma.values[mask]) for label, mask in labels},
    }


def _entropy_table(doc) -> str:
    rows = [(label, h, doc["conditional"][label]) for label, h in doc["joint"].items()]
    return _table(("subset", "H(S)", "H(S|rest)"), rows)


def _cmd_mincut(args):
    if args.all and (args.subset is not None or args.sink is not None):
        raise _UsageError("--all takes neither --subset nor --sink")
    if args.sink is not None and args.subset is None:
        raise _UsageError("--sink needs --subset")
    net = parse_network(_read(args.network))
    if args.subset is None:
        profile = capacity_profile(net)
        doc = {"sources": list(profile.sources), "sinks": list(profile.sinks),
               **_profile_document(profile)}
        return EXIT_PASS, doc, lambda: _profile_table(doc)
    subset = _split_subset(args.subset)
    value = rho_n(net, subset) if args.sink is None else rho_t(net, subset, args.sink)
    label = f"rho_{'N' if args.sink is None else args.sink}({'+'.join(subset)})"
    doc = {label: format_scalar(value)}
    return EXIT_PASS, doc, lambda: f"{label} = {doc[label]}"


def _cmd_entropy(args):
    model = parse_source_model(_read(args.source))
    if args.subset is not None:
        subset = _split_subset(args.subset)
        doc = {
            "subset": "+".join(subset),
            "joint": round_float(joint_entropy(model, subset)),
            "conditional": round_float(conditional_entropy(model, subset)),
        }
        return EXIT_PASS, doc, lambda: (f"H({doc['subset']}) = {doc['joint']:.9g}\n"
                                        f"H({doc['subset']}|rest) = {doc['conditional']:.9g}")
    ep = entropy_profile(model)
    doc = {"sources": list(model.sources), **_entropy_document(ep)}
    return EXIT_PASS, doc, lambda: _entropy_table(doc)


def _cmd_setfunc(args):
    f = parse_setfunction(_read(args.input))
    checker = is_polymatroid if args.kind == "poly" else is_copolymatroid
    report = checker(f, args.tol)
    doc = {"kind": args.kind, "holds": report.holds}
    if not report.holds:
        doc["axiom"] = report.axiom
        doc["witness"] = [subset_label(S, f.ground) if S else "{}" for S in report.witness]

    def table():
        if doc["holds"]:
            return f"{args.kind}: axioms hold"
        first, second = (label or "{}" for label in doc["witness"])
        return f"{args.kind}: {doc['axiom']} fails on ({first}, {second})"

    return (EXIT_PASS if report.holds else EXIT_FAIL), doc, table


def _rate_point_doc(point, sources) -> dict:
    return {s: format_scalar(point.rates[s]) for s in sources}


def _rate_point_line(rates: dict) -> str:
    return ", ".join(f"R[{s}]={value}" for s, value in rates.items())


def _cmd_regions(args):
    net = parse_network(_read(args.network))
    model = parse_source_model(_read(args.source))
    check_tolerance(args.tol)
    if args.separation:
        report = separation_check(net, model)
        doc = {
            "separable": report.separable,
            "rho_N_polymatroid": report.rho_n_polymatroid.holds,
        }
        if report.witness is not None:
            doc["witness"] = _rate_point_doc(report.witness, report.sources)
        if report.infeasibility is not None:
            doc["conflict"] = report.infeasibility.describe(report.sources)

        def table():
            lines = [f"separable: {doc['separable']}",
                     f"rho_N polymatroid: {doc['rho_N_polymatroid']}"]
            if "witness" in doc:
                lines.append("witness: " + _rate_point_line(doc["witness"]))
            if "conflict" in doc:
                lines += ["contradiction:", *("  " + line for line in doc["conflict"])]
            return "\n".join(lines)

        return (EXIT_PASS if report.separable else EXIT_FAIL), doc, table
    report = equivalence_check(net, model, args.tol)
    doc = {
        "condition_holds": report.condition_holds,
        "min_margin": round_float(report.min_margin),
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

    def table():
        lines = [f"condition holds: {doc['condition_holds']} "
                 f"(min margin {doc['min_margin']:.9g} on {doc['worst_subset']})",
                 f"regions nonempty: {doc['regions_nonempty']} [{doc['agreement']}]"]
        for t, res in doc["per_sink"].items():
            lines.append(f"  {t}: feasible, witness " + _rate_point_line(res["witness"])
                         if res["feasible"] else f"  {t}: infeasible")
        return "\n".join(lines)

    if report.agreement == "inconsistent":
        print("internal consistency failure between the two statements", file=sys.stderr)
        code = EXIT_DATA
    elif not report.condition_holds:
        code = EXIT_FAIL
    else:
        code = EXIT_BOUNDARY if report.agreement == "boundary" else EXIT_PASS
    return code, doc, table


def _cmd_simulate(args):
    net = parse_network(_read(args.network))
    model = parse_source_model(_read(args.source))
    tau = parse_scalar(args.tau, allow_inf=False)
    delta = parse_scalar(args.delta, allow_inf=False)
    lam = Fraction(3, 8) * tau if args.lam is None else parse_scalar(args.lam, allow_inf=False)
    if args.sweep is not None:
        lengths = [int(part) for part in args.sweep.split(",") if part.strip()]
        if not lengths:
            raise _UsageError("--sweep must list at least one block length")
    elif args.n is not None:
        lengths = [args.n]
    else:
        raise _UsageError("simulate needs --n or --sweep")
    docs = [
        estimate_error(net, model, n, tau, delta, lam, args.trials, args.seed,
                       fixed_code=args.fixed_code).to_document()
        for n in lengths
    ]

    def table():
        sinks = docs[0]["sinks"]
        headers = ["n", *(f"err_{t}" for t in sinks), *(f"ci95_{t}" for t in sinks)]
        rows = [[d["n"], *(s["rate"] for s in d["sinks"].values()),
                 *(s["half_width"] for s in d["sinks"].values())] for d in docs]
        return _table(headers, rows)

    return EXIT_PASS, docs[0] if len(docs) == 1 else {"sweep": docs}, table


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


def _cmd_demo(args):
    report = transmissibility_check(*_demo_instance(args))
    profile, ep = report.analysis.capacity, report.analysis.entropy
    doc = {
        "name": args.name,
        **_profile_document(profile),
        "entropies": _entropy_document(ep),
        "verdict": report.verdict,
    }
    if args.name == "example1":
        doc["xor_failures"] = exhaustive_xor_check(8)
        doc["xor_pairs"] = 1 << 16

    def table():
        parts = [_profile_table(doc), _entropy_table(doc["entropies"]), diagnose(report)]
        if "xor_failures" in doc:
            parts.append(f"xor scheme, all {doc['xor_pairs']} input pairs at n=8: "
                         f"{doc['xor_failures']} decoding errors")
        return "\n\n".join(parts)

    return EXIT_PASS, doc, table


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
        code, doc, table = _DISPATCH[args.command](args)
        if not args.quiet:
            print(table() if args.format == "table" else dump_json(doc))
        return code
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
