"""Command-line front end.

All subcommands print JSON on standard output; with --verbose a short
human-readable summary goes to standard error.  Exit codes: 0 on success,
1 on computation errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from fractions import Fraction
from pathlib import Path

from . import conversion, ghz_symmetric as gs, measures, witnesses
from .catalog import CATALOG, build as build_catalog_state, ghz, w_state
from .linalg import (
    Bipartition,
    DensityMatrix,
    density_from_json,
    state_from_json,
    state_to_json,
)
from .report import run_claims

DEFAULT_SEED_ENV = "ENTACTIC_SEED"
CUT_SYNTAX = re.compile(r"[1-9][0-9]*(,[1-9][0-9]*)*")


def _default_seed(parser: argparse.ArgumentParser) -> int:
    """The seed for commands run without --seed: ENTACTIC_SEED, else
    measures.DEFAULT_SEED.  A value that is not a non-negative integer is a
    usage error (exit 2)."""
    text = os.environ.get(DEFAULT_SEED_ENV, str(measures.DEFAULT_SEED))
    try:
        seed = int(text)
    except ValueError:
        parser.exit(2, f"error: {DEFAULT_SEED_ENV} must be an integer, got {text!r}\n")
    if seed < 0:
        parser.exit(2, f"error: {DEFAULT_SEED_ENV} must be non-negative, got {text!r}\n")
    return seed


def _emit(obj, verbose_note=None, verbose=False):
    print(json.dumps(obj, sort_keys=True))
    if verbose and verbose_note:
        print(verbose_note, file=sys.stderr)


def _load_state(path: str):
    return state_from_json(Path(path).read_text())


def _load_any(path: str) -> DensityMatrix:
    """A file with an "amplitudes" field is read as a pure state, any other
    as a density matrix; errors come from the parser of the kind chosen."""
    text = Path(path).read_text()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError:
        obj = None
    if isinstance(obj, dict) and "amplitudes" in obj:
        return state_from_json(text).density()
    return density_from_json(text)


def _cut_arg(text: str, n: int) -> Bipartition:
    """The cut named by --cut, whose syntax `_check_measure_flags` checked."""
    return Bipartition(n, frozenset(int(x) for x in text.split(",")))


def _parse_params(text: str) -> gs.GhzSymmetricParams:
    try:
        parts = [Fraction(x.strip()) for x in text.split(",")]
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in --params {text!r}") from None
    if len(parts) != 3:
        raise ValueError("expected three comma-separated weights")
    return gs.GhzSymmetricParams(*parts)


def _frac_json(x: Fraction):
    return {"value": float(x), "exact": [x.numerator, x.denominator]}


def _cmd_catalog(args):
    psi = build_catalog_state(args.name, args.params)
    print(state_to_json(psi))
    if args.verbose:
        print(f"{args.name}: n={psi.n} d={psi.d}", file=sys.stderr)
    return 0


def _cmd_measure(args):
    psi = _load_state(args.infile)
    if args.kind == "gbs":
        res = measures.geometric_bs(psi)
        cert = str(res.certificate)
    elif args.kind == "gfs":
        res = measures.geometric_fs(psi, args.seed)
        cert = "product-state"
    elif args.kind == "rbs-upper":
        res = measures.robustness_bs_upper(psi)
        cert = str(res.certificate)
    elif args.kind == "rpure":
        cut = _cut_arg(args.cut, psi.n)
        value = measures.robustness_bipartite_pure(psi, cut)
        _emit({"kind": args.kind, "value": value, "cut": str(cut)}, verbose=args.verbose)
        return 0
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(args.kind)
    _emit(
        {
            "kind": args.kind,
            "value": res.value,
            "certificate": cert,
            "iterations": res.iterations,
            "converged": res.converged,
        },
        verbose_note=f"{args.kind} = {res.value:.12g}",
        verbose=args.verbose,
    )
    return 0


def _cmd_twirl(args):
    rho = _load_any(args.infile)
    params = gs.twirl(rho)
    lp, lm, lr = params.as_floats()
    _emit(
        {"lambda_plus": lp, "lambda_minus": lm, "lambda_rest": lr},
        verbose_note=f"twirl -> ({lp:.6g}, {lm:.6g}, {lr:.6g})",
        verbose=args.verbose,
    )
    return 0


def _cmd_symmetric_robustness(args):
    target = _parse_params(args.params)
    s, mixer = gs.symmetric_robustness(target)
    mp, mm, mr = mixer.as_fractions()
    _emit(
        {
            "value": _frac_json(Fraction(s)),
            "mixer": {
                "lambda_plus": _frac_json(mp),
                "lambda_minus": _frac_json(mm),
                "lambda_rest": _frac_json(mr),
            },
        },
        verbose_note=f"s = {float(s):.12g}",
        verbose=args.verbose,
    )
    return 0


def _cmd_witness(args):
    wit = (
        witnesses.ghz_robustness_witness()
        if args.name == "ghz"
        else witnesses.w_robustness_witness()
    )
    out = {"name": wit.name, "verified_range": list(wit.verified_range)}
    if args.check:
        lo, hi, _, _ = witnesses.witness_range_over_fs(wit, args.seed)
        out["optimizer_range"] = [lo, hi]
        target = ghz(3, 2) if args.name == "ghz" else w_state()
        out["trace_on_target"] = wit.expectation(target.density())
    if args.eval:
        rho = _load_any(args.eval)
        out["dual_lower_bound"] = witnesses.robustness_lower_from_witness(rho, wit)
    _emit(out, verbose=args.verbose)
    return 0


def _check_measure_flags(parser: argparse.ArgumentParser, args) -> None:
    """--cut is what rpure measures across and no other kind reads it, so
    rpure requires it and every other kind refuses it; its value must be
    comma-separated positive integers.  Otherwise a usage error (exit 2)."""
    if args.kind == "rpure" and args.cut is None:
        parser.exit(2, "error: --kind rpure requires --cut\n")
    if args.kind != "rpure" and args.cut is not None:
        parser.exit(2, "error: --cut requires --kind rpure\n")
    if args.cut is not None and not CUT_SYNTAX.fullmatch(args.cut):
        parser.exit(2, "error: --cut must be comma-separated positive integers"
                       f" such as 1,2, got {args.cut!r}\n")


def _check_convert_flags(parser: argparse.ArgumentParser, args) -> None:
    """--p and --verify act on the built map, so each requires --build, and
    an audit needs at least one sample; --r-upper is the supplied FSP bound,
    so it requires --theory fsp.  Otherwise a usage error (exit 2)."""
    if args.r_upper is not None and args.theory != "fsp":
        parser.exit(2, "error: --r-upper requires --theory fsp\n")
    for flag, value in (("--p", args.p), ("--verify", args.verify)):
        if value is not None and not args.build:
            parser.exit(2, f"error: {flag} requires --build\n")
    if args.verify is not None and args.verify < 1:
        parser.exit(2, f"error: --verify must be >= 1, got {args.verify}\n")


def _cmd_convert(args):
    psi1 = _load_state(args.source)
    psi2 = _load_state(args.target)
    theory = conversion.FSP if args.theory == "fsp" else conversion.BSP
    if args.build and theory == conversion.FSP:
        raise ValueError(conversion.FSP_BUILD_REFUSAL)
    cert = conversion.max_probability(psi1, psi2, theory, args.seed, r_upper=args.r_upper)
    out = {
        "g_source": cert.g_source,
        "r_target": cert.r_target,
        "p_max": cert.p_max,
        "deterministic": cert.deterministic,
        "theory": cert.theory,
        "provenance": cert.provenance,
    }
    if args.build:
        p = args.p if args.p is not None else cert.p_max
        prep = conversion.build_filter_map(cert, p)
        out["built"] = {"p": prep.p, "mixer_cut": str(prep.mixer_cut)}
        if args.verify is not None:
            rep = conversion.verify_preservation_sampled(prep, args.verify, args.seed)
            out["preservation"] = {
                "samples": rep.samples,
                "violations": rep.violations,
                "worst_overlap_margin": rep.worst_overlap_margin,
                "worst_ratio_margin": rep.worst_ratio_margin,
            }
    _emit(out, verbose_note=f"p_max = {cert.p_max:.6g}", verbose=args.verbose)
    return 0


def _cmd_reproduce(args):
    selection = None if args.all else set(args.select.split(","))
    if selection == {""}:
        raise ValueError("--select names no claim ids")
    rep = run_claims(selection, seed=args.seed, timing=args.timing)
    text = json.dumps(rep, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text)
    print(text)
    if args.verbose:
        for c in rep["claims"]:
            status = "pass" if c["pass"] else "FAIL"
            print(f"[{status}] {c['ref']:5s} {c['id']}", file=sys.stderr)
    return 0 if rep["all_pass"] else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser, built on first use: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="entactic")
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="emit a named state as JSON")
    p.add_argument("name", choices=sorted(CATALOG))
    p.add_argument("params", nargs="*")
    p.set_defaults(fn=_cmd_catalog)

    p = sub.add_parser("measure", help="evaluate an entanglement measure")
    p.add_argument("--kind", required=True, choices=["gfs", "gbs", "rbs-upper", "rpure"])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--cut", help="parties on one side, e.g. 1,2 (requires --kind rpure)")
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=_cmd_measure)

    p = sub.add_parser("twirl", help="project a 3-qubit state onto the symmetric family")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(fn=_cmd_twirl)

    p = sub.add_parser("symmetric-robustness", help="exact restricted robustness")
    p.add_argument("--params", required=True, help="l+,l-,l as fractions or decimals")
    p.set_defaults(fn=_cmd_symmetric_robustness)

    p = sub.add_parser("witness", help="inspect or apply a shipped witness")
    p.add_argument("--name", required=True, choices=["ghz", "w"])
    p.add_argument("--check", action="store_true")
    p.add_argument("--eval")
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=_cmd_witness)

    p = sub.add_parser("convert", help="conversion certificate and optional build")
    p.add_argument("--from", dest="source", required=True)
    p.add_argument("--to", dest="target", required=True)
    p.add_argument("--theory", required=True, choices=["fsp", "bsp"])
    p.add_argument("--r-upper", type=float, default=None,
                   help="supplied robustness upper bound of the target (requires --theory fsp)")
    p.add_argument("--build", action="store_true")
    p.add_argument("--p", type=float, default=None,
                   help="probability of the built map, default p_max (requires --build)")
    p.add_argument("--verify", type=int, metavar="N",
                   help="audit the built map on N >= 1 sampled free inputs (requires --build)")
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=_cmd_convert)

    p = sub.add_parser("reproduce", help="re-derive the headline numbers")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--all", action="store_true")
    which.add_argument("--select", help="comma-separated claim ids")
    p.add_argument("--seed", type=int)
    p.add_argument("--timing", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_reproduce)
    return parser


def run_command(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "measure":
            _check_measure_flags(parser, args)
        elif args.command == "convert":
            _check_convert_flags(parser, args)
        if getattr(args, "seed", 0) is None:
            args.seed = _default_seed(parser)
        elif getattr(args, "seed", 0) < 0:
            # numpy seeds only non-negative integers
            parser.exit(2, f"error: --seed must be non-negative, got {args.seed}\n")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (ValueError, KeyError, OSError, RuntimeError, MemoryError) as exc:
        # str() of a KeyError is the repr of its message, quotes included
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1


def main() -> None:  # console-script entry point
    sys.exit(run_command())


if __name__ == "__main__":
    main()
