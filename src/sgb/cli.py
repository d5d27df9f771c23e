"""Command dispatch: gb | analyze | bound | verify | homogenize | experiment.

Exit codes: 0 success, 1 domain error (reported as ``error: <Type>: ...`` on
stderr), 2 usage error.  All randomized paths accept --seed and reproduce
their output exactly for a fixed seed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import io as sgbio
from .analysis import _certification, exact_hilbert_of_ideal, verify_main_theorem
from .analysis import check_noether_position, check_weakly_revlex
from .core import monom_to_string, poly_to_string
from .engine import buchberger, gb_up_to
from .errors import SgbError
from .series import bound_report


def _print_kv(stream, **fields):
    for key, value in fields.items():
        stream.write(f"{key}={sgbio._fmt(value, ',')}\n")


def _load_doc(path: str) -> sgbio.SystemDoc:
    return sgbio.parse_system_doc(Path(path).read_text(encoding="utf-8"))


_FLAGS = {
    "seed": dict(type=int, default=0, help="master random seed"),
    "omega": dict(type=float, default=2.807, help="matrix multiplication exponent in [2, 3)"),
    "engine": dict(choices=["macaulay", "buchberger"], default="macaulay", help="basis engine"),
    "cap": dict(type=int, default=None,
                help="degree where the Macaulay engine hands over to Buchberger's loop "
                     "(default: the largest generator degree; not allowed with "
                     "--engine buchberger)"),
    "attempts": dict(type=int, default=64, help="linear-form search budget"),
    "trials": dict(type=int, default=10, help="experiment trial count"),
    "construction": dict(choices=["generic", "Z"], default="generic"),
    "out": dict(type=str, default=None, help="output file path"),
}


def _add_flags(parser: argparse.ArgumentParser, *names):
    """Attach the named flags; any other flag is a usage error."""
    for name in names:
        parser.add_argument(f"--{name}", **_FLAGS[name])


def _cmd_gb(args) -> int:
    doc = _load_doc(args.file)
    if args.engine == "buchberger":
        basis = buchberger(doc.system)
    else:
        top = max(doc.system.degrees)
        basis = gb_up_to(doc.system, top if args.cap is None else max(args.cap, top))
    out = sys.stdout if args.out is None else open(args.out, "w", encoding="utf-8")
    try:
        for g in basis:
            out.write(poly_to_string(g, doc.names) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def _cmd_analyze(args) -> int:
    doc = _load_doc(args.file)
    system = doc.system
    lm, profile = exact_hilbert_of_ideal(system)
    cert = _certification(profile, system.degrees)
    _print_kv(
        sys.stdout,
        p=system.field.p,
        n=system.n,
        m=system.m,
        homogeneous=system.homogeneous,
        krull_dim=profile.krull_dim,
        numerator=profile.numerator,
        h_poly=profile.h_poly,
        hilb=profile.hilb,
        d_reg=profile.d_reg,
        gen_d_reg=profile.gen_d_reg,
        hp_constant=profile.hp_constant,
        lm_generators=";".join(monom_to_string(g, doc.names) for g in lm.gens),
        noether_position=check_noether_position(lm, profile.krull_dim),
        weakly_revlex=check_weakly_revlex(lm),
        d_checked=cert.d_checked,
        is_d_regular=cert.is_d_regular,
        cryptographic=cert.cryptographic,
        generalized=cert.generalized,
        first_defect_degree=cert.first_defect_degree,
    )
    return 0


def _parse_degrees(text: str) -> tuple:
    try:
        return tuple(int(part) for part in text.replace(";", ",").split(",") if part)
    except ValueError:
        raise SgbError(f"cannot parse degree list {text!r}") from None


def _cmd_bound(args) -> int:
    degrees = _parse_degrees(args.degrees)
    report = bound_report(args.n, args.m, degrees, args.omega)
    _print_kv(
        sys.stdout,
        n=report.n,
        m=report.m,
        degrees=report.degrees,
        D_nm=report.D_nm,
        lazard=report.lazard,
        omega=report.omega,
        cost_new=report.cost_new,
        cost_classic=report.cost_classic,
    )
    return 0


def _cmd_verify(args) -> int:
    doc = _load_doc(args.file)
    report = verify_main_theorem(
        doc.system,
        seed=args.seed,
        max_attempts=args.attempts,
    )
    sigma = ";".join(",".join(str(v) for v in row) for row in report.sigma.matrix)
    _print_kv(
        sys.stdout,
        n=report.n,
        m=report.m,
        q=report.q,
        degrees=report.degrees,
        krull_dim=report.krull_dim,
        ell=poly_to_string(report.ell, doc.names),
        attempts_used=report.attempts_used,
        sigma=sigma,
        d_reg_ell=report.d_reg_ell,
        gen_d_reg=report.gen_d_reg,
        max_gb_deg_sigma=report.max_gb_deg_sigma,
        D_nm=report.D_nm,
        lazard=report.lazard,
        ineq_maxGB=report.ineq_max_gb,
        ineq_Dnm=report.ineq_D_nm,
        weakly_revlex=report.weakly_revlex,
        artinian_after_sigma=report.artinian_after_sigma,
        equality_attained=report.equality_attained,
        m_n_minus_1_law=report.m_n_minus_1_law,
        cryptographic=report.semiregular.cryptographic,
        generalized=report.semiregular.generalized,
        first_defect_degree=report.semiregular.first_defect_degree,
        hypotheses_verified=report.hypotheses_verified,
        engine=report.engine,
    )
    return 0


def _cmd_homogenize(args) -> int:
    doc = _load_doc(args.file)
    from .core import homogenize_system

    homogenized = homogenize_system(doc.system)
    names = tuple(doc.names) + ("y",)
    if "y" in doc.names:
        raise SgbError("system already contains the homogenization variable y")
    out_doc = sgbio.SystemDoc(homogenized, names, dict(doc.meta))
    text = sgbio.serialize_system_doc(out_doc)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_experiment(args) -> int:
    degrees = _parse_degrees(args.degrees)
    records = sgbio.run_experiment(
        args.n,
        args.m,
        degrees,
        args.q,
        trials=args.trials,
        seed=args.seed,
        construction=args.construction,
        max_attempts=args.attempts,
        timings=args.timings,
    )
    summary = sgbio.summarize(records)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            sgbio.write_csv(records, fh)
        print(summary)
    else:
        sgbio.write_csv(records, sys.stdout)
        print(summary, file=sys.stderr)
    violations = sgbio.invariant_violations(records)
    if violations:
        print(
            f"error: InvariantViolation: {violations} of {len(records)} trials "
            "failed an internal invariant check",
            file=sys.stderr,
        )
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgb",
        description="Groebner degree bounds for homogeneous systems over prime fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gb = sub.add_parser("gb", help="reduced Groebner basis of a system file")
    p_gb.add_argument("file")
    _add_flags(p_gb, "engine", "cap", "out")
    p_gb.set_defaults(func=_cmd_gb)

    p_an = sub.add_parser("analyze", help="exact Hilbert data and semi-regularity certificates")
    p_an.add_argument("file")
    p_an.set_defaults(func=_cmd_analyze)

    p_bd = sub.add_parser("bound", help="degree and cost bounds for a system shape")
    p_bd.add_argument("-n", type=int, required=True, dest="n")
    p_bd.add_argument("-m", type=int, required=True, dest="m")
    p_bd.add_argument("-d", required=True, dest="degrees", help="comma-separated degrees")
    _add_flags(p_bd, "omega")
    p_bd.set_defaults(func=_cmd_bound)

    p_vf = sub.add_parser("verify", help="run the degree-bound verifier on a system file")
    p_vf.add_argument("file")
    _add_flags(p_vf, "seed", "attempts")
    p_vf.set_defaults(func=_cmd_verify)

    p_hg = sub.add_parser("homogenize", help="homogenize a system file by an extra variable y")
    p_hg.add_argument("file")
    _add_flags(p_hg, "out")
    p_hg.set_defaults(func=_cmd_homogenize)

    p_ex = sub.add_parser("experiment", help="seeded random trials with CSV output")
    p_ex.add_argument("-n", type=int, required=True, dest="n")
    p_ex.add_argument("-m", type=int, required=True, dest="m")
    p_ex.add_argument("-d", required=True, dest="degrees", help="comma-separated degrees")
    p_ex.add_argument("-q", type=int, default=31, dest="q", help="field characteristic")
    p_ex.add_argument("--timings", action="store_true",
                      help="record wall-clock per trial (breaks byte-reproducibility)")
    _add_flags(p_ex, "seed", "attempts", "trials", "construction", "out")
    p_ex.set_defaults(func=_cmd_experiment)

    return parser


def run_command(argv=None) -> int:
    """Parse and dispatch; returns the process exit code instead of exiting."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "cap", None) is not None and args.engine == "buchberger":
            parser.error("argument --cap: not allowed with --engine buchberger")
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (SgbError, OSError, ValueError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))
