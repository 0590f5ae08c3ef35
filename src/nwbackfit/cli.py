"""Command-line front end.

Subcommands: ``fit`` (read a CSV, fit the additive model, emit JSON +
curve CSV), ``certify`` (emit a convergence certificate JSON),
``simulate`` (replicated Monte-Carlo study), ``bound`` (print analytic
max-gap exceedance bounds).  Certificates take rho(S2* S1*) by
``spectral.certify``'s one route, and ``spectral.fallback`` in the report
says when and why its dense fallback ran.  All reports embed a provenance
block (package and library versions plus the full config echo) and carry
no timestamps, so identical invocations produce byte-identical files.

Exit codes: 0 success, 2 unusable input (bad flags, malformed CSV, a
sample too large for memory) or a LAPACK solver failure, 3 backfitting non-convergence, 4 not
certified under --require-certificate, 5 singular direct-solve system.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .fitting import (
    BackfitNonConvergenceError,
    SingularSystemError,
    backfit_direct,
    backfit_iterative,
    check_stop_rule,
)
from .io import (
    DatasetFormatError,
    read_dataset_csv,
    write_fit_curves_csv,
    write_json_report,
    write_replicate_rows_csv,
)
from .kernels import Kernel, parse_bandwidth
from .simulate import (
    BivariateNormal,
    IndependentUniform,
    SimSpec,
    gap_exceedance_bound,
    run_monte_carlo,
)
from .smoothers import build_pair, pair_storage
from .spectral import certify

__all__ = ["NotCertifiedError", "main", "build_parser"]

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NONCONVERGENCE = 3
EXIT_NOT_CERTIFIED = 4
EXIT_SINGULAR = 5

KERNEL_CHOICES = [k.value for k in Kernel]

class NotCertifiedError(RuntimeError):
    """Raised when --require-certificate is set and certification fails."""


def _provenance(args: argparse.Namespace) -> dict:
    """Package and library versions plus the echo of this invocation's options."""
    options = {k: v for k, v in vars(args).items() if k not in ("subcommand", "func")}
    return {
        "package": "nwbackfit",
        "version": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "config": {"subcommand": args.subcommand, "options": options},
    }


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out if args.out is not None else ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_problem(args: argparse.Namespace):
    data = read_dataset_csv(args.input)
    kernel = Kernel.from_name(args.kernel)
    bw = parse_bandwidth(args.bandwidth)
    try:
        pair = build_pair(data, kernel, bw, bw)
    except MemoryError:
        raise MemoryError(_pair_storage(data, kernel, bw)) from None
    return data, kernel, bw, pair


def _pair_storage(data, kernel, bw) -> str:
    """What the smoother pair of this problem needs, as the build would store it."""
    n = data.n
    kind_u, kind_v, nbytes = pair_storage(data, kernel, bw, bw)
    size = f"{nbytes / 1e9:.3g} GB"
    if kind_u == "window":
        need = f"{size} for the sort orders and windows of both smoothers"
    elif kind_u == "packed":
        need = f"one {n} x {n} array for both smoothers ({size})"
    elif kind_u == kind_v == "dense":
        need = f"two {n} x {n} smoother matrices ({size})"
    else:
        need = f"{size} for its smoother matrices (S1 {kind_u}, S2 {kind_v})"
    return f"n={n} needs {need}, more than this machine can allocate"


def _cmd_fit(args: argparse.Namespace) -> int:
    check_stop_rule(args.tol, args.max_iter)
    data, kernel, bw, pair = _load_problem(args)
    cert = certify(pair, kernel, bw, bw, data, method="power")
    if args.require_certificate and not cert.certified:
        raise NotCertifiedError(cert.notes)
    if args.solver == "direct":
        fit = backfit_direct(pair, data.y)
    else:
        fit = backfit_iterative(
            pair, data.y, tol=args.tol, max_iter=args.max_iter, sweep=args.sweep
        )
    out = _out_dir(args)
    report = {
        "provenance": _provenance(args),
        "certificate": cert.to_dict(),
        "fit": fit.to_dict(),
    }
    write_json_report(out / "fit.json", report)
    write_fit_curves_csv(out / "curves.csv", data, fit)
    print(f"n={data.n} alpha_hat={fit.alpha_hat!r}")
    print(
        f"method={fit.method} iterations={fit.iterations} "
        f"residual_normal_eq={fit.residual_normal_eq:.3e}"
    )
    print(f"certificate={cert.verdict.value} rho_product={cert.spectral.rho_product:.6e}")
    print(f"wrote {out / 'fit.json'} and {out / 'curves.csv'}")
    return EXIT_OK


def _cmd_certify(args: argparse.Namespace) -> int:
    data, kernel, bw, pair = _load_problem(args)
    cert = certify(pair, kernel, bw, bw, data, method="power")
    out = _out_dir(args)
    report = {
        "provenance": _provenance(args),
        "certificate": cert.to_dict(),
    }
    write_json_report(out / "certificate.json", report)
    print(f"verdict={cert.verdict.value}")
    print(
        f"rho_product={cert.spectral.rho_product:.6e} "
        f"gap_u={'ok' if cert.gap_u.condition_holds else 'fail'} "
        f"gap_v={'ok' if cert.gap_v.condition_holds else 'fail'} "
        f"regular={'yes' if cert.regular_s1 and cert.regular_s2 else 'no'}"
    )
    print(f"wrote {out / 'certificate.json'}")
    if args.require_certificate and not cert.certified:
        raise NotCertifiedError(cert.notes)
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    # The response y enters neither the gap condition nor rho(S2* S1*), so
    # the study takes only what shapes the design; SimSpec's defaults fill y.
    if args.design == "normal":
        design = BivariateNormal(rho=args.rho)
    elif args.rho != 0.0:
        raise ValueError(
            f"--rho {args.rho!r} is the normal design's correlation; it needs --design normal"
        )
    else:
        design = IndependentUniform()
    spec = SimSpec(n=args.n, design=design, seed=args.seed)
    kernel = Kernel.from_name(args.kernel)
    bw = parse_bandwidth(args.bandwidth)
    report = run_monte_carlo(
        spec,
        kernel,
        bw,
        bw,
        replicates=args.replicates,
        certify_replicates=not args.gap_only,
    )
    out = _out_dir(args)
    payload = {
        "provenance": _provenance(args),
        "sim_spec": spec.to_dict(),
        "report": report.to_dict(),
    }
    write_json_report(out / "simulation.json", payload)
    write_replicate_rows_csv(out / "replicates.csv", report.rows)
    print(
        f"replicates={report.replicates} n={report.n} "
        f"fraction_gap_ok={report.fraction_gap_ok!r} "
        f"fraction_certified={report.fraction_certified!r}"
    )
    if report.analytic_bound is not None:
        print(f"analytic_bound={report.analytic_bound!r}")
    print(f"wrote {out / 'simulation.json'} and {out / 'replicates.csv'}")
    return EXIT_OK


def _cmd_bound(args: argparse.Namespace) -> int:
    b = gap_exceedance_bound(args.n, args.h)
    print(f"P(max adjacent gap >= h) upper bounds, n={b.n}, h={b.h!r}:")
    print(f"  exact:       {b.exact!r}")
    print(f"  exponential: {b.exponential!r}")
    if args.out is not None:
        out = _out_dir(args)
        write_json_report(
            out / "bound.json",
            {"provenance": _provenance(args), "bound": b.to_dict()},
        )
        print(f"wrote {out / 'bound.json'}")
    return EXIT_OK


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--kernel",
        choices=KERNEL_CHOICES,
        default="gaussian",
        help="smoothing kernel (default: gaussian)",
    )
    p.add_argument(
        "--bandwidth",
        default="rate:0.2",
        help=(
            "bandwidth rule: a positive float, rate:<delta> for "
            "sd * n^-delta with 0<delta<1, or knn:<k> (default: rate:0.2)"
        ),
    )
    p.add_argument(
        "--out", default=None, help="output directory for reports (default: current dir)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nwbackfit",
        description=(
            "Fit bivariate additive models by kernel backfitting and "
            "certify convergence of the iteration."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_fit = sub.add_parser("fit", help="fit an additive model from a CSV file")
    p_fit.add_argument("--input", required=True, help="CSV file with header y,u,v")
    _add_model_flags(p_fit)
    p_fit.add_argument("--tol", type=float, default=1e-10, help="iteration stop tolerance")
    p_fit.add_argument(
        "--max-iter", type=int, default=None, help="iteration cap (default: 10n + 1000)"
    )
    p_fit.add_argument(
        "--sweep",
        choices=["gauss-seidel", "jacobi"],
        default="gauss-seidel",
        help="update ordering for the iterative solver",
    )
    p_fit.add_argument(
        "--solver",
        choices=["iterative", "direct"],
        default="iterative",
        help="iterative backfitting, or a direct solve of the normal equations "
        "(GMRES, with a dense LU fallback)",
    )
    p_fit.add_argument(
        "--require-certificate",
        action="store_true",
        help="exit with status 4 instead of fitting when not certified",
    )
    p_fit.set_defaults(func=_cmd_fit)

    p_cert = sub.add_parser("certify", help="certify backfitting convergence for a CSV file")
    p_cert.add_argument("--input", required=True, help="CSV file with header y,u,v")
    _add_model_flags(p_cert)
    p_cert.add_argument(
        "--require-certificate",
        action="store_true",
        help="exit with status 4 when the verdict is not certified",
    )
    p_cert.set_defaults(func=_cmd_certify)

    p_sim = sub.add_parser("simulate", help="replicated gap/certification study")
    p_sim.add_argument("--n", type=int, required=True, help="sample size per replicate")
    p_sim.add_argument(
        "--replicates", type=int, default=200, help="number of replicates (default: 200)"
    )
    _add_model_flags(p_sim)
    p_sim.add_argument(
        "--design",
        choices=["uniform", "normal"],
        default="uniform",
        help="unit-square uniform or standard bivariate normal design",
    )
    p_sim.add_argument(
        "--rho", type=float, default=0.0, help="design correlation; needs --design normal"
    )
    p_sim.add_argument("--seed", type=int, default=0, help="random seed (default: 0)")
    p_sim.add_argument(
        "--gap-only",
        action="store_true",
        help="skip per-replicate certification; report gap conditions only",
    )
    p_sim.set_defaults(func=_cmd_simulate)

    p_bound = sub.add_parser(
        "bound", help="analytic bounds on P(max uniform gap >= h)"
    )
    p_bound.add_argument("--n", type=int, required=True, help="sample size")
    p_bound.add_argument("--h", type=float, required=True, help="gap threshold")
    p_bound.add_argument("--out", default=None, help="also write bound.json here")
    p_bound.set_defaults(func=_cmd_bound)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except np.linalg.LinAlgError as exc:  # a ValueError, but not the input's fault
        print(f"error: solver failure: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (DatasetFormatError, OSError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BackfitNonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except NotCertifiedError as exc:
        print(f"error: not certified: {exc}", file=sys.stderr)
        return EXIT_NOT_CERTIFIED
    except SingularSystemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SINGULAR


if __name__ == "__main__":
    sys.exit(main())
