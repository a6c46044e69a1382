"""Command-line pipeline: analyze | tilt | verify | simulate.

Exit codes: 0 all good, 1 parse/usage error, 2 mathematical precondition
failure (with the witness on stderr), 3 at least one check failed.
Reports are JSON (schema shipped as report_schema.json); the return
series can additionally be dumped as CSV with fixed column order
n,p_n,weighted_term,partial_sum.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import platform
import re
import sys
import time

import numpy as np

from . import __version__
from .errors import (DegenerateSupport, HorizonTooLarge, NotIrreducible,
                     NotNormalized, RwalkError, SpecFileError, WindowExceeded)
from .groups import FiniteGroup, Lattice
from .laws import Law, default_window
from .recurrence import (GROWTH_RECURRENT, GROWTH_TRANSIENT,
                         build_recurrence_report, check_translation_invariance,
                         series_horizon, simulate_harris, worker_count)
from .specfile import (WalkSpec, format_walk_spec, parse_element_set,
                       parse_walk_spec)
from .spectral import check_dual_spectral_radius, find_exponential, verify_r_invariance
from .tilting import (DEGENERACY_R_TOL, DEGENERACY_THETA_TOL, check_dual_invariance,
                      check_symmetric_degeneracy, check_tilted_powers, relative_drift, tilt)

CHECK_NAMES = ("eq1", "eq17", "dual", "measure", "eq12", "corollary2")
RESIDUAL_TOL = 1e-10
TRANSLATION_TOL = 1e-12
TRANSLATION_STEPS = {1: 50, 2: 24, 3: 12}

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRECONDITION = 2
EXIT_CHECK_FAILED = 3


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # '-1,0', '-1e-3' and '-inf' are values, not options: no rwalk
        # option starts with a digit, a '.', 'inf' or 'nan'
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf$|nan$)")

    # argparse exits with 2 on usage errors; the exit-code contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="rwalk", description=__doc__)
    parser.add_argument("--version", action="version", version=f"rwalk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("spec", help="walk-spec file path")
    common.add_argument("--json", metavar="PATH",
                        help="write the machine-readable report here ('-' for stdout)")

    sub.add_parser("analyze", parents=[common],
                   help="spectral radius, convergence parameter and minimizer"
                   ).set_defaults(run=cmd_analyze)

    p_tilt = sub.add_parser("tilt", parents=[common],
                            help="emit the zero-drift reweighted walk as a new spec file")
    p_tilt.set_defaults(run=cmd_tilt)
    p_tilt.add_argument("-o", "--out", required=True,
                        help="output spec path ('-' for stdout)")

    p_verify = sub.add_parser("verify", parents=[common],
                              help="run the identity checks and report PASS/FAIL")
    p_verify.set_defaults(run=cmd_verify)
    p_verify.add_argument("--paper-checks", default="all", metavar="NAMES",
                          help="'all' or comma list of: " + ",".join(CHECK_NAMES))
    p_verify.add_argument("--max-residual", type=float, default=None,
                          help="override the residual tolerance for the "
                               "residual-valued checks")

    p_sim = sub.add_parser("simulate", parents=[common],
                           help="Monte Carlo return fractions plus the series heuristics")
    p_sim.set_defaults(run=cmd_simulate)
    p_sim.add_argument("--trajectories", type=int, default=None)
    p_sim.add_argument("--horizon", type=int, default=None,
                       help="steps per trajectory (default 10000)")
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--target", default=None,
                       help="element set, e.g. --target -1,0 or "
                            "--target '1,2;-3,4' (default: identity)")
    p_sim.add_argument("--series-horizon", type=int, default=None,
                       help="horizon for the exact return series (default per dimension)")
    p_sim.add_argument("--csv", metavar="PATH",
                       help="dump the return series as CSV")
    return parser


def _group_json(group):
    if isinstance(group, Lattice):
        return {"kind": "lattice", "dim": group.dim}
    return {"kind": "finite", "order": group.order}


def _law_json(law: Law):
    def elem(x):
        return list(x) if isinstance(x, tuple) else x
    return [{"element": elem(x), "prob": p} for x, p in law.atoms.items()]


def _options_json(options):
    return {k: v for k, v in options._asdict().items() if v is not None}


def _spectral_json(spectral):
    return {"theta": list(spectral.theta), "rho": spectral.rho, "R": spectral.R,
            "gradient_norm": spectral.gradient_norm,
            "iterations": spectral.iterations,
            "irreducible": spectral.irreducibility.irreducible,
            "witness": spectral.irreducibility.witness}


def _mc_json(mc):
    out = {"trajectories": mc.trajectories, "horizon": mc.horizon,
           "seed": mc.seed, "return_fraction": mc.return_fraction,
           "ci_halfwidth": mc.ci_halfwidth}
    if mc.mean_displacement is not None:
        out["mean_displacement"] = list(mc.mean_displacement)
        out["displacement_sem"] = list(mc.displacement_sem)
    return out


def _write(text: str, path: str) -> None:
    """Write text to the file at path, or to stdout for '-'."""
    if path == "-":
        print(text, end="")
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _write_report(report: dict, path: str | None):
    if path is not None:
        _write(json.dumps(report, indent=2) + "\n", path)


def _load_spec(path: str) -> WalkSpec:
    with open(path) as fh:
        return parse_walk_spec(fh.read())


def _usage_error(message) -> int:
    print(message, file=sys.stderr)
    return EXIT_USAGE


def _solve(args, spec: WalkSpec):
    """The report skeleton and the timed spectral solve every report starts with."""
    report = {"tool": {"name": "rwalk", "version": __version__,
                       "workers": args.workers, "numpy": np.__version__,
                       "python": platform.python_version()},
              "spec": {"path": args.spec, "group": _group_json(spec.group),
                       "law": _law_json(spec.law),
                       "options": _options_json(spec.options)},
              "timings": {}}
    t0 = time.perf_counter()
    exponential, spectral = find_exponential(spec.law)
    report["timings"]["spectral"] = time.perf_counter() - t0
    report["spectral"] = _spectral_json(spectral)
    return report, exponential, spectral


def cmd_analyze(args) -> int:
    report, _, spectral = _solve(args, _load_spec(args.spec))
    report["exit_code"] = EXIT_OK
    print(f"theta*        = {list(spectral.theta)}")
    print(f"rho           = {spectral.rho!r}")
    print(f"R             = {spectral.R!r}")
    print(f"gradient_norm = {spectral.gradient_norm:.3e}")
    print(f"iterations    = {spectral.iterations}")
    irreducible = spectral.irreducibility
    print(f"irreducible   = {irreducible.irreducible} ({irreducible.witness})")
    _write_report(report, args.json)
    return EXIT_OK


def cmd_tilt(args) -> int:
    spec = _load_spec(args.spec)
    report, exponential, spectral = _solve(args, spec)
    report["exit_code"] = EXIT_OK
    tw = tilt(spec.law, exponential, spectral.R)
    _write(format_walk_spec(WalkSpec(spec.group, tw.tilted, spec.options)), args.out)
    if args.out != "-":
        print(f"tilted walk written to {args.out} "
              f"(R = {spectral.R!r}, theta* = {list(spectral.theta)})")
    _write_report(report, args.json)
    return EXIT_OK


def _tol_text(tol: float) -> str:
    return f"{tol:.0e}".replace("e-0", "e-")   # '1e-8', not '1e-08'


def _run_check(name: str, law: Law, ctx: dict, tol_override: float | None):
    """Returns (residual, tolerance, passed, detail)."""
    exponential, spectral = ctx["exponential"], ctx["spectral"]
    if name == "corollary2":   # the one check with its own pass rule
        deg = check_symmetric_degeneracy(law, spectral)
        if not deg.is_symmetric:
            return 0.0, RESIDUAL_TOL, True, "law not symmetric; degeneracy vacuous"
        tilted = ctx["tilted"]().tilted
        atom_diff = max(abs(tilted.atoms[x] - p) for x, p in law.atoms.items())
        passed = deg.phi_trivial and deg.r_equals_one and atom_diff <= 1e-14
        detail = (f"|theta*|={deg.theta_norm:.2e} (tol {_tol_text(DEGENERACY_THETA_TOL)}), "
                  f"|R-1|={deg.r_diff:.2e} (tol {_tol_text(DEGENERACY_R_TOL)}), "
                  f"atom diff={atom_diff:.2e} (tol 1e-14)")
        return (max(deg.theta_norm, deg.r_diff, atom_diff), DEGENERACY_THETA_TOL,
                passed, detail)
    if name == "eq1":
        window = verify_r_invariance(law, exponential, spectral.R, ctx["window"]())
        resid = max(abs(spectral.R * spectral.rho - 1.0), relative_drift(ctx["tilted"]()), window)
        detail = "fixed point R*Lambda(theta*) = 1, zero tilted drift and phi = R*P(phi)"
    elif name == "eq17":
        resid = check_tilted_powers(ctx["tilted"](), 10)
        detail = "tilted^n = R^n * phi * original^n, n <= 10"
    elif name == "dual":
        dual_res = check_dual_spectral_radius(law, spectral)
        scale = max([1.0, *map(abs, dual_res.theta)])   # max(1, |theta*|_inf)
        resid = max(ctx["psi_residual"](), abs(dual_res.rho - dual_res.rho_dual),
                    *(abs(a + b) / scale for a, b in zip(dual_res.theta, dual_res.theta_dual)))
        detail = "psi = R*Phat(psi), rho(v) = rho(dual v) and theta*(dual v) = -theta*"
    elif name == "measure":
        resid = max(ctx["psi_residual"](), relative_drift(ctx["tilted"]()))
        detail = "psi-weighted counting measure is R-invariant, zero tilted drift"
    else:   # eq12
        group = law.group
        e = group.identity()
        first = next(iter(law.atoms))
        if isinstance(group, FiniteGroup):
            y = first if first != e else (e + 1) % group.order
            steps = 100
        else:
            y = tuple(5 * c for c in first)
            steps = TRANSLATION_STEPS[group.dim]
        try:
            resid = check_translation_invariance(law, {e}, y, steps)
        except WindowExceeded as exc:
            raise WindowExceeded(f"{exc}; --paper-checks without eq12 leaves it out") from None
        detail = f"h^(yB)(yx) = h^B(x) with y={y}, T={steps}"
    tol = _first(tol_override, TRANSLATION_TOL if name == "eq12" else RESIDUAL_TOL)
    return resid, tol, resid <= tol, detail


def cmd_verify(args) -> int:
    spec = _load_spec(args.spec)
    if args.paper_checks == "all":
        names = list(CHECK_NAMES)
    else:
        # each named check runs once, in the order first named
        names = [n for n in dict.fromkeys(map(str.strip, args.paper_checks.split(","))) if n]
        if not names:
            return _usage_error("--paper-checks names no check")
        unknown = [n for n in names if n not in CHECK_NAMES]
        if unknown:
            return _usage_error(f"unknown check name(s): {', '.join(unknown)}")
    if args.max_residual is not None and not math.isfinite(args.max_residual):
        return _usage_error(f"--max-residual must be finite, got {args.max_residual}")
    if args.max_residual is not None and args.max_residual < 0:
        return _usage_error(f"--max-residual must be >= 0, got {args.max_residual}")
    report, exponential, spectral = _solve(args, spec)
    law = spec.law
    # the tilted walk (eq1, eq17, corollary2) and the psi residual (dual, measure)
    # are built at most once, on first use; a raised error is not cached, so
    # a refused window fails each check that tabulates on it (eq1, dual, measure)
    window = functools.partial(default_window, law, exponential.theta, spec.options.window_radius)
    ctx = {"exponential": exponential, "spectral": spectral, "window": window,
           "tilted": functools.cache(lambda: tilt(law, exponential, spectral.R)),
           "psi_residual": functools.cache(lambda: check_dual_invariance(
               law, exponential, spectral.R, window()))}
    all_passed = True
    report["checks"] = []
    for name in names:
        t0 = time.perf_counter()
        try:
            resid, tol, passed, detail = _run_check(name, law, ctx, args.max_residual)
            entry = {"name": name, "residual": resid, "tolerance": tol,
                     "passed": passed, "detail": detail}
            print(f"{name:<12} residual={resid:.3e} tol={tol:.0e} "
                  f"{'PASS' if passed else 'FAIL'}  ({detail})")
        except RwalkError as exc:
            passed = False
            entry = {"name": name, "residual": None, "tolerance": None,
                     "passed": False, "detail": f"error: {exc}"}
            print(f"{name:<12} ERROR ({exc})")
        report["timings"][f"check:{name}"] = time.perf_counter() - t0
        report["checks"].append(entry)
        all_passed = all_passed and passed
    code = EXIT_OK if all_passed else EXIT_CHECK_FAILED
    report["exit_code"] = code
    _write_report(report, args.json)
    return code


def _write_series_csv(path: str, rec):
    # p_n: the original walk's p(n) = rho^n p~(n), from the tilted series
    ln_rho = math.log(rec.rho_spectral)
    with open(path, "w") as fh:
        fh.write("n,p_n,weighted_term,partial_sum\n")
        for n, (term, acc) in enumerate(zip(rec.series.probabilities,
                                            rec.test.partial_sums)):
            p = math.exp(n * ln_rho + math.log(term)) if term > 0.0 else 0.0
            fh.write(f"{n},{p!r},{term!r},{acc!r}\n")


def _first(*values):
    return next(v for v in values if v is not None)


def cmd_simulate(args) -> int:
    spec = _load_spec(args.spec)
    opts = spec.options
    trajectories = _first(args.trajectories, opts.trajectories, 10_000)
    horizon = _first(args.horizon, opts.horizon, 10_000)
    seed = _first(args.seed, opts.seed, 42)
    recurrent = _first(opts.growth_recurrent, GROWTH_RECURRENT)
    transient = _first(opts.growth_transient, GROWTH_TRANSIENT)
    if trajectories < 1:
        return _usage_error("--trajectories must be >= 1")
    if horizon < 1:
        return _usage_error("--horizon must be >= 1")
    if seed < 0:
        return _usage_error(f"seed must be >= 0, got {seed}")
    if args.series_horizon is not None and args.series_horizon < 1:
        return _usage_error("--series-horizon must be >= 1")
    if recurrent <= transient:
        return _usage_error(f"growth_recurrent must be > growth_transient, "
                            f"got {recurrent} <= {transient}")
    target = (parse_element_set(args.target, spec.group) if args.target
              else frozenset({spec.group.identity()}))
    report, exponential, spectral = _solve(args, spec)

    # an oversized series is refused before the Monte Carlo forks; the tilted
    # law has the original's support, so the same series is refused
    try:
        series_horizon(spec.law, args.series_horizon)
    except HorizonTooLarge as exc:
        raise HorizonTooLarge(f"{exc}; set a smaller --series-horizon") from None
    rec = None

    def build_series():   # runs in the caller while the Monte Carlo children run
        nonlocal rec
        t0 = time.perf_counter()
        tw = tilt(spec.law, exponential, spectral.R)
        rec = build_recurrence_report(tw.tilted, spectral.rho, horizon=args.series_horizon,
                                      recurrent_threshold=recurrent,
                                      transient_threshold=transient)
        report["timings"]["series"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    mc = simulate_harris(spec.law, target, trajectories, horizon, seed, workers=args.workers,
                         meanwhile=build_series)
    # timings.monte_carlo includes the series, which ran inside it
    report["timings"]["monte_carlo"] = time.perf_counter() - t0
    series, test = rec.series, rec.test

    report["recurrence"] = {
        "rho_series": rec.rho_series, "rho_method": rec.rho_method,
        "rho_spectral": rec.rho_spectral, "period": series.period,
        "horizon": series.horizon, "growth_ratio": test.growth_ratio,
        "verdict": test.verdict.value, "verdict_theorem": rec.verdict_theorem,
        "partial_sums": rec.partial_sum_checkpoints,
        "thresholds": {"recurrent": test.recurrent_threshold,
                       "transient": test.transient_threshold},
        "max_mass_error": series.max_mass_error,
        "warnings": rec.warnings,
        "mc": _mc_json(mc),
    }
    report["exit_code"] = EXIT_OK

    print(f"return_fraction = {mc.return_fraction!r} +/- {mc.ci_halfwidth:.4f} "
          f"(trajectories={trajectories}, horizon={horizon}, seed={seed})")
    if mc.mean_displacement is not None:
        print(f"mean_displacement = {list(mc.mean_displacement)} "
              f"(sem {list(mc.displacement_sem)})")
    print(f"series: horizon={series.horizon} period={series.period} "
          f"rho_series={rec.rho_series} rho_spectral={rec.rho_spectral!r}")
    print(f"verdict = {test.verdict.value} (growth_ratio={test.growth_ratio:.4f}, "
          f"thresholds {test.recurrent_threshold}/{test.transient_threshold})")
    for w in rec.warnings:
        print(f"warning: {w}")

    if args.csv:
        _write_series_csv(args.csv, rec)
    _write_report(report, args.json)
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        # a bad RWALK_THREADS is a usage error, before any work
        args.workers = worker_count()
    except ValueError as exc:
        return _usage_error(exc)
    try:
        return args.run(args)
    except (SpecFileError, FileNotFoundError) as exc:
        return _usage_error(f"spec error: {exc}")
    except (DegenerateSupport, NotIrreducible, NotNormalized) as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except RwalkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
