"""Output oracles for every command kind, and the tamper self-test.

Each checker returns a list of problems; an empty list means the output
is correct.  The checkers read only what the program wrote (exit code,
--json report, tilt output) plus what the benchmark knows independently
(closed-form oracles, the workers=1 Monte Carlo reference).
"""

from __future__ import annotations

import copy
import math

from workloads import parse_lattice_spec

GRADIENT_TOL = 1e-10
FIXED_POINT_TOL = 1e-12
THETA_TOL = 1e-9
RHO_REL_TOL = 1e-12
TILT_MASS_TOL = 1e-10
TILT_DRIFT_TOL = 1e-9
MASS_ERROR_TOL = 1e-10


def check_verify(cmd, rc, report, out_text, reference):
    if rc != 0:
        return [f"exit code {rc}, expected 0"]
    problems = []
    checks = report.get("checks", [])
    names = [c["name"] for c in checks]
    if names != cmd.expect["checks"]:
        problems.append(f"checks {names}, expected {cmd.expect['checks']}")
    for c in checks:
        resid, tol = c["residual"], c["tolerance"]
        if not c["passed"] or resid is None or tol is None or not resid <= tol:
            problems.append(f"{c['name']}: residual {resid!r} tol {tol!r} passed={c['passed']}")
        if c["name"] == "eq12" and resid != 0.0:
            problems.append(f"eq12 residual {resid!r} is not exactly 0")
    return problems


def check_analyze(cmd, rc, report, out_text, reference):
    if rc != 0:
        return [f"exit code {rc}, expected 0"]
    s = report["spectral"]
    problems = []
    if not s["irreducible"]:
        problems.append("reported reducible")
    if not s["gradient_norm"] <= GRADIENT_TOL:
        problems.append(f"gradient_norm {s['gradient_norm']!r} > {GRADIENT_TOL}")
    if not abs(s["R"] * s["rho"] - 1.0) <= FIXED_POINT_TOL:
        problems.append(f"|R*rho - 1| = {abs(s['R'] * s['rho'] - 1.0)!r}")
    closed = cmd.expect["oracle"]
    if len(s["theta"]) != len(closed["theta"]) or any(
            not abs(a - b) <= THETA_TOL for a, b in zip(s["theta"], closed["theta"])):
        problems.append(f"theta {s['theta']} differs from closed form {closed['theta']}")
    if not abs(s["rho"] - closed["rho"]) <= RHO_REL_TOL * closed["rho"]:
        problems.append(f"rho {s['rho']!r} differs from closed form {closed['rho']!r}")
    return problems


def check_tilt(cmd, rc, report, out_text, reference):
    if rc != 0:
        return [f"exit code {rc}, expected 0"]
    try:
        dim, atoms = parse_lattice_spec(out_text)
    except ValueError as exc:
        return [f"tilt output does not parse: {exc}"]
    problems = []
    if set(atoms) != cmd.expect["support"]:
        problems.append("tilted support differs from the original support")
    if any(not p > 0.0 for p in atoms.values()):
        problems.append("tilted law has a non-positive atom")
    mass = math.fsum(atoms.values())
    if not abs(mass - 1.0) <= TILT_MASS_TOL:
        problems.append(f"tilted mass {mass!r}")
    drift = [math.fsum(p * x[k] for x, p in atoms.items()) for k in range(dim)]
    if not max(abs(d) for d in drift) <= TILT_DRIFT_TOL:
        problems.append(f"tilted drift {drift}")
    return problems


def check_simulate(cmd, rc, report, out_text, reference):
    if rc != 0:
        return [f"exit code {rc}, expected 0"]
    rec = report["recurrence"]
    mc = rec["mc"]
    problems = []
    for key in ("seed", "trajectories", "horizon"):
        if mc[key] != cmd.expect[key]:
            problems.append(f"mc {key} {mc[key]!r}, expected {cmd.expect[key]!r}")
    if mc["return_fraction"] != reference:
        problems.append(f"return_fraction {mc['return_fraction']!r} differs from "
                        f"the workers=1 run {reference!r}")
    if not rec["max_mass_error"] <= MASS_ERROR_TOL:
        problems.append(f"max_mass_error {rec['max_mass_error']!r}")
    return problems


CHECKERS = {"verify": check_verify, "analyze": check_analyze,
            "tilt": check_tilt, "simulate": check_simulate}


def check(cmd, rc, report, out_text, reference):
    return CHECKERS[cmd.kind](cmd, rc, report, out_text, reference)


def _tamper(cmd, report, out_text):
    """One corrupted copy of a correct output, as the oracle must see it."""
    report = copy.deepcopy(report)
    if cmd.kind == "verify":
        checks = {c["name"]: c for c in report["checks"]}
        if "eq12" in checks:
            checks["eq12"]["residual"] = 1e-300   # nonzero, yet far below tolerance
        else:
            checks["eq1"]["residual"] = 2 * checks["eq1"]["tolerance"]
    elif cmd.kind == "analyze":
        report["spectral"]["theta"][0] += 1e-6
    elif cmd.kind == "tilt":
        # move 1e-6 of mass from the first atom to the last: the mass
        # stays 1 but the drift no longer vanishes
        lines = out_text.splitlines()
        law = [i for i, ln in enumerate(lines) if ln.startswith("  ")]
        for i, delta in ((law[0], -1e-6), (law[-1], 1e-6)):
            head, p = lines[i].rsplit(" ", 1)
            lines[i] = f"{head} {float(p) + delta!r}"
        out_text = "\n".join(lines) + "\n"
    else:
        report["recurrence"]["mc"]["return_fraction"] += 1.0 / cmd.expect["trajectories"]
    return report, out_text


def self_test(outcomes, references) -> list:
    """Feed a tampered copy of each correct output back to its checker.

    Returns the commands whose tampered output the checker accepted; a
    non-empty list means the oracle cannot be trusted.
    """
    missed = []
    for o in outcomes:
        if o.problems:
            continue
        report, out_text = _tamper(o.cmd, o.report, o.out_text)
        if not check(o.cmd, o.rc, report, out_text, references.get(o.cmd.spec_name)):
            missed.append(" ".join(o.cmd.argv[:2]))
    return missed
