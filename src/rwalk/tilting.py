"""Exponential change of measure: the tilted walk and its invariance checks.

Reweighting the increment law by R*phi (with R*Lambda(theta*) = 1) yields
a new probability law whose walk has zero drift; the checks here certify
the identities that make the construction tick:

  * tilted n-step law  =  R^n * phi * (original n-step law), at every
    point of the smallest unimodular n-step box (tables.step_frame without
    the series' coset bases; powers reuses its span)
  * psi = 1/phi is invariant for the reversed walk:  psi = R * Phat psi
  * the measure psi * counting is R-invariant:  psi(y) = R * sum_x psi(x) v(x^-1 y)
  * a symmetric law degenerates: theta* = 0, R = 1, tilting is the identity

Residuals are relative wherever the reference value spans orders of
magnitude; counting measure turns every "almost everywhere" statement
into "at every point of the check region".  The invariance checks hand phi
or psi to tables.invariance_residual, which tabulates it once as a dense
array and applies the one transition kernel, tables.step.  The reversed-walk
identity and the measure identity are the same sum: check_dual_invariance
computes it, and `rwalk verify` reports that one computation under both
the `dual` and the `measure` check names.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ExponentOverflow, NotNormalized, RwalkError
from .groups import FiniteGroup
from .laws import Law, default_window
from .spectral import EXP_GUARD, Exponential, SpectralResult
from .tables import FunctionTable, LatticeBox, invariance_residual, powers, step_frame

TILT_NORMALIZATION_TOL = 1e-10
# Corollary 2: how close to theta* = 0 and R = 1 a symmetric law must land
DEGENERACY_THETA_TOL = 1e-8
DEGENERACY_R_TOL = 1e-10


class TiltedWalk(NamedTuple):
    original: Law
    exponential: Exponential
    R: float
    tilted: Law


def tilt(law: Law, exponential: Exponential, R: float) -> TiltedWalk:
    """Build the law x -> R * phi(x) * mass(x); no renormalization.

    The reweighted atoms only form a probability law when the fixed-point
    identity R * integral(phi dv) = 1 holds for the supplied pair, so that
    is checked first and NotNormalized raised otherwise; a zero tilted mass is refused.
    """
    weighted = {x: exponential.phi(x) * p for x, p in law.atoms.items()}
    total = R * math.fsum(weighted.values())
    if abs(total - 1.0) > TILT_NORMALIZATION_TOL:
        raise NotNormalized(
            f"R * integral(phi dv) = {total!r}; pair does not satisfy the "
            "fixed-point identity")
    masses = {x: R * w for x, w in weighted.items()}
    for x, p in masses.items():
        if p == 0.0:
            raise RwalkError(f"atom {x!r} of mass {law.atoms[x]!r}: its tilted mass "
                             "R * phi(x) * mass underflows to 0.0")
    tilted = Law(law.group, masses, sum_tol=TILT_NORMALIZATION_TOL)
    return TiltedWalk(law, exponential, float(R), tilted)


def relative_drift(tw: TiltedWalk) -> float:
    """max_k |E~X_k| / E~|X_k| of one tilted step, in exact sums: 0 at theta* alone,
    where grad Lambda = 0, and 0 on a finite group."""
    atoms = tw.tilted.atoms.items()
    moments = [(math.fsum(p * x[k] for x, p in atoms), math.fsum(p * abs(x[k]) for x, p in atoms))
               for k in range(len(tw.exponential.theta))]
    return max((abs(m) / a for m, a in moments), default=0.0)


def check_tilted_powers(tw: TiltedWalk, n_max: int) -> float:
    """Max discrepancy between tilted^n and R^n * phi * original^n, n <= n_max.

    Both n-step laws are dense arrays on one shared box, zero where an atom
    is absent (tables.powers), in the frame of tables.step_frame; theta.x is
    tabulated once on that box, at each point's integer x, and sliced per n.
    The residual is absolute, formed in one buffer: theta.x below the guard
    only underflows phi toward 0, the right product; theta.x above it where
    the walk has mass, or an R^n * phi that overflows, is ExponentOverflow.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    group, window, frame, boxes = tw.original.group, None, None, [slice(None)] * n_max
    exponent = tw.exponential.exponent
    if not isinstance(group, FiniteGroup):
        frame = _, lo, hi, _, basis = step_frame(tw.original.atoms, n_max)
        inverse = np.linalg.inv(basis).round().astype(np.int64).tolist()
        window = LatticeBox(n_max * lo, n_max * hi)
        boxes = [tuple(slice((n - n_max) * a, (n - n_max) * a + n * (b - a) + 1)
                       for a, b in zip(lo, hi)) for n in range(1, n_max + 1)]
        # theta.x at x = inverse @ y, the same float as on an x-coordinate box
        exponent = lambda y: tw.exponential.exponent(
            [sum(c * g for c, g in zip(row, y) if c) for row in inverse])
    # theta.x, exponentiated in place
    phi = FunctionTable.tabulate(group, exponent, window).values
    over = phi > EXP_GUARD
    any_over = bool(over.any())
    phi[over] = 0.0
    np.exp(phi, out=phi)
    buf = np.empty(phi.size)
    worst = 0.0
    scale = 1.0
    steps = zip(boxes, powers(tw.tilted, n_max, frame), powers(tw.original, n_max, frame))
    for n, (box, left, right) in enumerate(steps, 1):
        scale *= tw.R
        if any_over and over[box][right > 0].any():
            raise ExponentOverflow(
                f"theta.x above the {EXP_GUARD} guard at a point the walk reaches")
        t = buf[:right.size].reshape(right.shape)   # left - scale * phi[box] * right
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(scale, phi[box], out=t)
            t *= right
            np.subtract(left, t, out=t)
            resid = float(np.abs(t, out=t).max())
        if not math.isfinite(resid):   # R^n or R^n * phi overflowed
            raise ExponentOverflow(f"R^n * phi overflows at n = {n} (R = {tw.R:.3e})")
        worst = max(worst, resid)
    return worst


def check_dual_invariance(law: Law, exponential: Exponential, R: float,
                          window: LatticeBox | None = None) -> float:
    """Max relative residual of psi = R * (reversed-walk average of psi), psi = 1/phi
    the invariant density, on verify_r_invariance's window: |1 - R Lambda(theta)| on Z^d."""
    window = window if window is not None else default_window(law, exponential.theta)
    return invariance_residual(law.dual(), exponential.psi, R, window)


def check_measure_invariance(law: Law, exponential: Exponential, R: float,
                             window: LatticeBox | None = None) -> float:
    """Pointwise stationarity of the measure with density psi.

    For each interior y the mass flowing into y after one weighted step,
    R * sum_u psi(y u^-1) mass(u), must reproduce psi(y).  That inflow is
    the reversed walk's one-step average of psi, so the residual is the
    one check_dual_invariance computes.
    """
    return check_dual_invariance(law, exponential, R, window)


class SymmetricDegeneracy(NamedTuple):
    is_symmetric: bool
    r_equals_one: bool | None
    phi_trivial: bool | None
    theta_norm: float | None = None   # max_k |theta*_k|
    r_diff: float | None = None       # |R - 1|


def check_symmetric_degeneracy(law: Law, spectral: SpectralResult) -> SymmetricDegeneracy:
    """A symmetric law (equal to its reversal) must sit at theta* = 0, R = 1;
    `spectral` is the law's minimization."""
    if not law.is_symmetric():
        return SymmetricDegeneracy(False, None, None)
    theta_norm = max((abs(t) for t in spectral.theta), default=0.0)
    r_diff = abs(spectral.R - 1.0)
    return SymmetricDegeneracy(True, r_diff <= DEGENERACY_R_TOL,
                               theta_norm <= DEGENERACY_THETA_TOL, theta_norm, r_diff)
