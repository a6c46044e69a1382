"""Exponential change of measure: the tilted walk and its invariance checks.

Reweighting the increment law by R*phi (with R*Lambda(theta*) = 1) yields
a new probability law whose walk has zero drift; the checks here certify,
pointwise on a window, the identities that make the construction tick:

  * tilted n-step law  =  R^n * phi * (original n-step law)
  * psi = 1/phi is invariant for the reversed walk:  psi = R * Phat psi
  * the measure psi * counting is R-invariant:  psi(y) = R * sum_x psi(x) v(x^-1 y)
  * a symmetric law degenerates: theta* = 0, R = 1, tilting is the identity

Residuals are relative wherever the reference value spans orders of
magnitude; counting measure turns every "almost everywhere" statement
into "at every point of the check region".  The window checks tabulate
phi or psi once as a dense array and apply the one transition kernel,
tables.step, through tables.invariance_residual; the reversed-walk
identity and the measure identity are the same sum, so they share one
implementation under their two check names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NotNormalized
from .laws import Law, default_window
from .spectral import Exponential, find_exponential
from .tables import FunctionTable, LatticeBox, invariance_residual

TILT_NORMALIZATION_TOL = 1e-10


@dataclass(frozen=True)
class TiltedWalk:
    original: Law
    exponential: Exponential
    R: float
    tilted: Law


def tilt(law: Law, exponential: Exponential, R: float) -> TiltedWalk:
    """Build the law x -> R * phi(x) * mass(x); no renormalization.

    The reweighted atoms only form a probability law when the fixed-point
    identity R * integral(phi dv) = 1 holds for the supplied pair, so that
    is checked first and NotNormalized raised otherwise.
    """
    weighted = {x: exponential.phi(x) * p for x, p in law.atoms.items()}
    total = R * math.fsum(weighted.values())
    if abs(total - 1.0) > TILT_NORMALIZATION_TOL:
        raise NotNormalized(
            f"R * integral(phi dv) = {total!r}; pair does not satisfy the "
            "fixed-point identity")
    tilted = Law(law.group, {x: R * w for x, w in weighted.items()},
                 sum_tol=TILT_NORMALIZATION_TOL)
    return TiltedWalk(law, exponential, float(R), tilted)


def tilt_from_spectral(law: Law) -> TiltedWalk:
    """Convenience pipeline: minimize, then tilt at the computed (phi, R)."""
    exponential, spectral = find_exponential(law)
    return tilt(law, exponential, spectral.R)


def check_tilted_powers(tw: TiltedWalk, n_max: int) -> float:
    """Max atom discrepancy between tilted^n and R^n * phi * original^n, n <= n_max."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    worst = 0.0
    phi = tw.exponential.phi
    left = Law.point_mass(tw.tilted.group)
    right = Law.point_mass(tw.original.group)
    scale = 1.0
    for _ in range(n_max):
        left = left.convolve(tw.tilted)
        right = right.convolve(tw.original)
        scale *= tw.R
        for x in set(left.atoms) | set(right.atoms):
            a = left.atoms.get(x, 0.0)
            b = scale * phi(x) * right.atoms.get(x, 0.0)
            worst = max(worst, abs(a - b))
    return worst


def invariant_measure_table(law: Law, exponential: Exponential,
                            window: LatticeBox | None = None) -> FunctionTable:
    """Density psi of the invariant measure (relative to counting measure),
    normalized to 1 at the identity, tabulated on the window."""
    window = window if window is not None else default_window(law)
    return FunctionTable.tabulate(law.group, exponential.psi, window)


def check_dual_invariance(law: Law, exponential: Exponential, R: float,
                          window: LatticeBox | None = None) -> float:
    """Max relative residual of psi = R * (reversed-walk one-step average of psi)."""
    table = invariant_measure_table(law, exponential, window)
    return invariance_residual(law.dual(), table, R)


def check_measure_invariance(law: Law, exponential: Exponential, R: float,
                             window: LatticeBox | None = None) -> float:
    """Pointwise stationarity of the measure with density psi.

    For each interior y the mass flowing into y after one weighted step,
    R * sum_u psi(y u^-1) mass(u), must reproduce psi(y).  That inflow is
    the reversed walk's one-step average of psi, so the residual is the
    one check_dual_invariance computes.
    """
    return check_dual_invariance(law, exponential, R, window)


@dataclass(frozen=True)
class SymmetricDegeneracy:
    is_symmetric: bool
    r_equals_one: bool | None
    phi_trivial: bool | None


def check_symmetric_degeneracy(law: Law) -> SymmetricDegeneracy:
    """A symmetric law (equal to its reversal) must sit at theta* = 0, R = 1."""
    if not law.is_symmetric(atol=1e-14):
        return SymmetricDegeneracy(False, None, None)
    _, spectral = find_exponential(law)
    phi_trivial = all(abs(t) <= 1e-8 for t in spectral.theta)
    r_equals_one = abs(spectral.R - 1.0) <= 1e-10
    return SymmetricDegeneracy(True, r_equals_one, phi_trivial)
