"""Exponentials on the group and the convex minimization producing rho and R.

On Z^d every continuous homomorphism into (0, inf) is x -> exp(theta.x),
so the search for the exponential paired with a walk reduces to minimizing
the strictly convex map Lambda(theta) = sum_x v(x) exp(theta.x).  At the
interior minimizer theta*, rho = Lambda(theta*) is the walk's spectral
radius, R = 1/rho its convergence parameter, and R*Lambda(theta*) = 1 is
the fixed-point identity every downstream check keys off.  On a group
where every element has finite order the only exponential is the constant
1 (phi(x)^k = phi(x^k) = 1), so finite groups short-circuit to rho = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSupport, ExponentOverflow, NotIrreducible
from .groups import FiniteGroup, Lattice
from .laws import (IrreducibilityResult, Law, _separating_direction,
                   check_irreducible, default_window)
from .tables import FunctionTable, LatticeBox, invariance_residual

EXP_GUARD = 700.0
GRAD_TOL = 1e-10
MAX_ITERATIONS = 10_000
HESSIAN_CONDITION_CAP = 1e12


def _guarded_exp(arg):
    """exp of a float, or elementwise of an array, if no |arg| exceeds EXP_GUARD."""
    if isinstance(arg, np.ndarray):
        worst = float(np.max(np.abs(arg)))
        if worst > EXP_GUARD:
            raise ExponentOverflow(f"exponent {worst!r} beyond +/-{EXP_GUARD} guard")
        return np.exp(arg)
    if abs(arg) > EXP_GUARD:
        raise ExponentOverflow(f"exponent {arg!r} beyond +/-{EXP_GUARD} guard")
    return math.exp(arg)


class Exponential:
    """Strictly positive multiplicative function phi on the group.

    phi and psi also take the coordinate arrays of FunctionTable.tabulate.
    """

    def phi(self, x) -> float:
        raise NotImplementedError

    def psi(self, x) -> float:
        """Reciprocal value phi(x)^-1 = phi(x^-1)."""
        raise NotImplementedError

    def exponent(self, x):
        """log phi(x), unguarded."""
        raise NotImplementedError

    def reciprocal(self) -> "Exponential":
        raise NotImplementedError


class LatticeExponential(Exponential):
    """phi(x) = exp(theta.x) on Z^d."""

    def __init__(self, theta):
        self.theta = tuple(float(t) for t in theta)

    def phi(self, x):
        return _guarded_exp(self.exponent(x))

    def psi(self, x):
        return _guarded_exp(-self.exponent(x))

    def exponent(self, x):
        if isinstance(x[0], np.ndarray):
            # per-axis open grids: theta.x broadcasts to the whole box
            return sum(t * c for t, c in zip(self.theta, x))
        return math.fsum(t * c for t, c in zip(self.theta, x))

    def reciprocal(self) -> "LatticeExponential":
        return LatticeExponential(tuple(-t for t in self.theta))

    def __repr__(self):
        return f"LatticeExponential(theta={self.theta})"


class TrivialExponential(Exponential):
    """phi identically 1; the only exponential on a finite group."""

    theta: tuple = ()

    def phi(self, x) -> float:
        return 1.0

    def psi(self, x) -> float:
        return 1.0

    def exponent(self, x) -> float:
        return 0.0

    def reciprocal(self) -> "TrivialExponential":
        return self

    def __repr__(self):
        return "TrivialExponential()"


@dataclass(frozen=True)
class SpectralResult:
    theta: tuple
    rho: float
    R: float
    gradient_norm: float
    iterations: int
    irreducibility: IrreducibilityResult


def mgf(law: Law, theta) -> float:
    """Lambda(theta) = sum_x mass(x) exp(theta.x); convex, Lambda(0) = mass."""
    if not isinstance(law.group, Lattice):
        raise TypeError("mgf is defined for lattice laws")
    th = tuple(float(t) for t in theta)
    return math.fsum(p * _guarded_exp(math.fsum(t * c for t, c in zip(th, x)))
                     for x, p in law.atoms.items())


def mgf_gradient(law: Law, theta) -> tuple:
    th = tuple(float(t) for t in theta)
    dim = law.group.dim
    parts = [[] for _ in range(dim)]
    for x, p in law.atoms.items():
        w = p * _guarded_exp(math.fsum(t * c for t, c in zip(th, x)))
        for k in range(dim):
            parts[k].append(w * x[k])
    return tuple(math.fsum(col) for col in parts)


def mgf_hessian(law: Law, theta) -> np.ndarray:
    th = tuple(float(t) for t in theta)
    dim = law.group.dim
    h = np.zeros((dim, dim))
    for x, p in law.atoms.items():
        w = p * _guarded_exp(math.fsum(t * c for t, c in zip(th, x)))
        xv = np.asarray(x, dtype=float)
        h += w * np.outer(xv, xv)
    return h


def _coordinate_minimize(law: Law, theta: np.ndarray, grad_tol: float,
                         max_iter: int, start_iter: int):
    """Cyclic coordinate descent; fallback when the full Hessian is unusable.

    Each coordinate is bracketed by golden-section down to 1e-6 (immune to
    any conditioning trouble), then polished with scalar Newton steps using
    the strictly positive diagonal curvature; value-comparison search alone
    would stall at the sqrt(eps) noise floor, far above grad_tol.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    it = start_iter
    dim = theta.size
    gn = math.inf
    while it < max_iter:
        it += 1
        for k in range(dim):
            def along(t):
                trial = theta.copy()
                trial[k] = t
                return mgf(law, trial)

            a, b = theta[k] - 1.0, theta[k] + 1.0
            # widen the bracket until the minimum is interior
            while along(a) < along(a + 1e-9):
                a -= b - a
            while along(b) < along(b - 1e-9):
                b += b - a
            while b - a > 1e-6:
                c = b - invphi * (b - a)
                d = a + invphi * (b - a)
                if along(c) <= along(d):
                    b = d
                else:
                    a = c
            theta[k] = 0.5 * (a + b)
            for _ in range(60):
                g = mgf_gradient(law, theta)[k]
                if abs(g) <= 0.05 * grad_tol:
                    break
                h = mgf_hessian(law, theta)[k, k]
                if h <= 0.0:
                    break
                theta[k] -= g / h
        gn = math.sqrt(math.fsum(g * g for g in mgf_gradient(law, theta)))
        if gn <= grad_tol:
            break
    return theta, gn, it


def find_exponential(law: Law, theta0=None, *, grad_tol: float = GRAD_TOL,
                     max_iter: int = MAX_ITERATIONS):
    """Minimize Lambda and return (exponential, SpectralResult).

    Requires an irreducible law; on a lattice the origin must additionally
    be interior to the support hull (otherwise Lambda has no interior
    minimizer and DegenerateSupport is raised).  Damped Newton with the
    analytic Hessian; cyclic coordinate descent if the Hessian condition
    number exceeds HESSIAN_CONDITION_CAP.
    """
    group = law.group
    res = check_irreducible(law)
    if not res.irreducible:
        if (isinstance(group, Lattice)
                and _separating_direction(list(law.atoms), group.dim) is not None):
            raise DegenerateSupport(res.witness)
        raise NotIrreducible(res.witness)
    if isinstance(group, FiniteGroup):
        rho = law.mass()
        return TrivialExponential(), SpectralResult((), rho, 1.0 / rho, 0.0, 0, res)

    dim = group.dim
    theta = np.zeros(dim) if theta0 is None else np.asarray(theta0, dtype=float).copy()
    val = mgf(law, theta)
    gn = math.sqrt(math.fsum(g * g for g in mgf_gradient(law, theta)))
    iterations = 0
    while gn > grad_tol and iterations < max_iter:
        iterations += 1
        hess = mgf_hessian(law, theta)
        cond = np.linalg.cond(hess)
        if not np.isfinite(cond) or cond > HESSIAN_CONDITION_CAP:
            theta, gn, iterations = _coordinate_minimize(
                law, theta, grad_tol, max_iter, iterations)
            break
        step = np.linalg.solve(hess, np.asarray(mgf_gradient(law, theta)))
        lam = 1.0
        while True:
            cand = theta - lam * step
            try:
                cval = mgf(law, cand)
            except ExponentOverflow:
                cval = math.inf
            if cval <= val + 1e-15:
                break
            lam *= 0.5
            if lam < 1e-30:
                cand, cval = theta, val
                break
        theta, val = cand, cval
        gn = math.sqrt(math.fsum(g * g for g in mgf_gradient(law, theta)))

    rho = mgf(law, theta)
    spectral = SpectralResult(tuple(float(t) for t in theta), rho, 1.0 / rho,
                              gn, iterations, res)
    return LatticeExponential(spectral.theta), spectral


@dataclass(frozen=True)
class DualSpectralResult:
    rho: float
    rho_dual: float
    equal: bool
    theta: tuple
    theta_dual: tuple


def check_dual_spectral_radius(law: Law, atol: float = 1e-10,
                               spectral: SpectralResult | None = None) -> DualSpectralResult:
    """Spectral radius of the walk versus its reversed walk.

    Analytically Lambda_dual(theta) = Lambda(-theta), so the minima agree
    and the dual minimizer is -theta*; this computes the reversed side from
    scratch and compares it with `spectral`, the walk's own minimization
    (computed here when not given).
    """
    fwd = spectral if spectral is not None else find_exponential(law)[1]
    _, bwd = find_exponential(law.dual())
    return DualSpectralResult(fwd.rho, bwd.rho, abs(fwd.rho - bwd.rho) <= atol,
                              fwd.theta, bwd.theta)


def verify_r_invariance(law: Law, exponential: Exponential, r: float,
                        window: LatticeBox | None = None) -> float:
    """Max relative residual of phi = r * (one-step average of phi).

    phi is tabulated on the window and the transition operator is applied
    through the table, so the check exercises the same truncation plumbing
    as every other pointwise identity; the residual is relative because
    phi spans many orders of magnitude across a window.
    """
    window = window if window is not None else default_window(law)
    table = FunctionTable.tabulate(law.group, exponential.phi, window)
    return invariance_residual(law, table, r)
