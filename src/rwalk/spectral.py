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
from typing import NamedTuple

import numpy as np

from .errors import DegenerateSupport, ExponentOverflow, NotIrreducible, RwalkError
from .groups import FiniteGroup
from .laws import IrreducibilityResult, Law, check_irreducible, default_window
from .tables import EXP_GUARD, LatticeBox, invariance_residual

MAX_ITERATIONS = 1000  # fixtures and benchmark laws need at most 5, the skewed py = 1e-100 law 118
# Newton stops once no coordinate of its step exceeds STEP_TOL * max(1, |theta|_inf)
STEP_TOL = 1e-13


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
    """phi(x) = exp(theta.x), a strictly positive multiplicative function.

    On Z^d theta has d coordinates; theta = () is the constant 1, the only
    exponential on a finite group.  phi and psi also take the coordinate
    arrays of FunctionTable.tabulate.
    """

    def __init__(self, theta=()):
        self.theta = tuple(float(t) for t in theta)

    def phi(self, x):
        return _guarded_exp(self.exponent(x))

    def psi(self, x):
        """Reciprocal value phi(x)^-1 = phi(x^-1)."""
        return _guarded_exp(-self.exponent(x))

    def exponent(self, x):
        """log phi(x) = theta.x, unguarded."""
        if not self.theta:
            return 0.0
        if isinstance(x[0], np.ndarray):
            # per-axis open grids: theta.x broadcasts to the whole box
            return sum(t * c for t, c in zip(self.theta, x))
        return math.fsum(t * c for t, c in zip(self.theta, x))

    def __repr__(self):
        return f"Exponential(theta={self.theta})"


class SpectralResult(NamedTuple):
    theta: tuple
    rho: float
    R: float
    gradient_norm: float
    iterations: int
    irreducibility: IrreducibilityResult


def _lambda_pass(law: Law, theta):
    """Lambda, its gradient and its Hessian at theta, in one pass over the atoms.

    With w_x = mass(x) exp(theta.x): Lambda = sum w_x, the gradient is
    sum w_x x and the Hessian sum w_x x x^T.  Lambda is summed exactly
    (math.fsum) because it is reported as rho and R = 1/rho.  The atoms come
    from the law's cached array form, so a solve builds them once.
    """
    x, p = law.arrays
    w = p * _guarded_exp(x @ theta)
    xw = x * w[:, None]
    return math.fsum(w.tolist()), xw.sum(axis=0), xw.T @ x


def find_exponential(law: Law, theta0=None):
    """Minimize Lambda and return (exponential, SpectralResult).

    Requires an irreducible law; on a lattice the origin must additionally
    be interior to the support hull (otherwise Lambda has no interior
    minimizer and DegenerateSupport is raised).  Damped Newton with the
    analytic Hessian: the step H^-1 g is halved until Lambda does not rise
    beyond rounding, and the accepted point's gradient and Hessian serve the
    next iteration.  The loop stops when the step H^-1 g is below STEP_TOL
    relative to theta in every coordinate.  The rule reads theta, not
    Lambda: where Lambda is nearly flat along one axis (a skewed law), |g|
    and the decrement g.H^-1 g drop below any fixed tolerance while theta
    is still far off along it.  It also stops when no halving keeps Lambda
    from rising.
    """
    group = law.group
    res = check_irreducible(law)
    if res.degenerate:
        raise DegenerateSupport(res.witness)
    if not res.irreducible:
        raise NotIrreducible(res.witness)
    if isinstance(group, FiniteGroup):
        rho = law.mass()
        return Exponential(), SpectralResult((), rho, 1.0 / rho, 0.0, 0, res)

    theta = np.zeros(group.dim) if theta0 is None else np.asarray(theta0, dtype=float)
    val, grad, hess = _lambda_pass(law, theta)
    iterations = 0
    while True:
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:   # singular to double precision: step on its range
            step = np.linalg.lstsq(hess, grad)[0]
        if np.max(np.abs(step)) <= STEP_TOL * max(1.0, np.max(np.abs(theta))):
            break
        if iterations == MAX_ITERATIONS:
            raise RwalkError(f"Newton's method did not converge in {iterations} iterations: "
                             f"its last step is {step.tolist()} at theta = {theta.tolist()}")
        iterations += 1
        lam = 1.0
        while lam >= 1e-30:
            cand = theta - lam * step
            try:
                cval, cgrad, chess = _lambda_pass(law, cand)
            except ExponentOverflow:
                cval = math.inf
            # near the minimum Lambda is flat to double precision while theta
            # still moves, so a rise within rounding is accepted
            if cval - val <= 1e-15 * val:
                break
            lam *= 0.5
        else:  # no halving keeps Lambda from rising: theta is as good as it gets
            break
        theta, val, grad, hess = cand, cval, cgrad, chess

    spectral = SpectralResult(tuple(float(t) for t in theta), val, 1.0 / val,
                              float(np.linalg.norm(grad)), iterations, res)
    return Exponential(spectral.theta), spectral


class DualSpectralResult(NamedTuple):
    rho: float
    rho_dual: float
    theta: tuple
    theta_dual: tuple


def check_dual_spectral_radius(law: Law, spectral: SpectralResult) -> DualSpectralResult:
    """Spectral radius of the walk versus its reversed walk.

    Analytically Lambda_dual(theta) = Lambda(-theta), so the minima agree
    and the dual minimizer is -theta*; this computes the reversed side from
    scratch and sets it beside `spectral`, the walk's own minimization.
    """
    _, dual = find_exponential(law.dual())
    return DualSpectralResult(spectral.rho, dual.rho, spectral.theta, dual.theta)


def verify_r_invariance(law: Law, exponential: Exponential, r: float,
                        window: LatticeBox | None = None) -> float:
    """Max relative residual of phi = r * (one-step average of phi).

    phi is tabulated on the window, by default `rwalk verify`'s support box
    default_window(law, theta), and the transition operator is applied
    through the table; the residual is relative because phi spans many
    orders of magnitude across a window.  On Z^d it is |1 - r Lambda(theta)|.
    """
    window = window if window is not None else default_window(law, exponential.theta)
    return invariance_residual(law, exponential.phi, r, window)
