import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwalk import (DegenerateSupport, ExponentOverflow, Lattice, Law,
                   LatticeBox, NotIrreducible, RwalkError, WindowExceeded,
                   check_dual_spectral_radius, check_irreducible, find_exponential,
                   verify_r_invariance)
from rwalk.spectral import MAX_ITERATIONS, Exponential, _lambda_pass

from conftest import SINGULAR_3D, mgf

BERNOULLI_THETA = 0.5 * math.log(3.0)            # calculus: 0.25 e^t = 0.75 e^-t
BERNOULLI_RHO = 2.0 * math.sqrt(0.25 * 0.75)
LAZY_THETA = 0.5 * math.log(2.0 / 3.0)
LAZY_RHO = 0.5 + 2.0 * math.sqrt(0.3 * 0.2)


def gradient(law, theta):
    return _lambda_pass(law, np.asarray(theta, dtype=float))[1]


def hessian(law, theta):
    return _lambda_pass(law, np.asarray(theta, dtype=float))[2]


# Reference: Lambda and its derivatives as per-atom loops with exact sums.

def _weight(x, p, theta):
    return p * math.exp(math.fsum(t * c for t, c in zip(theta, x)))


def reference_mgf(law, theta):
    return math.fsum(_weight(x, p, theta) for x, p in law.atoms.items())


def reference_gradient(law, theta):
    return np.array([math.fsum(_weight(x, p, theta) * x[k] for x, p in law.atoms.items())
                     for k in range(law.group.dim)])


def reference_hessian(law, theta):
    dim = law.group.dim
    return np.array([[math.fsum(_weight(x, p, theta) * x[i] * x[j]
                                for x, p in law.atoms.items())
                      for j in range(dim)] for i in range(dim)])


def test_mgf_at_zero_is_total_mass(bernoulli):
    assert mgf(bernoulli, (0.0,)) == pytest.approx(1.0, abs=1e-15)


def test_mgf_bernoulli_at_minimizer(bernoulli):
    assert mgf(bernoulli, (BERNOULLI_THETA,)) == pytest.approx(
        0.8660254037844386, abs=1e-12)


def test_mgf_symmetric_is_cosh(simple_symmetric):
    assert mgf(simple_symmetric, (0.3,)) == pytest.approx(
        math.cosh(0.3), abs=1e-14)
    assert math.cosh(0.3) == pytest.approx(1.0453385141288605, abs=1e-12)


def test_mgf_overflow_guard(bernoulli):
    with pytest.raises(ExponentOverflow):
        mgf(bernoulli, (800.0,))


@pytest.mark.parametrize("theta, value, x", [((800.0,), "phi", (1,)), ((800.0,), "psi", (-1,)),
                                             ((-800.0,), "phi", (1,)), ((0.0, 701.0), "psi", (0, 1))])
def test_exponential_guard_on_one_point(theta, value, x):
    # a single point takes the scalar branch of the guard, not the array one
    with pytest.raises(ExponentOverflow, match=r"beyond \+/-700.0 guard"):
        getattr(Exponential(theta), value)(x)


def test_exponential_multiplicativity(z2):
    phi = Exponential((0.3, -0.7))
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = tuple(int(v) for v in rng.integers(-20, 21, size=2))
        y = tuple(int(v) for v in rng.integers(-20, 21, size=2))
        xy = z2.multiply(x, y)
        assert phi.phi(xy) == pytest.approx(phi.phi(x) * phi.phi(y), rel=1e-12)
        assert phi.psi(x) == pytest.approx(1.0 / phi.phi(x), rel=1e-12)
        assert phi.psi(x) == pytest.approx(phi.phi(z2.inverse(x)), rel=1e-12)
    assert phi.phi(z2.identity()) == 1.0


def test_find_exponential_bernoulli(bernoulli):
    exponential, sp = find_exponential(bernoulli)
    assert sp.theta[0] == pytest.approx(BERNOULLI_THETA, abs=1e-10)
    assert sp.rho == pytest.approx(BERNOULLI_RHO, abs=1e-12)
    assert sp.R * sp.rho == pytest.approx(1.0, abs=1e-12)
    assert sp.gradient_norm <= 1e-10
    assert sp.rho <= 1.0 + 1e-12
    # independent oracle: brute grid search over theta
    grid = np.arange(-2.0, 2.0, 1e-4)
    vals = 0.25 * np.exp(grid) + 0.75 * np.exp(-grid)
    assert abs(grid[int(np.argmin(vals))] - sp.theta[0]) <= 1e-4


def test_find_exponential_lazy_drift(lazy_drift):
    _, sp = find_exponential(lazy_drift)
    assert sp.theta[0] == pytest.approx(LAZY_THETA, abs=1e-10)
    assert sp.rho == pytest.approx(LAZY_RHO, abs=1e-12)


def test_find_exponential_drift2d(drift2d):
    # separable law: the closed form factors per axis
    _, sp = find_exponential(drift2d)
    assert sp.theta[0] == pytest.approx(0.5 * math.log(0.2 / 0.4), abs=1e-10)
    assert sp.theta[1] == pytest.approx(0.5 * math.log(0.15 / 0.25), abs=1e-10)
    expected_rho = 2 * math.sqrt(0.4 * 0.2) + 2 * math.sqrt(0.25 * 0.15)
    assert sp.rho == pytest.approx(expected_rho, abs=1e-12)


def test_symmetric_laws_sit_at_zero(symmetric_corpus):
    for law in symmetric_corpus:
        _, sp = find_exponential(law)
        assert all(abs(t) <= 1e-8 for t in sp.theta)
        assert sp.rho == pytest.approx(1.0, abs=1e-10)
        assert sp.R == pytest.approx(1.0, abs=1e-10)


def test_finite_group_trivial_exponential(z6_law):
    exponential, sp = find_exponential(z6_law)
    assert exponential.theta == ()
    assert sp.rho == pytest.approx(1.0, abs=1e-12)
    assert sp.R == pytest.approx(1.0, abs=1e-12)
    assert exponential.phi(3) == 1.0 and exponential.psi(3) == 1.0


def test_degenerate_support_rejected(z1):
    with pytest.raises(DegenerateSupport):
        find_exponential(Law(z1, {(1,): 1.0}))


def test_not_irreducible_rejected(z1):
    with pytest.raises(NotIrreducible):
        find_exponential(Law(z1, {(2,): 0.5, (-2,): 0.5}))


def test_irreducibility_decides_the_exception(z1, z2, bernoulli):
    # a support in a closed half-space is degenerate whatever else fails
    cases = [(Law(z1, {(1,): 1.0}), DegenerateSupport, "half-space"),
             (Law(z1, {(2,): 0.5, (-2,): 0.5}), NotIrreducible, "index 2"),
             (Law(z1, {(2,): 0.5, (4,): 0.5}), DegenerateSupport, "index 2"),
             (Law(z2, {(1, 0): 0.5, (-1, 0): 0.5}), DegenerateSupport, "rank")]
    for law, error, witness in cases:
        res = check_irreducible(law)
        assert not res.irreducible and witness in res.witness
        assert res.degenerate == (error is DegenerateSupport)
        with pytest.raises(error, match=witness):
            find_exponential(law)
    assert not check_irreducible(bernoulli).degenerate


def test_dual_spectral_radius(asymmetric_corpus):
    for law in asymmetric_corpus:
        res = check_dual_spectral_radius(law, find_exponential(law)[1])
        assert abs(res.rho - res.rho_dual) <= 1e-10
        for t, td in zip(res.theta, res.theta_dual):
            assert t == pytest.approx(-td, abs=1e-8)


def test_dual_spectral_radius_lazy_closed_form(lazy_drift):
    res = check_dual_spectral_radius(lazy_drift, find_exponential(lazy_drift)[1])
    assert res.rho == pytest.approx(LAZY_RHO, abs=1e-12)
    assert res.rho_dual == pytest.approx(LAZY_RHO, abs=1e-12)


def test_r_invariance_from_minimizer(asymmetric_corpus):
    for law in asymmetric_corpus:
        exponential, sp = find_exponential(law)
        assert verify_r_invariance(law, exponential, sp.R) <= 1e-10


def test_r_invariance_trivial_exponential(bernoulli):
    # constant exponential satisfies the identity with r = 1, not with r = R
    flat = Exponential((0.0,))
    assert verify_r_invariance(bernoulli, flat, 1.0) == 0.0


def test_r_invariance_flags_wrong_r(bernoulli):
    exponential, sp = find_exponential(bernoulli)
    resid = verify_r_invariance(bernoulli, exponential, 1.2)
    assert resid == pytest.approx(abs(1.0 - 1.2 * BERNOULLI_RHO), abs=1e-9)
    assert resid == pytest.approx(0.0392304845, abs=1e-9)


def test_r_invariance_window_too_small(bernoulli):
    exponential, sp = find_exponential(bernoulli)
    with pytest.raises(WindowExceeded):
        verify_r_invariance(bernoulli, exponential, sp.R,
                            window=LatticeBox.centered(0, 1))


def test_r_invariance_finite_group(z6_law):
    exponential, sp = find_exponential(z6_law)
    assert verify_r_invariance(z6_law, exponential, sp.R) <= 1e-12


def test_mgf_convexity_sampled(asymmetric_corpus):
    rng = np.random.default_rng(17)
    for law in asymmetric_corpus:
        dim = law.group.dim
        for _ in range(50):
            t1 = rng.uniform(-2, 2, size=dim)
            t2 = rng.uniform(-2, 2, size=dim)
            mid = mgf(law, 0.5 * (t1 + t2))
            assert mid <= 0.5 * mgf(law, t1) + 0.5 * mgf(law, t2) + 1e-12


def test_gradient_matches_finite_differences(asymmetric_corpus):
    step = 1e-6
    for law in asymmetric_corpus:
        _, sp = find_exponential(law)
        dim = law.group.dim
        rng = np.random.default_rng(23)
        points = [np.zeros(dim), np.asarray(sp.theta)] + \
                 [rng.uniform(-1, 1, size=dim) for _ in range(5)]
        for theta in points:
            grad = gradient(law, theta)
            fd = np.zeros(dim)
            for k in range(dim):
                up, dn = theta.copy(), theta.copy()
                up[k] += step
                dn[k] -= step
                fd[k] = (mgf(law, up) - mgf(law, dn)) / (2 * step)
            scale = max(1.0, float(np.linalg.norm(grad)))
            assert np.linalg.norm(grad - fd) / scale <= 1e-6


def test_gradient_norm_at_minimizer(asymmetric_corpus):
    for law in asymmetric_corpus:
        _, sp = find_exponential(law)
        fd_ok = gradient(law, sp.theta)
        assert np.linalg.norm(fd_ok) <= 1e-8


def test_zero_drift_identity(asymmetric_corpus):
    # the tilted mean increment is grad(Lambda)(theta*) / rho, so it vanishes
    for law in asymmetric_corpus:
        exponential, sp = find_exponential(law)
        dim = law.group.dim
        mean = [math.fsum(x[k] * p * exponential.phi(x) / sp.rho
                          for x, p in law.atoms.items()) for k in range(dim)]
        assert math.sqrt(math.fsum(m * m for m in mean)) <= 1e-9


def test_multistart_uniqueness(asymmetric_corpus):
    rng = np.random.default_rng(1234)
    for law in asymmetric_corpus:
        dim = law.group.dim
        thetas = []
        for _ in range(16):
            start = rng.uniform(-5, 5, size=dim)
            _, sp = find_exponential(law, theta0=start)
            thetas.append(np.asarray(sp.theta))
        spread = max(np.linalg.norm(a - b) for a in thetas for b in thetas)
        assert spread <= 1e-8


def test_hessian_positive_definite_at_minimizer(asymmetric_corpus):
    for law in asymmetric_corpus:
        _, sp = find_exponential(law)
        eigs = np.linalg.eigvalsh(hessian(law, sp.theta))
        assert np.all(eigs > 0)


def test_ill_conditioned_hessian_solved_by_newton(z2):
    eps = 5e-14
    law = Law(z2, {(1, 0): 0.3 - eps, (-1, 0): 0.7 - eps,
                   (1, 1): eps, (-1, -1): eps}, sum_tol=1e-9)
    cond = np.linalg.cond(hessian(law, (0.0, 0.0)))
    assert cond > 1e12
    _, sp = find_exponential(law)
    assert sp.gradient_norm <= 1e-10
    assert sp.theta[0] == pytest.approx(0.5 * math.log(0.7 / 0.3), abs=1e-6)


@st.composite
def laws_and_points(draw):
    """Random 1-3D laws with coordinates up to 5, masses over 12 decades,
    and a point theta with |theta.x| well inside the exponent guard."""
    dim = draw(st.integers(1, 3))
    coords = st.tuples(*[st.integers(-5, 5)] * dim)
    atoms = draw(st.lists(coords, min_size=1, max_size=30, unique=True))
    weights = [10.0 ** draw(st.floats(-12, 0)) for _ in atoms]
    total = math.fsum(weights)
    law = Law(Lattice(dim), {x: w / total for x, w in zip(atoms, weights)})
    theta = tuple(draw(st.floats(-3, 3)) for _ in range(dim))
    return law, theta


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(laws_and_points())
def test_one_pass_matches_reference(case):
    # tolerances are relative to the sums of |terms|, so a gradient that
    # cancels to near zero is held to the rounding of its terms
    law, theta = case
    val, grad, hess = _lambda_pass(law, np.asarray(theta))
    x = np.abs(np.array(list(law.atoms), dtype=float))
    w = np.array([_weight(a, p, theta) for a, p in law.atoms.items()])
    assert val == pytest.approx(reference_mgf(law, theta), rel=1e-13, abs=0)
    assert np.all(np.abs(grad - reference_gradient(law, theta)) <= 1e-13 * (w @ x))
    assert np.all(np.abs(hess - reference_hessian(law, theta)) <= 1e-13 * ((x * w[:, None]).T @ x))
    assert mgf(law, theta) == val


def rebuilt_lambda_pass(law, theta):
    """_lambda_pass as it read before laws cached their array form: the
    atoms rebuilt from the dict on every call, fsum over numpy scalars."""
    x = np.array(list(law.atoms), dtype=float)
    w = np.fromiter(law.atoms.values(), float, len(x)) * np.exp(x @ theta)
    xw = x * w[:, None]
    return math.fsum(w), xw.sum(axis=0), xw.T @ x


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(laws_and_points())
def test_one_pass_on_the_cached_arrays_is_bit_identical(case):
    law, theta = case
    theta = np.asarray(theta)
    for _ in range(2):   # the first call builds the array form, the second reads it
        val, grad, hess = _lambda_pass(law, theta)
        ref_val, ref_grad, ref_hess = rebuilt_lambda_pass(law, theta)
        assert val == ref_val
        assert np.array_equal(grad, ref_grad) and np.array_equal(hess, ref_hess)


@pytest.mark.parametrize("py", [1e-12, 1e-20, 1e-26, 1e-100, 1e-200])
def test_skewed_law_closed_form(z2, py):
    # the y-terms of Lambda are tiny, so |grad| and the Newton decrement
    # g.H^-1 g drop below any fixed tolerance long before theta_y reaches
    # its closed form (114.8 at 1e-100, 229.9 at 1e-200): only a stop rule
    # on the Newton step in theta gets there
    law = Law(z2, {(1, 0): 0.3, (-1, 0): 0.2, (0, 1): py, (0, -1): 0.5 - py})
    _, sp = find_exponential(law)
    theta = (0.5 * math.log(0.2 / 0.3), 0.5 * math.log((0.5 - py) / py))
    rho = 2 * math.sqrt(0.06) + 2 * math.sqrt(py * (0.5 - py))
    assert max(abs(a - b) for a, b in zip(sp.theta, theta)) <= 1e-9
    assert sp.rho == pytest.approx(rho, rel=1e-12, abs=0)


# every line-search candidate past theta = 700/638 overflows the exponent guard
CAPPED_1D = {(-638,): 3.285627453716368e-85, (-576,): 3.0233202483672773e-28,
             (-1,): 1.0, (1,): 3.285627449261733e-85}


def test_singular_hessian_steps_on_its_range(monkeypatch, z3):
    calls = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(1) or lstsq(*a, **k))
    _, sp = find_exponential(Law(z3, SINGULAR_3D, sum_tol=1e-9))
    assert calls   # np.linalg.solve raised at least once
    assert sp.iterations < MAX_ITERATIONS
    assert sp.gradient_norm <= 1e-12


def test_iteration_cap_is_an_error_naming_the_count_and_step(z1):
    with pytest.raises(RwalkError, match=rf"did not converge in {MAX_ITERATIONS} iterations: "
                                         r"its last step is \[-1\.0\] at theta = \[1\.09"):
        find_exponential(Law(z1, CAPPED_1D, sum_tol=1e-9))
