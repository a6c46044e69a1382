import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwalk import (ExponentOverflow, Lattice, LatticeBox, Law, NotNormalized, WindowExceeded,
                   check_dual_invariance, check_measure_invariance,
                   check_symmetric_degeneracy, check_tilted_powers,
                   default_window, find_exponential, tilt, verify_r_invariance)
from rwalk.spectral import EXP_GUARD, Exponential
import rwalk.tables as tables
from rwalk.tables import DENSE_CELL_LIMIT, FunctionTable, powers, step_span

from conftest import mgf, tilt_from_spectral, window_index

LAZY_RHO = 0.5 + 2.0 * math.sqrt(0.3 * 0.2)
LAZY_R = 1.0 / LAZY_RHO
LAZY_THETA = 0.5 * math.log(2.0 / 3.0)


def test_tilt_bernoulli_to_simple_symmetric(bernoulli):
    # by hand: R*phi(1)*p = (2/sqrt(3))*sqrt(3)*0.25 = 1/2, same for -1
    tw = tilt_from_spectral(bernoulli)
    assert tw.tilted.atoms[(1,)] == pytest.approx(0.5, abs=1e-10)
    assert tw.tilted.atoms[(-1,)] == pytest.approx(0.5, abs=1e-10)
    assert set(tw.tilted.atoms) == set(bernoulli.atoms)


def test_tilt_symmetric_is_identity(symmetric_corpus):
    for law in symmetric_corpus:
        tw = tilt_from_spectral(law)
        for x, p in law.atoms.items():
            assert abs(tw.tilted.atoms[x] - p) <= 1e-14


def test_tilt_lazy_drift_frozen_oracle(lazy_drift):
    # arithmetic from the closed form: R = 1/(0.5 + 2*sqrt(0.06))
    tw = tilt_from_spectral(lazy_drift)
    atoms = tw.tilted.atoms
    assert atoms[(0,)] == pytest.approx(LAZY_R * 0.5, abs=1e-12)
    assert atoms[(1,)] == pytest.approx(LAZY_R * math.exp(LAZY_THETA) * 0.3, abs=1e-12)
    assert atoms[(-1,)] == pytest.approx(LAZY_R * math.exp(-LAZY_THETA) * 0.2, abs=1e-12)
    # frozen decimals of the same oracle
    assert atoms[(0,)] == pytest.approx(0.5051025721682212, abs=1e-9)
    assert atoms[(1,)] == pytest.approx(0.2474487139158961, abs=1e-9)
    # the reweighted walk has no drift, so the +/-1 masses coincide
    assert atoms[(1,)] == pytest.approx(atoms[(-1,)], abs=1e-13)


def test_tilt_finite_group_is_identity(z6_law):
    tw = tilt_from_spectral(z6_law)
    for x, p in z6_law.atoms.items():
        assert abs(tw.tilted.atoms[x] - p) <= 1e-14


def test_tilt_rejects_unnormalized_pair(bernoulli):
    exponential, sp = find_exponential(bernoulli)
    with pytest.raises(NotNormalized):
        tilt(bernoulli, exponential, 1.2)
    with pytest.raises(NotNormalized):
        tilt(bernoulli, Exponential((0.0,)), sp.R)


def test_tilted_mass_is_one(asymmetric_corpus):
    for law in asymmetric_corpus:
        tw = tilt_from_spectral(law)
        assert abs(tw.tilted.mass() - 1.0) <= 1e-12


def test_tilted_atoms_match_reweighting_exactly(bernoulli):
    exponential, sp = find_exponential(bernoulli)
    tw = tilt(bernoulli, exponential, sp.R)
    for x, p in bernoulli.atoms.items():
        assert abs(tw.tilted.atoms[x] - sp.R * exponential.phi(x) * p) <= 1e-14


def test_power_identity_n2_both_sides_enumerated(bernoulli):
    tw = tilt_from_spectral(bernoulli)
    left = tw.tilted.power(2).atoms[(0,)]
    right = tw.R ** 2 * 1.0 * bernoulli.power(2).atoms[(0,)]
    assert left == pytest.approx(0.5, abs=1e-12)
    assert right == pytest.approx(0.5, abs=1e-12)
    assert check_tilted_powers(tw, 1) <= 1e-14  # n = 1 is definitional


@pytest.mark.parametrize("n_max", [0, -3])
def test_power_identity_refuses_fewer_than_one_step(bernoulli, z6_law, n_max):
    for law in (bernoulli, z6_law):
        with pytest.raises(ValueError, match=r"^n_max must be >= 1$"):
            check_tilted_powers(tilt_from_spectral(law), n_max)


def test_power_identity_corpus(asymmetric_corpus):
    for law in asymmetric_corpus:
        tw = tilt_from_spectral(law)
        n_max = 10 if law.group.dim == 1 else 8
        # accumulated convolution round-off only: <= n * 1e-13
        assert check_tilted_powers(tw, n_max) <= n_max * 1e-13


def test_power_identity_lazy_deep(lazy_drift):
    tw = tilt_from_spectral(lazy_drift)
    assert check_tilted_powers(tw, 8) <= 1e-12


# +-e_k and +-40 e_k: every row of {-1,0,1}^3 spans at least 80 on them, so
# no frame beats the x box; tables.step_frame keeps x on the tie
WIDE_EVERY_FRAME_3D = {(1, 0, 0): .15, (-1, 0, 0): .15, (0, 1, 0): .15, (0, -1, 0): .15,
                       (0, 0, 1): .15, (0, 0, -1): .15, (40, 0, 0): .02, (-40, 0, 0): .02,
                       (0, 40, 0): .02, (0, -40, 0): .02, (0, 0, 40): .01, (0, 0, -40): .01}


def test_power_identity_box_limit(z3):
    # a 40-step jump makes the 10-step box 801^3 cells: refused before allocating
    tw = tilt_from_spectral(Law(z3, WIDE_EVERY_FRAME_3D))
    with pytest.raises(WindowExceeded, match=str(801 ** 3)):
        check_tilted_powers(tw, 10)
    assert 801 ** 3 > DENSE_CELL_LIMIT >= 81 ** 3
    assert check_tilted_powers(tw, 1) <= 1e-14


def test_power_identity_runs_a_diagonal_wide_law_in_its_frame(z3):
    # +-(40, 40, 40): the x box would be 801^3 cells, rows (1,0,0), (0,1,-1)
    # and (1,-1,0) make it 801 x 21 x 21
    atoms = {(1, 0, 0): .15, (-1, 0, 0): .15, (0, 1, 0): .15, (0, -1, 0): .15,
             (0, 0, 1): .15, (0, 0, -1): .15, (40, 40, 40): .05, (-40, -40, -40): .05}
    assert check_tilted_powers(tilt_from_spectral(Law(z3, atoms)), 10) == 0.0


def test_power_identity_sizes_its_box_once(z3, monkeypatch):
    # step_frame computes the frame's span and checks its size; powers reuses both
    tw = tilt_from_spectral(Law(z3, {(1, 0, 0): .3, (-1, 0, 0): .2, (0, 1, 0): .15,
                                     (0, -1, 0): .15, (2, -2, -1): .1, (-2, 2, 1): .1}))
    calls = []
    for name in ("step_span", "check_cells"):
        real = getattr(tables, name)
        monkeypatch.setattr(tables, name, lambda *args, name=name, real=real: calls.append(
            name) or real(*args))
    check_tilted_powers(tw, 10)
    assert calls == ["step_span", "check_cells"]


def x_box_tilted_powers(tw, n_max):
    """check_tilted_powers on a lattice as it was on the x-coordinate box,
    the residual formed in temporaries: the frame's residual equals it."""
    lo, hi = step_span(tw.original.atoms, n_max)
    window = LatticeBox(n_max * lo, n_max * hi)
    boxes = [tuple(slice((n - n_max) * a, (n - n_max) * a + n * (b - a) + 1)
                   for a, b in zip(lo, hi)) for n in range(1, n_max + 1)]
    phi = FunctionTable.tabulate(tw.original.group, tw.exponential.exponent, window)
    over = phi > EXP_GUARD
    phi[over] = 0.0
    np.exp(phi, out=phi)
    worst, scale = 0.0, 1.0
    steps = zip(boxes, powers(tw.tilted, n_max), powers(tw.original, n_max))
    for n, (box, left, right) in enumerate(steps, 1):
        scale *= tw.R
        assert not over[box][right > 0].any()
        resid = float(np.max(np.abs(left - scale * phi[box] * right)))
        assert math.isfinite(resid)
        worst = max(worst, resid)
    return worst


@st.composite
def tilted_lattice_walks(draw):
    """Tilts of lattice laws in d = 1..3 at an exponent drawn apart from
    theta*: supports of up to 6 points of [-2, 2]^d, mostly off the axes and
    sparse, half of them closed under x -> -x."""
    dim = draw(st.integers(1, 3))
    support = set(draw(st.lists(st.tuples(*[st.integers(-2, 2)] * dim), min_size=1,
                                max_size=6, unique=True)))
    if draw(st.booleans()):
        support |= {tuple(-c for c in x) for x in support}
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=len(support),
                            max_size=len(support)))
    total = math.fsum(weights)
    law = Law(Lattice(dim), {x: w / total for x, w in zip(sorted(support), weights)},
              sum_tol=1e-9)
    theta = tuple(draw(st.floats(-0.8, 0.8)) for _ in range(dim))
    return tilt(law, Exponential(theta), 1.0 / mgf(law, theta))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(tilted_lattice_walks(), st.integers(1, 10))
def test_power_identity_in_the_frame_equals_the_x_box(tw, n_max):
    assert check_tilted_powers(tw, n_max) == x_box_tilted_powers(tw, n_max)


def test_power_identity_guard_only_where_the_walk_reaches(drift2d, bernoulli):
    # theta.x = 800 at the box corner (10, 10), which 10 nearest-neighbour
    # steps cannot reach; every reachable point stays at or below 400
    theta = (40.0, 40.0)
    tw = tilt(drift2d, Exponential(theta), 1.0 / mgf(drift2d, theta))
    assert check_tilted_powers(tw, 10) <= 1e-12
    # theta.x = 800 at x = 10, where the walk does go
    tw = tilt(bernoulli, Exponential((80.0,)), 1.0 / mgf(bernoulli, (80.0,)))
    assert check_tilted_powers(tw, 8) <= 1e-12
    with pytest.raises(ExponentOverflow):
        check_tilted_powers(tw, 10)


def test_power_identity_below_the_guard(z2):
    # theta_y = 114.8, so theta.x reaches -1148 at y = -10, where the walk
    # goes: phi underflows to 0 there, which the absolute residual allows
    law = Law(z2, {(1, 0): .3, (-1, 0): .2, (0, 1): 1e-100, (0, -1): .5})
    tw = tilt_from_spectral(law)
    assert tw.exponential.theta[1] * -10 < -EXP_GUARD
    assert check_tilted_powers(tw, 10) <= 1e-15


def test_power_identity_overflow_is_an_error_not_a_pass(z3):
    # theta*_k = 344.84 and R = 2.9e149: R^n * phi overflows from n = 1, and
    # inf * 0 = NaN there must not read as a zero residual, nor warn
    units = [tuple(int(j == k) for j in range(3)) for k in range(3)]
    law = Law(z3, {**{u: 1e-300 for u in units},
                   **{tuple(-c for c in u): 1 / 3 for u in units}})
    tw = tilt_from_spectral(law)
    assert tw.R > 1e149
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ExponentOverflow, match=r"^R\^n \* phi overflows at n = 1 "):
            check_tilted_powers(tw, 10)


def test_library_default_window_is_the_verify_window(z2):
    # at theta* = (-0.20, 114.78) the library checks, like rwalk verify, use
    # the support box of radius 1; a set radius of 7 would reach exponent
    # 804.90 and is refused, naming the widest radius within the guard
    law = Law(z2, {(1, 0): .3, (-1, 0): .2, (0, 1): 1e-100, (0, -1): .5})
    exponential, sp = find_exponential(law)
    assert default_window(law, exponential.theta) == LatticeBox.centered(1, 2)
    with pytest.raises(ExponentOverflow, match="set window_radius 6 or less"):
        default_window(law, exponential.theta, 7)
    for check in (verify_r_invariance, check_dual_invariance, check_measure_invariance):
        assert check(law, exponential, sp.R) <= 1e-10


def test_dual_invariance_corpus(asymmetric_corpus):
    for law in asymmetric_corpus:
        exponential, sp = find_exponential(law)
        assert check_dual_invariance(law, exponential, sp.R) <= 1e-10


def test_dual_invariance_bernoulli_tight(bernoulli):
    exponential, sp = find_exponential(bernoulli)
    assert check_dual_invariance(bernoulli, exponential, sp.R) <= 1e-12


def test_dual_invariance_symmetric_exact(simple_symmetric):
    exponential, sp = find_exponential(simple_symmetric)
    assert check_dual_invariance(simple_symmetric, exponential, sp.R) == 0.0


def test_dual_invariance_flags_wrong_pairing(bernoulli):
    _, sp = find_exponential(bernoulli)
    # reciprocal pairing: residual |1 - R * Lambda(-theta*)| = 2/3
    swapped = Exponential((-sp.theta[0],))
    resid = check_dual_invariance(bernoulli, swapped, sp.R)
    assert resid == pytest.approx(2.0 / 3.0, abs=1e-9)
    # doubled exponent: the weighted mass is p*(q/p) + q*(p/q) = 1,
    # so the residual collapses to R - 1 = 0.1547005
    doubled = Exponential((2.0 * sp.theta[0],))
    resid = check_dual_invariance(bernoulli, doubled, sp.R)
    assert resid == pytest.approx(sp.R - 1.0, abs=1e-9)
    assert resid == pytest.approx(0.1547005384, abs=1e-9)


def test_measure_invariance_corpus(asymmetric_corpus):
    for law in asymmetric_corpus:
        exponential, sp = find_exponential(law)
        assert check_measure_invariance(law, exponential, sp.R) <= 1e-10


def test_measure_invariance_symmetric_exact(simple_symmetric):
    exponential, sp = find_exponential(simple_symmetric)
    assert check_measure_invariance(simple_symmetric, exponential, sp.R) == 0.0


def test_measure_invariance_finite_doubly_stochastic(z6_law, s3_law):
    for law in (z6_law, s3_law):
        exponential, sp = find_exponential(law)
        assert check_measure_invariance(law, exponential, sp.R) <= 1e-12
        # oracle: on a finite group the transition matrix is doubly
        # stochastic, so counting measure itself is stationary with R = 1
        g = law.group
        matrix = [[0.0] * g.order for _ in range(g.order)]
        for u, p in law.atoms.items():
            for i in range(g.order):
                matrix[i][g.multiply(i, u)] += p
        for j in range(g.order):
            assert math.fsum(matrix[i][j] for i in range(g.order)) == pytest.approx(
                1.0, abs=1e-14)


def test_symmetric_degeneracy(symmetric_corpus, bernoulli, wide_symmetric):
    for law in symmetric_corpus:
        deg = check_symmetric_degeneracy(law, find_exponential(law)[1])
        assert (deg.is_symmetric, deg.r_equals_one, deg.phi_trivial) == (True, True, True)
    deg = check_symmetric_degeneracy(bernoulli, find_exponential(bernoulli)[1])
    assert not deg.is_symmetric
    assert deg.r_equals_one is None and deg.phi_trivial is None


def test_tilting_twice_is_stationary(asymmetric_corpus):
    for law in asymmetric_corpus:
        tw = tilt_from_spectral(law)
        _, sp2 = find_exponential(tw.tilted)
        assert all(abs(t) <= 1e-7 for t in sp2.theta)
        assert abs(sp2.R - 1.0) <= 1e-10
        tw2 = tilt_from_spectral(tw.tilted)
        for x, p in tw.tilted.atoms.items():
            assert abs(tw2.tilted.atoms[x] - p) <= 1e-12


def test_tilt_commutes_with_dual(bernoulli, lazy_drift):
    for law in (bernoulli, lazy_drift):
        exponential, sp = find_exponential(law)
        tilted_dual = tilt(law.dual(), Exponential(-t for t in exponential.theta), sp.R).tilted
        dual_tilted = tilt(law, exponential, sp.R).tilted.dual()
        for x, p in dual_tilted.atoms.items():
            assert abs(tilted_dual.atoms[x] - p) <= 1e-15


def test_invariant_measure_table(bernoulli):
    # the density psi that check_dual_invariance tabulates
    exponential, sp = find_exponential(bernoulli)
    window = default_window(bernoulli)
    table = FunctionTable.tabulate(bernoulli.group, exponential.psi, window)
    at = lambda x: table[window_index(window, x)]
    assert at(bernoulli.group.identity()) == 1.0
    assert np.all(table > 0.0)
    assert at((1,)) == pytest.approx(math.exp(-sp.theta[0]), rel=1e-12)
