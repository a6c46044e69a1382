import math
import os
import re
import threading
import time
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwalk import (FiniteGroup, HorizonTooLarge, IndexOutOfRange, InsufficientData,
                   Lattice, Law, Verdict, WindowExceeded, build_recurrence_report,
                   check_translation_invariance, cyclic_group, estimate_rho,
                   find_exponential, hitting_dp, r_recurrence_test, return_series,
                   simulate_harris)
import rwalk.recurrence as recurrence
import rwalk.tables as tables
from rwalk.recurrence import (RHO_SLACK, _COMPARE_ATOMS, _atom_index, _chunk_finite,
                              _chunk_lattice, _coset_frame, _decode_keys,
                              _key_weights, _philox_keys, _word_thresholds, worker_count)
from rwalk.tables import UNDERFLOW_FLOOR, flush_free_steps, powers, step_span

from conftest import s3_cayley, tilt_from_spectral

BERNOULLI_RHO = 2.0 * math.sqrt(0.25 * 0.75)
LAZY_RHO = 0.5 + 2.0 * math.sqrt(0.3 * 0.2)


# ---------------------------------------------------------------- series

def test_return_series_binomial_oracle(bernoulli):
    series = return_series(bernoulli, 40)
    p, q = 0.25, 0.75
    assert series.probabilities[0] == 1.0
    assert series.probabilities[2] == pytest.approx(2 * p * q, abs=1e-15)
    assert series.probabilities[4] == pytest.approx(
        math.comb(4, 2) * p ** 2 * q ** 2, abs=1e-15)
    for k in range(1, 21):
        assert series.probabilities[2 * k] == pytest.approx(
            math.comb(2 * k, k) * p ** k * q ** k, rel=1e-12)
        assert series.probabilities[2 * k - 1] == 0.0
    assert series.period == 2
    assert all(0.0 <= v <= 1.0 for v in series.probabilities)


def test_return_series_period_one_for_lazy(lazy_drift):
    series = return_series(lazy_drift, 20)
    assert series.period == 1
    assert series.probabilities[1] == pytest.approx(0.5, abs=1e-15)


def test_return_series_finite_cycle(z3_group):
    delta = Law.point_mass(z3_group, 1)
    series = return_series(delta, 200)
    assert series.period == 3
    for n in range(201):
        assert series.probabilities[n] == (1.0 if n % 3 == 0 else 0.0)
    est = estimate_rho(series)
    assert est.rho_hat == pytest.approx(1.0, abs=1e-12)


def test_return_series_2d_oracle(symmetric2d):
    # 2-D nearest-neighbor return probability is the square of the 1-D one
    series = return_series(symmetric2d, 30)
    for k in range(1, 15):
        one_d = math.comb(2 * k, k) * 0.25 ** k
        assert series.probabilities[2 * k] == pytest.approx(one_d ** 2, rel=1e-10)


def test_return_series_mass_conservation(asymmetric_corpus, z6_law):
    for law in list(asymmetric_corpus) + [z6_law]:
        horizon = 200 if law.group == z6_law.group else 100
        series = return_series(law, horizon)
        assert series.max_mass_error <= 1e-10


def test_series_refuses_an_oversized_box_before_allocating(symmetric3d, monkeypatch):
    # in the coset basis the 60-step box of the 120-step series is 61^3
    cells = 61 ** 3
    seen = []
    monkeypatch.setattr(recurrence, "powers", recording_powers(seen))
    monkeypatch.setattr(tables, "DENSE_CELL_LIMIT", cells - 1)
    with pytest.raises(HorizonTooLarge,
                       match=f"^series horizon 120: the 60-step box has {cells} cells"):
        return_series(symmetric3d, 120)
    assert seen == []
    monkeypatch.setattr(tables, "DENSE_CELL_LIMIT", cells)
    assert return_series(symmetric3d, 120).period == 2 and len(seen) == 60


def test_horizon_caps(bernoulli, symmetric2d, symmetric3d, z6_law):
    with pytest.raises(HorizonTooLarge, match=r"^horizon 5001 exceeds cap 5000 "
                       r"for Lattice\(dim=1\)$"):
        return_series(bernoulli, 5001)
    with pytest.raises(HorizonTooLarge, match=r"^horizon 601 exceeds cap 600 "
                       r"for Lattice\(dim=2\)$"):
        return_series(symmetric2d, 601)
    with pytest.raises(HorizonTooLarge, match=r"^horizon 121 exceeds cap 120 "
                       r"for Lattice\(dim=3\)$"):
        return_series(symmetric3d, 121)
    with pytest.raises(HorizonTooLarge, match=r"^horizon 10001 exceeds cap 10000 "
                       r"for FiniteGroup\(order=6\)$"):
        return_series(z6_law, 10_001)


def test_return_series_default_horizons(bernoulli, drift2d, symmetric3d, z6_law):
    for law, default in ((bernoulli, 4000), (drift2d, 600), (symmetric3d, 120),
                         (z6_law, 2000)):
        series = return_series(law)
        assert series.horizon == default
        assert len(series.probabilities) == default + 1


def test_return_series_finite_matches_multiply_table(z6_law, s3_law):
    # the transition matrix gathered through cayley_array is the one built
    # entry by entry with group.multiply, so the series is bit-identical
    for law in (z6_law, s3_law):
        group = law.group
        trans = np.zeros((group.order, group.order))
        for u, p in law.atoms.items():
            for i in range(group.order):
                trans[i, group.multiply(i, u)] += p
        row = np.zeros(group.order)
        row[group.identity()] = 1.0
        want = [1.0]
        for _ in range(300):
            row = row @ trans
            want.append(float(row[group.identity()]))
        assert return_series(law, 300).probabilities == want


def reference_series_finite(law, horizon):
    """The finite-group series through a dense order x order transition
    matrix, row-vector times matrix per step: (probabilities, period,
    max_mass_error)."""
    group = law.group
    n = group.order
    trans = np.zeros((n, n))
    for u, p in law.atoms.items():
        trans[np.arange(n), group.cayley_array[:, u]] += p
    e = group.identity()
    row = np.zeros(n)
    row[e] = 1.0
    probs, worst_mass = [1.0], 0.0
    for _ in range(horizon):
        row = row @ trans
        worst_mass = max(worst_mass, abs(float(row.sum()) - 1.0))
        probs.append(float(row[e]))
    period = math.gcd(*[k for k, p in enumerate(probs) if k >= 1 and p > 0.0])
    return probs, period, worst_mass


@st.composite
def finite_series_cases(draw):
    if draw(st.booleans()):
        group = FiniteGroup(s3_cayley())
    else:
        group = cyclic_group(draw(st.integers(2, 60)))
    size = draw(st.integers(2, min(6, group.order)))
    elems = draw(st.lists(st.integers(0, group.order - 1), min_size=size,
                          max_size=size, unique=True))
    weights = draw(st.one_of(st.just([1] * size),
                             st.lists(st.integers(1, 20), min_size=size, max_size=size)))
    law = Law(group, {u: w / sum(weights) for u, w in zip(elems, weights)})
    return law, draw(st.integers(1, 300))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(finite_series_cases())
def test_series_finite_matches_matrix_reference(case):
    # the n-step laws come from tables.powers, one gather per atom, where the
    # reference sums a matrix row: the same products in another order, and
    # BLAS may fuse a multiply into the add.  Two atoms of mass 1/2 make
    # every product exact, so the one rounding of each sum is the same.
    # Otherwise every cell is a sum of nonnegative products, k + 1 roundings
    # deep per step, so each side is within n (k + 1) u relative of the
    # exact p(n), and the two within n (k + 1) eps of each other; a mass
    # sum over the order cells adds order roundings more.
    law, horizon = case
    got = return_series(law, horizon)
    probs, period, worst_mass = reference_series_finite(law, horizon)
    if list(law.atoms.values()) == [0.5, 0.5]:
        assert got.probabilities == probs
    want = np.array(probs)
    eps = np.finfo(float).eps
    depth = np.arange(horizon + 1) * (len(law.atoms) + 1)
    assert np.all(np.abs(np.array(got.probabilities) - want) <= depth * eps * want)
    assert got.period == period
    assert abs(got.max_mass_error - worst_mass) <= (depth[-1] + law.group.order) * eps


# -------------------------------------------- series on the parity coset
#
# The reference is the lattice series as it was before the coset frame:
# every n-step law on its full bounding box in x coordinates, and every
# p(k) paired, odd k included, stepped by the convolution kernel as it was
# before tables.powers took it in.

def support_span(law):
    """Per-axis (lowest, highest) atom coordinates of a lattice law, as int64 arrays."""
    elems = np.array(list(law.atoms), dtype=np.int64)
    return elems.min(axis=0), elems.max(axis=0)


def convolve(atoms, values, span):
    """The law of X + u on the box grown by span = (off_lo, off_hi), from the
    law of X on a box; `atoms` yields the (shift, mass) pairs of u.  Cells
    below UNDERFLOW_FLOOR are flushed at every step."""
    lo = [int(l) for l in span[0]]
    shape = values.shape
    new = np.zeros(tuple(n + int(h) - l for n, l, h in zip(shape, lo, span[1])))
    for e, p in atoms:
        new[tuple(slice(c - l, c - l + n) for c, l, n in zip(e, lo, shape))] += p * values
    tiny = (new > 0.0) & (new < UNDERFLOW_FLOOR)
    if tiny.any():
        new[tiny] = 0.0
    return new


def recording_powers(seen):
    """recurrence.powers, appending every array it yields to `seen`."""
    def record(law, n_max, shifts=None):
        for f in powers(law, n_max, shifts):
            seen.append(f)
            yield f
    return record


def reference_paired_origin_mass(f, lo_f, g, lo_g):
    hi_f = lo_f + np.array(f.shape, dtype=np.int64) - 1
    hi_g = lo_g + np.array(g.shape, dtype=np.int64) - 1
    a = np.maximum(lo_f, -hi_g)
    b = np.minimum(hi_f, -lo_g)
    if np.any(a > b):
        return 0.0
    f_sl = tuple(slice(int(x - l), int(y - l + 1)) for x, y, l in zip(a, b, lo_f))
    g_sl = tuple(slice(int(-y - l), int(-x - l + 1)) for x, y, l in zip(a, b, lo_g))
    return float(np.sum(f[f_sl] * np.flip(g[g_sl])))


def reference_series_lattice(law, horizon):
    dim = law.group.dim
    span = support_span(law)
    arr = np.ones((1,) * dim)
    lo = np.zeros(dim, dtype=np.int64)
    probs = [0.0] * (horizon + 1)
    probs[0] = 1.0
    worst_mass = 0.0
    for n in range(horizon // 2 + 1):
        if 2 * n <= horizon and n >= 1:
            probs[2 * n] = reference_paired_origin_mass(arr, lo, arr, lo)
        if 2 * n + 1 <= horizon:
            nxt, nxt_lo = convolve(law.atoms.items(), arr, span), lo + span[0]
            worst_mass = max(worst_mass, abs(float(nxt.sum()) - 1.0))
            probs[2 * n + 1] = reference_paired_origin_mass(arr, lo, nxt, nxt_lo)
            arr, lo = nxt, nxt_lo
    period = 0
    for n, p in enumerate(probs):
        if n >= 1 and p > 0.0:
            period = math.gcd(period, n)
    return probs, period, worst_mass


def no_shear_law():
    # {+-(1,1,1), +-e_k}: a = (1,1,1), but a one-axis shear would span 3 > 2;
    # the rows (1,1,-1), (1,-1,1), (1,-1,-1) span 1 each
    atoms = [(1, 1, 1), (-1, -1, -1), (1, 0, 0), (-1, 0, 0), (0, 1, 0),
             (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    return Law(Lattice(3), {u: w / 36 for u, w in zip(atoms, (3, 5, 4, 6, 2, 7, 5, 4))})


@st.composite
def lattice_laws(draw, dims=(1, 3)):
    """Period-2 laws (a.u odd for a random a), period-1 laws with a zero
    atom, and the no-shear law, in dimensions dims[0]..dims[1]."""
    kind = draw(st.sampled_from(["period2", "period2", "lazy"] + ["no_shear"] * (dims[1] == 3)))
    if kind == "no_shear":
        return no_shear_law()
    dim = draw(st.integers(*dims))
    # unequal per-axis bounds, so the widest axis is often not the first
    bounds = draw(st.tuples(*[st.integers(1, 3)] * dim))
    raw = draw(st.lists(st.tuples(*[st.integers(-r, r) for r in bounds]), min_size=2,
                        max_size=8))
    if kind == "lazy":
        atoms = set(raw) | {(0,) * dim}
    else:
        a = draw(st.tuples(*[st.integers(0, 1)] * dim).filter(any))
        j = draw(st.sampled_from([k for k in range(dim) if a[k]]))
        # flip the parity of a.u along an axis with a_j = 1 where it is even
        atoms = {tuple(c + int(k == j and np.dot(a, u) % 2 == 0) for k, c in enumerate(u))
                 for u in raw}
    atoms = sorted(atoms)
    weights = draw(st.lists(st.integers(1, 20), min_size=len(atoms),
                            max_size=len(atoms)))
    return Law(Lattice(dim), {u: w / sum(weights) for u, w in zip(atoms, weights)})


def shear_frame(law):
    """The one-axis shear frame the coset basis replaced: (shifts, a, j),
    c_j = (a.x - n)/2 on the widest axis j with a_j = 1, the other axes
    in x coordinates, and j None when that would not narrow axis j."""
    elems = np.array(list(law.atoms), dtype=np.int64)
    for a in product((0, 1), repeat=elems.shape[1]):
        au = elems @ np.array(a)
        if any(a) and np.all(au % 2 == 1):
            break
    else:
        return elems, None, None
    width = elems.max(axis=0) - elems.min(axis=0)
    j = max((k for k in range(len(a)) if a[k]), key=lambda k: width[k])
    if (au.max() - au.min()) // 2 >= width[j]:
        return elems, a, None
    shifts = elems.copy()
    shifts[:, j] = (au - 1) // 2
    return shifts, a, j


def shear_series_lattice(law, horizon):
    """The lattice series as the one-axis shear frame paired it."""
    shifts, a, j = shear_frame(law)
    half = (horizon + 1) // 2
    lo = step_span(shifts, half)[0].tolist()
    corner = lambda n, k=0: [n * c + k * (axis == j) for axis, c in enumerate(lo)]
    arrays = powers(law, half, shifts)
    arr = np.ones((1,) * law.group.dim)
    probs = [1.0] + [0.0] * horizon
    for n in range(horizon // 2 + 1):
        if n >= 1:
            probs[2 * n] = recurrence._paired_origin_mass(arr, corner(n), arr, corner(n, n))
        if 2 * n + 1 <= horizon:
            nxt = next(arrays)
            if a is None:
                probs[2 * n + 1] = recurrence._paired_origin_mass(arr, corner(n), nxt,
                                                                  corner(n + 1))
            arr = nxt
    return probs


def box_cells(shifts, n):
    """Cells of the n-step box tables.powers steps for these shifts, which
    holds the origin (tables.step_span, without its size limit)."""
    span = np.maximum(shifts.max(axis=0), 0) - np.minimum(shifts.min(axis=0), 0)
    return math.prod(n * int(w) + 1 for w in span)


def assert_frame_is_a_coset_basis(law, n):
    """_coset_frame(law, n) is x coordinates or a basis of the parity
    coset, its n-step box is never larger than the one-axis shear frame's,
    and a basis is taken only when its box is smaller than the x box."""
    shifts, rows, lo = _coset_frame(law, n)
    elems = np.array(list(law.atoms), dtype=np.int64)
    old_shifts, a, _ = shear_frame(law)
    assert box_cells(shifts, n) <= box_cells(old_shifts, n)
    if rows is None:
        assert np.array_equal(shifts, elems) and not np.any(lo)
        return
    assert a is not None and round(abs(np.linalg.det(rows))) == 2 ** (law.group.dim - 1)
    for b in rows:   # 2e_k, or b = a (mod 2) in {-1,0,1}^d
        assert sorted(np.abs(b).tolist()) == [0] * (len(b) - 1) + [2] \
            or (np.abs(b).max() == 1 and np.array_equal(b % 2, a))
    assert np.array_equal(2 * shifts, elems @ rows.T - lo)
    assert np.array_equal(shifts.min(axis=0), np.zeros(law.group.dim))
    assert box_cells(shifts, n) < box_cells(elems, n)


def test_coset_frame_on_the_fixtures(bernoulli, drift2d, symmetric3d, lazy_drift):
    for law in (drift2d, symmetric3d, no_shear_law()):
        for n in (1, 30, 60):
            shifts, rows, lo = _coset_frame(law, n)
            assert box_cells(shifts, n) == (n + 1) ** law.group.dim
            assert np.all(np.abs(rows) == 1) and np.array_equal(lo, [-1] * law.group.dim)
    shifts, rows, lo = _coset_frame(bernoulli, 60)   # c = (x + n)/2
    assert shifts.tolist() == [[0], [1]] and rows.tolist() == [[1]] and lo.tolist() == [-1]
    shifts, rows, lo = _coset_frame(lazy_drift, 60)
    assert shifts.tolist() == [list(u) for u in lazy_drift.atoms] and rows is None
    assert lo.tolist() == [0]
    # here one axis keeps x: c = (x + 1, (x + y + 3)/2), a (2n+1)(3n+1) box
    wide_y = Law(Lattice(2), {(1, 0): .25, (-1, 0): .25, (0, 3): .25, (0, -3): .25})
    shifts, rows, lo = _coset_frame(wide_y, 60)
    assert rows.tolist() == [[2, 0], [1, 1]] and lo.tolist() == [-2, -3]
    assert shifts.tolist() == [[0, 1], [1, 0], [1, 3], [2, 2]]   # canonical atom order


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(lattice_laws(), st.integers(1, 41))
def test_series_lattice_matches_reference(law, horizon):
    assert_frame_is_a_coset_basis(law, (horizon + 1) // 2)
    got = return_series(law, horizon)
    probs, period, worst_mass = reference_series_lattice(law, horizon)
    want = np.array(probs)
    have = np.array(got.probabilities)
    assert np.array_equal(have == 0.0, want == 0.0)
    assert got.period == period
    if _coset_frame(law, (horizon + 1) // 2)[1] is not None:
        assert period % 2 == 0 and not np.any(want[1::2])
    assert np.all(np.abs(have - want) <= 16 * np.spacing(want))
    assert abs(got.max_mass_error - worst_mass) <= 1e-15


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(law=lattice_laws(), n=st.integers(1, 200))
def test_coset_box_is_never_larger_than_the_shear_frame(drift2d, symmetric3d, law, n):
    assert_frame_is_a_coset_basis(law, n)
    for fixed in (drift2d, symmetric3d, no_shear_law()):
        assert box_cells(_coset_frame(fixed, n)[0], n) == (n + 1) ** fixed.group.dim


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(lattice_laws(dims=(1, 1)), st.integers(1, 400))
def test_series_1d_equals_the_shear_frame(law, horizon):
    # in 1D the basis is c = (x - n min u)/2, the shear's c = (x - n)/2
    # moved by a constant: the same products in the same order
    assert return_series(law, horizon).probabilities == shear_series_lattice(law, horizon)


def test_series_1d_fixtures_equal_the_shear_frame(bernoulli, lazy_drift, simple_symmetric):
    for law in (bernoulli, lazy_drift, simple_symmetric,
                Law(Lattice(1), {(-3,): .3, (1,): .5, (5,): .2}),
                Law(Lattice(1), {(-1,): .6, (-3,): .4})):
        assert return_series(law, 4000).probabilities == shear_series_lattice(law, 4000)


def sliced_series_lattice(law, horizon):
    """The lattice series with every pairing, p(2n) included, read by the
    sliced recurrence._paired_origin_mass."""
    half = (horizon + 1) // 2
    shifts, rows, lo = _coset_frame(law, half)
    base = step_span(shifts, half)[0]
    corner = lambda n, k=0: (n * base + k * lo).tolist()
    arrays = powers(law, half, shifts)
    arr = np.ones((1,) * law.group.dim)
    probs = [1.0] + [0.0] * horizon
    for n in range(horizon // 2 + 1):
        if n >= 1:
            probs[2 * n] = recurrence._paired_origin_mass(arr, corner(n), arr, corner(n, n))
        if 2 * n + 1 <= horizon:
            nxt = next(arrays)
            if rows is None:
                probs[2 * n + 1] = recurrence._paired_origin_mass(arr, corner(n), nxt,
                                                                  corner(n + 1))
            arr = nxt
    return probs


def test_series_full_reflection_equals_the_sliced_pairing(
        bernoulli, lazy_drift, simple_symmetric, drift2d, symmetric3d, monkeypatch):
    # every p(2n) of these walks reads the whole n-step box reflected: the
    # same products and the same contiguous sum as the sliced pairing
    pairings = []
    sliced = recurrence._paired_origin_mass
    monkeypatch.setattr(recurrence, "_paired_origin_mass",
                        lambda f, *rest: pairings.append(f.size) or sliced(f, *rest))
    for law in (bernoulli, lazy_drift, simple_symmetric, drift2d, symmetric3d):
        horizon = {1: 4000, 2: 600, 3: 120}[law.group.dim]
        for walk in (law, tilt_from_spectral(law).tilted):
            pairings.clear()
            got = return_series(walk, horizon).probabilities
            # only the lazy walk, in x coordinates, pairs p(2n+1) at all
            assert len(pairings) == (horizon // 2 if law is lazy_drift else 0)
            assert got == sliced_series_lattice(walk, horizon)


def assert_coset_cells_equal_dense(law, n_max, monkeypatch):
    """Each n-step array of the series, mapped back from coset to x
    coordinates by x = B^-1 (2c + n lo), equals the dense x-box law cell
    for cell, and every cell it leaves out is zero there."""
    seen = []
    monkeypatch.setattr(recurrence, "powers", recording_powers(seen))
    return_series(law, 2 * n_max)
    monkeypatch.undo()
    assert len(seen) == n_max
    dim = law.group.dim
    shifts, rows, lo = _coset_frame(law, n_max)
    g_lo = step_span(shifts, n_max)[0]
    dense_span = support_span(law)
    f = np.ones((1,) * dim)
    for n, g in enumerate(seen, start=1):
        f = convolve(law.atoms.items(), f, dense_span)
        c = np.indices(g.shape) + (n * g_lo).reshape((dim,) + (1,) * dim)
        x = c
        if rows is not None:
            y = (2 * c + n * lo.reshape((dim,) + (1,) * dim)).reshape(dim, -1)
            x = np.rint(np.linalg.solve(rows, y)).astype(np.int64)
            assert np.array_equal(rows @ x, y)   # every cell is a coset point
            x = x.reshape(c.shape)
        idx = [xk - int(corner) for xk, corner in zip(x, n * dense_span[0])]
        inside = np.all([(i >= 0) & (i < m) for i, m in zip(idx, f.shape)], axis=0)
        assert not np.any(g[~inside])
        hit = np.zeros(f.shape, dtype=bool)
        hit[tuple(i[inside] for i in idx)] = True
        assert np.array_equal(f[tuple(i[inside] for i in idx)], g[inside])
        assert not np.any(f[~hit])


def test_coset_cells_equal_dense_on_the_fixtures(bernoulli, drift2d, symmetric3d,
                                                  lazy_drift, monkeypatch):
    for law in (bernoulli, drift2d, symmetric3d, lazy_drift, no_shear_law()):
        assert_coset_cells_equal_dense(law, 30 if law.group.dim < 3 else 16,
                                       monkeypatch)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(lattice_laws())
def test_coset_cells_equal_dense(law):
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_coset_cells_equal_dense(law, 12, monkeypatch)


def always_flush(masses):
    return 0   # flush after every step


def flush_laws():
    # the 1D walk's extreme cells pass below the floor from about m = 997;
    # in 3D a 1e-3 atom never does by step 61, a 1e-6 atom from step 50
    sym1d = Law(Lattice(1), {(1,): .5, (-1,): .5})
    units = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    rare = [Law(Lattice(3), dict(zip(units, (.3, .2, .2, .2 - q, q, .1))))
            for q in (1e-3, 1e-6)]
    return [(sym1d, 4000)] + [(law, 120) for law in rare]


@pytest.mark.parametrize("case", range(3))
def test_flush_skip_matches_always_flush_series(case, monkeypatch):
    law, horizon = flush_laws()[case]
    runs = []
    for bound in (flush_free_steps, always_flush):
        arrays = []
        monkeypatch.setattr(tables, "flush_free_steps", bound)
        monkeypatch.setattr(recurrence, "powers", recording_powers(arrays))
        runs.append((return_series(law, horizon), arrays))
    (got, got_arrays), (want, want_arrays) = runs
    assert got.probabilities == want.probabilities
    assert got.max_mass_error == want.max_mass_error
    # the n-step arrays too: tiny cells hardly move the sums above
    assert all(np.array_equal(a, b) for a, b in zip(got_arrays, want_arrays))


def test_flush_skip_matches_always_flush_powers(monkeypatch):
    law, _ = flush_laws()[0]
    safe = flush_free_steps(law.atoms.values())
    assert 995 < safe < 996
    got = list(powers(law, 1100))
    monkeypatch.setattr(tables, "flush_free_steps", always_flush)
    want = list(powers(law, 1100))
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    # and the reference kernel, which flushes at every step on its own
    ref = np.ones(1)
    for a in got:
        ref = convolve(law.atoms.items(), ref, support_span(law))
        assert np.array_equal(a, ref)
    # the bound holds where it skips, and the flush does fire later
    assert all(a[a > 0].min() >= UNDERFLOW_FLOOR for a in got)
    assert np.count_nonzero(got[-1]) < got[-1].size // 2 + 1


def assert_powers_equal_reference(law, n_max, shifts=None):
    """Every array powers(law, n_max, shifts) yields equals the reference
    convolve stepped with the same shifts on the same box, cell for cell."""
    moves = list(law.atoms) if shifts is None else shifts.tolist()
    span = step_span(moves, n_max)
    ref = np.ones((1,) * law.group.dim)
    count = 0
    for got in powers(law, n_max, shifts):
        ref = convolve(zip(moves, law.atoms.values()), ref, span)
        assert np.array_equal(got, ref)
        count += 1
    assert count == n_max


TILED_STEPS = {1: 60, 2: 14, 3: 7}   # boxes of many few-dozen-cell tiles


def zero_slab_laws():
    """Laws whose n-step arrays have all-zero rows along axis 0: atoms at
    0 and +-2 there leave every odd row empty, and atoms with x_0 >= 1 leave
    the rows below n empty, so whole tiles have no nonzero source cell."""
    return [Law(Lattice(1), {(-2,): .3, (0,): .2, (2,): .5}),
            Law(Lattice(2), {(-2, 1): .25, (0, -1): .25, (2, 0): .3, (2, 2): .2}),
            Law(Lattice(3), {(-2, 0, 1): .2, (0, 1, -1): .3, (2, -1, 0): .3, (0, 0, 2): .2}),
            Law(Lattice(1), {(2,): .6, (3,): .4}),
            Law(Lattice(2), {(1, -1): .5, (3, 2): .5}),
            Law(Lattice(3), {(1, 0, 0): .4, (2, 1, -1): .3, (1, -2, 1): .3})]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.one_of(lattice_laws(), st.sampled_from(zero_slab_laws())), st.integers(12, 48))
def test_tiled_powers_equal_reference(law, tile):
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(tables, "_TILE_CELLS", tile)
        n_max = TILED_STEPS[law.group.dim]
        for shifts in (None, _coset_frame(law, n_max)[0]):
            assert_powers_equal_reference(law, n_max, shifts)


def test_tiled_powers_equal_reference_past_the_flush(monkeypatch):
    # the flush may fire from step 50 on, where the 1e-6 atom's cells fall
    law = flush_laws()[2][0]
    assert 49 < flush_free_steps(law.atoms.values()) < 50
    monkeypatch.setattr(tables, "_TILE_CELLS", 40)
    assert_powers_equal_reference(law, 56, _coset_frame(law, 56)[0])


def test_tiled_powers_equal_reference_on_the_tilted_sym3d_series(symmetric3d):
    # the series' 60-step arrays for horizon 120, at the real tile size
    law = tilt_from_spectral(symmetric3d).tilted
    shifts = _coset_frame(law, 60)[0]
    assert box_cells(shifts, 60) > 3 * tables._TILE_CELLS
    assert_powers_equal_reference(law, 60, shifts)


@pytest.mark.parametrize("law, n_max", [
    # x coordinates on both: the lazy walk has no parity coset, and the
    # diagonal walk fills one cell in two of its box, in a checkerboard
    (Law(Lattice(3), {**{u: 1 / 12 for u in product((-1, 0, 1), repeat=3)
                         if sum(map(abs, u)) == 1}, (0, 0, 0): .5}), 30),
    (Law(Lattice(2), {(1, 1): .3, (1, -1): .2, (-1, 1): .25, (-1, -1): .25}), 230)])
def test_powers_equal_reference_on_low_fill_laws(law, n_max):
    # at the real tile size, on boxes whose corners stay empty for many steps
    shifts = np.array(list(law.atoms))
    assert box_cells(shifts, n_max) > 3 * tables._TILE_CELLS
    assert_powers_equal_reference(law, n_max)


def test_return_series_peak_memory_on_the_tilted_sym3d(symmetric3d):
    # the 60-step box of horizon 120 is 61^3: the step may hold two such
    # boxes and one tile at once, not the m-step array beside two boxes
    law = tilt_from_spectral(symmetric3d).tilted
    tracemalloc.start()
    try:
        return_series(law, 120)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (2 * 61 ** 3 + tables._TILE_CELLS) + (1 << 14)


def test_flush_free_steps_bounds():
    assert flush_free_steps([1.0]) == math.inf
    assert flush_free_steps([.5, .5]) == pytest.approx(
        (math.log(UNDERFLOW_FLOOR) + 1) / math.log(.5))
    assert flush_free_steps([.3, 1e-3, .699]) < 100


# ------------------------------------------------------------- estimator

def test_estimate_rho_bernoulli(bernoulli):
    series = return_series(bernoulli, 4000)
    est = estimate_rho(series)
    assert est.method == "ratio"
    assert abs(est.rho_hat - BERNOULLI_RHO) <= 5e-3


def test_estimate_rho_lazy(lazy_drift):
    series = return_series(lazy_drift, 4000)
    est = estimate_rho(series)
    assert abs(est.rho_hat - LAZY_RHO) <= 5e-3


def test_estimate_rho_simple_symmetric(simple_symmetric):
    series = return_series(simple_symmetric, 4000)
    est = estimate_rho(series)
    assert abs(est.rho_hat - 1.0) <= 1e-3


def test_estimator_consistency_corpus(asymmetric_corpus, symmetric_corpus,
                                      z6_law, s3_law):
    # 3-D is excluded: the ratio bias for terms ~ n^(-3/2) is ~3/(4k), above
    # 5e-3 at every horizon within the d=3 cap of 120.
    for law in list(asymmetric_corpus) + list(symmetric_corpus):
        if getattr(law.group, "dim", 0) > 2:
            continue
        series = return_series(law)
        _, sp = find_exponential(law)
        est = estimate_rho(series)
        assert abs(est.rho_hat - sp.rho) <= 5e-3, law
    for law in (z6_law, s3_law):
        series = return_series(law)
        est = estimate_rho(series)
        assert abs(est.rho_hat - 1.0) <= 5e-3


def test_estimate_rho_insufficient_data(bernoulli):
    series = return_series(bernoulli, 30)
    with pytest.raises(InsufficientData):
        estimate_rho(series)


def test_estimate_rho_root_fallback():
    # nonzero terms only on squares >= 4: gcd is 1 but no two consecutive
    # indices are both nonzero, so the ratio estimator has nothing to chew on
    from rwalk import ReturnSeries
    rho = 0.9
    probs = [0.0] * 3601
    probs[0] = 1.0
    for k in range(2, 61):
        probs[k * k] = rho ** (k * k)
    series = ReturnSeries(probs, period=1, horizon=3600, max_mass_error=0.0)
    est = estimate_rho(series)
    assert est.method == "root"
    assert est.rho_hat == pytest.approx(rho, rel=1e-12)


@st.composite
def irreducible_lattice_laws(draw):
    """+-e_k on every axis plus up to four atoms of radius <= 2, integer
    weights: irreducible with the origin interior, and usually drifted.
    The horizon keeps the 2-D and 3-D boxes small."""
    dim = draw(st.integers(1, 3))
    units = [tuple(s * int(j == k) for j in range(dim))
             for k in range(dim) for s in (1, -1)]
    extra = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * dim), max_size=4))
    atoms = sorted(set(units) | set(extra))
    weights = draw(st.lists(st.integers(1, 20), min_size=len(atoms),
                            max_size=len(atoms)))
    horizon = draw(st.integers(1, (200, 60, 24)[dim - 1]))
    return Law(Lattice(dim), {u: w / sum(weights) for u, w in zip(atoms, weights)}), horizon


@st.composite
def finite_group_laws(draw, s3_group):
    if draw(st.booleans()):
        group = s3_group
    else:
        group = cyclic_group(draw(st.integers(2, 15)))
    elems = draw(st.lists(st.integers(0, group.order - 1), min_size=1,
                          max_size=group.order, unique=True))
    weights = draw(st.lists(st.integers(1, 20), min_size=len(elems),
                            max_size=len(elems)))
    return Law(group, {u: w / sum(weights) for u, w in zip(elems, weights)})


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(irreducible_lattice_laws())
def test_tilted_series_is_weighted_series(case):
    # eq17 at x = e, where phi(e) = 1: the tilted walk returns with
    # probability R^n p(n), so its plain sum is the weighted one
    law, horizon = case
    tw = tilt_from_spectral(law)
    tilted = return_series(tw.tilted, horizon).probabilities
    plain = return_series(law, horizon).probabilities
    for n, (q, p) in enumerate(zip(tilted, plain)):
        if p > 1e-250:
            assert q == pytest.approx(tw.R ** n * p, rel=1e-12, abs=0)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_estimate_rho_never_above_one(data, s3_group):
    if data.draw(st.booleans()):
        law, horizon = data.draw(irreducible_lattice_laws())
        law = tilt_from_spectral(law).tilted
    else:
        law = data.draw(finite_group_laws(s3_group))
        horizon = data.draw(st.integers(1, 400))
    try:
        est = estimate_rho(return_series(law, horizon))
    except InsufficientData:
        return
    assert 0.0 < est.rho_hat <= 1.0 + RHO_SLACK


# ------------------------------------------------------------- heuristic

def test_r_recurrence_tilted_bernoulli(bernoulli):
    tw = tilt_from_spectral(bernoulli)
    series = return_series(tw.tilted, 4000)
    res = r_recurrence_test(series)
    assert res.verdict is Verdict.R_RECURRENT
    assert res.growth_ratio >= 1.8
    sums = res.partial_sums
    assert all(b >= a for a, b in zip(sums, sums[1:]))


def test_r_recurrence_3d_transient(symmetric3d):
    series = return_series(symmetric3d)  # default horizon = the d=3 cap
    res = r_recurrence_test(series)
    assert res.verdict is Verdict.TRANSIENT
    assert res.growth_ratio <= 1.05


def test_r_recurrence_2d_inconclusive(symmetric2d):
    # logarithmic divergence is too slow to clear the recurrent threshold
    # at desk scale; the documented expected outcome is Inconclusive
    series = return_series(symmetric2d, 600)
    res = r_recurrence_test(series)
    assert res.verdict is Verdict.INCONCLUSIVE


@pytest.mark.parametrize("recurrent, transient", [(0.5, 3.0), (1.2, 1.2)])
def test_r_recurrence_rejects_unreachable_thresholds(symmetric2d, recurrent, transient):
    # at or below the transient threshold, a verdict could never be reached
    series = return_series(symmetric2d, 20)
    with pytest.raises(ValueError, match=f"got {recurrent} <= {transient}"):
        r_recurrence_test(series, recurrent_threshold=recurrent,
                          transient_threshold=transient)


def test_recurrence_report_bundle(bernoulli):
    _, sp = find_exponential(bernoulli)
    rep = build_recurrence_report(tilt_from_spectral(bernoulli).tilted, sp.rho)
    assert rep.test.verdict is Verdict.R_RECURRENT
    assert abs(rep.rho_series - rep.rho_spectral) <= 5e-3
    assert rep.series.period == 2
    assert rep.warnings == []
    assert rep.partial_sum_checkpoints["final"] >= rep.partial_sum_checkpoints["half"]


def test_recurrence_report_warns_on_wide_support(z1):
    atoms = {(k,): 1.0 / 19.0 for k in range(-9, 10)}
    wide = Law(z1, atoms, sum_tol=1e-9)
    rep = build_recurrence_report(wide, 1.0, horizon=600)
    assert any("support radius" in w for w in rep.warnings)


def test_recurrence_report_3d(symmetric3d):
    rep = build_recurrence_report(symmetric3d, 1.0)
    assert rep.test.verdict is Verdict.TRANSIENT
    # the ratio estimator carries ~3/(4k) bias for n^(-3/2) terms, so it
    # lands visibly below 1 but must stay sane
    assert 0.9 <= rep.rho_series <= 1.0


def test_recurrence_report_short_series_declines_estimate(symmetric3d):
    # 31 nonzero terms at horizon 60: the estimator declines, the divergence
    # heuristic still runs
    rep = build_recurrence_report(symmetric3d, 1.0, horizon=60)
    assert rep.rho_series is None
    assert any("rho estimate" in w for w in rep.warnings)
    assert rep.test.verdict in (Verdict.TRANSIENT, Verdict.INCONCLUSIVE)


# ---------------------------------------------------------------- hitting

def test_hitting_dp_two_step_enumeration(simple_symmetric):
    table = hitting_dp(simple_symmetric, {(0,)}, 2)
    # oracle: of the 4 equally likely 2-step paths from 2, only (-1,-1) hits 0
    paths = [p for p in product((1, -1), repeat=2) if 2 + p[0] == 0 or 2 + p[0] + p[1] == 0]
    assert len(paths) == 1
    assert table.layers[2][(2,)] == pytest.approx(0.25, abs=1e-15)


def test_hitting_dp_target_is_absorbing(bernoulli):
    table = hitting_dp(bernoulli, {(0,)}, 10)
    assert all(layer[(0,)] == 1.0 for layer in table.layers)


def test_hitting_dp_zero_steps_is_indicator(bernoulli):
    table = hitting_dp(bernoulli, {(0,)}, 0)
    assert table.layers[0][(0,)] == 1.0
    assert np.count_nonzero(table.layers[0].values) == 1


def test_hitting_dp_refuses_a_wide_table_before_allocating(bernoulli, z6_law,
                                                           monkeypatch):
    # 51 layers of the 101-cell window, and of the 6 elements of Z6
    allocated = []
    table = recurrence.FunctionTable

    def recording_table(*args):
        allocated.append(args)
        return table(*args)

    monkeypatch.setattr(recurrence, "FunctionTable", recording_table)
    for law, cells in ((bernoulli, 51 * 101), (z6_law, 51 * 6)):
        monkeypatch.setattr(tables, "DENSE_CELL_LIMIT", cells - 1)
        with pytest.raises(WindowExceeded,
                           match=f"^the 50-step hitting table has {cells} cells"):
            hitting_dp(law, {law.group.identity()}, 50)
        assert allocated == []
        monkeypatch.setattr(tables, "DENSE_CELL_LIMIT", cells)
        assert len(hitting_dp(law, {law.group.identity()}, 50).layers) == 51
        allocated.clear()


@pytest.mark.parametrize("target, error, message", [
    (set(), ValueError, "target set must be nonempty"),
    ({(0, 0)}, ValueError, "not a Z^1 element: (0, 0)"),
    ({6}, IndexOutOfRange, "index 6 not in 0..5")], ids=["empty", "lattice", "finite"])
def test_target_set_errors_agree(bernoulli, z6_law, target, error, message):
    # hitting_dp and simulate_harris check the target set B alike
    law = z6_law if error is IndexOutOfRange else bernoulli
    for run in (lambda: hitting_dp(law, target, 3),
                lambda: simulate_harris(law, target, 10, 10, 0)):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            run()


def test_hitting_dp_monotone(asymmetric_corpus, z6_law):
    for law in list(asymmetric_corpus) + [z6_law]:
        steps = 12 if getattr(law.group, "dim", 0) == 2 else 20
        target = {law.group.identity()}
        table = hitting_dp(law, target, steps)
        for prev, nxt in zip(table.layers, table.layers[1:]):
            assert np.all(nxt.values >= prev.values)


def test_translation_invariance_bernoulli(bernoulli):
    for y in ((1,), (-1,), (5,), (-5,)):
        assert check_translation_invariance(bernoulli, {(0,)}, y, 50) <= 1e-12


def test_translation_invariance_identity_shift(bernoulli):
    assert check_translation_invariance(bernoulli, {(0,)}, (0,), 50) == 0.0


def test_translation_invariance_finite(z6_law):
    assert check_translation_invariance(z6_law, {0}, 2, 100) <= 1e-12


def test_translation_invariance_2d(drift2d):
    assert check_translation_invariance(drift2d, {(0, 0)}, (3, -2), 12) <= 1e-12


# ------------------------------------------------------------ Monte Carlo

def test_simulate_seed_determinism(bernoulli):
    a = simulate_harris(bernoulli, {(0,)}, 500, 500, seed=42)
    b = simulate_harris(bernoulli, {(0,)}, 500, 500, seed=42)
    assert a.return_fraction == b.return_fraction
    assert a.mean_displacement == b.mean_displacement
    c = simulate_harris(bernoulli, {(0,)}, 500, 500, seed=43)
    assert c.return_fraction != a.return_fraction


def test_simulate_worker_count_invariance(bernoulli):
    a = simulate_harris(bernoulli, {(0,)}, 600, 300, seed=7, workers=1)
    b = simulate_harris(bernoulli, {(0,)}, 600, 300, seed=7, workers=3)
    assert a.return_fraction == b.return_fraction
    assert a.mean_displacement == b.mean_displacement


def test_simulate_whole_group_target(z6_group, z6_law):
    res = simulate_harris(z6_law, set(range(z6_group.order)), 200, 50, seed=1)
    assert res.return_fraction == 1.0


def test_simulate_finite_group_return(z6_law):
    res = simulate_harris(z6_law, {0}, 400, 400, seed=5)
    assert res.return_fraction == 1.0  # recurrent finite chain, long horizon


def test_simulate_tilted_bernoulli_returns(bernoulli):
    tw = tilt_from_spectral(bernoulli)
    res = simulate_harris(tw.tilted, {(0,)}, 2000, 2000, seed=42)
    # non-return probability of the simple symmetric walk by time n is
    # ~ sqrt(2/(pi n)) ~ 0.025 here
    assert res.return_fraction >= 0.95
    # zero-drift diagnostic
    norm_mean = math.sqrt(sum(m * m for m in res.mean_displacement))
    norm_sem = math.sqrt(sum(s * s for s in res.displacement_sem))
    assert norm_mean <= 3.0 * norm_sem


def test_simulate_untilted_bernoulli_matches_ruin_oracle(bernoulli):
    # two-sided return probability of the drifted walk: p*1 + q*(p/q) = 2p = 1/2
    res = simulate_harris(bernoulli, {(0,)}, 2000, 2000, seed=42)
    assert abs(res.return_fraction - 0.5) <= 0.03
    # drift shows up clearly: mean displacement ~ -0.5 per step
    assert res.mean_displacement[0] == pytest.approx(-0.5 * 2000, rel=0.05)


def test_simulate_matches_exact_dp_at_short_horizon(bernoulli):
    horizon = 30
    table = hitting_dp(bernoulli, {(0,)}, horizon - 1)
    exact = math.fsum(p * table.layers[horizon - 1][u]
                      for u, p in bernoulli.atoms.items())
    res = simulate_harris(bernoulli, {(0,)}, 4000, horizon, seed=11)
    assert abs(res.return_fraction - exact) <= max(3.0 * res.ci_halfwidth, 0.02)


def test_simulate_argument_validation(bernoulli, z6_law):
    with pytest.raises(ValueError):
        simulate_harris(bernoulli, set(), 10, 10, seed=0)
    with pytest.raises(ValueError):
        simulate_harris(bernoulli, {(0,)}, 0, 10, seed=0)
    for law, target in ((bernoulli, {(0,)}), (z6_law, {0})):
        for horizon in (0, -3):
            with pytest.raises(ValueError, match="horizon must be >= 1"):
                simulate_harris(law, target, 10, horizon, seed=0)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            simulate_harris(law, target, 10, 10, seed=-1)


def test_worker_count_rejects_non_positive_counts(monkeypatch):
    monkeypatch.delenv("RWALK_THREADS", raising=False)
    assert worker_count(3) == 3
    for bad in (0, -2):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            worker_count(bad)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            simulate_harris(Law(Lattice(1), {(1,): .5, (-1,): .5}), {(0,)}, 10, 10,
                            seed=0, workers=bad)
    for env in ("0", "-5", "abc"):
        monkeypatch.setenv("RWALK_THREADS", env)
        with pytest.raises(ValueError, match="RWALK_THREADS must be a positive integer"):
            worker_count()
    monkeypatch.setenv("RWALK_THREADS", "2")
    assert worker_count() == 2


def test_worker_count_defaults_to_the_available_cpus(monkeypatch):
    monkeypatch.delenv("RWALK_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    assert worker_count() == 3
    # where the affinity call is missing, the CPU count
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 7)
    assert worker_count() == 7


# ------------------------------------------------ Monte Carlo processes
#
# Every call below runs at most four processes, so no test starts more
# than three child processes.

MC_HORIZON = 200


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("name", ["bernoulli", "drift2d", "symmetric3d", "z6_law"])
@pytest.mark.parametrize("cpus", [None, 4])
def test_simulate_worker_processes_give_the_one_worker_result(name, cpus, request,
                                                              monkeypatch):
    # cpus=4 runs four processes, whatever this machine has
    if cpus is not None:
        monkeypatch.setattr(recurrence, "_cpus", lambda: cpus)
    law = request.getfixturevalue(name)
    target = {law.group.identity()}
    for trajectories in (1024, 700):   # 700: a short last chunk
        want = simulate_harris(law, target, trajectories, MC_HORIZON, 9, workers=1)
        for workers in (2, 4):
            got = simulate_harris(law, target, trajectories, MC_HORIZON, 9, workers=workers)
            assert got == want, (trajectories, workers)
    assert_no_child_left()


def test_a_failed_child_share_runs_in_the_caller(bernoulli, monkeypatch):
    monkeypatch.setattr(recurrence, "_cpus", lambda: 2)
    want = simulate_harris(bernoulli, {(0,)}, 1024, MC_HORIZON, 4, workers=1)
    real, caller = recurrence._chunk_lattice, os.getpid()

    def fails_in_child(*args):
        if os.getpid() != caller:
            raise RuntimeError("child")
        return real(*args)

    monkeypatch.setattr(recurrence, "_chunk_lattice", fails_in_child)
    assert simulate_harris(bernoulli, {(0,)}, 1024, MC_HORIZON, 4, workers=2) == want
    assert_no_child_left()


def test_an_exception_in_the_caller_kills_every_child(bernoulli, monkeypatch):
    monkeypatch.setattr(recurrence, "_cpus", lambda: 2)
    caller = os.getpid()

    def fails_in_caller(*args):
        if os.getpid() == caller:
            raise KeyboardInterrupt
        time.sleep(60)   # the child is still at work when the caller fails

    monkeypatch.setattr(recurrence, "_chunk_lattice", fails_in_caller)
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        simulate_harris(bernoulli, {(0,)}, 1024, MC_HORIZON, 4, workers=2)
    assert time.perf_counter() - start < 30   # killed, not waited for
    assert_no_child_left()


def test_no_fork_beside_other_threads_or_without_fork(bernoulli, monkeypatch):
    want = simulate_harris(bernoulli, {(0,)}, 1024, MC_HORIZON, 4, workers=1)

    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    got = []
    thread = threading.Thread(target=lambda: got.append(
        simulate_harris(bernoulli, {(0,)}, 1024, MC_HORIZON, 4, workers=2)))
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive() and got == [want]
    monkeypatch.delattr(os, "fork")
    assert simulate_harris(bernoulli, {(0,)}, 1024, MC_HORIZON, 4, workers=2) == want


def test_workers_are_capped_by_the_available_cpus(bernoulli, monkeypatch):
    forks, real = [], os.fork

    def counting_fork():
        forks.append(1)
        return real()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", counting_fork)
    got = simulate_harris(bernoulli, {(0,)}, 1024, MC_HORIZON, 4, workers=64)
    assert len(forks) <= 1
    assert got == simulate_harris(bernoulli, {(0,)}, 1024, MC_HORIZON, 4, workers=1)
    assert_no_child_left()


def open_fds():
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_a_failed_fork_closes_every_pipe_and_reaps_every_child(bernoulli, monkeypatch):
    monkeypatch.setattr(recurrence, "_cpus", lambda: 4)
    forks, real = [], os.fork

    def second_fork_fails():
        forks.append(1)
        if len(forks) == 2:
            raise OSError("fork failed")
        return real()

    monkeypatch.setattr(os, "fork", second_fork_fails)
    before = open_fds()
    with pytest.raises(OSError, match="fork failed"):
        simulate_harris(bernoulli, {(0,)}, 1024, MC_HORIZON, 4, workers=4)
    assert len(forks) == 2
    assert open_fds() == before
    assert_no_child_left()


def test_more_chunks_than_one_pipe_write_holds_tokens(bernoulli, monkeypatch):
    # 2100 one-trajectory chunks, more than the two-byte tokens that fit
    # PIPE_BUF (2048 on Linux), are claimed as fewer units (1050 there)
    import select
    monkeypatch.setattr(recurrence, "_MC_CHUNK", 1)
    monkeypatch.setattr(recurrence, "_cpus", lambda: 4)
    want = simulate_harris(bernoulli, {(0,)}, 2100, 50, 6, workers=1)
    writes, real = [], os.write

    def recording_write(fd, data):
        writes.append(len(data))
        return real(fd, data)

    monkeypatch.setattr(os, "write", recording_write)
    for workers in (2, 4):
        assert simulate_harris(bernoulli, {(0,)}, 2100, 50, 6, workers=workers) == want
    assert len(writes) == 2 and writes[0] == writes[1] <= min(select.PIPE_BUF, 2 * 2100 - 1)
    assert_no_child_left()


def test_a_child_that_dies_after_claiming_has_its_chunks_rerun(bernoulli, monkeypatch):
    monkeypatch.setattr(recurrence, "_cpus", lambda: 2)
    want = simulate_harris(bernoulli, {(0,)}, 1024, MC_HORIZON, 4, workers=1)
    real, caller, ran = recurrence._chunk_lattice, os.getpid(), []

    def dies_in_second_child_chunk(*args):
        if os.getpid() == caller:
            ran.append(args[-1].start)
        elif ran:   # the child ran one chunk, claimed a second and exits 0 unreported
            os._exit(0)
        else:
            ran.append(args[-1].start)
        return real(*args)

    monkeypatch.setattr(recurrence, "_chunk_lattice", dies_in_second_child_chunk)
    # the caller sleeps first, so the child claims the first two chunks
    got = simulate_harris(bernoulli, {(0,)}, 1024, MC_HORIZON, 4, workers=2,
                          meanwhile=lambda: time.sleep(1))
    assert got == want
    assert sorted(ran) == [0, 256, 512, 768]   # the caller ran every chunk
    assert_no_child_left()


@pytest.mark.parametrize("workers", [1, 2])
def test_meanwhile_runs_once_in_the_caller(bernoulli, z6_law, workers, monkeypatch):
    monkeypatch.setattr(recurrence, "_cpus", lambda: 2)
    for law, trajectories in ((bernoulli, 1024), (z6_law, 100)):
        target = {law.group.identity()}
        want = simulate_harris(law, target, trajectories, MC_HORIZON, 8, workers=1)
        calls = []
        got = simulate_harris(law, target, trajectories, MC_HORIZON, 8, workers=workers,
                              meanwhile=lambda: calls.append(os.getpid()))
        assert got == want and calls == [os.getpid()]
    assert_no_child_left()


# ----------------------------------------------- Monte Carlo block kernels
#
# The references below step one trajectory at a time on its own generator,
# built from numpy's SeedSequence: one searchsorted over the whole horizon,
# then an (H, d) cumsum of positions and a per-target all-axes test on a
# lattice, or one Cayley lookup per step on a finite group.  The block
# kernels must agree with them bit for bit.

def _trajectory_rng(seed, index):
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return np.random.Generator(np.random.Philox(ss))


def reference_chunk_lattice(law_elems, cum, targets, horizon, seed, indices):
    dim = law_elems.shape[1]
    hits = 0
    disp_sum = np.zeros(dim)
    disp_sq = np.zeros(dim)
    kmax = len(cum) - 1
    tvecs = [np.asarray(t, dtype=np.int64) for t in targets]
    for i in indices:
        rng = _trajectory_rng(seed, i)
        idx = np.searchsorted(cum, rng.random(horizon), side="right")
        np.clip(idx, 0, kmax, out=idx)
        pos = np.cumsum(law_elems[idx], axis=0)
        hits += any((pos == t).all(axis=1).any() for t in tvecs)
        disp = pos[-1].astype(float)
        disp_sum += disp
        disp_sq += disp * disp
    return hits, disp_sum, disp_sq


def reference_chunk_finite(cayley, elems, cum, targets, horizon, seed, start, indices):
    is_target = np.zeros(len(cayley), dtype=bool)
    is_target[list(targets)] = True
    hits = 0
    for i in indices:
        rng = _trajectory_rng(seed, i)
        idx = np.minimum(np.searchsorted(cum, rng.random(horizon), side="right"),
                         len(cum) - 1)
        state = start
        for inc in elems[idx]:
            state = cayley[state, inc]
            if is_target[state]:
                hits += 1
                break
    return hits, None, None


def test_philox_keys_equal_seed_sequence_keys():
    rng = np.random.default_rng(11)
    # up to 8 words: past 4, each word adds 4 hash constants before the spawn key
    seeds = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 5, 2 ** 96, 2 ** 128 - 1,
             2 ** 130 + 17, 2 ** 160, 2 ** 200 + 11, 3 ** 150] + [int(rng.integers(0, 2 ** 63)) >> int(rng.integers(0, 63))
                               for _ in range(16)]
    pairs = 0
    for seed in seeds:
        indices = [0, 1, 2 ** 32 - 1] + rng.integers(0, 2 ** 32, 40).tolist()
        keys = _philox_keys(seed, indices)
        assert keys.shape == (len(indices), 2) and keys.dtype == np.uint64
        for i, key in zip(indices, keys):
            want = np.random.SeedSequence(entropy=seed, spawn_key=(i,)).generate_state(
                2, np.uint64)
            assert np.array_equal(key, want), (seed, i)
            pairs += 1
    assert pairs >= 1000
    assert _philox_keys(7, range(5, 5)).shape == (0, 2)


def test_philox_keys_reject_indices_past_one_word():
    with pytest.raises(ValueError, match="trajectory index must be < 2\\*\\*32"):
        _philox_keys(3, [0, 2 ** 32])
    with pytest.raises(ValueError, match="trajectory index"):
        _philox_keys(2 ** 70, range(2 ** 32 - 1, 2 ** 32 + 1))


def uniforms(words):
    """The doubles Generator.random() makes of raw Philox words."""
    return (words >> np.uint64(11)).astype(float) * 2.0 ** -53


def assert_atom_index_matches_clipped_searchsorted(cum, words):
    want = np.clip(np.searchsorted(cum, uniforms(words), side="right"), 0, len(cum) - 1)
    got = _atom_index(_word_thresholds(cum), words)
    assert got.shape == words.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("n_atoms", sorted({1, 2, 3, 6, _COMPARE_ATOMS, _COMPARE_ATOMS + 1,
                                            128, 129, 300}))
def test_atom_index_matches_clipped_searchsorted(n_atoms):
    rng = np.random.default_rng(n_atoms)
    cum = np.cumsum(rng.random(n_atoms) + 0.01)
    cum /= cum[-1]
    cum[-1] = np.nextafter(1.0, 0.0) if n_atoms > 1 else 0.5  # room above cum[-1]
    gen = np.random.Philox(key=n_atoms)
    words = gen.random_raw(4000)
    assert np.array_equal(uniforms(words), np.random.Generator(
        np.random.Philox(key=n_atoms)).random(4000))
    # the first word at or above each boundary, the last below it, and both ends
    words = np.concatenate([words, _word_thresholds(cum), _word_thresholds(cum) - np.uint64(1),
                            np.array([0, 2 ** 64 - 1], dtype=np.uint64)])
    assert_atom_index_matches_clipped_searchsorted(cum, words.reshape(2, -1))


@st.composite
def boundaries(draw):
    """Cumulative masses of 1..300 atoms, some with cum[-1] rounded below 1,
    a boundary on the 2^-53 grid, or boundaries at or above the largest double
    a word makes."""
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
    cum = np.cumsum(rng.random(n) ** draw(st.sampled_from([1, 8])))
    cum /= cum[-1]
    k = draw(st.integers(0, n - 1))
    edit = draw(st.sampled_from(["none", "below_one", "grid", "top"]))
    if edit == "below_one":
        cum[-1] = np.nextafter(1.0, 0.0)
    elif edit == "grid":
        cum[k] = np.floor(cum[k] * 2.0 ** 53) * 2.0 ** -53
    elif edit == "top":   # the ceiling 2^53 - 1, 2^53 or 2^53 + 1
        cum[k:] = draw(st.sampled_from([np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)]))
    return np.maximum.accumulate(cum)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(boundaries(), st.lists(st.integers(0, 2 ** 64 - 1), max_size=30))
def test_atom_index_matches_clipped_searchsorted_at_every_threshold(cum, extra):
    # T - 1 and T for each threshold T, the two ends of the word range,
    # and arbitrary words: the same index from the words and the doubles
    thresholds = _word_thresholds(cum)
    words = np.concatenate([thresholds - np.uint64(1), thresholds,
                            np.array([0, 2 ** 64 - 1] + extra, dtype=np.uint64)])
    assert_atom_index_matches_clipped_searchsorted(cum, words)
    assert_atom_index_matches_clipped_searchsorted(cum, words[::-1].reshape(1, -1))


@pytest.mark.parametrize("reach", [(0,), (7,), (5, 0), (3, 9, 4),
                                   (2_000_000,) * 3, (2 ** 40, 3)])
def test_key_weights_roundtrip(reach):
    reach = np.array(reach, dtype=np.int64)
    weights = _key_weights(reach)
    assert np.array_equal(np.count_nonzero(weights, axis=0), [1] * len(reach))
    for w in weights:
        assert math.prod(2 * int(r) + 1 for r, x in zip(reach, w) if x) < 2 ** 63
    corners = np.array(list(product(*[(-r, 0, r) for r in reach])), dtype=np.int64)
    rng = np.random.default_rng(len(reach))
    inner = np.stack([rng.integers(-r, r + 1, 200) for r in reach], axis=1)
    pos = np.concatenate([corners, inner])
    keys = weights @ pos.T
    assert np.array_equal(_decode_keys(keys, weights, reach), pos)


def test_key_weights_split_axes_past_int64():
    # (2*2e6 + 1)^3 > 2^63: the third axis needs a group of its own
    weights = _key_weights(np.array([2_000_000] * 3))
    assert weights.tolist() == [[1, 4_000_001, 0], [0, 0, 1]]


@pytest.mark.parametrize("law_name", ["simple_symmetric", "symmetric2d", "drift2d"])
def test_chunk_lattice_across_time_blocks_matches_reference(law_name, request):
    # 2500 steps span three time blocks; recurrent walks hit in several
    law = request.getfixturevalue(law_name)
    elems = np.array(list(law.atoms), dtype=np.int64)
    cum = np.cumsum(list(law.atoms.values()))
    origin = law.group.identity()
    for targets in ({origin}, {origin, tuple(elems[0] * 40)}):
        got = _chunk_lattice(elems, _word_thresholds(cum), targets, 2500, 8, range(100, 160))
        want = reference_chunk_lattice(elems, cum, targets, 2500, 8, range(100, 160))
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])


@pytest.mark.parametrize("horizon", [1023, 1024, 1025, 3073])
@pytest.mark.parametrize("case", ["origin", "out_of_reach", "first_step"])
def test_chunk_lattice_block_edges_match_reference(drift2d, horizon, case):
    # 17 trajectories leave one row in the last slot group; out of reach,
    # no row is ever live; every walk hits the atoms on its first step
    elems = np.array(list(drift2d.atoms), dtype=np.int64)
    cum = np.cumsum(list(drift2d.atoms.values()))
    targets = {"origin": {(0, 0), (3, -1)}, "out_of_reach": {(horizon + 1, 0)},
               "first_step": set(drift2d.atoms)}[case]
    got = _chunk_lattice(elems, _word_thresholds(cum), targets, horizon, 5, range(30, 47))
    want = reference_chunk_lattice(elems, cum, targets, horizon, 5, range(30, 47))
    assert got[0] == want[0]
    assert (got[0] == 0) == (case == "out_of_reach") and (got[0] == 17) == (case == "first_step")
    assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])


def test_chunk_lattice_with_split_keys_matches_reference():
    # reach 3e8 per axis: (6e8 + 1)^3 > 2^63, so z gets a key of its own
    big = 10 ** 6
    elems = np.array([(big, 0, 0), (0, big, 0), (0, 0, big), (-big, -big, -big)])
    cum = np.cumsum([0.3, 0.3, 0.2, 0.2])
    assert len(_key_weights(300 * np.abs(elems).max(axis=0))) == 2
    targets = {(big, 0, 0), (0, big, big), (0, 0, 0), (301 * big, 0, 0)}
    got = _chunk_lattice(elems, _word_thresholds(cum), targets, 300, 3, range(40))
    want = reference_chunk_lattice(elems, cum, targets, 300, 3, range(40))
    assert got[0] == want[0] > 0
    assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])


@st.composite
def lattice_walks(draw):
    dim = draw(st.integers(1, 3))
    coord = st.integers(-3, 3)
    if draw(st.booleans()):
        # wide enough that the three-axis key no longer fits in an int64
        coord = st.integers(-10 ** 6, 10 ** 6)
    atoms = draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=20,
                          unique=True))
    weights = draw(st.lists(st.integers(1, 20), min_size=len(atoms),
                            max_size=len(atoms)))
    horizon = draw(st.integers(1, 300))
    # targets: short sums of atoms (hit now and then) and arbitrary points,
    # some beyond every walk's reach
    sums = draw(st.lists(st.lists(st.sampled_from(atoms), min_size=1, max_size=3),
                         max_size=3))
    points = draw(st.lists(st.tuples(*[st.integers(-4 * 10 ** 8, 4 * 10 ** 8)] * dim),
                           max_size=2))
    targets = {tuple(int(c) for c in np.sum(s, axis=0)) for s in sums} | set(points)
    if not targets:
        targets = {(0,) * dim}
    start = draw(st.integers(0, 10 ** 6))
    n = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2 ** 32))
    return atoms, weights, targets, horizon, seed, range(start, start + n)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(lattice_walks())
def test_chunk_lattice_matches_per_trajectory_reference(walk):
    atoms, weights, targets, horizon, seed, indices = walk
    elems = np.array(atoms, dtype=np.int64)
    cum = np.cumsum(np.array(weights) / sum(weights))
    got = _chunk_lattice(elems, _word_thresholds(cum), targets, horizon, seed, indices)
    want = reference_chunk_lattice(elems, cum, targets, horizon, seed, indices)
    assert got[0] == want[0]
    assert np.array_equal(got[1], want[1])
    assert np.array_equal(got[2], want[2])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_chunk_finite_matches_per_trajectory_reference(data, s3_group):
    if data.draw(st.booleans()):
        cayley = s3_group.cayley_array
    else:
        order = data.draw(st.integers(1, 12))
        cayley = np.add.outer(np.arange(order), np.arange(order)) % order
    size = len(cayley)
    elems = data.draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=size,
                               unique=True))
    weights = data.draw(st.lists(st.integers(1, 20), min_size=len(elems),
                                 max_size=len(elems)))
    targets = data.draw(st.sets(st.integers(0, size - 1), min_size=1))
    horizon = data.draw(st.integers(1, 300))
    seed = data.draw(st.integers(0, 2 ** 32))
    start = data.draw(st.integers(0, 10 ** 6))
    indices = range(start, start + data.draw(st.integers(1, 60)))
    cum = np.cumsum(np.array(weights) / sum(weights))
    args = (cayley, np.array(elems, dtype=np.int64), cum, targets, horizon, seed,
            0, indices)
    thresholds = _word_thresholds(cum)
    assert _chunk_finite(*args[:2], thresholds, *args[3:]) == reference_chunk_finite(*args)
