"""The dense kernels against a per-point reference.

The reference below is the pointwise definition, one math.fsum per
point over the law's atoms, written independently of rwalk.tables.  The
kernel sums the same terms in atom order instead, so the two agree to a
few ulps of values that are O(1): residuals and hitting probabilities
are compared with abs 1e-15.  The dense n-step laws are compared with
Law.power, the dictionary convolution, to the same tolerance.  The
hitting DP's one (steps + 1, *shape) layer array is also held bit for bit
(np.array_equal) to the recursion that pads each layer anew, which eq12's
exact zero rests on, and the `stepper` kernel, every hitting layer and the
finite n-step arrays to slice_step, the stencil as one shifted slice per
atom.
"""

import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwalk import (ExponentOverflow, FunctionTable, Law, LatticeBox,
                   check_dual_invariance, check_measure_invariance,
                   check_translation_invariance, hitting_dp,
                   parse_walk_spec, verify_r_invariance)
from rwalk.cli import TRANSLATION_STEPS
from rwalk.groups import FiniteGroup, Lattice
from rwalk.spectral import Exponential
import rwalk.tables as tables
from rwalk.tables import _frame_bases, powers, step_frame, step_span, stepper

from conftest import mgf, window_index

KERNEL_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                           database=None)
DP_STEPS = {1: 10, 2: 5, 3: 3}  # keeps the pure-Python reference DP small
POWER_STEPS = {1: 6, 2: 4, 3: 3}  # keeps the dictionary Law.power small
FIXTURES = Path(__file__).parent / "fixtures"
LATTICE_FIXTURES = ["bernoulli_025", "drift2d", "even_steps", "lazy_drift", "one_sided",
                    "sym3d", "symmetric"]


@pytest.fixture(scope="module")
def s3_skew(s3_group):
    # asymmetric and non-abelian: a transposition and both 3-cycles
    return Law(s3_group, {1: 0.5, 4: 0.3, 5: 0.2})


# ---------------------------------------------------------------- reference

def slice_step(law, values):
    """The one-step operator as one shifted slice (or one Cayley-column
    gather) per atom, summed from zeros in atom order: the stencil every
    step, hitting layer and finite n-step array is held to bit for bit."""
    if isinstance(law.group, FiniteGroup):
        cayley = law.group.cayley_array
        out = np.zeros(values.shape)
        for u, p in law.atoms.items():
            out += p * values[cayley[:, u]]
        return out
    margin = law.support_radius()
    inner = tuple(n - 2 * margin for n in values.shape)
    out = np.zeros(inner)
    for u, p in law.atoms.items():
        out += p * values[tuple(slice(margin + c, margin + c + n) for c, n in zip(u, inner))]
    return out


def padded_hitting_layers(law, targets, steps, window):
    """The hitting recursion that pads each layer anew: np.pad of the
    previous layer, one slice_step, then np.where over the targets."""
    first = np.zeros((law.group.order,) if window is None else window.shape)
    for t in targets:
        first[window_index(window, t)] = 1.0
    target = first == 1.0
    margin = law.support_radius()
    layers = [first]
    for _ in range(steps):
        stepped = slice_step(law, np.pad(layers[-1], margin))
        layers.append(np.where(target, 1.0, stepped))
    return layers


def box_points(window):
    grids = np.meshgrid(*(np.arange(a, b + 1) for a, b in zip(window.lo, window.hi)),
                        indexing="ij")
    return [tuple(int(c) for c in p) for p in zip(*(g.ravel() for g in grids))]


def brute_residual(law, f, r, region):
    """max over region of |f(x) - r * sum_u mass(u) f(x u)| / f(x)."""
    mul = law.group.multiply
    return max(abs(f(x) - r * math.fsum(p * f(mul(x, u)) for u, p in law.atoms.items()))
               / f(x) for x in region)


def brute_hitting(law, targets, steps, points):
    """Backward recursion, one fsum per point, 0 outside `points`."""
    mul = law.group.multiply
    layer = {x: 1.0 if x in targets else 0.0 for x in points}
    layers = [layer]
    for _ in range(steps):
        prev = layers[-1]
        layers.append({x: 1.0 if x in targets else
                       math.fsum(p * prev.get(mul(x, u), 0.0) for u, p in law.atoms.items())
                       for x in points})
    return layers


@st.composite
def lattice_laws(draw):
    dim = draw(st.integers(1, 3))
    coords = st.tuples(*[st.integers(-2, 2)] * dim)
    support = draw(st.lists(coords, min_size=1, max_size=6, unique=True))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=len(support),
                            max_size=len(support)))
    total = math.fsum(weights)
    law = Law(Lattice(dim), {x: w / total for x, w in zip(support, weights)},
              sum_tol=1e-9)
    theta = tuple(draw(st.floats(-0.8, 0.8)) for _ in range(dim))
    return law, theta


# ------------------------------------------------------------------ lattice

@KERNEL_SETTINGS
@given(lattice_laws())
def test_window_residuals_match_pointwise_reference(case):
    law, theta = case
    exponential = Exponential(theta)
    r = 1.0 / mgf(law, theta)
    radius = law.support_radius()
    window = LatticeBox.centered(radius + 3, law.group.dim)
    region = box_points(LatticeBox.centered(3, law.group.dim))
    phi = lambda x: math.exp(math.fsum(t * c for t, c in zip(theta, x)))
    psi = lambda x: 1.0 / phi(x)

    assert verify_r_invariance(law, exponential, r, window) == pytest.approx(
        brute_residual(law, phi, r, region), abs=1e-15)
    dual = check_dual_invariance(law, exponential, r, window)
    assert dual == pytest.approx(brute_residual(law.dual(), psi, r, region), abs=1e-15)
    assert check_measure_invariance(law, exponential, r, window) == dual


@KERNEL_SETTINGS
@given(lattice_laws(), st.data())
def test_hitting_layers_match_pointwise_reference(case, data):
    law, _ = case
    steps = data.draw(st.integers(0, DP_STEPS[law.group.dim]))
    origin = law.group.identity()
    table = hitting_dp(law, {origin}, steps)
    points = box_points(table.window)
    ref = brute_hitting(law, {origin}, steps, points)
    assert len(table.layers) == len(ref) == steps + 1
    for layer, expected in zip(table.layers, ref):
        assert max(abs(layer[window_index(table.window, x)] - v)
                   for x, v in expected.items()) <= 1e-15


def assert_powers_match(law, n_max):
    """tables.powers against Law.power: every atom, and zero off the support."""
    if isinstance(law.group, FiniteGroup):
        index = lambda x, n: x
    else:
        lo, _ = step_span(law.atoms, n_max)
        index = lambda x, n: tuple(c - n * l for c, l in zip(x, lo))
    for n, dense in enumerate(powers(law, n_max), start=1):
        expected = np.zeros(dense.shape)
        for x, p in law.power(n).atoms.items():
            expected[index(x, n)] = p
        assert np.max(np.abs(dense - expected)) <= 1e-15


@KERNEL_SETTINGS
@given(lattice_laws())
def test_dense_powers_match_law_power(case):
    law, _ = case
    assert_powers_match(law, POWER_STEPS[law.group.dim])


def test_dense_powers_lopsided_support(z1, z2):
    # supports not centred on the origin: the box grows unevenly per side
    assert_powers_match(Law(z1, {(-1,): 0.1, (0,): 0.2, (1,): 0.3, (2,): 0.4}), 8)
    assert_powers_match(Law(z2, {(2, 0): 0.5, (1, 1): 0.25, (0, -1): 0.25}), 5)


@pytest.mark.parametrize("lo, hi, message", [
    ((0, 0), (1,), r"^box corner dimensions differ$"),
    ((0,), (1, 1), r"^box corner dimensions differ$"),
    ((0, 3), (2, 2), r"^empty box: lo=\(0, 3\) hi=\(2, 2\)$"),
    ((1,), (0,), r"^empty box: lo=\(1,\) hi=\(0,\)$"),
])
def test_lattice_box_refusals(lo, hi, message):
    with pytest.raises(ValueError, match=message):
        LatticeBox(lo, hi)


def test_step_is_translation_exact(drift2d, z2):
    # the same array on two boxes: outputs are equal bit for bit
    f = FunctionTable.tabulate(z2, lambda x: np.cos(x[0]) + x[1] ** 2,
                               LatticeBox.centered(6, 2))
    g = FunctionTable.tabulate(z2, lambda x: np.cos(x[0] - 7) + (x[1] + 3) ** 2,
                               LatticeBox((1, -9), (13, 3)))
    assert np.array_equal(f, g)
    step = lambda values: stepper(drift2d, values.shape)(values)
    assert np.array_equal(step(f), step(g))


def test_dual_and_measure_residuals_identical(asymmetric_corpus, z6_law):
    from rwalk import find_exponential
    for law in list(asymmetric_corpus) + [z6_law]:
        exponential, sp = find_exponential(law)
        assert (check_measure_invariance(law, exponential, sp.R)
                == check_dual_invariance(law, exponential, sp.R))


def test_exponent_guard_on_window(bernoulli):
    window = LatticeBox.centered(32, 1)
    # theta.x reaches 30 * 32 = 960 at the window edge
    with pytest.raises(ExponentOverflow):
        verify_r_invariance(bernoulli, Exponential((30.0,)), 1.0, window)
    with pytest.raises(ExponentOverflow):
        check_dual_invariance(bernoulli, Exponential((-30.0,)), 1.0, window)
    # 21 * 32 = 672 stays inside the guard
    assert verify_r_invariance(bernoulli, Exponential((21.0,)),
                               1.0 / mgf(bernoulli, (21.0,)), window) <= 1e-12


# ------------------------------------------------------------- finite group

def test_finite_step_matches_pointwise_reference(s3_skew):
    rng = np.random.default_rng(7)
    values = rng.uniform(0.5, 2.0, size=6)
    f = lambda x: float(values[x])
    mul = s3_skew.group.multiply
    for law in (s3_skew, s3_skew.dual()):
        out = stepper(law, values.shape)(values)
        for x in range(s3_skew.group.order):
            ref = math.fsum(p * f(mul(x, u)) for u, p in law.atoms.items())
            assert out[x] == pytest.approx(ref, abs=1e-15)


def test_finite_dense_powers_use_right_multiplication(s3_skew):
    assert_powers_match(s3_skew, 8)
    # stepping the law itself gathers f(z u), the law of X_n u^-1: for this
    # asymmetric law a different one, which the comparison above would catch
    f = np.eye(6)[s3_skew.group.identity()]
    worst = 0.0
    for n in range(1, 4):
        f = stepper(s3_skew, f.shape)(f)
        law_n = s3_skew.power(n)
        worst = max(worst, max(abs(f[x] - law_n.atoms.get(x, 0.0)) for x in range(6)))
    assert worst > 0.01


def test_finite_residuals_match_pointwise_reference(s3_skew):
    region = list(range(s3_skew.group.order))
    one = lambda x: 1.0
    for r in (1.0, 1.25):
        assert verify_r_invariance(s3_skew, Exponential(), r) == pytest.approx(
            brute_residual(s3_skew, one, r, region), abs=1e-15)
        dual = check_dual_invariance(s3_skew, Exponential(), r)
        assert dual == pytest.approx(
            brute_residual(s3_skew.dual(), one, r, region), abs=1e-15)
        assert check_measure_invariance(s3_skew, Exponential(), r) == dual


def test_finite_hitting_layers_match_pointwise_reference(s3_skew):
    for targets in ({0}, {2, 4}):
        table = hitting_dp(s3_skew, targets, 25)
        ref = brute_hitting(s3_skew, targets, 25, list(range(s3_skew.group.order)))
        for layer, expected in zip(table.layers, ref):
            assert max(abs(layer[window_index(table.window, x)] - v)
                       for x, v in expected.items()) <= 1e-15


def test_translation_invariance_nonabelian_exact(s3_skew):
    for y in range(s3_skew.group.order):
        assert check_translation_invariance(s3_skew, {0}, y, 40) == 0.0
        assert check_translation_invariance(s3_skew, {1, 3}, y, 15) == 0.0


def assert_layers_match_padded_recursion(law, targets, steps):
    """The layers are one C-contiguous (steps + 1, *window shape) array,
    equal bit for bit to the recursion that pads each layer anew."""
    table = hitting_dp(law, targets, steps)
    expected = padded_hitting_layers(law, targets, steps, table.window)
    window = (law.group.order,) if table.window is None else table.window.shape
    assert len(table.layers) == steps + 1
    assert table.layers.shape == (steps + 1, *window)
    assert table.layers.flags.c_contiguous
    assert np.array_equal(table.layers, np.array(expected))
    for layer, ref in zip(table.layers, expected):
        assert_same_bits(layer, ref)


@pytest.mark.parametrize("name", LATTICE_FIXTURES)
def test_hitting_layers_bit_identical_to_padded_recursion(name):
    # the two target sets eq12 compares: the origin and its translate by y
    law = parse_walk_spec((FIXTURES / f"{name}.spec").read_text()).law
    steps = TRANSLATION_STEPS[law.group.dim]
    e = law.group.identity()
    y = tuple(5 * c for c in next(iter(law.atoms)))
    for targets in ({e}, {y}):
        assert_layers_match_padded_recursion(law, targets, steps)


def test_hitting_layers_bit_identical_two_point_targets(bernoulli, drift2d):
    assert_layers_match_padded_recursion(bernoulli, {(0,), (4,)}, 50)
    assert_layers_match_padded_recursion(drift2d, {(0, 0), (3, -1)}, 24)


def test_finite_hitting_layers_bit_identical_to_padded_recursion(z6_law, s3_skew):
    assert_layers_match_padded_recursion(z6_law, {0}, 100)
    assert_layers_match_padded_recursion(s3_skew, {1, 3}, 40)


# ------------------------------------------------- the stencil, bit for bit

def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


def nonnegative_values(rng, shape):
    """Tables as rwalk steps them: non-negative, with exact zeros and values
    spread from subnormal to large, so products round and underflow."""
    values = rng.random(shape) * 10.0 ** rng.integers(-320, 20, shape)
    values[rng.random(shape) < 0.2] = 0.0
    return values


@st.composite
def stencil_laws(draw):
    """Lattice laws in d = 1..3 of support radius up to 3; the support is
    drawn freely, so it is asymmetric and need not surround the origin."""
    dim = draw(st.integers(1, 3))
    coords = st.tuples(*[st.integers(-3, 3)] * dim)
    support = draw(st.lists(coords, min_size=1, max_size=8, unique=True))
    weights = draw(st.lists(st.floats(1e-6, 1.0), min_size=len(support),
                            max_size=len(support)))
    total = math.fsum(weights)
    return Law(Lattice(dim), {x: w / total for x, w in zip(support, weights)}, sum_tol=1e-9)


@KERNEL_SETTINGS
@given(stencil_laws(), st.data())
def test_step_and_hitting_layers_bit_identical_to_slice_step(law, data):
    dim, margin = law.group.dim, law.support_radius()
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    shape = tuple(2 * margin + data.draw(st.integers(1, 6)) for _ in range(dim))
    values = nonnegative_values(rng, shape)
    assert_same_bits(stepper(law, shape)(values), slice_step(law, values))
    point = st.tuples(*[st.integers(-4, 4)] * dim)
    targets = data.draw(st.lists(point, min_size=1, max_size=3, unique=True))
    steps = DP_STEPS[dim]
    for aim in ({law.group.identity()}, set(targets)):
        assert_layers_match_padded_recursion(law, aim, steps)
    y = data.draw(point)
    assert check_translation_invariance(law, targets, y, steps) == 0.0


@KERNEL_SETTINGS
@given(st.data())
def test_finite_step_layers_and_powers_bit_identical_to_slice_step(s3_skew, data):
    group = s3_skew.group
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    elements = st.integers(0, group.order - 1)
    for law in (s3_skew, s3_skew.dual()):
        values = nonnegative_values(rng, (group.order,))
        assert_same_bits(stepper(law, values.shape)(values), slice_step(law, values))
    targets = set(data.draw(st.lists(elements, min_size=1, max_size=3, unique=True)))
    steps = data.draw(st.integers(0, 40))
    assert_layers_match_padded_recursion(s3_skew, targets, steps)
    f = np.eye(group.order)[group.identity()]
    for dense in powers(s3_skew, steps):
        f = slice_step(s3_skew.dual(), f)
        assert_same_bits(dense, f)
    assert check_translation_invariance(s3_skew, targets, data.draw(elements), steps) == 0.0


# ------------------------------------------------------------ the frame


def all_unimodular(dim):
    """Every (dim, dim) matrix of entries in {-1, 0, 1} with |det| = 1."""
    mats = np.array(list(itertools.product((-1, 0, 1), repeat=dim * dim))).reshape(-1, dim, dim)
    return mats[np.abs(np.linalg.det(mats)).round() == 1]


def box_cells(shifts, n):
    lo, hi = step_span(shifts, n)
    return math.prod((n * (hi - lo) + 1).tolist())


def test_unimodular_bases_invert_exactly():
    for dim, count in ((1, 1), (2, 5), (3, 145)):
        rows, bases, halved = _frame_bases(dim)
        assert len(bases) == count and not halved.any()
        assert np.array_equal(rows[bases[0]], np.eye(dim))
        inverses = np.linalg.inv(rows[bases]).round().astype(np.int64)
        assert (inverses @ rows[bases] == np.eye(dim, dtype=np.int64)).all()


def test_coset_bases_follow_the_identity():
    # with a parity a, the coset bases sit between the identity and the
    # other unimodular bases, which keep their order
    for dim in (1, 2, 3):
        rows, bases, _ = _frame_bases(dim)
        for a in itertools.product((0, 1), repeat=dim):
            if not any(a):
                continue
            c_rows, c_bases, halved = _frame_bases(dim, a)
            coset = c_bases[1:len(c_bases) - len(bases) + 1]
            assert len(coset) > 0 and np.array_equal(c_rows[c_bases[0]], np.eye(dim))
            assert np.array_equal(c_rows[c_bases[len(coset) + 1:]], rows[bases[1:]])
            assert halved[coset].all() and not halved[c_bases[len(coset) + 1:]].any()
            dets = np.abs(np.linalg.det(c_rows[coset])).round()
            assert (dets == 2 ** (dim - 1)).all()
            for b in c_rows[halved]:   # 2e_k, or b = a (mod 2) in {-1,0,1}^d
                assert sorted(np.abs(b).tolist()) == [0] * (dim - 1) + [2] \
                    or (np.abs(b).max() == 1 and np.array_equal(b % 2, a))


@KERNEL_SETTINGS
@given(stencil_laws(), st.integers(1, 10))
def test_step_frame_is_the_smallest_unimodular_box(law, n):
    pts = np.array(list(law.atoms))
    shifts, lo, hi, offset, basis = step_frame(law.atoms, n)
    inverse = np.linalg.inv(basis).round().astype(np.int64)
    assert shifts.dtype == basis.dtype == np.int64 and offset is None
    assert np.array_equal(shifts @ inverse.T, pts)   # x = inverse @ y, exactly
    assert round(abs(np.linalg.det(inverse))) == 1
    assert all(map(np.array_equal, (lo, hi), step_span(shifts, n)))
    # no matrix of {-1, 0, 1} entries, in any row order or sign, does better
    assert box_cells(shifts, n) == min(box_cells(pts @ m.T, n)
                                       for m in all_unimodular(law.group.dim))


def test_step_frame_keeps_x_on_axis_supports_and_ties():
    for dim in (1, 2, 3):
        units = [tuple(s * (j == k) for j in range(dim)) for k in range(dim) for s in (1, -1)]
        for points in (units, [(0,) * dim] + units[::2], units + [(3,) + (0,) * (dim - 1)]):
            shifts, _, _, offset, basis = step_frame(points, 10)
            assert np.array_equal(basis, np.eye(dim)) and np.array_equal(shifts, points)
            assert offset is None
        # an atom at the origin leaves no parity coset: the series keeps x too
        points = [(0,) * dim] + units
        shifts, _, _, offset, basis = step_frame(points, 10, coset=True)
        assert np.array_equal(basis, np.eye(dim)) and np.array_equal(shifts, points)
        assert offset is None
    # rows (1, 0) and (1, -1) give this support the x box too: x wins the tie
    points = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)]
    assert box_cells(np.array(points) @ np.array([[1, 0], [1, -1]]).T, 10) == 21 * 21
    shifts, _, _, _, basis = step_frame(points, 10)
    assert np.array_equal(basis, np.eye(2)) and np.array_equal(shifts, points)


def test_step_frame_shrinks_the_off_axis_3d_box():
    # the windows workload's 3D support: 41 x 41 x 21 cells in x coordinates
    points = [(0, 0, 0), (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1),
              (0, 0, -1), (2, -2, -1), (-2, 2, 1)]
    assert box_cells(points, 10) == 41 * 41 * 21
    shifts, _, _, _, basis = step_frame(points, 10)
    assert box_cells(shifts, 10) == 21 ** 3
    inverse = np.linalg.inv(basis).round().astype(np.int64)
    assert np.array_equal(shifts @ inverse.T, points)


def coset_parity(pts):
    """The first a in {0,1}^d, a != 0, with a.u odd on every point, or None."""
    return next((a for a in itertools.product((0, 1), repeat=pts.shape[1])
                 if any(a) and np.all(pts @ a % 2 == 1)), None)


def all_coset_bases(dim, a):
    """Every (dim, dim) matrix of rows +-2e_k or b = a (mod 2) in {-1,0,1}^dim
    with |det| = 2^(dim-1)."""
    rows = [r for r in itertools.product((-2, -1, 0, 1, 2), repeat=dim)
            if sorted(map(abs, r)) == [0] * (dim - 1) + [2]
            or (max(map(abs, r)) == 1 and tuple(c % 2 for c in r) == a)]
    mats = np.array(list(itertools.product(rows, repeat=dim)))
    return mats[np.abs(np.linalg.det(mats)).round() == 2 ** (dim - 1)]


def smallest_cells(pts, mats, n, halve):
    """The smallest n-step box over the frames y = M x: of the origin and the
    points' spans, or of (y - min y)/2 on a coset."""
    y = np.einsum("pk,mjk->mpj", pts, mats)
    if halve:
        widths = (y.max(axis=1) - y.min(axis=1)) // 2
    else:
        widths = np.maximum(y.max(axis=1), 0) - np.minimum(y.min(axis=1), 0)
    return int((n * widths + 1).prod(axis=1).min())


def previous_series_frame(pts, n):
    """(basis, offset) of the series frame before unimodular bases joined
    it: the first coset basis, in combinations of the rows 2e_k then b = a
    (mod 2) with b > -b, whose box beats the x box, else x coordinates."""
    dim, a = pts.shape[1], coset_parity(pts)
    cells, frame = box_cells(pts, n), (np.eye(dim, dtype=np.int64), None)
    rows = [] if a is None else list(2 * np.eye(dim, dtype=np.int64)) + [
        b for b in itertools.product((1, 0, -1), repeat=dim)
        if tuple(c % 2 for c in b) == a and b > tuple(-c for c in b)]
    for basis in map(np.array, itertools.combinations(rows, dim)):
        y = pts @ basis.T
        size = math.prod((n * (y.max(axis=0) - y.min(axis=0)) // 2 + 1).tolist())
        if round(abs(np.linalg.det(basis))) == 2 ** (dim - 1) and size < cells:
            cells, frame = size, (basis, y.min(axis=0))
    return frame


@st.composite
def frame_supports(draw):
    """Supports of up to 7 points of [-3, 3]^d, d = 1..3, half of them moved
    into a parity coset: a.u made odd for a random a along one axis."""
    dim = draw(st.integers(1, 3))
    pts = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * dim), min_size=1, max_size=7,
                        unique=True))
    if draw(st.booleans()):
        a = draw(st.tuples(*[st.integers(0, 1)] * dim).filter(any))
        j = draw(st.sampled_from([k for k in range(dim) if a[k]]))
        pts = {tuple(c + int(k == j and np.dot(a, u) % 2 == 0) for k, c in enumerate(u))
               for u in pts}
    return np.array(sorted(pts), dtype=np.int64)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(frame_supports(), st.integers(1, 20))
def test_step_frame_is_the_smallest_box_of_both_families(pts, n):
    dim, a = pts.shape[1], coset_parity(pts)
    best = smallest_cells(pts, all_unimodular(dim), n, False)
    if a is not None:
        best = min(best, smallest_cells(pts, all_coset_bases(dim, a), n, True))
    shifts, lo, hi, offset, basis = step_frame(map(tuple, pts), n, coset=True)
    assert box_cells(shifts, n) == best
    assert all(map(np.array_equal, (lo, hi), step_span(shifts, n)))
    if offset is None:
        assert round(abs(np.linalg.det(basis))) == 1
        assert np.array_equal(shifts, pts @ basis.T)
    else:
        assert a is not None and round(abs(np.linalg.det(basis))) == 2 ** (dim - 1)
        assert np.array_equal(2 * shifts, pts @ basis.T - offset)
    # the frame the series had before stays wherever its box is still smallest
    old_basis, old_offset = previous_series_frame(pts, n)
    old_shifts = pts @ old_basis.T if old_offset is None else (pts @ old_basis.T - old_offset) // 2
    if box_cells(old_shifts, n) == best:
        assert np.array_equal(basis, old_basis)
        assert (offset is None) == (old_offset is None)
        assert old_offset is None or np.array_equal(offset, old_offset)
