import math
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwalk import (ExponentOverflow, FunctionTable, GroupMismatch, Lattice, Law,
                   LatticeBox, WindowExceeded, check_irreducible, cyclic_group,
                   default_window)
from rwalk.laws import _separating_direction, _sublattice_index
from rwalk.tables import DENSE_CELL_LIMIT, EXP_GUARD, step

from conftest import tilt_from_spectral


def brute_convolution(a, b):
    """Independent oracle: enumerate all support pairs."""
    out = {}
    for (x, p), (y, q) in product(a.atoms.items(), b.atoms.items()):
        z = a.group.multiply(x, y)
        out[z] = out.get(z, 0.0) + p * q
    return out


def random_law(group, rng, max_radius=3, n_atoms=4):
    dim = group.dim
    atoms = {}
    while len(atoms) < n_atoms:
        x = tuple(int(v) for v in rng.integers(-max_radius, max_radius + 1, size=dim))
        atoms[x] = float(rng.uniform(0.05, 1.0))
    total = math.fsum(atoms.values())
    return Law(group, {x: p / total for x, p in atoms.items()}, sum_tol=1e-9)


def test_law_validation(z1):
    with pytest.raises(ValueError, match="mass"):
        Law(z1, {(1,): 0.5, (-1,): 0.4})
    with pytest.raises(ValueError, match="non-positive"):
        Law(z1, {(1,): 1.2, (-1,): -0.2})
    with pytest.raises(ValueError, match="atom"):
        Law(z1, {})


def test_bernoulli_square_enumeration(bernoulli):
    # oracle: the 4 outcome pairs of two independent steps
    expected = brute_convolution(bernoulli, bernoulli)
    assert expected == {(-2,): 0.5625, (0,): 0.375, (2,): 0.0625}
    got = bernoulli.convolve(bernoulli)
    assert set(got.atoms) == set(expected)
    for x, p in expected.items():
        assert got.atoms[x] == pytest.approx(p, abs=1e-15)


def test_identity_law_is_neutral(bernoulli, z1):
    delta = Law.point_mass(z1)
    assert delta.convolve(bernoulli).atoms == bernoulli.atoms
    assert bernoulli.convolve(delta).atoms == bernoulli.atoms


def test_uniform_on_z2_is_idempotent():
    g = cyclic_group(2)
    v = Law(g, {0: 0.5, 1: 0.5})
    assert v.convolve(v).atoms == {0: 0.5, 1: 0.5}


def test_power_zero_is_point_mass(bernoulli, z1):
    assert bernoulli.power(0) == Law.point_mass(z1)


def test_point_mass_power_cycles(z3_group):
    delta = Law.point_mass(z3_group, 1)
    assert delta.power(3).atoms == {0: 1.0}


def test_power_two_matches_enumeration(bernoulli):
    expected = brute_convolution(bernoulli, bernoulli)
    got = bernoulli.power(2)
    for x, p in expected.items():
        assert got.atoms[x] == pytest.approx(p, abs=1e-15)


def test_dual_is_reflection(bernoulli):
    d = bernoulli.dual()
    assert d.atoms == {(-1,): 0.25, (1,): 0.75}
    assert d.dual() == bernoulli


def test_dual_fixes_symmetric(simple_symmetric):
    assert simple_symmetric.dual() == simple_symmetric


def test_dual_of_point_mass(z3_group):
    d = Law.point_mass(z3_group, 1).dual()
    assert d.atoms == {2: 1.0}


def test_support_radius_is_the_reach_of_one_step(wide_symmetric, symmetric3d, z6_law,
                                                 s3_law):
    assert wide_symmetric.support_radius() == 2
    assert symmetric3d.support_radius() == 1
    # a finite step gathers through the Cayley table and never leaves it
    assert z6_law.support_radius() == 0
    assert s3_law.support_radius() == 0


def test_convolve_rejects_group_mismatch(bernoulli, z6_law):
    with pytest.raises(GroupMismatch):
        bernoulli.convolve(z6_law)


def test_step_constant_one(bernoulli, z1):
    window = LatticeBox.centered(3, 1)
    ones = FunctionTable.tabulate(z1, lambda x: 1.0, window)
    image = FunctionTable(z1, LatticeBox.centered(2, 1), step(bernoulli, ones.values))
    assert image[(0,)] == pytest.approx(1.0, abs=1e-15)


def test_step_exponential(bernoulli, z1):
    window = LatticeBox.centered(3, 1)
    inner = LatticeBox.centered(2, 1)
    flat = FunctionTable.tabulate(z1, lambda x: np.exp(0.0 * x[0]), window)
    image = FunctionTable(z1, inner, step(bernoulli, flat.values))
    assert image[(0,)] == pytest.approx(1.0, abs=1e-15)
    theta = 0.5 * math.log(3.0)
    table = FunctionTable.tabulate(z1, lambda x: np.exp(theta * x[0]), window)
    image = FunctionTable(z1, inner, step(bernoulli, table.values))
    # closed form 2*sqrt(p*(1-p))
    assert image[(0,)] == pytest.approx(2.0 * math.sqrt(0.25 * 0.75), abs=1e-12)


def test_step_window_exceeded(bernoulli, z1):
    window = LatticeBox((0,), (1,))
    t = FunctionTable.tabulate(z1, lambda x: 1.0, window)
    # a two-point box has no point from which one step of radius 1 stays inside
    with pytest.raises(WindowExceeded):
        step(bernoulli, t.values)


def test_irreducibility_examples(bernoulli, z1):
    assert check_irreducible(bernoulli).irreducible
    one_sided = Law(z1, {(1,): 1.0})
    res = check_irreducible(one_sided)
    assert not res.irreducible and "half-space" in res.witness


def test_two_step_law_parity_invariant(z1):
    even = Law(z1, {(2,): 0.5, (-2,): 0.5})
    res = check_irreducible(even)
    assert not res.irreducible and "index 2" in res.witness
    # independent oracle: bounded closure never leaves 2Z
    reachable = {(0,)}
    for _ in range(12):
        reachable |= {z1.multiply(x, s) for x in reachable for s in even.atoms}
    assert all(x[0] % 2 == 0 for x in reachable)


def test_irreducibility_lattice_2d(drift2d, z2):
    assert check_irreducible(drift2d).irreducible
    half_plane = Law(z2, {(1, 0): 0.4, (0, 1): 0.3, (1, 1): 0.3})
    res = check_irreducible(half_plane)
    assert not res.irreducible and "half-space" in res.witness
    line = Law(z2, {(1, 0): 0.5, (-1, 0): 0.5})
    res = check_irreducible(line)
    assert not res.irreducible and "rank" in res.witness


def test_irreducibility_lattice_3d(symmetric3d, z3):
    assert check_irreducible(symmetric3d).irreducible
    plane = Law(z3, {(1, 0, 0): 0.25, (-1, 0, 0): 0.25,
                     (0, 1, 0): 0.25, (0, -1, 0): 0.25})
    assert not check_irreducible(plane).irreducible
    cone = Law(z3, {(1, 0, 0): 0.4, (0, 1, 0): 0.3, (0, 0, 1): 0.3})
    res = check_irreducible(cone)
    assert not res.irreducible and "half-space" in res.witness


def reference_separating_direction(vectors, dim):
    """Pure-Python enumerator: perpendiculars (2D) or cross products with the
    later vectors and the axes (3D), each followed by its negation; the
    first candidate with u.s <= 0 for every nonzero s, else None."""
    nz = [s for s in vectors if any(s)]
    if not nz:
        return (1,) + (0,) * (dim - 1)
    if dim == 1:
        candidates = [(1,), (-1,)]
    elif dim == 2:
        candidates = []
        for s in nz:
            candidates += [(-s[1], s[0]), (s[1], -s[0])]
    else:
        candidates = []
        for i, s in enumerate(nz):
            for t in nz[i + 1:] + [(1, 0, 0), (0, 1, 0), (0, 0, 1)]:
                c = (s[1] * t[2] - s[2] * t[1], s[2] * t[0] - s[0] * t[2],
                     s[0] * t[1] - s[1] * t[0])
                if any(c):
                    candidates += [c, tuple(-x for x in c)]
    for u in candidates:
        if all(sum(a * b for a, b in zip(u, s)) <= 0 for s in nz):
            return u
    return None


@st.composite
def supports(draw):
    """Random 1-3D supports; about half are folded into a half-space."""
    dim = draw(st.integers(1, 3))
    scale = draw(st.sampled_from([3, 10 ** 7]))
    coords = st.tuples(*[st.integers(-scale, scale)] * dim)
    vectors = draw(st.lists(coords, min_size=1, max_size=40, unique=True))
    if draw(st.booleans()):
        normal = draw(coords.filter(any))
        vectors = [s if sum(a * b for a, b in zip(normal, s)) <= 0 else tuple(-c for c in s)
                   for s in vectors]
    return vectors, dim


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(supports())
def test_separating_direction_matches_reference(case):
    vectors, dim = case
    assert _separating_direction(vectors, dim) == reference_separating_direction(vectors, dim)


@st.composite
def symmetric_supports(draw):
    """Random 1-3D supports closed under v -> -v, drawn from up to d
    generators (fewer leaves them short of spanning), plus a few vectors
    whose negations may be missing."""
    dim = draw(st.integers(1, 3))
    small = st.integers(-4, 4)
    gens = draw(st.lists(st.tuples(*[small] * dim), min_size=1, max_size=dim))
    combos = draw(st.lists(st.tuples(*[small] * len(gens)), min_size=1, max_size=15))
    half = {tuple(sum(c * g[k] for c, g in zip(co, gens)) for k in range(dim))
            for co in combos}
    extra = draw(st.lists(st.tuples(*[small] * dim), max_size=3))
    vectors = sorted(half | {tuple(-c for c in v) for v in half} | set(extra))
    return vectors, dim


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(symmetric_supports())
def test_separating_direction_symmetric_supports_match_reference(case):
    vectors, dim = case
    assert _separating_direction(vectors, dim) == reference_separating_direction(vectors, dim)


def test_separating_direction_blocks_keep_enumeration_order():
    # 60 atoms in 3D give about 3900 candidates; folded into the half-space
    # below, the first passing one is candidate 3032, in the sixth block
    rng = np.random.default_rng(10)
    vectors = [tuple(int(c) for c in v) for v in rng.integers(-6, 7, size=(60, 3)) if any(v)]
    normal = rng.integers(-3, 4, size=3)
    cone = [v if np.dot(normal, v) <= 0 else tuple(-c for c in v) for v in vectors]
    assert _separating_direction(cone, 3) == reference_separating_direction(cone, 3) \
        == (28, 2, -44)
    assert _separating_direction(vectors, 3) is None


def test_separating_direction_exact_beyond_int64():
    # coordinates near 1e7 make u.s reach 1e21: int64 products would wrap
    rng = np.random.default_rng(0)
    for _ in range(40):
        vectors = [tuple(int(c) for c in v) for v in rng.integers(-10 ** 7, 10 ** 7, size=(5, 3))]
        if rng.random() < 0.5:
            normal = rng.integers(-3, 4, size=3)
            vectors = [v if sum(int(a) * b for a, b in zip(normal, v)) <= 0
                       else tuple(-c for c in v) for v in vectors]
        assert _separating_direction(vectors, 3) == reference_separating_direction(vectors, 3)


def reference_sublattice_index(vectors, dim):
    """gcd of all d x d minors of the stacked vectors; 0 below rank d."""
    def det(rows):
        if len(rows) == 1:
            return rows[0][0]
        if len(rows) == 2:
            (a, b), (c, e) = rows
            return a * e - b * c
        (a, b, c), (p, q, r), (u, v, w) = rows
        return a * (q * w - r * v) - b * (p * w - r * u) + c * (p * v - q * u)

    g = 0
    for rows in combinations(vectors, dim):
        g = math.gcd(g, abs(det(rows)))
    return g


@st.composite
def generated_supports(draw):
    """Random 1-3D supports: integer combinations of up to d generators
    (fewer gives rank < d), sometimes mapped by a random integer matrix,
    which scales the index by |det|."""
    dim = draw(st.integers(1, 3))
    small = st.integers(-4, 4)
    gens = draw(st.lists(st.tuples(*[small] * dim), min_size=1, max_size=dim))
    combos = draw(st.lists(st.tuples(*[small] * len(gens)), min_size=1, max_size=25))
    vectors = [tuple(sum(c * g[k] for c, g in zip(co, gens)) for k in range(dim))
               for co in combos]
    if draw(st.booleans()):
        m = draw(st.lists(st.tuples(*[small] * dim), min_size=dim, max_size=dim))
        vectors = [tuple(sum(m[i][k] * v[k] for k in range(dim)) for i in range(dim))
                   for v in vectors]
    vectors += draw(st.lists(st.tuples(*[small] * dim), max_size=3))
    return vectors, dim


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(generated_supports())
def test_sublattice_index_matches_minors_gcd(case):
    vectors, dim = case
    assert _sublattice_index(vectors, dim) == reference_sublattice_index(vectors, dim)


def two_index_irreducible(law):
    """check_irreducible on a lattice with the symmetric subset's index
    computed apart from the support's, as _separating_direction does when
    it is given no index."""
    vectors, dim = list(law.atoms), law.group.dim
    index = _sublattice_index(vectors, dim)
    u = _separating_direction(vectors, dim)
    if index == 0:
        witness = f"support spans a sublattice of rank < {dim}"
    elif index != 1:
        witness = f"support generates a sublattice of index {index}"
    elif u is not None:
        witness = ("semigroup generated stays in the half-space with outward normal "
                   f"{u} (origin not interior to support hull)")
    else:
        return (True, "support lattice is Z^d and origin is interior to the support hull",
                False)
    return (False, witness, u is not None)


def _neg(v):
    return tuple(-c for c in v)


@st.composite
def irreducibility_supports(draw):
    """1-3D supports of each kind: symmetric, symmetric plus vectors whose
    negations are missing, folded into a half-space, or mapped onto a
    sublattice of index 2 to 27; each with or without the origin.  Up to d
    generators, so some fall short of rank d, and half the draws add the
    unit vectors, so that the lattice is Z^d before any mapping."""
    dim = draw(st.integers(1, 3))
    small = st.integers(-3, 3)
    vec = st.tuples(*[small] * dim)
    gens = draw(st.lists(vec, min_size=1, max_size=dim))
    combos = draw(st.lists(st.tuples(*[small] * len(gens)), min_size=1, max_size=12))
    half = {tuple(sum(c * g[k] for c, g in zip(co, gens)) for k in range(dim))
            for co in combos}
    if draw(st.booleans()):
        half |= {tuple(int(i == k) for k in range(dim)) for i in range(dim)}
    vectors = half | {_neg(v) for v in half}
    kind = draw(st.sampled_from(["symmetric", "asymmetric", "cone", "sublattice"]))
    if kind == "asymmetric":
        vectors |= set(draw(st.lists(vec.filter(lambda v: any(v) and _neg(v) not in vectors),
                                     min_size=1, max_size=3)))
    elif kind == "cone":
        normal = draw(vec.filter(any))
        vectors = {v if np.dot(normal, v) <= 0 else _neg(v) for v in vectors}
    elif kind == "sublattice":   # upper triangular, so the index scales by prod(diagonal)
        diag = draw(st.lists(st.integers(1, 3), min_size=dim, max_size=dim)
                    .filter(lambda d: math.prod(d) >= 2))
        m = [[diag[i] if i == j else draw(small) if j > i else 0 for j in range(dim)]
             for i in range(dim)]
        vectors = {tuple(sum(m[i][j] * v[j] for j in range(dim)) for i in range(dim))
                   for v in vectors}
    origin = (0,) * dim
    vectors = vectors | {origin} if draw(st.booleans()) else vectors - {origin}
    vectors = sorted(vectors) or [origin]
    return Law(Lattice(dim), {v: 1.0 / len(vectors) for v in vectors}, sum_tol=1e-9)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(irreducibility_supports())
def test_irreducibility_reusing_the_index_matches_two_indices(law):
    got = check_irreducible(law)
    assert (got.irreducible, got.witness, got.degenerate) == two_index_irreducible(law)


def head_sublattice_index(vectors, dim):
    """_sublattice_index as it was before it stopped at index 1: Euclid's
    algorithm on column k over all live rows, pivots set aside, the index
    |product of pivots| (0 below rank d)."""
    rows = [list(v) for v in vectors]
    index = 1
    for k in range(dim):
        while True:
            live = [r for r in rows if r[k]]
            if not live:
                return 0
            pivot = min(live, key=lambda r: abs(r[k]))
            if len(live) == 1:
                break
            for r in live:
                if r is not pivot:
                    q = r[k] // pivot[k]
                    r[:] = [a - q * b for a, b in zip(r, pivot)]
        rows.remove(pivot)
        index *= abs(pivot[k])
    return index


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(irreducibility_supports(), st.data())
def test_sublattice_index_stopping_at_one_matches_the_full_reduction(law, data):
    # the witness texts read only the index, so equal indices keep them
    dim = law.group.dim
    for vectors in (list(law.atoms), data.draw(st.permutations(list(law.atoms)))):
        assert _sublattice_index(vectors, dim) == head_sublattice_index(vectors, dim)


def test_law_arrays_are_read_only_and_in_atom_order(drift2d, bernoulli):
    for law in (drift2d, bernoulli, drift2d.dual(), tilt_from_spectral(drift2d).tilted):
        x, p = law.arrays
        assert law.arrays is law.arrays   # built once
        assert x.dtype == p.dtype == np.float64 and x.shape == (len(law.atoms), law.group.dim)
        assert np.array_equal(x, np.array(list(law.atoms), dtype=float))
        assert p.tolist() == list(law.atoms.values())
        with pytest.raises(ValueError):
            x[0, 0] = 1.0
        with pytest.raises(ValueError):
            p[0] = 1.0


def test_dual_and_tilted_laws_get_their_own_arrays(drift2d):
    x, p = drift2d.arrays
    dual, tilted = drift2d.dual(), tilt_from_spectral(drift2d).tilted
    assert not np.shares_memory(dual.arrays[0], x) and not np.shares_memory(dual.arrays[1], p)
    assert np.array_equal(dual.arrays[0], np.array(list(dual.atoms), dtype=float))
    assert sorted(map(tuple, -dual.arrays[0])) == sorted(map(tuple, x))
    assert np.array_equal(tilted.arrays[0], x)   # the same support, in the same order
    assert tilted.arrays[1].tolist() == list(tilted.atoms.values()) != p.tolist()


def test_irreducibility_finite(z6_group, z6_law, s3_law):
    assert check_irreducible(z6_law).irreducible
    assert check_irreducible(s3_law).irreducible
    stuck = Law(z6_group, {2: 0.5, 4: 0.5})  # generates the even residues
    res = check_irreducible(stuck)
    assert not res.irreducible and "3 of 6" in res.witness


def test_convolution_associative_sampled(z1, z2):
    rng = np.random.default_rng(5)
    for group in (z1, z2):
        for _ in range(5):
            a, b, c = (random_law(group, rng) for _ in range(3))
            left = a.convolve(b).convolve(c)
            right = a.convolve(b.convolve(c))
            assert set(left.atoms) == set(right.atoms)
            for x, p in left.atoms.items():
                assert abs(right.atoms[x] - p) <= 1e-12


def test_dual_antihomomorphism_sampled(z1, s3_group):
    rng = np.random.default_rng(9)
    for _ in range(5):
        a, b = random_law(z1, rng), random_law(z1, rng)
        lhs = a.convolve(b).dual()
        rhs = b.dual().convolve(a.dual())
        for x, p in lhs.atoms.items():
            assert abs(rhs.atoms[x] - p) <= 1e-14
    # and on a non-abelian group, where the order swap is essential
    a = Law(s3_group, {1: 0.6, 4: 0.4})
    b = Law(s3_group, {2: 0.3, 5: 0.7})
    lhs = a.convolve(b).dual()
    rhs = b.dual().convolve(a.dual())
    assert lhs.atoms.keys() == rhs.atoms.keys()
    for x, p in lhs.atoms.items():
        assert abs(rhs.atoms[x] - p) <= 1e-14


def test_power_additivity(bernoulli):
    lhs = bernoulli.power(5)
    rhs = bernoulli.power(2).convolve(bernoulli.power(3))
    for x, p in lhs.atoms.items():
        assert abs(rhs.atoms[x] - p) <= 1e-14


def test_convolution_power_mass_drift(lazy_drift):
    law = lazy_drift
    acc = Law.point_mass(law.group)
    for _ in range(40):
        acc = acc.convolve(law)
        assert abs(acc.mass() - 1.0) <= 1e-10


def test_mass_leak_accumulates_dropped_atoms(z1):
    spiky = Law(z1, {(1,): 1e-12, (-1,): 1.0 - 1e-12}, sum_tol=1e-9)
    law = spiky
    for _ in range(30):
        law = law.convolve(spiky)
    # the all-up-steps corner falls below the underflow floor around n=25
    assert law.mass_leak > 0.0
    assert law.mass_leak < 1e-250
    assert all(p >= 1e-300 for p in law.atoms.values())


def test_default_window_scales_with_dimension(bernoulli, drift2d, symmetric3d,
                                              wide_symmetric, z6_law):
    # the support box: one interior point, the origin
    assert default_window(bernoulli) == LatticeBox.centered(1, 1)
    assert default_window(wide_symmetric) == LatticeBox.centered(2, 1)
    assert default_window(drift2d) == LatticeBox.centered(1, 2)
    assert default_window(symmetric3d) == LatticeBox.centered(1, 3)
    assert default_window(z6_law) is None


# coordinates up to just past each dimension's dense-limit radius (2097151, 1023, 80)
_WIDE_COORD = {1: 2_200_000, 2: 1100, 3: 90}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_default_window_fits_every_limit_or_refuses(data):
    dim = data.draw(st.integers(1, 3))
    coord = st.integers(-_WIDE_COORD[dim], _WIDE_COORD[dim])
    atoms = data.draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=4, unique=True))
    theta = data.draw(st.tuples(*[st.just(0.0) | st.floats(-800.0, 800.0)] * dim))
    law = Law(Lattice(dim), {x: 1.0 / len(atoms) for x in atoms})
    reach, slope = law.support_radius(), sum(abs(t) for t in theta)

    def fits(r):
        return r >= reach and r * slope <= EXP_GUARD and (2 * r + 1) ** dim <= DENSE_CELL_LIMIT

    # default: the support box, or a refusal exactly when it does not fit
    try:
        box = default_window(law, theta)
    except (ExponentOverflow, WindowExceeded):
        assert not fits(reach)
    else:
        assert box == LatticeBox.centered(reach, dim) and fits(reach)
    # a set radius: that box exactly when it fits, a refusal otherwise
    radius = data.draw(st.integers(0, 3 * _WIDE_COORD[dim]))
    try:
        box = default_window(law, theta, radius)
    except (ExponentOverflow, WindowExceeded):
        assert not fits(radius)
    else:
        assert box == LatticeBox.centered(radius, dim) and fits(radius)


def test_default_window_guard_radius_is_the_widest_in_floats(z1):
    # the widest radius r with r * sum|theta| <= 700 as computed in floats:
    # 3 * (700/3) rounds to 700.0 though 700 // (700/3) is 2, and 77 times the
    # float above 700/77 exceeds 700 though 700 / it rounds to 77.0
    law = Law(z1, {(3,): .5, (-3,): .5})
    for slope, widest in ((700 / 3, 3), (math.nextafter(700 / 77, math.inf), 76)):
        assert default_window(law, (slope,)) == LatticeBox.centered(3, 1)   # the support box
        assert default_window(law, (-slope,), widest) == LatticeBox.centered(widest, 1)
        with pytest.raises(ExponentOverflow, match=f"set window_radius {widest} or less"):
            default_window(law, (slope,), widest + 1)


def test_default_window_refuses_a_step_past_the_guard(z3):
    # theta*_k = 344.84: one step reaches exponent 1034.52, so no radius
    # helps, and the refusal names the guard, not window_radius
    law = Law(z3, {(1, 0, 0): 1e-300, (0, 1, 0): 1e-300, (0, 0, 1): 1e-300,
                   (-1, 0, 0): 1 / 3, (0, -1, 0): 1 / 3, (0, 0, -1): 1 / 3})
    theta = (344.84,) * 3
    for radius in (None, 0, 1, 5):
        with pytest.raises(ExponentOverflow, match=r"^one step reaches exponent 1034\.52, "
                           r"beyond the \+/-700\.0 guard, so no check window fits$"):
            default_window(law, theta, radius)
