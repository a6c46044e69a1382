import numpy as np
import pytest

from rwalk import FiniteGroup, IndexOutOfRange, Lattice, cyclic_group

from conftest import s3_cayley


def test_lattice_multiply_is_componentwise_sum():
    assert Lattice(1).multiply((3,), (-5,)) == (-2,)
    assert Lattice(2).multiply((1, 0), (0, 1)) == (1, 1)


def test_cyclic_multiply_is_addition_mod_n(z3_group):
    assert z3_group.multiply(1, 2) == 0


def test_lattice_inverse_is_negation():
    assert Lattice(1).inverse((7,)) == (-7,)
    assert Lattice(2).inverse((2, -3)) == (-2, 3)


def test_cyclic_inverse(z3_group):
    assert z3_group.inverse(1) == 2


def test_identities(z3_group):
    assert Lattice(2).identity() == (0, 0)
    assert Lattice(1).identity() == (0,)
    assert z3_group.identity() == 0


def test_lattice_dimension_cap():
    with pytest.raises(ValueError):
        Lattice(4)
    with pytest.raises(ValueError):
        Lattice(0)


def test_finite_index_out_of_range(z3_group):
    with pytest.raises(IndexOutOfRange):
        z3_group.multiply(0, 3)
    with pytest.raises(IndexOutOfRange):
        z3_group.inverse(-1)


def test_corrupted_cayley_rejected():
    # duplicate entry in a row breaks the Latin property
    with pytest.raises(ValueError, match="Latin"):
        FiniteGroup([[0, 1, 2], [1, 1, 0], [2, 0, 1]])
    # Latin square (x.y = -x-y mod 3) with no identity row at all
    with pytest.raises(ValueError, match="identity"):
        FiniteGroup([[0, 2, 1], [2, 1, 0], [1, 0, 2]])


# a quasigroup: Latin, has a two-sided identity, but not associative
QUASIGROUP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def test_nonassociative_latin_square_rejected():
    with pytest.raises(ValueError, match="associative"):
        FiniteGroup(QUASIGROUP)


@pytest.mark.parametrize("table, message", [
    # row 0 and column 0 both repeat a value: the row is named first
    ([[0, 0], [0, 1]], "Cayley table is not a Latin square: row 0"),
    ([[0, 1, 2], [1, 2, 0], [1, 2, 0]], "Cayley table is not a Latin square: column 0"),
    # a loop where 2*3 = 0 but 3*2 = 1
    ([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1], [3, 4, 1, 2, 0],
      [4, 2, 0, 1, 3]], "element 2 has no two-sided inverse"),
    ([[0, 1], [1]], "Cayley row 1 has length 1, expected 2"),
    # order 70 > 64: only the triples of every 4th index are tested
    ([[QUASIGROUP[a // 14][b // 14] * 14 + (a + b) % 14 for b in range(70)]
      for a in range(70)], "Cayley table not associative at (16,16,28)"),
])
def test_rejection_names_first_offender(table, message):
    with pytest.raises(ValueError) as info:
        FiniteGroup(table)
    assert str(info.value) == message


def test_equal_tables_give_equal_groups():
    a, b = FiniteGroup(s3_cayley()), FiniteGroup(s3_cayley())
    assert a == b and hash(a) == hash(b)
    assert a != cyclic_group(6)
    assert type(a.multiply(1, 2)) is int and type(a.inverse(4)) is int


@pytest.mark.parametrize("make", [lambda: cyclic_group(6),
                                  lambda: FiniteGroup(s3_cayley())])
def test_group_axioms_sampled(make):
    g = make()
    rng = np.random.default_rng(7)
    elems = list(range(g.order))
    e = g.identity()
    for _ in range(200):
        a, b, c = rng.choice(elems, size=3)
        a, b, c = int(a), int(b), int(c)
        assert g.multiply(g.multiply(a, b), c) == g.multiply(a, g.multiply(b, c))
        assert g.multiply(a, g.inverse(a)) == e
        assert g.multiply(g.inverse(a), a) == e


def test_lattice_axioms_sampled(z2):
    rng = np.random.default_rng(11)
    e = z2.identity()
    for _ in range(200):
        a, b, c = (tuple(int(v) for v in rng.integers(-50, 50, size=2))
                   for _ in range(3))
        lhs = z2.multiply(z2.multiply(a, b), c)
        rhs = z2.multiply(a, z2.multiply(b, c))
        assert lhs == rhs
        assert z2.multiply(a, z2.inverse(a)) == e


def test_s3_is_nonabelian(s3_group):
    assert any(s3_group.multiply(a, b) != s3_group.multiply(b, a)
               for a in range(s3_group.order) for b in range(s3_group.order))
