"""Discrete groups with countable base: integer lattices and finite groups.

Elements are plain Python values: a length-d tuple of ints on a lattice,
an index in 0..order-1 on a finite group.  Both group kinds carry counting
Haar measure, so the modular function is identically 1 and left and right
Haar measures coincide.  Instances are immutable after construction and
safe to share across workers.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .errors import IndexOutOfRange


class Group:
    """Common interface: identity(), multiply(a, b), inverse(a)."""

    # Counting Haar measure makes the group unimodular; kept as a documented
    # constant rather than a configurable field.
    modular_delta = 1.0

    def identity(self):
        raise NotImplementedError

    def multiply(self, a, b):
        raise NotImplementedError

    def inverse(self, a):
        raise NotImplementedError

    def validate_element(self, a) -> None:
        raise NotImplementedError


class Lattice(Group):
    """Z^d under componentwise addition, d in {1, 2, 3}."""

    def __init__(self, dim: int):
        if not isinstance(dim, int) or not 1 <= dim <= 3:
            raise ValueError(f"lattice dimension must be 1, 2 or 3, got {dim!r}")
        self.dim = dim

    def identity(self) -> tuple:
        return (0,) * self.dim

    def multiply(self, a: tuple, b: tuple) -> tuple:
        return tuple(x + y for x, y in zip(a, b, strict=True))

    def inverse(self, a: tuple) -> tuple:
        return tuple(-x for x in a)

    def validate_element(self, a) -> None:
        if not (isinstance(a, tuple) and len(a) == self.dim
                and all(isinstance(x, int) for x in a)):
            raise ValueError(f"not a Z^{self.dim} element: {a!r}")

    def __eq__(self, other):
        return isinstance(other, Lattice) and other.dim == self.dim

    def __hash__(self):
        return hash(("lattice", self.dim))

    def __repr__(self):
        return f"Lattice(dim={self.dim})"


class FiniteGroup(Group):
    """Finite group given by an order x order Cayley table of element indices.

    The constructor validates that the table is a Latin square, that a
    two-sided identity index exists and that every element has a two-sided
    inverse, so any instance that exists is a genuine group... except for
    associativity, which is checked exhaustively only for order <= 64 (cost
    grows as order^3) and sampled otherwise.
    """

    def __init__(self, cayley):
        table = tuple(tuple(int(x) for x in row) for row in cayley)
        n = len(table)
        if n == 0:
            raise ValueError("empty Cayley table")
        idx = range(n)
        full = frozenset(idx)
        for i, row in enumerate(table):
            if len(row) != n:
                raise ValueError(f"Cayley row {i} has length {len(row)}, expected {n}")
        for i in idx:
            if frozenset(table[i]) != full:
                raise ValueError(f"Cayley table is not a Latin square: row {i}")
            if frozenset(table[j][i] for j in idx) != full:
                raise ValueError(f"Cayley table is not a Latin square: column {i}")
        ident = None
        for e in idx:
            if all(table[e][x] == x and table[x][e] == x for x in idx):
                ident = e
                break
        if ident is None:
            raise ValueError("Cayley table has no two-sided identity")
        inv = [None] * n
        for a in idx:
            for b in idx:
                if table[a][b] == ident and table[b][a] == ident:
                    inv[a] = b
                    break
            if inv[a] is None:
                raise ValueError(f"element {a} has no two-sided inverse")
        if n <= 64:
            triples = product(idx, repeat=3)
        else:
            step = max(1, n // 16)
            sample = range(0, n, step)
            triples = product(sample, repeat=3)
        for a, b, c in triples:
            if table[a][table[b][c]] != table[table[a][b]][c]:
                raise ValueError(f"Cayley table not associative at ({a},{b},{c})")

        self.cayley = table
        self.cayley_array = np.array(table, dtype=np.int64)
        self.cayley_array.flags.writeable = False
        self.order = n
        self._identity = ident
        self._inverse = tuple(inv)

    def identity(self) -> int:
        return self._identity

    def multiply(self, a: int, b: int) -> int:
        self.validate_element(a)
        self.validate_element(b)
        return self.cayley[a][b]

    def inverse(self, a: int) -> int:
        self.validate_element(a)
        return self._inverse[a]

    def elements(self) -> range:
        return range(self.order)

    def validate_element(self, a) -> None:
        if not isinstance(a, int) or isinstance(a, bool) or not 0 <= a < self.order:
            raise IndexOutOfRange(f"index {a!r} not in 0..{self.order - 1}")

    def __eq__(self, other):
        return isinstance(other, FiniteGroup) and other.cayley == self.cayley

    def __hash__(self):
        return hash(self.cayley)

    def __repr__(self):
        return f"FiniteGroup(order={self.order})"


def cyclic_group(n: int) -> FiniteGroup:
    """Z/nZ; the standard small example and the abelian finite showcase."""
    return FiniteGroup([[(i + j) % n for j in range(n)] for i in range(n)])
