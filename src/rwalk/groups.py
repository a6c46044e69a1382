"""Discrete groups with countable base: integer lattices and finite groups.

Elements are plain Python values: a length-d tuple of ints on a lattice,
an index in 0..order-1 on a finite group.  Both group kinds carry counting
Haar measure, so the modular function is identically 1 and left and right
Haar measures coincide.  Instances are immutable after construction and
safe to share across workers.
"""

from __future__ import annotations

import numpy as np

from .errors import IndexOutOfRange


class Group:
    """Common base: identity(), multiply(a, b), inverse(a), validate_element(a)."""


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

    The table is kept once, as the read-only int64 array `cayley_array`,
    validated as a Latin square with a two-sided identity and two-sided
    inverses, so any instance that exists is a genuine group... except for
    associativity, which is checked exhaustively only for order <= 64 (cost
    grows as order^3) and on sampled triples otherwise.  A rejection names
    the first offender in index order, a row before its column.
    """

    def __init__(self, cayley):
        rows = list(cayley)
        n = len(rows)
        if n == 0:
            raise ValueError("empty Cayley table")
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValueError(f"Cayley row {i} has length {len(row)}, expected {n}")
        table = np.array(rows, dtype=np.int64)
        idx = np.arange(n)
        # seen[k, i, v]: value v occurs in row (k = 0) or column (k = 1) i;
        # v = n collects the out-of-range entries
        seen = np.zeros((2, n, n + 1), dtype=bool)
        vals = np.where((table >= 0) & (table < n), table, n)
        seen[0, idx[:, None], vals] = True
        seen[1, idx, vals] = True
        bad = ~seen[:, :, :n].all(axis=2)
        if bad.any():
            i = int(np.argmax(bad.any(axis=0)))
            kind = "row" if bad[0, i] else "column"
            raise ValueError(f"Cayley table is not a Latin square: {kind} {i}")
        two_sided = (table == idx).all(axis=1) & (table == idx[:, None]).all(axis=0)
        if not two_sided.any():
            raise ValueError("Cayley table has no two-sided identity")
        ident = int(np.argmax(two_sided))
        # a Latin row holds ident exactly once: inv[a] is its column
        inv = np.argmax(table == ident, axis=1)
        lonely = table[inv, idx] != ident
        if lonely.any():
            raise ValueError(f"element {int(np.argmax(lonely))} has no two-sided inverse")
        sample = idx if n <= 64 else idx[::max(1, n // 16)]
        sub = table[sample[:, None], sample]
        clash = table[sample[:, None, None], sub] != table[sub[:, :, None], sample]  # a(bc), (ab)c
        if clash.any():
            a, b, c = sample[list(np.unravel_index(np.argmax(clash), clash.shape))]
            raise ValueError(f"Cayley table not associative at ({a},{b},{c})")
        table.flags.writeable = False
        self.cayley_array = table
        self.order = n
        self._identity = ident
        self._inverse = tuple(inv.tolist())

    def identity(self) -> int:
        return self._identity

    def multiply(self, a: int, b: int) -> int:
        self.validate_element(a)
        self.validate_element(b)
        return int(self.cayley_array[a, b])

    def inverse(self, a: int) -> int:
        self.validate_element(a)
        return self._inverse[a]

    def validate_element(self, a) -> None:
        if not isinstance(a, int) or isinstance(a, bool) or not 0 <= a < self.order:
            raise IndexOutOfRange(f"index {a!r} not in 0..{self.order - 1}")

    def __eq__(self, other):
        return (isinstance(other, FiniteGroup)
                and np.array_equal(other.cayley_array, self.cayley_array))

    def __hash__(self):
        return hash(self.cayley_array.tobytes())

    def __repr__(self):
        return f"FiniteGroup(order={self.order})"

