"""Finite-support probability laws on a discrete group.

A Law stores its atoms in a canonical sorted order so that every
reduction over the support (mass sums, convolutions, expectations) is
performed in a deterministic order; combined with math.fsum this makes
results reproducible bit-for-bit across construction paths.

Convolution is exact dictionary arithmetic with one honesty rule: atoms
whose mass falls below UNDERFLOW_FLOOR are dropped and the dropped mass
is accumulated into the `mass_leak` diagnostic.  Nothing is renormalized;
drift of the total mass is measured, never hidden.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .errors import ExponentOverflow, GroupMismatch, WindowExceeded
from .groups import FiniteGroup, Group
from .tables import EXP_GUARD, UNDERFLOW_FLOOR, LatticeBox, check_cells

STRICT_SUM_TOL = 1e-12
CONVOLVE_SUM_TOL = 1e-10


class Law:
    """Probability measure with finite support on a discrete group; `arrays` is
    its read-only array form, built once, on first use."""

    def __init__(self, group: Group, atoms, *, sum_tol: float = STRICT_SUM_TOL,
                 mass_leak: float = 0.0):
        pairs = sorted(dict(atoms).items())
        if not pairs:
            raise ValueError("law needs at least one atom")
        for x, p in pairs:
            group.validate_element(x)
            if not p > 0.0:
                raise ValueError(f"atom {x!r} has non-positive mass {p!r}")
        total = math.fsum(p for _, p in pairs)
        if abs(total - 1.0) > sum_tol:
            raise ValueError(f"law mass {total!r} differs from 1 by more than {sum_tol}")
        self.group = group
        self.atoms = dict(pairs)
        self.mass_leak = mass_leak

    @functools.cached_property
    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only float64 elements, (n, d) on Z^d, and masses (n,), in atom order."""
        x = np.array(list(self.atoms), dtype=float)
        p = np.fromiter(self.atoms.values(), float, len(x))
        x.flags.writeable = p.flags.writeable = False
        return x, p

    @classmethod
    def point_mass(cls, group: Group, x=None) -> "Law":
        e = group.identity() if x is None else x
        return cls(group, {e: 1.0})

    def mass(self) -> float:
        return math.fsum(self.atoms.values())

    def support_radius(self) -> int:
        """Reach of one step: the support's Chebyshev radius, 0 on a finite group."""
        if isinstance(self.group, FiniteGroup):
            return 0
        return max(max(abs(c) for c in x) for x in self.atoms)

    def convolve(self, other: "Law") -> "Law":
        """Law of X+increment: mass(z) = sum over xy=z of self(x)*other(y)."""
        if other.group != self.group:
            raise GroupMismatch(f"cannot convolve laws on {self.group} and {other.group}")
        mul = self.group.multiply
        out: dict = {}
        for x, p in self.atoms.items():
            for y, q in other.atoms.items():
                z = mul(x, y)
                out[z] = out.get(z, 0.0) + p * q
        leak = self.mass_leak + other.mass_leak
        kept = {}
        for z, m in out.items():
            if m < UNDERFLOW_FLOOR:
                leak += m
            else:
                kept[z] = m
        return Law(self.group, kept, sum_tol=CONVOLVE_SUM_TOL, mass_leak=leak)

    def power(self, n: int) -> "Law":
        """n-fold convolution power; n = 0 gives the point mass at the identity."""
        if n < 0:
            raise ValueError("power needs n >= 0")
        acc = Law.point_mass(self.group)
        for _ in range(n):
            acc = acc.convolve(self)
        return acc

    def dual(self) -> "Law":
        """Law of the reversed walk: mass at x^-1 equals this law's mass at x."""
        inv = self.group.inverse
        return Law(self.group, {inv(x): p for x, p in self.atoms.items()},
                   sum_tol=CONVOLVE_SUM_TOL, mass_leak=self.mass_leak)

    def is_symmetric(self) -> bool:
        """Equal to its reversal: the same support, masses within 1e-14."""
        d = self.dual()
        if set(d.atoms) != set(self.atoms):
            return False
        return all(abs(d.atoms[x] - p) <= 1e-14 for x, p in self.atoms.items())

    def __eq__(self, other):
        return (isinstance(other, Law) and other.group == self.group
                and other.atoms == self.atoms)

    def __repr__(self):
        inner = ", ".join(f"{x}: {p:.6g}" for x, p in self.atoms.items())
        return f"Law({self.group}, {{{inner}}})"


class IrreducibilityResult(NamedTuple):
    irreducible: bool
    witness: str
    degenerate: bool   # lattice support in a closed half-space: no interior minimizer


def _sublattice_index(vectors, dim: int) -> int:
    """Index of the subgroup of Z^d generated by the vectors.

    Each vector is reduced into an echelon basis, one row per pivot column
    (a zero row until filled), by Euclid's algorithm on each column.  The
    index is |product of pivots|, the |det| of the basis, 0 below rank d;
    once every pivot is +-1 no later vector can change it.
    """
    pivots = [[0] * dim for _ in range(dim)]
    for v in vectors:
        r = list(v)
        for k, b in enumerate(pivots):
            while r[k]:
                q = b[k] // r[k]
                b, r = r, [x - q * y for x, y in zip(b, r)]
            pivots[k] = b
        if all(abs(b[k]) == 1 for k, b in enumerate(pivots)):
            return 1
    return abs(math.prod(b[k] for k, b in enumerate(pivots)))


_SEPARATION_BLOCK = 512  # candidate rows tested against the support at once


def _separating_direction(vectors, dim: int, index: int | None = None):
    """Exact test for a closed half-space containing every vector.

    Returns an integer direction u != 0 with u.s <= 0 for all s, or None
    when the origin is interior to the convex hull.  If such a u exists,
    one exists among the perpendiculars/cross products enumerated below
    (an extreme ray of the polar cone activates dim-1 independent
    constraints), so the search is exhaustive, not heuristic.  Candidates
    are built in one array, each followed by its negation, and tested in
    blocks of rows; the first passing row in enumeration order is returned.
    Every u.s is at most 6 c^3 for coordinates up to c; below 2^53 float64
    holds every candidate and product exactly, larger supports are tested
    in Python integers.  The search is skipped when the vectors v with -v
    also among them span R^d (integer rank, _sublattice_index != 0): then
    u.v <= 0 and u.(-v) <= 0 force u.v = 0 on a spanning set, so u = 0.
    `index`, the vectors' own _sublattice_index, is reused when every nonzero
    vector's negation is among them, as then both are indices of one lattice.
    """
    nz = [s for s in vectors if any(s)]
    if not nz:
        return (1,) + (0,) * (dim - 1)
    present = set(nz)
    sym = [s for s in nz if tuple(-x for x in s) in present]
    if index is None or len(sym) < len(nz):
        index = _sublattice_index(sym, dim)
    if index:
        return None
    c = max(abs(x) for s in nz for x in s)
    nz = np.array(nz, dtype=float if 6 * c ** 3 < 2 ** 53 else object)
    if dim == 1:
        base = np.array([[1]])
    elif dim == 2:
        base = np.stack([-nz[:, 1], nz[:, 0]], axis=1)
    else:
        # pairs (s_i, t) with t running over s_{i+1}, ..., then the three axes
        others = np.concatenate([nz, np.eye(3, dtype=nz.dtype)])
        i, j = np.nonzero(np.arange(len(others)) > np.arange(len(nz))[:, None])
        base = np.cross(nz[i], others[j])
        base = base[base.any(axis=1)]
    cand = np.stack([base, -base], axis=1).reshape(-1, dim)
    for start in range(0, len(cand), _SEPARATION_BLOCK):
        block = cand[start:start + _SEPARATION_BLOCK]
        hits = np.flatnonzero(np.all(block @ nz.T <= 0, axis=1))
        if hits.size:
            return tuple(int(v) for v in block[hits[0]])
    return None


def default_window(law: Law, theta=(), radius: int | None = None):
    """The check window of eq1, dual and measure at the exponent theta: the
    centered box of the given radius (the spec's window_radius), by default the
    support box, whose one interior point is the origin; on Z^d P phi = Lambda phi
    at every x, so a wider box adds only the rounding of phi at large |x|.  A box
    past DENSE_CELL_LIMIT cells or the EXP_GUARD, or below the support radius, is
    refused, naming why; None on a finite group."""
    if isinstance(law.group, FiniteGroup):
        return None
    dim, reach, slope = law.group.dim, law.support_radius(), sum(abs(t) for t in theta)
    widest = EXP_GUARD // slope if slope else math.inf   # |theta.x| <= r * slope at radius r
    widest += (widest + 1) * slope <= EXP_GUARD   # largest r with r * slope <= EXP_GUARD
    if widest < reach:
        raise ExponentOverflow(f"one step reaches exponent {reach * slope:.2f}, beyond the "
                               f"+/-{EXP_GUARD} guard, so no check window fits")
    what = f"the check window of window_radius {radius}"
    if radius is None:
        radius, what = reach, f"the smallest check window, of radius {reach},"
    check_cells((2 * radius + 1,) * dim, what)
    if radius < reach:
        raise WindowExceeded(f"window_radius {radius} is below the support radius {reach}; "
                             f"set window_radius {reach} or more in the spec's options")
    if radius * slope > EXP_GUARD:
        raise ExponentOverflow(
            f"exponent {radius * slope:.2f} on the check window of radius {radius} is "
            f"beyond the +/-{EXP_GUARD} guard; set window_radius {widest:.0f} or less in "
            "the spec's options")
    return LatticeBox.centered(radius, dim)


def check_irreducible(law: Law) -> IrreducibilityResult:
    """Does the closed semigroup generated by the support equal the group?

    Finite group: breadth-first closure of the support under multiplication
    (a finite subsemigroup of a group is a subgroup, so closure suffices).
    Lattice: the semigroup is all of Z^d exactly when (a) the subgroup
    generated by the support is Z^d (its index is 1) and
    (b) the origin is interior to the convex hull of the support.
    """
    group = law.group
    if isinstance(group, FiniteGroup):
        support = list(law.atoms)
        reached = set(support)
        frontier = list(support)
        while frontier:
            new = []
            for a in frontier:
                for b in support:
                    c = group.multiply(a, b)
                    if c not in reached:
                        reached.add(c)
                        new.append(c)
            frontier = new
        full = len(reached) == group.order
        witness = ("support closure generates every element" if full else
                   f"support closure reaches {len(reached)} of {group.order} elements")
        return IrreducibilityResult(full, witness, False)

    vectors = list(law.atoms)
    dim = group.dim
    index = _sublattice_index(vectors, dim)
    u = _separating_direction(vectors, dim, index)
    if index == 0:
        witness = f"support spans a sublattice of rank < {dim}"
    elif index != 1:
        witness = f"support generates a sublattice of index {index}"
    elif u is not None:
        witness = ("semigroup generated stays in the half-space with outward normal "
                   f"{u} (origin not interior to support hull)")
    else:
        return IrreducibilityResult(
            True, "support lattice is Z^d and origin is interior to the support hull", False)
    return IrreducibilityResult(False, witness, u is not None)
