"""Finite evaluation windows, function tables over them, and the two
dense kernels that every window and n-step computation goes through.

A table is a dense array: over a lattice box it is anchored at the box
corner, over a finite group it is indexed by the elements.  `step`
applies the one-step operator (P f)(x) = sum_u mass(u) f(x u) to such an
array: on a lattice as one shifted slice per atom, on a finite group as
one gather through the Cayley table per atom, always in the law's
canonical atom order.  A lattice input loses `margin` cells on every side,
the points one step could carry out of the box, so truncation is never
extrapolated; the hitting recursion pads with zeros first, which is its
absorbing boundary.  Equal arrays give bit-identical outputs wherever the
box sits, which keeps translated computations exactly comparable.

`convolve` is the forward counterpart on a lattice: from the law of X on
a box it builds the law of X + u, u ~ law, on the box grown by one
step's span, as shifted scaled adds in the order the caller passes the
atoms (the law's canonical order; the return series passes the same
atoms as shifts in its coset coordinates), flushing cells below
UNDERFLOW_FLOOR to zero as Law.convolve drops such atoms.  The flush
costs three passes over the box and cannot fire while every positive
cell of the m-step array, at least pmin^m (1 - 2^-53)^m for the smallest
atom mass pmin, stays above the floor: both callers (`powers` and the
return series) skip it while m ln(pmin) >= ln(UNDERFLOW_FLOOR) + 1, and
never flush when pmin == 1 (flush_free_steps).  (On a finite
group the same step is `step` with the reversed law.)  `powers` iterates
either one to give the n-step laws as dense arrays.  Dense n-step boxes
grow as n^d, so callers check their size against DENSE_CELL_LIMIT
before allocating.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import WindowExceeded
from .groups import FiniteGroup, Group

UNDERFLOW_FLOOR = 1e-300
DENSE_CELL_LIMIT = 1 << 22  # cells of one dense n-step box: 32 MiB of float64


class LatticeBox:
    """Axis-aligned box of lattice points, bounds inclusive."""

    def __init__(self, lo: tuple, hi: tuple):
        lo = tuple(int(x) for x in lo)
        hi = tuple(int(x) for x in hi)
        if len(lo) != len(hi):
            raise ValueError("box corner dimensions differ")
        if any(a > b for a, b in zip(lo, hi)):
            raise ValueError(f"empty box: lo={lo} hi={hi}")
        self.lo = lo
        self.hi = hi

    @classmethod
    def centered(cls, radius: int, dim: int, center: tuple | None = None) -> "LatticeBox":
        c = center if center is not None else (0,) * dim
        return cls(tuple(x - radius for x in c), tuple(x + radius for x in c))

    @property
    def shape(self) -> tuple:
        return tuple(b - a + 1 for a, b in zip(self.lo, self.hi))

    def size(self) -> int:
        n = 1
        for a, b in zip(self.lo, self.hi):
            n *= b - a + 1
        return n

    def __eq__(self, other):
        return isinstance(other, LatticeBox) and (self.lo, self.hi) == (other.lo, other.hi)

    def __repr__(self):
        return f"LatticeBox(lo={self.lo}, hi={self.hi})"


class FunctionTable:
    """Real-valued function tabulated on a window (lattice box or whole finite group).

    `values` is a float array, zero unless given: of the box's shape with
    `values[0, ...]` at `window.lo` on a lattice, of shape (order,) on a
    finite group.
    """

    def __init__(self, group: Group, window: LatticeBox | None, values=None):
        if isinstance(group, FiniteGroup):
            window = None  # whole group
            shape = (group.order,)
        elif window is None:
            raise ValueError("lattice tables need an explicit window")
        else:
            shape = window.shape
        self.group = group
        self.window = window
        self.values = np.zeros(shape) if values is None else values

    @classmethod
    def tabulate(cls, group: Group, fn, window: LatticeBox | None = None) -> "FunctionTable":
        """Table of fn, evaluated once on the whole window.

        fn receives the window's coordinates as arrays: on a lattice the
        per-axis open grids of the box (np.ogrid), on a finite group the
        vector of element indices.  It returns values broadcastable to
        the window's shape.
        """
        table = cls(group, window)
        if table.window is None:
            table.values[...] = fn(np.arange(group.order))
        else:
            box = table.window
            table.values[...] = fn(np.ogrid[tuple(slice(a, b + 1)
                                                  for a, b in zip(box.lo, box.hi))])
        return table

    def index(self, x):
        """Array index of the point x; WindowExceeded if x is outside the window."""
        shape = self.values.shape
        if self.window is None:
            inside = isinstance(x, int) and 0 <= x < shape[0]
            idx = x
        else:
            idx = tuple(c - a for c, a in zip(x, self.window.lo))
            inside = len(x) == len(shape) and all(0 <= i < n for i, n in zip(idx, shape))
        if not inside:
            raise WindowExceeded(f"point {x!r} outside table window")
        return idx

    def __getitem__(self, x) -> float:
        return float(self.values[self.index(x)])


def step(law, values: np.ndarray, margin: int) -> np.ndarray:
    """One-step transition operator (P f)(x) = sum_u mass(u) f(x u).

    On a lattice, `values` is f on a box and the result is P f on the box
    shrunk by `margin` on every side; WindowExceeded if an atom reaches
    further than `margin` or the box is too small to shrink.  On a finite
    group `values` is f on every element and `margin` must be 0.
    """
    if isinstance(law.group, FiniteGroup):
        cayley = law.group.cayley_array
        out = np.zeros(values.shape)
        for u, p in law.atoms.items():
            out += p * values[cayley[:, u]]
        return out
    inner = tuple(n - 2 * margin for n in values.shape)
    if law.support_radius() > margin or min(inner) < 1:
        raise WindowExceeded(
            f"box of shape {values.shape} too small to apply a step of support "
            f"radius {law.support_radius()} with margin {margin}")
    out = np.zeros(inner)
    for u, p in law.atoms.items():
        out += p * values[tuple(slice(margin + c, margin + c + n) for c, n in zip(u, inner))]
    return out


def invariance_residual(law, table: FunctionTable, r: float) -> float:
    """Max relative residual of f = r * P f over the points of the table's
    window that one step cannot carry outside it."""
    margin = 0 if table.window is None else law.support_radius()
    image = step(law, table.values, margin)
    ref = table.values[tuple(slice(margin, n - margin) for n in table.values.shape)]
    return float(np.max(np.abs(ref - r * image) / ref))


def support_span(law) -> tuple:
    """Per-axis (lowest, highest) atom coordinates of a lattice law, as int64 arrays."""
    elems = np.array(list(law.atoms), dtype=np.int64)
    return elems.min(axis=0), elems.max(axis=0)


def flush_free_steps(masses) -> float:
    """Largest step count m whose m-step array convolve's flush cannot touch.

    Every positive cell of the m-step array is a sum of products of m atom
    masses, each rounded down by at most a factor 1 - 2^-53, so it is at
    least pmin^m (1 - 2^-53)^m.  That stays above UNDERFLOW_FLOOR while
    m ln(pmin) >= ln(UNDERFLOW_FLOOR) + 1; with pmin == 1 it always does.
    """
    pmin = min(masses)
    if pmin >= 1.0:
        return math.inf
    return (math.log(UNDERFLOW_FLOOR) + 1.0) / math.log(pmin)


def convolve(atoms, values: np.ndarray, span: tuple, flush: bool = True) -> np.ndarray:
    """One exact convolution step on a dense lattice box.

    `values` is the law of X on a box; the result is the law of X + u on
    the box grown by span = (off_lo, off_hi), where `atoms` yields the
    (shift, mass) pairs of u in the order they are added and
    off_lo <= every shift <= off_hi per axis, so the corner moves by off_lo.
    flush=False skips the underflow flush, for callers that know from
    flush_free_steps that it cannot fire.
    """
    lo = [int(l) for l in span[0]]
    shape = values.shape
    new = np.zeros(tuple(n + int(h) - l for n, l, h in zip(shape, lo, span[1])))
    for e, p in atoms:
        new[tuple(slice(c - l, c - l + n) for c, l, n in zip(e, lo, shape))] += p * values
    if flush:
        tiny = (new > 0.0) & (new < UNDERFLOW_FLOOR)
        if tiny.any():
            new[tiny] = 0.0
    return new


def powers(law, n_max: int, span: tuple | None = None):
    """Yield the law of X_n = u_1 ... u_n, n = 1..n_max, as dense arrays.

    On a lattice the n-th array is anchored at n * span[0] and grows by
    `span` (default: the support's own) per step; on a finite group it is
    indexed by the elements, and each step gathers f(z u^-1) through the
    reversed law, the law of X_n u (right multiplication, as Law.convolve).
    """
    group = law.group
    if isinstance(group, FiniteGroup):
        reversed_law = law.dual()
        f = np.zeros(group.order)
        f[group.identity()] = 1.0
        for _ in range(n_max):
            f = step(reversed_law, f, 0)
            yield f
        return
    span = span if span is not None else support_span(law)
    safe = flush_free_steps(law.atoms.values())
    f = np.ones((1,) * group.dim)
    for m in range(1, n_max + 1):
        f = convolve(law.atoms.items(), f, span, flush=m > safe)
        yield f
