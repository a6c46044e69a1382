"""Finite evaluation windows, function tables over them, and the two
dense kernels that every window and n-step computation goes through.

A table is a plain dense array: over a lattice box it is anchored at the
box corner, over a finite group it is indexed by the elements.  The kernel
that `stepper` sets up once per law and shape, in the law's canonical atom
order, applies (P f)(x) = sum_u mass(u) f(x u) to such an array.  A lattice
input loses law.support_radius() cells on every side, the points one step
could carry out of the box, so truncation is never extrapolated; the
hitting recursion steps one zero-bordered buffer, whose border is its
absorbing boundary.  Equal arrays give bit-identical outputs wherever the
box sits, which keeps translated computations exactly comparable.

`powers`, the forward counterpart, is the one n-step kernel: one contiguous
add per atom at a fixed flat offset, where a read past the m-step array
lands in zero padding and adding p * 0.0 leaves a non-negative cell as it
is, so the arrays are bit-identical to one d-dimensional slice add per atom;
step_frame picks the unimodular or parity-coset frame of its smallest box.
check_cells refuses a dense box past DENSE_CELL_LIMIT before it is allocated.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import WindowExceeded
from .groups import FiniteGroup, Group

UNDERFLOW_FLOOR = 1e-300
EXP_GUARD = 700.0  # largest |theta.x| exponentiated: exp(700) is about 1e304
DENSE_CELL_LIMIT = 1 << 22  # cells of one dense box or table: 32 MiB of float64
_TILE_CELLS = 1 << 14  # cells powers sums at once: 128 KiB, fastest of 2^12..2^16


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
    def centered(cls, radius: int, dim: int) -> "LatticeBox":
        return cls((-radius,) * dim, (radius,) * dim)

    @property
    def shape(self) -> tuple:
        return tuple(b - a + 1 for a, b in zip(self.lo, self.hi))

    def size(self) -> int:
        return math.prod(self.shape)

    def __eq__(self, other):
        return isinstance(other, LatticeBox) and (self.lo, self.hi) == (other.lo, other.hi)

    def __repr__(self):
        return f"LatticeBox(lo={self.lo}, hi={self.hi})"


class FunctionTable:
    """Namespace of `tabulate`, which builds a function's table on a window."""

    @classmethod
    def tabulate(cls, group: Group, fn, window: LatticeBox | None = None) -> np.ndarray:
        """Table of fn, evaluated once on the whole window, as a float array:
        of the box's shape with [0, ...] at window.lo on a lattice, of shape
        (order,) on a finite group.

        fn receives the window's coordinates as arrays: on a lattice the
        per-axis open grids of the box (np.ogrid), on a finite group the
        vector of element indices.  It returns values broadcastable to
        the window's shape.  A lattice needs a window; a finite group's is
        the whole group.
        """
        finite = isinstance(group, FiniteGroup)
        values = np.zeros((group.order,) if finite else window.shape)
        values[...] = fn(np.arange(group.order) if finite else
                         np.ogrid[tuple(slice(a, b + 1) for a, b in zip(window.lo, window.hi))])
        return values


def stepper(law, shape):
    """The one-step kernel for arrays of this shape, set up once: kernel(values)
    returns (P f)(x) = sum_u mass(u) f(x u) in its own buffer, which its next
    call overwrites, on every element of a finite group, on a lattice on the
    box shrunk by law.support_radius() on every side (WindowExceeded if too small).

    On a lattice each atom is one multiply-add, through one scratch buffer,
    over the flat span from the inner box's first cell to its last, read at
    the atom's fixed flat offset; the span's cells between rows are never
    returned.  On a finite group the atoms' Cayley columns, taken once, are
    gathered at once.  Either sum runs in atom order from the first product,
    not from 0.0 plus it: only a zero sum of -0.0 products, never met in a
    non-negative table, would tell the two apart.
    """
    if isinstance(law.group, FiniteGroup):
        columns = law.group.cayley_array[:, list(law.atoms)].T.copy()
        masses = np.array(list(law.atoms.values()))[:, None]
        acc = np.zeros(shape)

        def kernel(values):   # row i of the products: mass(u_i) f(x u_i) for every x
            return np.add.reduce(values[columns] * masses, axis=0, out=acc)
        return kernel
    margin = law.support_radius()
    if min(shape) <= 2 * margin:
        raise WindowExceeded(f"box of shape {tuple(shape)} too small to apply a step of "
                             f"support radius {margin}")
    strides = [math.prod(shape[k + 1:]) for k in range(len(shape))]
    first = margin * sum(strides)   # the inner box's first cell; its last is size - 1 - first
    (a0, p0), *rest = [(first + sum(c * s for c, s in zip(u, strides)), p)
                       for u, p in law.atoms.items()]
    acc = np.zeros(shape)
    n = acc.size - 2 * first   # cells of the span
    span, prod = acc.reshape(-1)[first:first + n], np.empty(n)
    out = acc[tuple(slice(margin, k - margin) for k in shape)]

    def kernel(values):
        flat = values.reshape(-1)
        np.multiply(flat[a0:a0 + n], p0, out=span)
        for a, p in rest:
            np.add(span, np.multiply(flat[a:a + n], p, out=prod), out=span)
        return out
    return kernel


def invariance_residual(law, fn, r: float, window: LatticeBox | None) -> float:
    """Max relative residual of f = r * P f, with f the table of fn on the
    window (FunctionTable.tabulate), over the points of the window that one
    step cannot carry outside it."""
    values = FunctionTable.tabulate(law.group, fn, window)
    margin = law.support_radius()
    ref = values[tuple(slice(margin, n - margin) for n in values.shape)]
    return float(np.max(np.abs(ref - r * stepper(law, values.shape)(values)) / ref))


def check_cells(shape, what: str) -> None:
    """WindowExceeded if a dense array of this shape would pass
    DENSE_CELL_LIMIT cells; `what` names the array in the message."""
    cells = math.prod(int(n) for n in shape)
    if cells > DENSE_CELL_LIMIT:
        raise WindowExceeded(f"{what} has {cells} cells, beyond the dense-array "
                             f"limit of {DENSE_CELL_LIMIT}")


def step_span(points, n: int) -> tuple:
    """Per-axis (lo, hi) of the lattice points and the origin, as int64 arrays.

    Steps within that span carry the origin onto the box n*lo .. n*hi in
    n steps, and each such box nests in the next.  check_cells refuses an
    n-step box beyond the limit, before anything is allocated.
    """
    pts = np.array(list(points), dtype=np.int64)
    lo = np.minimum(pts.min(axis=0), 0)
    hi = np.maximum(pts.max(axis=0), 0)
    check_cells(n * (hi - lo) + 1, f"the {n}-step box")
    return lo, hi


@functools.cache
def _frame_bases(dim: int, parity=None):
    """(rows, bases, halved), read-only: the rows of {-1,0,1}^dim, one of each
    pair +-b, unit vectors first, then for a parity a the coset rows 2e_k and
    b = a (mod 2); the bases, as row indices: the identity, the coset bases
    (|det| = 2^(dim-1)), the other unimodular ones; which rows are coset rows."""
    signs = [r for r in itertools.product((1, 0, -1), repeat=dim) if r > (0,) * dim]
    rows = sorted(signs, key=lambda r: sum(map(abs, r)))
    m = len(rows)
    if parity is not None:
        rows += [tuple(2 * (j == k) for j in range(dim)) for k in range(dim)]
        rows += [b for b in signs if tuple(c % 2 for c in b) == parity]
    rows = np.array(rows, dtype=np.int64)
    bases = np.array(list(itertools.combinations(range(len(rows)), dim)))   # rising indices
    dets = np.abs(np.linalg.det(rows[bases])).round()
    plain = bases[(bases[:, -1] < m) & (dets == 1)]
    coset = bases[(bases[:, 0] >= m) & (dets == 2 ** (dim - 1))]
    bases = np.concatenate([plain[:1], coset, plain[1:]])
    halved = np.arange(len(rows)) >= m
    rows.flags.writeable = bases.flags.writeable = halved.flags.writeable = False
    return rows, bases, halved


def step_frame(points, n: int, coset: bool = False):
    """The frame of the smallest n-step box of the lattice points, as (shifts,
    lo, hi, offset, basis): the points in its coordinates as a (points, d)
    int64 array, their step_span and its rows B.  A unimodular basis maps x
    to B x (offset None); with `coset`, if a.u is odd on every point u for
    some a in {0,1}^d (the first), a coset basis maps the n-step point x
    one to one to (B x - n offset)/2, offset_k = min_u b_k.u.  The first
    smallest box in _frame_bases order wins: x coordinates win ties."""
    pts = np.array(list(points), dtype=np.int64)
    dim = pts.shape[1]
    parity = next((a for a in itertools.product((0, 1), repeat=dim)
                   if any(a) and np.all(pts @ a % 2 == 1)), None) if coset else None
    rows, bases, halved = _frame_bases(dim, parity)
    proj = rows @ pts.T
    offset = np.where(halved, proj.min(axis=1), 0)
    proj = (proj - offset[:, None]) // (1 + halved[:, None])
    sides = n * (proj.max(axis=1, initial=0) - proj.min(axis=1, initial=0)) + 1.0
    k = bases[int(np.argmin(sides[bases].prod(axis=1)))]   # the first smallest box
    shifts = proj[k].T
    return (shifts, *step_span(shifts, n), offset[k] if halved[k].any() else None, rows[k])


def flush_free_steps(masses) -> float:
    """Largest step count m whose m-step array the powers flush cannot touch.

    Every positive cell of the m-step array is a sum of products of m atom
    masses, each rounded down by at most a factor 1 - 2^-53, so it is at
    least pmin^m (1 - 2^-53)^m.  That stays above UNDERFLOW_FLOOR while
    m ln(pmin) >= ln(UNDERFLOW_FLOOR) + 1; with pmin == 1 it always does.
    """
    pmin = min(masses)
    if pmin >= 1.0:
        return math.inf
    return (math.log(UNDERFLOW_FLOOR) + 1.0) / math.log(pmin)


def _shift_add(flat, moves) -> None:
    """Overwrite cell i of the flat array with the sum of p * flat[i - off]
    over (off >= 0, p) of `moves` in order, wherever i - off >= 0.  Tiles of
    _TILE_CELLS cells run from the end, each summed from zero in a buffer
    before it is written, so a tile reads only cells not yet written."""
    for a in reversed(range(0, flat.size, _TILE_CELLS)):
        b = min(a + _TILE_CELLS, flat.size)
        tile = np.zeros(b - a)
        for off, p in moves:   # a conditional, not max: it runs per tile and atom
            s = a if a > off else off
            if s < b:
                tile[s - a:] += p * flat[s - off:b - off]
        flat[a:b] = tile


def powers(law, n_max: int, frame=None):
    """Yield the law of X_n = u_1 ... u_n, n = 1..n_max, as dense arrays.

    On a lattice the n-th array is the box n*lo .. n*hi of the step_frame
    `frame`, whose shifts give each atom, in the law's canonical order, in
    its coordinates (default: x coordinates, step_span's box, refused past
    the limit before any array is built); the (n+1)-th adds mass(u) times
    the n-th at each shift u, read at one flat offset from the n-th copied
    to the corner of the (n+1)-th box, tile by tile (_shift_add; a 1D box
    of one tile reads the n-th itself), and flushes cells below
    UNDERFLOW_FLOOR beyond the flush_free_steps bound.  On a finite group
    the arrays are indexed by the elements, and each step gathers
    f(z u^-1) through the reversed law, the law of X_n u (right
    multiplication, as Law.convolve).
    """
    group = law.group
    if isinstance(group, FiniteGroup):
        kernel = stepper(law.dual(), (group.order,))
        f = np.zeros(group.order)
        f[group.identity()] = 1.0
        for _ in range(n_max):
            f = kernel(f).copy()   # the kernel's next call overwrites its output
            yield f
        return
    if frame is None:   # x coordinates
        frame = list(law.atoms), *step_span(law.atoms, n_max)
    shifts, lo, hi = frame[:3]
    safe = flush_free_steps(law.atoms.values())
    places, masses = np.array(shifts) - lo, list(law.atoms.values())   # from the box corner
    moves = list(zip(places[:, 0].tolist(), masses))   # the 1D offsets, fixed
    grow = (hi - lo).tolist()
    f = np.ones((1,) * group.dim)
    for m in range(1, n_max + 1):
        new = np.zeros([m * g + 1 for g in grow])
        if group.dim == 1 and new.size <= _TILE_CELLS:   # one tile: no copy, no tiles
            for off, p in moves:
                new[off:off + f.size] += p * f
        else:
            new[tuple(map(slice, f.shape))] = f
            del f   # with the caller's reference gone, one box less at the peak
            moves = list(zip((places @ new.strides // new.itemsize).tolist(), masses))
            _shift_add(new.reshape(-1), moves)
        if m > safe:
            tiny = (new > 0.0) & (new < UNDERFLOW_FLOOR)
            if tiny.any():
                new[tiny] = 0.0
        f = new
        yield f
