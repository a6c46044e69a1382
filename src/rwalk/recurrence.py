"""Desk-scale recurrence certification for walks on discrete groups.

Four independent instruments, each honest about what it can and cannot
decide from finitely many terms:

  * return_series     exact n-step return probabilities p(n) at the identity
                      (dense convolution on lattices, tables.powers on
                      finite groups)
  * estimate_rho      spectral radius from the series along the period
                      subsequence (ratio estimator, root fallback)
  * r_recurrence_test divergence heuristic for sum p~(n) = sum R^n p(n), the
                      tilted walk's series; labeled heuristic, with thresholds
  * simulate_harris   Monte Carlo single-return fractions with deterministic
                      per-trajectory substreams (counter-based Philox keyed
                      by (seed, trajectory index), one worker by default)

plus the exact hitting-probability dynamic program used for the
translation-invariance identity h^{yB}(yx) = h^B(x).

On a lattice the series convolves on the walk's parity coset when it has
one: if a.u is odd for every atom u and some a in {0,1}^d, X_n lies in
a.x = n (mod 2), and the coordinates c_j = (a.x - n)/2 (other axes
unchanged) turn each atom into a fixed shift while the box along axis j
shrinks to about half.  Every cell equals the x-coordinate convolution
bit for bit (the cells left out held exact zeros), odd-n returns are
exact zeros and are not computed, and only the pairing sums p(2n) add
the same nonzero products in another layout, so they can differ from
an x-coordinate sum in the last few ulps.

The Monte Carlo kernels step dense (trajectories, steps) blocks.  A
chunk's Philox keys, those of SeedSequence(entropy=seed, spawn_key=(i,)),
come from one vectorized pass of numpy's SeedSequence hash, and one
generator per chunk fills every row slot, re-keyed to the row's stream
and block offset before each fill.  Each row is filled from its own
trajectory's stream in order, so the draws are those of one
random(horizon) call per trajectory, and an atom index
is a comparison sum over the cumulative probabilities (searchsorted above
_COMPARE_ATOMS atoms).  On a lattice a position is one int64 mixed-radix
key, sum_k x_k W_k with radix 2*horizon*r_k + 1 on axis k (r_k the
largest |atom coordinate|), which is injective on every reachable
position: a walk is one 1-D cumsum of atom keys and a hit is one key
comparison.  Targets out of reach are dropped first, since their keys
could equal reachable ones, and axes whose radix product would pass 2^63
get a key of their own.  The end position is decoded from the final key.
On a finite group a step is one lookup in a table whose extra absorbing
state stands for "has hit"; a trajectory stops drawing after the block of
its first hit, and a chunk stops once all its trajectories have hit.  Only
first hits count, so neither changes a result.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import HorizonTooLarge, InsufficientData
from .groups import FiniteGroup, Lattice
from .laws import Law
from .tables import (FunctionTable, LatticeBox, convolve, flush_free_steps, powers,
                     step)

HORIZON_CAP = {1: 5000, 2: 600, 3: 120}
HORIZON_CAP_FINITE = 10_000
DEFAULT_HORIZON = {1: 4000, 2: 600, 3: 120}
DEFAULT_HORIZON_FINITE = 2000

GROWTH_RECURRENT = 1.5
GROWTH_TRANSIENT = 1.05
# what a finite horizon leaves unsettled: Z13 with law {5: .1, 8: .9}
# reads rho_hat = 1 + 2.8e-10 at horizon 2000 (and 10.6 at horizon 60)
RHO_SLACK = 1e-6
WIDE_SUPPORT_RADIUS = 8

_MC_CHUNK = 256  # fixed chunk size so results never depend on worker count
# Monte Carlo blocks: lattice rows are stepped 16 trajectories x 1024 steps
# at a time, finite-group rows a whole chunk x 64 steps; either way a
# block of doubles is 128 KiB per worker.
_LATTICE_ROWS = 16
_BLOCK_STEPS = 1024
_FINITE_STEPS = 64
# The comparison sum costs K-1 passes, searchsorted one branchy pass that
# grows with log K; measured they cross near 160 atoms.  uint8 indices
# need K <= 256.
_COMPARE_ATOMS = 128
# numpy's SeedSequence hash constants and pool size (bit_generator.pyx)
_MASK32 = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4


class Verdict(str, Enum):
    R_RECURRENT = "RRecurrentHeuristic"
    TRANSIENT = "TransientHeuristic"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class ReturnSeries:
    probabilities: list  # p(n, e, {e}) for n = 0..horizon
    period: int          # gcd of {n >= 1 : p(n) > 0}; 0 if no returns seen
    horizon: int
    max_mass_error: float  # worst |total mass - 1| over all computed steps

    def nonzero_count(self) -> int:
        return sum(1 for p in self.probabilities if p > 0.0)


def default_horizon(law: Law) -> int:
    if isinstance(law.group, FiniteGroup):
        return DEFAULT_HORIZON_FINITE
    return DEFAULT_HORIZON[law.group.dim]


def _paired_origin_mass(f, lo_f, g, lo_g):
    """sum_x f(x) g(-x): the origin mass of the convolution of f and g,
    whose corners lo_f and lo_g are sequences of ints."""
    f_sl, g_sl = [], []
    for nf, lf, ng, lg in zip(f.shape, lo_f, g.shape, lo_g):
        a, b = max(lf, 1 - lg - ng), min(lf + nf - 1, -lg)
        if a > b:
            return 0.0
        f_sl.append(slice(a - lf, b - lf + 1))
        g_sl.append(slice(-b - lg, -a - lg + 1))
    return float(np.sum(f[tuple(f_sl)] * np.flip(g[tuple(g_sl)])))


def _coset_frame(law: Law):
    """Coordinates in which the walk's n-step laws fill half-size boxes.

    Returns (shifts, a, j).  `a` is the first a in {0,1}^d, a != 0, with
    a.u odd for every atom u, or None: with it every step flips the parity
    of a.x, so X_n lies in the coset a.x = n (mod 2) and no odd n returns.
    On that coset c_k = x_k for k != j and c_j = (a.x - n)/2 are integer
    coordinates in which atom u is the fixed shift s_k = u_k, s_j =
    (a.u - 1)/2.  j is the widest axis with a_j = 1, or None when the
    sheared span (max a.u - min a.u)/2 would not be narrower than that
    axis (then the shifts are the atoms themselves).  `shifts` is an
    (atoms, d) int64 array in the law's canonical atom order.
    """
    elems = np.array(list(law.atoms), dtype=np.int64)
    for a in itertools.product((0, 1), repeat=elems.shape[1]):
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


def _series_lattice(law: Law, horizon: int) -> ReturnSeries:
    """Exact convolution powers, paired around the midpoint.

    Since increments are i.i.d., p(m + n) = sum_x P(X_m = x) P(X_n = -x);
    reading p(2n) and p(2n+1) off consecutive half-way distributions keeps
    every value exact convolution arithmetic while the dense arrays only
    grow to half the horizon.  The arrays live in _coset_frame's
    coordinates, where -x at step n pairs with c at step m as
    -c - ((m + n)/2) e_j, and p(odd) = 0 is not computed on a period-2 walk.
    """
    dim = law.group.dim
    shifts, a, j = _coset_frame(law)
    atoms = list(zip(map(tuple, shifts.tolist()), law.atoms.values()))
    span = shifts.min(axis=0), shifts.max(axis=0)
    safe = flush_free_steps(law.atoms.values())
    pair_offset = [int(k == j) for k in range(dim)]   # p(k) moves g's corner by k/2 of it

    arr = np.ones((1,) * dim)
    lo = [0] * dim
    probs = [0.0] * (horizon + 1)
    probs[0] = 1.0
    worst_mass = 0.0
    for n in range(horizon // 2 + 1):
        if n >= 1:
            probs[2 * n] = _paired_origin_mass(arr, lo, arr,
                                               [c + n * k for c, k in zip(lo, pair_offset)])
        if 2 * n + 1 <= horizon:
            nxt = convolve(atoms, arr, span, flush=n + 1 > safe)
            nxt_lo = [c + int(s) for c, s in zip(lo, span[0])]
            worst_mass = max(worst_mass, abs(float(nxt.sum()) - 1.0))
            if a is None:
                probs[2 * n + 1] = _paired_origin_mass(arr, lo, nxt, nxt_lo)
            arr, lo = nxt, nxt_lo
    return _finish_series(probs, horizon, worst_mass)


def _series_finite(law: Law, horizon: int) -> ReturnSeries:
    e = law.group.identity()
    probs = [1.0]
    worst_mass = 0.0
    for f in powers(law, horizon):
        worst_mass = max(worst_mass, abs(float(f.sum()) - 1.0))
        probs.append(float(f[e]))
    return _finish_series(probs, horizon, worst_mass)


def _finish_series(probs, horizon, worst_mass) -> ReturnSeries:
    period = 0
    for n, p in enumerate(probs):
        if n >= 1 and p > 0.0:
            period = math.gcd(period, n)
    return ReturnSeries(probs, period, horizon, worst_mass)


def return_series(law: Law, horizon: int | None = None) -> ReturnSeries:
    """Exact p(n, e, {e}) for n = 0..horizon."""
    if horizon is None:
        horizon = default_horizon(law)
    if isinstance(law.group, FiniteGroup):
        cap = HORIZON_CAP_FINITE
    else:
        cap = HORIZON_CAP[law.group.dim]
    if horizon > cap:
        raise HorizonTooLarge(f"horizon {horizon} exceeds cap {cap} for {law.group}")
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    if isinstance(law.group, FiniteGroup):
        return _series_finite(law, horizon)
    return _series_lattice(law, horizon)


@dataclass(frozen=True)
class RhoEstimate:
    rho_hat: float
    method: str  # "ratio" or "root"


def estimate_rho(series: ReturnSeries, min_terms: int = 50) -> RhoEstimate:
    """Spectral radius from the series along the period subsequence.

    Primary: geometric ratio (p(n+g)/p(n))^(1/g) averaged over the last 10
    available n.  Secondary: p(n)^(1/n) at the largest n with p(n) > 0.
    No return series has a radius above 1: InsufficientData beyond 1 + RHO_SLACK.
    """
    if series.nonzero_count() < min_terms:
        raise InsufficientData(
            f"{series.nonzero_count()} nonzero terms < required {min_terms}")
    g = series.period
    if g == 0:
        raise InsufficientData("no returns observed; period undefined")
    p = series.probabilities
    pairs = [(n, n + g) for n in range(0, series.horizon - g + 1, g)
             if p[n] > 0.0 and p[n + g] > 0.0]
    if pairs:
        tail = pairs[-10:]
        rho_hat = math.fsum((p[b] / p[a]) ** (1.0 / g) for a, b in tail) / len(tail)
        method = "ratio"
    else:
        n = max(i for i, q in enumerate(p) if i >= 1 and q > 0.0)
        rho_hat, method = p[n] ** (1.0 / n), "root"
    if rho_hat > 1.0 + RHO_SLACK:
        raise InsufficientData(f"rho_hat = {rho_hat!r} > 1 + {RHO_SLACK}: not settled "
                               f"by horizon {series.horizon}; raise the series horizon")
    return RhoEstimate(rho_hat, method)


@dataclass(frozen=True)
class RecurrenceVerdict:
    partial_sums: list   # S_n = sum_{m<=n} p(m), n = 0..horizon
    growth_ratio: float  # S_N / S_{N//4}
    verdict: Verdict
    recurrent_threshold: float
    transient_threshold: float


def r_recurrence_test(series: ReturnSeries, *,
                      recurrent_threshold: float = GROWTH_RECURRENT,
                      transient_threshold: float = GROWTH_TRANSIENT) -> RecurrenceVerdict:
    """Divergence heuristic for the sum of the return series.

    On the tilted walk's series p~(n) = R^n p(n), divergence of the sum is
    R-recurrence of the original walk.  A divergent series of this kind
    grows like a power of N, so the late/early partial-sum ratio separates
    the regimes: for terms ~ c/sqrt(n) the ratio tends to 2, for a
    convergent tail it tends to 1.  Finitely many terms cannot decide
    divergence, hence the explicit thresholds and the heuristic labels.
    """
    if recurrent_threshold <= transient_threshold:
        raise ValueError(f"recurrent_threshold must be > transient_threshold, "
                         f"got {recurrent_threshold} <= {transient_threshold}")
    sums = list(itertools.accumulate(series.probabilities))
    growth = sums[series.horizon] / sums[series.horizon // 4]
    if growth >= recurrent_threshold:
        verdict = Verdict.R_RECURRENT
    elif growth <= transient_threshold:
        verdict = Verdict.TRANSIENT
    else:
        verdict = Verdict.INCONCLUSIVE
    return RecurrenceVerdict(sums, growth, verdict,
                             recurrent_threshold, transient_threshold)


@dataclass(frozen=True)
class HarrisResult:
    return_fraction: float
    ci_halfwidth: float
    trajectories: int
    horizon: int
    seed: int
    mean_displacement: tuple | None   # lattice only
    displacement_sem: tuple | None


def worker_count(requested: int | None = None) -> int:
    if requested is not None:
        if requested < 1:
            raise ValueError(f"workers must be >= 1, got {requested!r}")
        return requested
    env = os.environ.get("RWALK_THREADS")
    if env:
        try:
            count = int(env)
        except ValueError:
            count = 0  # reported below, like a non-positive count
        if count < 1:
            raise ValueError(f"RWALK_THREADS must be a positive integer number of "
                             f"worker threads, got {env!r}")
        return count
    return 1


def _philox_keys(seed: int, indices) -> np.ndarray:
    """Philox keys of SeedSequence(entropy=seed, spawn_key=(i,)) for every i,
    as an (n, 2) uint64 array, in one pass over the indices.

    This is numpy's SeedSequence hash (4-word pool) written out: the seed's
    words and every hash constant do not depend on i, so only the spawn-key
    word, mixed in last, is an array.  One uint32 word per index: i < 2^32.
    """
    idx = np.asarray(indices, dtype=np.uint64)
    if idx.size and int(idx.max()) >= 1 << 32:
        raise ValueError(f"trajectory index must be < 2**32, got {int(idx.max())}")
    words = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (_POOL - len(words))   # zero-padded, as before a spawn key
    hash_const = _INIT_A

    def hashmix(value, mult=_MULT_A):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * mult & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        r = (_MIX_L * x - _MIX_R * y) & _MASK32
        return r ^ r >> 16

    pool = [hashmix(w) for w in words[:_POOL]]
    for s in range(_POOL):
        for d in range(_POOL):
            if s != d:
                pool[d] = mix(pool[d], hashmix(pool[s]))
    for w in words[_POOL:] + [idx]:
        for d in range(_POOL):
            pool[d] = mix(pool[d], hashmix(w))
    # generate_state(2, np.uint64): four output words, paired little-endian
    hash_const = _INIT_B
    out = [hashmix(w, _MULT_B) for w in pool]
    return np.stack([out[0] | out[1] << 32, out[2] | out[3] << 32], axis=1)


def _atom_index(cum, u):
    """Atom drawn by each uniform u: the first k with u < cum[k], the last
    atom if cumulative rounding leaves cum[-1] below u.  This equals
    clip(searchsorted(cum, u, "right"), 0, K-1); below _COMPARE_ATOMS atoms
    the sum of K-1 comparisons is the faster way to compute it."""
    if len(cum) > _COMPARE_ATOMS:
        return np.minimum(np.searchsorted(cum, u, side="right"), len(cum) - 1)
    idx = np.zeros(u.shape, dtype=np.uint8)
    for c in cum[:-1]:
        idx += u >= c
    return idx


def _draw_blocks(keys, horizon, buf):
    """Yield the next uniforms of the trajectories keyed by `keys` (Philox
    keys as pairs of ints) as rows of (len(keys), block) views of buf, one
    time block at a time.  One generator fills every row, re-keyed through
    its public state to the row's stream t0 // 4 counter blocks in, with
    an empty buffer (a double takes one of the four words a block yields;
    widths are multiples of 4), so the draws are those of one
    random(horizon) per trajectory.  The caller may shrink keys between
    blocks to drop finished rows."""
    rng = np.random.Generator(np.random.Philox(key=0))
    state = {"bit_generator": "Philox", "buffer": (0, 0, 0, 0), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    for t0 in range(0, horizon, buf.shape[1]):
        block = buf[:len(keys), :min(buf.shape[1], horizon - t0)]
        for key, row in zip(keys, block):
            state["state"] = {"counter": (t0 // 4, 0, 0, 0), "key": key}
            rng.bit_generator.state = state
            rng.random(out=row)
        yield block


def _key_weights(reach):
    """Mixed-radix weights, one row per group of axes: axis k has radix
    2*reach[k] + 1, so sum_k x_k W_k is injective on |x_k| <= reach[k].
    An axis opens a new group when the group's radix product would pass
    2^63, so every key of a reachable position fits in an int64."""
    groups, prod = [], 0
    for k, m in enumerate(2 * int(r) + 1 for r in reach):
        if not groups or prod * m >= 2 ** 63:
            groups.append([0] * len(reach))
            prod = 1
        groups[-1][k] = prod
        prod *= m
    return np.array(groups, dtype=np.int64)


def _chunk_lattice(law_elems, cum, targets, horizon, seed, indices):
    dim = law_elems.shape[1]
    reach = horizon * np.abs(law_elems).max(axis=0)
    weights = _key_weights(reach)
    atom_keys = (law_elems @ weights.T).T                  # (groups, K)
    # a target out of reach on some axis would alias a reachable key
    tvecs = [t for t in targets if all(abs(c) <= m for c, m in zip(t, reach))]
    target_keys = np.array(tvecs, dtype=np.int64).reshape(-1, dim) @ weights.T
    buf = np.empty((_LATTICE_ROWS, _BLOCK_STEPS))
    hits = 0
    ends = np.empty((len(weights), len(indices)), dtype=np.int64)
    keys = _philox_keys(seed, indices).tolist()
    for s in range(0, len(indices), _LATTICE_ROWS):
        rows = keys[s:s + _LATTICE_ROWS]
        live = np.full(len(rows), len(target_keys) > 0)   # not yet hit
        at = np.zeros((len(weights), len(rows), 1), dtype=np.int64)
        for u in _draw_blocks(rows, horizon, buf):
            path = atom_keys.take(_atom_index(cum, u), axis=1)
            path[:, :, :1] += at
            np.cumsum(path, axis=2, out=path)
            at = path[:, :, -1:]
            if live.any():
                hit = np.zeros(len(rows), dtype=bool)
                for tk in target_keys:
                    hit |= (path == tk[:, None, None]).all(axis=0).any(axis=1)
                hits += int(np.count_nonzero(hit & live))
                live &= ~hit
        ends[:, s:s + len(rows)] = at[:, :, 0]
    # exact end positions, summed in trajectory order so the float sums
    # do not depend on the block shape
    d = _decode_keys(ends, weights, reach).astype(float)
    return hits, np.cumsum(d, axis=0)[-1], np.cumsum(d * d, axis=0)[-1]


def _decode_keys(keys, weights, reach):
    """Positions (n, dim) from their keys (groups, n): the inverse of
    x -> x @ weights.T on the box |x_k| <= reach[k]."""
    pos = np.empty((keys.shape[1], len(reach)), dtype=np.int64)
    for key, w in zip(keys, weights):
        digits = key + int(w @ reach)      # every digit x_k + reach[k] >= 0
        for k in np.flatnonzero(w):
            pos[:, k] = digits // w[k] % (2 * reach[k] + 1) - reach[k]
    return pos


def _chunk_finite(cayley, elems, cum, targets, horizon, seed, start_state, indices):
    order, n_atoms = len(cayley), len(elems)
    is_target = np.zeros(order, dtype=bool)
    is_target[list(targets)] = True
    # one absorbing state, `order`, that every step onto a target enters;
    # states are stored premultiplied by K so a step is one flat take
    after = cayley[:, elems]
    table = np.full((order + 1, n_atoms), order)
    table[:order] = np.where(is_target[after], order, after)
    table = (table * n_atoms).ravel()
    absorbed = order * n_atoms
    keys = _philox_keys(seed, indices).tolist()
    state = np.full(len(keys), start_state * n_atoms)
    buf = np.empty((len(keys), _FINITE_STEPS))
    hits = 0
    for u in _draw_blocks(keys, horizon, buf):
        for col in _atom_index(cum, u).T:
            state = table.take(state + col)
        # only first hits count: drop those rows and their streams
        done = state == absorbed
        hits += int(done.sum())
        keys[:] = [key for key, d in zip(keys, done) if not d]
        state = state[~done]
        if not keys:
            break
    return hits, None, None


def simulate_harris(law: Law, target, trajectories: int, horizon: int,
                    seed: int, workers: int | None = None) -> HarrisResult:
    """Fraction of walks from the identity that hit the target within horizon.

    Parameters
    ----------
    law : Law
        Increment law; one i.i.d. increment per step.
    target : iterable of elements
        Nonempty set B; a trajectory counts as returned on the first
        n >= 1 with X_n in B (the start is not counted).
    trajectories, horizon : int
        Number of walks and steps per walk.
    seed : int
        Master seed; trajectory i uses the Philox stream keyed by
        (seed, i), so results are bit-identical for a given seed no
        matter how trajectories are chunked across workers.
    workers : int or None
        Worker threads; None consults RWALK_THREADS, then uses 1.  One
        worker is the default because a second one was measured slower
        on every benchmark input; results do not depend on the count.

    Returns
    -------
    HarrisResult with the hit fraction, a 95% normal-approximation
    half-width, and (on lattices) the mean end displacement with its
    standard error, the zero-drift diagnostic.
    """
    targets = frozenset(target)
    if not targets:
        raise ValueError("target set must be nonempty")
    if trajectories < 1:
        raise ValueError("need at least one trajectory")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed!r}")
    for t in targets:
        law.group.validate_element(t)

    elems = list(law.atoms)
    cum = np.cumsum([law.atoms[x] for x in elems])
    chunks = [range(s, min(s + _MC_CHUNK, trajectories))
              for s in range(0, trajectories, _MC_CHUNK)]

    if isinstance(law.group, Lattice):
        evecs = np.array(elems, dtype=np.int64)
        run = lambda ix: _chunk_lattice(evecs, cum, targets, horizon, seed, ix)
    else:
        cay = law.group.cayley_array
        earr = np.array(elems, dtype=np.int64)
        start = law.group.identity()
        run = lambda ix: _chunk_finite(cay, earr, cum, targets, horizon, seed,
                                       start, ix)

    nworkers = worker_count(workers)
    if nworkers > 1 and len(chunks) > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=nworkers) as pool:
            parts = list(pool.map(run, chunks))
    else:
        parts = [run(ix) for ix in chunks]

    hits = sum(p[0] for p in parts)
    frac = hits / trajectories
    ci = 1.96 * math.sqrt(frac * (1.0 - frac) / trajectories)
    mean_disp = sem = None
    if isinstance(law.group, Lattice):
        # merge in fixed chunk order so float sums are reproducible
        dsum = np.zeros(law.group.dim)
        dsq = np.zeros(law.group.dim)
        for _, s, q in parts:
            dsum += s
            dsq += q
        mean = dsum / trajectories
        var = np.maximum(dsq / trajectories - mean * mean, 0.0)
        mean_disp = tuple(float(m) for m in mean)
        sem = tuple(float(x) for x in np.sqrt(var / trajectories))
    return HarrisResult(frac, ci, trajectories, horizon, seed, mean_disp, sem)


@dataclass(frozen=True)
class HittingTable:
    targets: frozenset
    horizon: int
    window: LatticeBox | None
    layers: list  # layers[n][x] = P_x(first visit to targets within n steps)


def hitting_dp(law: Law, targets, steps: int) -> HittingTable:
    """Exact finite-horizon hitting probabilities by backward recursion.

    Outside the window the probability is taken as 0 (absorbing
    truncation), which makes every layer a certified lower bound on the
    untruncated value; the window pushes the boundary steps *
    support_radius away from the targets, where it is unreachable, so the
    bound is exact.
    """
    targets = frozenset(targets)
    if not targets:
        raise ValueError("target set must be nonempty")
    group = law.group
    for t in targets:
        group.validate_element(t)
    if steps < 0:
        raise ValueError("steps must be >= 0")

    if isinstance(group, FiniteGroup):
        window, margin = None, 0
    else:
        margin = law.support_radius()
        pts = np.array(list(targets))
        window = LatticeBox(pts.min(axis=0) - steps * margin, pts.max(axis=0) + steps * margin)

    first = FunctionTable(group, window)
    for t in targets:
        first.values[first.index(t)] = 1.0
    target = first.values == 1.0
    layers = [first]
    for _ in range(steps):
        # zero padding is the absorbing truncation outside the window
        prev = np.pad(layers[-1].values, margin)
        layers.append(FunctionTable(group, window,
                                    np.where(target, 1.0, step(law, prev, margin))))
    return HittingTable(targets, steps, window, layers)


def check_translation_invariance(law: Law, targets, y, steps: int) -> float:
    """Max discrepancy of h_n over the window between the walk aimed at B
    and the walk aimed at yB with everything (targets, window, evaluation
    points) translated by y.  The identity is exact; with consistent
    windows the two dynamic programs perform identical arithmetic."""
    group = law.group
    group.validate_element(y)
    targets = frozenset(targets)
    base = hitting_dp(law, targets, steps)
    shifted_targets = frozenset(group.multiply(y, b) for b in targets)
    shifted = hitting_dp(law, shifted_targets, steps)
    # the shifted layer read at y*x, for every x; on a lattice the shifted
    # targets' window is the base window translated by y, so y+x is where x was
    at_yx = group.cayley_array[y] if isinstance(group, FiniteGroup) else Ellipsis
    return max(float(np.max(np.abs(b.values[at_yx] - a.values)))
               for a, b in zip(base.layers, shifted.layers))


@dataclass(frozen=True)
class RecurrenceReport:
    rho_series: float | None
    rho_method: str | None
    rho_spectral: float
    partial_sum_checkpoints: dict  # {"quarter": S_{N/4}, "half": ..., "final": ...}
    warnings: list
    series: ReturnSeries       # period, horizon and max_mass_error
    test: RecurrenceVerdict    # growth ratio, verdict and its thresholds
    verdict_theorem: str       # "RRecurrent" or "RTransient", from the group alone


def build_recurrence_report(tilted: Law, rho_spectral: float, *,
                            horizon: int | None = None,
                            recurrent_threshold: float = GROWTH_RECURRENT,
                            transient_threshold: float = GROWTH_TRANSIENT) -> RecurrenceReport:
    """Series + estimator + divergence heuristic of the tilted law, whose
    series is p~(n) = R^n p(n): rho_series = rho_spectral * rho_hat(p~).

    The walk is R-recurrent exactly when its tilted walk, irreducible with
    zero drift, is recurrent: on every finite group, and on Z^d exactly
    when d <= 2 (Chung-Fuchs 1951; Spitzer T8.1).  verdict_theorem reports
    that; the series verdict checks it numerically."""
    series = return_series(tilted, horizon)
    warnings = []
    if isinstance(tilted.group, Lattice) and tilted.support_radius() > WIDE_SUPPORT_RADIUS:
        warnings.append(
            f"support radius {tilted.support_radius()} > {WIDE_SUPPORT_RADIUS}: "
            "heuristic verdict thresholds are uncalibrated for wide supports")
    try:
        est = estimate_rho(series)
        rho_series, rho_method = rho_spectral * est.rho_hat, est.method
    except InsufficientData as exc:
        rho_series, rho_method = None, None
        warnings.append(f"rho estimate unavailable: {exc}")
    test = r_recurrence_test(series, recurrent_threshold=recurrent_threshold,
                             transient_threshold=transient_threshold)
    n = series.horizon
    checkpoints = {"quarter": test.partial_sums[n // 4],
                   "half": test.partial_sums[n // 2],
                   "final": test.partial_sums[n]}
    transient = isinstance(tilted.group, Lattice) and tilted.group.dim > 2
    theorem = "RTransient" if transient else "RRecurrent"
    return RecurrenceReport(rho_series, rho_method, rho_spectral, checkpoints,
                            warnings, series, test, theorem)
