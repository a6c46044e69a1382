"""Desk-scale recurrence certification for walks on discrete groups.

Four independent instruments, each honest about what it can and cannot
decide from finitely many terms:

  * return_series     exact n-step return probabilities p(n) at the identity
                      (the dense n-step laws of tables.powers, on a lattice
                      paired around the midpoint)
  * estimate_rho      spectral radius from the series along the period
                      subsequence (ratio estimator, root fallback)
  * r_recurrence_test divergence heuristic for sum p~(n) = sum R^n p(n), the
                      tilted walk's series; labeled heuristic, with thresholds
  * simulate_harris   Monte Carlo single-return fractions with deterministic
                      per-trajectory substreams (counter-based Philox keyed
                      by (seed, trajectory index)), chunks claimed from
                      one queue by forked processes, one per CPU

plus the exact hitting-probability dynamic program used for the
translation-invariance identity h^{yB}(yx) = h^B(x).

On a lattice the series steps tables.powers, whose size limit bounds it
too, in the frame of the smallest half-horizon box (tables.step_frame):
a unimodular basis, or a basis of the walk's parity coset, where odd-n
returns are exact zeros and are not computed.  Every cell equals the
x-coordinate convolution bit for bit; only the pairing sums p(2n) can
differ from an x-coordinate sum in the last ulps.

The Monte Carlo runs chunks of _MC_CHUNK trajectories in forked processes
that claim them from one token pipe, while the caller first does other
work it is handed, such as the return series (_run_chunks); parts merge in
chunk order.  Its kernels step dense (trajectories,
steps) blocks of raw Philox words (_philox_keys, _word_thresholds).  A
lattice row slot's generator is keyed once per trajectory and continues its
stream; a finite-group row, which mostly hits within a block or two, is
re-keyed per block.  On a lattice a position is one int64 mixed-radix key
(_key_weights), a walk a 1-D cumsum of atom keys and a hit one key
comparison; a row that has hit only sums its atom keys.  On a finite group
a step is one lookup in a table with an absorbing "has hit" state, and a
row stops after the block of its first hit.  Only first hits count, so
neither changes a result.
"""

from __future__ import annotations

import itertools
import math
import os
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import HorizonTooLarge, InsufficientData, WindowExceeded
from .groups import FiniteGroup, Lattice
from .laws import Law
from .tables import FunctionTable, LatticeBox, check_cells, powers, step_frame, stepper

# (default, cap) of the return-series horizon per lattice dimension, and finite
SERIES_HORIZON = {1: (4000, 5000), 2: (600, 600), 3: (120, 120)}
SERIES_HORIZON_FINITE = (2000, 10_000)

GROWTH_RECURRENT = 1.5
GROWTH_TRANSIENT = 1.05
# what a finite horizon leaves unsettled: Z13 with law {5: .1, 8: .9}
# reads rho_hat = 1 + 2.8e-10 at horizon 2000 (and 10.6 at horizon 60)
RHO_SLACK = 1e-6
MIN_TERMS = 50  # nonzero series terms estimate_rho needs
WIDE_SUPPORT_RADIUS = 8

_MC_CHUNK = 256  # fixed chunk size so results never depend on worker count
_TOKEN = 2       # bytes of one claim token, a unit index (_run_chunks)
# Monte Carlo blocks: 16 lattice rows x 1024 steps, or a finite-group chunk
# x 64 steps; either way 128 KiB of words per worker.
_LATTICE_ROWS = 16
_BLOCK_STEPS = 1024
_FINITE_STEPS = 64
# The comparison sum costs one pass per threshold, searchsorted one that grows with
# log K; on raw words they cross near 80 thresholds.  uint8 indices need K <= 256.
_COMPARE_ATOMS = 80
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


class ReturnSeries(NamedTuple):
    probabilities: list  # p(n, e, {e}) for n = 0..horizon
    period: int          # gcd of {n >= 1 : p(n) > 0}; 0 if no returns seen
    horizon: int
    max_mass_error: float  # worst |total mass - 1| over all computed steps

    def nonzero_count(self) -> int:
        return sum(1 for p in self.probabilities if p > 0.0)


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
    return float((f[tuple(f_sl)] * g[tuple(g_sl)][(slice(None, None, -1),) * g.ndim]).sum())


def _series_lattice(law: Law, horizon: int, frame) -> ReturnSeries:
    """Convolution powers from tables.powers, paired around the midpoint.

    Since increments are i.i.d., p(m + n) = sum_x P(X_m = x) P(X_n = -x);
    reading p(2n) and p(2n+1) off consecutive half-way distributions keeps
    every value exact convolution arithmetic while the dense arrays only
    grow to half the horizon.  The arrays live in the half-horizon box's
    tables.step_frame `frame`, where -x at step n pairs with c as -c - n
    offset in a coset frame, which skips p(odd) = 0, and as -c in any other.
    """
    _, base, hi, offset, _ = frame
    lo = base * 0 if offset is None else offset
    # p(2n) pairs the whole n-step box with its reflection if n (base + hi + lo) = 0
    flip = None if np.any(base + hi + lo) else (slice(None, None, -1),) * len(lo)
    base, lo = base.tolist(), lo.tolist()
    # corner of the n-step array, moved by k lo where it pairs for p(2k)
    corner = lambda n, k=0: [n * c + k * l for c, l in zip(base, lo)]
    arrays = powers(law, (horizon + 1) // 2, frame)
    arr = np.ones((1,) * law.group.dim)
    probs = [1.0] + [0.0] * horizon
    worst_mass = 0.0
    for n in range(horizon // 2 + 1):
        # p(2n) before the (n+1)-step array exists: one array less at the peak
        if n >= 1:
            probs[2 * n] = (float((arr * arr[flip]).sum()) if flip else
                            _paired_origin_mass(arr, corner(n), arr, corner(n, n)))
        if 2 * n + 1 <= horizon:
            if offset is not None:
                arr = nxt = None   # p(2n) is read: one box less while the next is built
            nxt = next(arrays)
            worst_mass = max(worst_mass, abs(float(nxt.sum()) - 1.0))
            if offset is None:
                probs[2 * n + 1] = _paired_origin_mass(arr, corner(n), nxt, corner(n + 1))
            arr = nxt
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


def _series_frame(law: Law, horizon: int | None):
    """(horizon, frame): series_horizon's horizon and, on a lattice, the
    tables.step_frame of its half-horizon box (None on a finite group)."""
    finite = isinstance(law.group, FiniteGroup)
    default, cap = SERIES_HORIZON_FINITE if finite else SERIES_HORIZON[law.group.dim]
    horizon = default if horizon is None else horizon
    if horizon > cap:
        raise HorizonTooLarge(f"horizon {horizon} exceeds cap {cap} for {law.group}")
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    if finite:
        return horizon, None
    try:
        return horizon, step_frame(law.atoms, (horizon + 1) // 2, coset=True)
    except WindowExceeded as exc:
        raise HorizonTooLarge(f"series horizon {horizon}: {exc}") from None


def series_horizon(law: Law, horizon: int | None = None) -> int:
    """The horizon return_series(law, horizon) runs to, None giving the
    default; HorizonTooLarge beyond the per-dimension cap, or when the
    half-horizon box passes the dense limit.  The law's support and group
    decide, so a tilted law has its original's."""
    return _series_frame(law, horizon)[0]


def return_series(law: Law, horizon: int | None = None) -> ReturnSeries:
    """Exact p(n, e, {e}) for n = 0..horizon, refused as series_horizon refuses."""
    horizon, frame = _series_frame(law, horizon)
    if frame is None:
        return _series_finite(law, horizon)
    return _series_lattice(law, horizon, frame)


class RhoEstimate(NamedTuple):
    rho_hat: float
    method: str  # "ratio" or "root"


def estimate_rho(series: ReturnSeries) -> RhoEstimate:
    """Spectral radius from the series along the period subsequence.

    Primary: geometric ratio (p(n+g)/p(n))^(1/g) averaged over the last 10
    available n.  Secondary: p(n)^(1/n) at the largest n with p(n) > 0.
    No return series has a radius above 1: InsufficientData beyond 1 + RHO_SLACK.
    """
    if series.nonzero_count() < MIN_TERMS:
        raise InsufficientData(
            f"{series.nonzero_count()} nonzero terms < required {MIN_TERMS}")
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


class RecurrenceVerdict(NamedTuple):
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


class HarrisResult(NamedTuple):
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
                             f"worker processes, got {env!r}")
        return count
    return _cpus()


def _cpus() -> int:
    """The CPUs this process may run on."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _run_chunks(run, chunks, workers, meanwhile=None):
    """[run(ix) for ix in chunks], claimed from one queue by the caller and
    n - 1 forked children, n = min(workers, units + (meanwhile given), CPUs).
    A unit is a run of consecutive chunks, at most PIPE_BUF // _TOKEN units,
    so their tokens take one pipe write, before any fork, that cannot block.
    Each process reads a token per unit it claims until EOF, the caller after
    meanwhile().  The caller runs each unit no child reported (a child that
    did not exit 0 reports none), so an exception shows as with one worker;
    on one of its own, a failed fork included, it kills and reaps every child
    and closes every pipe.  n is 1 without os.fork or beside threads (a child
    could deadlock)."""
    import pickle
    import select
    import threading
    per = -(-len(chunks) // (select.PIPE_BUF // _TOKEN))
    units = [chunks[j:j + per] for j in range(0, len(chunks), per)]
    forks = hasattr(os, "fork") and threading.active_count() == 1
    n = min(workers, len(units) + (meanwhile is not None), _cpus()) if forks else 1
    kids, fds = {}, list(os.pipe())   # kids: pid -> result read end; fds: ours to close
    tokens = fds[0]

    def claimed():   # (unit, its parts) for each unit this process claims
        while token := os.read(tokens, _TOKEN):
            u = int.from_bytes(token, "little")
            yield u, list(map(run, units[u]))

    try:
        os.write(fds[1], b"".join(u.to_bytes(_TOKEN, "little") for u in range(len(units))))
        os.close(fds.pop())
        for _ in range(1, n):
            fds += os.pipe()
            pid = os.fork()
            if not pid:
                try:
                    os.close(fds[-2])   # a caller that is gone fails the write
                    with open(fds[-1], "wb") as out:
                        pickle.dump(list(claimed()), out)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(fds.pop())
            kids[pid] = fds[-1]
        if meanwhile is not None:
            meanwhile()
        done = dict(claimed())
        for pid, r in list(kids.items()):
            fds.remove(r)
            with open(r, "rb") as fh:
                data = fh.read()
            status = os.waitpid(pid, 0)[1]
            del kids[pid]
            if status == 0 and data:
                done.update(pickle.loads(data))
        return [part for u, unit in enumerate(units)
                for part in (done[u] if u in done else map(run, unit))]
    finally:
        for pid in kids:
            os.kill(pid, 9)   # SIGKILL
            os.waitpid(pid, 0)
        for fd in fds:
            os.close(fd)


def _philox_keys(seed: int, indices) -> np.ndarray:
    """Philox keys of SeedSequence(entropy=seed, spawn_key=(i,)) for every i,
    as an (n, 2) uint64 array, in one pass over the indices.

    numpy mixes the spawn key into the pool of SeedSequence(seed) last, after
    _POOL * max(_POOL, words) hashmix calls for the seed's uint32 words, so
    the keys start from that pool, and only the spawn-key word and the output
    hash (bit_generator.pyx) are written out, as arrays over i < 2^32.
    """
    idx = np.asarray(indices, dtype=np.uint64)
    if idx.size and int(idx.max()) >= 1 << 32:
        raise ValueError(f"trajectory index must be < 2**32, got {int(idx.max())}")
    words = -(-seed.bit_length() // 32)
    hash_const = _INIT_A * pow(_MULT_A, _POOL * max(_POOL, words), 1 << 32) & _MASK32

    def hashmix(value, mult=_MULT_A):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * mult & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    pool = []
    for w in np.random.SeedSequence(seed).pool.tolist():
        r = (_MIX_L * w - _MIX_R * hashmix(idx)) & _MASK32
        pool.append(r ^ r >> 16)
    # generate_state(2, np.uint64): four output words, paired little-endian
    hash_const = _INIT_B
    out = [hashmix(w, _MULT_B) for w in pool]
    return np.stack([out[0] | out[1] << 32, out[2] | out[3] << 32], axis=1)


def _word_thresholds(cum):
    """Raw-word thresholds ceil(c 2^53) << 11 of the atom boundaries c in
    cum[:-1]; a ceiling of 2^53 or more is passed by no word and is dropped."""
    scaled = np.ceil(np.asarray(cum[:-1], dtype=float) * 2.0 ** 53)
    return scaled[scaled < 2.0 ** 53].astype(np.uint64) << np.uint64(11)


def _atom_index(thresholds, words):
    """Atom drawn by each raw word: the count of thresholds at or below it,
    which is clip(searchsorted(cum, u, "right"), 0, K-1) on its uniform u."""
    if len(thresholds) >= _COMPARE_ATOMS:
        return np.searchsorted(thresholds, words, side="right")
    idx = np.zeros(words.shape, dtype=np.uint8)
    for t in thresholds:
        idx += words >= t
    return idx


def _keyed(gen, key, word=0):
    """Philox bit generator gen, set to word `word` (a multiple of 4) of stream `key`."""
    gen.state = {"bit_generator": "Philox", "buffer": (0, 0, 0, 0), "buffer_pos": 4,
                 "has_uint32": 0, "uinteger": 0,
                 "state": {"counter": (word // 4, 0, 0, 0), "key": key}}
    return gen


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


def _chunk_lattice(law_elems, thresholds, targets, horizon, seed, indices):
    dim = law_elems.shape[1]
    reach = horizon * np.abs(law_elems).max(axis=0)
    weights = _key_weights(reach)
    atom_keys = (law_elems @ weights.T).T                  # (groups, K)
    # a target out of reach on some axis would alias a reachable key
    tvecs = [t for t in targets if all(abs(c) <= m for c, m in zip(t, reach))]
    target_keys = np.array(tvecs, dtype=np.int64).reshape(-1, dim) @ weights.T
    slots = [np.random.Philox(key=0) for _ in range(min(_LATTICE_ROWS, len(indices)))]
    hits = 0
    ends = np.empty((len(weights), len(indices)), dtype=np.int64)
    keys = _philox_keys(seed, indices).tolist()
    for s in range(0, len(indices), _LATTICE_ROWS):
        rows = min(_LATTICE_ROWS, len(keys) - s)
        for gen, key in zip(slots, keys[s:s + rows]):
            _keyed(gen, key)
        # slot j walks trajectory s + order[j]; the first `live` have not hit
        order, live = np.arange(rows), rows if len(target_keys) else 0
        at = np.zeros((len(weights), rows), dtype=np.int64)
        for t0 in range(0, horizon, _BLOCK_STEPS):
            width = min(_BLOCK_STEPS, horizon - t0)   # each slot continues its stream
            words = np.array([gen.random_raw(width) for gen in slots[:rows]])
            idx = _atom_index(thresholds, words)
            if live < rows:   # a row that has hit needs only its end key
                at[:, live:] += atom_keys.take(idx[live:], axis=1).sum(axis=2)
            if live:
                path = atom_keys.take(idx[:live], axis=1)
                path[:, :, 0] += at[:, :live]
                np.cumsum(path, axis=2, out=path)
                at[:, :live] = path[:, :, -1]
                hit = np.zeros(live, dtype=bool)
                for tk in target_keys:
                    hit |= (path == tk[:, None, None]).all(axis=0).any(axis=1)
                if hit.any():   # the rows that hit move behind the live ones
                    perm = np.concatenate([np.argsort(hit, kind="stable"),
                                           np.arange(live, rows)])
                    slots[:rows] = [slots[j] for j in perm]
                    order, at = order[perm], at[:, perm]
                    hits, live = hits + int(hit.sum()), live - int(hit.sum())
        ends[:, s + order] = at
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


def _chunk_finite(cayley, elems, thresholds, targets, horizon, seed, start_state, indices):
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
    gen = np.random.Philox(key=0)
    state = np.full(len(keys), start_state * n_atoms)
    hits = 0
    for t0 in range(0, horizon, _FINITE_STEPS):
        width = min(_FINITE_STEPS, horizon - t0)
        words = np.array([_keyed(gen, key, t0).random_raw(width) for key in keys])
        for col in _atom_index(thresholds, words).T:
            state = table.take(state + col)
        # only first hits count: drop those rows and their streams
        done = state == absorbed
        hits += int(done.sum())
        keys[:] = [key for key, d in zip(keys, done) if not d]
        state = state[~done]
        if not keys:
            break
    return hits, None, None


def _target_set(group, target) -> frozenset:
    """B as a frozenset, refused if it is empty or holds a non-element."""
    targets = frozenset(target)
    if not targets:
        raise ValueError("target set must be nonempty")
    for t in targets:
        group.validate_element(t)
    return targets


def simulate_harris(law: Law, target, trajectories: int, horizon: int,
                    seed: int, workers: int | None = None,
                    meanwhile=None) -> HarrisResult:
    """Fraction of `trajectories` walks from the identity, one i.i.d.
    increment of `law` per step, whose first n >= 1 with X_n in the
    nonempty target set is at most `horizon`.

    Trajectory i reads the Philox stream keyed by (seed, i), so a seed's
    result is the same bit for bit whatever the worker count.  `workers`
    counts processes, the caller and its forked children (_run_chunks);
    None reads RWALK_THREADS, then takes the CPUs this process may run on,
    which also cap it.  The caller runs meanwhile(), if given, while the
    children start; its result goes out through its closure.  Returns the
    hit fraction, a 95% normal-approximation half-width and, on a lattice,
    the mean end displacement and its standard error, the zero-drift
    diagnostic."""
    targets = _target_set(law.group, target)
    if trajectories < 1:
        raise ValueError("need at least one trajectory")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed!r}")

    elems = np.array(list(law.atoms), dtype=np.int64)
    thresholds = _word_thresholds(np.cumsum(list(law.atoms.values())))
    chunks = [range(s, min(s + _MC_CHUNK, trajectories))
              for s in range(0, trajectories, _MC_CHUNK)]

    lattice = isinstance(law.group, Lattice)
    if lattice:
        run = lambda ix: _chunk_lattice(elems, thresholds, targets, horizon, seed, ix)
    else:
        run = lambda ix: _chunk_finite(law.group.cayley_array, elems, thresholds, targets,
                                       horizon, seed, law.group.identity(), ix)

    parts = _run_chunks(run, chunks, worker_count(workers), meanwhile)

    hits = sum(p[0] for p in parts)
    frac = hits / trajectories
    ci = 1.96 * math.sqrt(frac * (1.0 - frac) / trajectories)
    mean_disp = sem = None
    if lattice:
        # merge in fixed chunk order so float sums are reproducible
        dsum = sum(s for _, s, _ in parts)
        dsq = sum(q for _, _, q in parts)
        mean = dsum / trajectories
        var = np.maximum(dsq / trajectories - mean * mean, 0.0)
        mean_disp = tuple(float(m) for m in mean)
        sem = tuple(float(x) for x in np.sqrt(var / trajectories))
    return HarrisResult(frac, ci, trajectories, horizon, seed, mean_disp, sem)


class HittingTable(NamedTuple):
    targets: frozenset
    horizon: int
    window: LatticeBox | None
    layers: list  # layers[n][x] = P_x(first visit to targets within n steps)


def hitting_dp(law: Law, targets, steps: int) -> HittingTable:
    """Exact finite-horizon hitting probabilities by backward recursion.

    Outside the window the probability is taken as 0 (absorbing
    truncation), so every layer is a certified lower bound on the
    untruncated value; the window pushes the boundary steps * support_radius
    away from the targets, out of reach, so the bound is exact (a finite
    group's window is the whole group, its support_radius 0).  The steps + 1
    layers are refused (tables.check_cells) before any is allocated.  Every
    step reads one buffer whose zero border, never written, is the truncation.
    """
    group = law.group
    targets = _target_set(group, targets)
    if steps < 0:
        raise ValueError("steps must be >= 0")

    margin = law.support_radius()
    if isinstance(group, FiniteGroup):
        window, shape = None, (group.order,)
    else:
        pts = np.array(list(targets))
        window = LatticeBox(pts.min(axis=0) - steps * margin, pts.max(axis=0) + steps * margin)
        shape = window.shape
    check_cells((steps + 1, *shape), f"the {steps}-step hitting table")
    first = FunctionTable(group, window)
    for t in targets:
        first.values[first.index(t)] = 1.0
    hits = first.values.nonzero()
    layers = [first]
    buf = np.pad(first.values, margin)  # the zero border is the absorbing truncation
    inner = tuple(slice(margin, margin + n) for n in shape)
    kernel = stepper(law, buf.shape)
    for _ in range(steps):
        new = kernel(buf).copy()   # the kernel's next call overwrites its output
        new[hits] = 1.0
        buf[inner] = new
        layers.append(FunctionTable(group, window, new))
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
    return max(float(np.abs(b.values[at_yx] - a.values).max())
               for a, b in zip(base.layers, shifted.layers))


class RecurrenceReport(NamedTuple):
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
    if tilted.support_radius() > WIDE_SUPPORT_RADIUS:
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
