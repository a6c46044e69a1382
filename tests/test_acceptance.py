"""End-to-end acceptance criteria, one test per criterion.

Every expected value is pinned to an independent oracle (closed forms,
direct enumeration, binomial identities, gambler's-ruin boundary values)
computed before the library existed; tolerances are stated inline and are
not calibrated to the implementation.  Run with -s to see one line per
criterion.
"""

import math
import time
from itertools import product

import numpy as np
import pytest

from rwalk import (Law, Verdict, check_dual_invariance,
                   check_dual_spectral_radius, check_measure_invariance,
                   check_translation_invariance, estimate_rho,
                   find_exponential, hitting_dp,
                   r_recurrence_test, return_series, simulate_harris,
                   verify_r_invariance)
from rwalk.spectral import _lambda_pass

from conftest import mgf, tilt_from_spectral, window_index

P = 0.25
THETA_STAR = 0.5 * math.log(3.0)          # solve 0.25 e^t = 0.75 e^-t by hand
RHO = 2.0 * math.sqrt(P * (1.0 - P))


def report(criterion, label, ok, detail=""):
    print(f"ACCEPTANCE {criterion} ({label}): {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion}: {label} {detail}"


def test_criterion_1_bernoulli_pipeline(bernoulli):
    t0 = time.perf_counter()
    exponential, sp = find_exponential(bernoulli)
    tw = tilt_from_spectral(bernoulli)
    elapsed = time.perf_counter() - t0
    ok = (abs(sp.theta[0] - THETA_STAR) <= 1e-8
          and abs(sp.rho - RHO) <= 1e-10
          and abs(sp.R * sp.rho - 1.0) <= 1e-12
          and abs(tw.tilted.atoms[(1,)] - 0.5) <= 1e-10
          and abs(tw.tilted.atoms[(-1,)] - 0.5) <= 1e-10
          and elapsed < 0.1)
    report(1, "bernoulli pipeline", ok,
           f"theta*={sp.theta[0]:.10f} rho={sp.rho:.12f} "
           f"tilted(+1)={tw.tilted.atoms[(1,)]:.12f} [{elapsed * 1e3:.1f} ms]")


def test_criterion_2_tilted_power_identity(asymmetric_corpus):
    from rwalk import check_tilted_powers
    t0 = time.perf_counter()
    worst = 0.0
    for law in asymmetric_corpus:
        tw = tilt_from_spectral(law)
        worst = max(worst, check_tilted_powers(tw, 10))
    elapsed = time.perf_counter() - t0
    report(2, "tilted power identity n<=10", worst <= 1e-10 and elapsed < 1.0,
           f"max residual={worst:.3e} [{elapsed:.2f} s]")


def test_criterion_3_invariance_identities(asymmetric_corpus):
    t0 = time.perf_counter()
    worst = 0.0
    for law in asymmetric_corpus:
        exponential, sp = find_exponential(law)
        worst = max(worst,
                    verify_r_invariance(law, exponential, sp.R),
                    check_dual_invariance(law, exponential, sp.R),
                    check_measure_invariance(law, exponential, sp.R))
    elapsed = time.perf_counter() - t0
    report(3, "invariance identities", worst <= 1e-10 and elapsed < 1.0,
           f"max relative residual={worst:.3e} [{elapsed:.2f} s]")


def test_criterion_4_symmetric_degeneracy(symmetric_corpus):
    worst_theta = worst_r = worst_atom = 0.0
    for law in symmetric_corpus:
        _, sp = find_exponential(law)
        tw = tilt_from_spectral(law)
        worst_theta = max(worst_theta, max((abs(t) for t in sp.theta), default=0.0))
        worst_r = max(worst_r, abs(sp.R - 1.0))
        worst_atom = max(worst_atom, max(abs(tw.tilted.atoms[x] - p)
                                         for x, p in law.atoms.items()))
    ok = worst_theta <= 1e-8 and worst_r <= 1e-10 and worst_atom <= 1e-14
    report(4, "symmetric degeneracy", ok,
           f"|theta*|<={worst_theta:.1e} |R-1|<={worst_r:.1e} atoms<={worst_atom:.1e}")


def test_criterion_5_translation_invariance(bernoulli, z6_law):
    t0 = time.perf_counter()
    worst = 0.0
    for y in ((1,), (-1,), (5,), (-5,)):
        worst = max(worst, check_translation_invariance(bernoulli, {(0,)}, y, 50))
    worst_finite = check_translation_invariance(z6_law, {0}, 2, 100)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and worst_finite <= 1e-12 and elapsed < 1.0
    report(5, "hitting translation invariance", ok,
           f"lattice={worst:.1e} finite={worst_finite:.1e} [{elapsed:.2f} s]")


def test_criterion_6_dual_spectral_radius(asymmetric_corpus):
    worst_rho = worst_theta = 0.0
    for law in asymmetric_corpus:
        res = check_dual_spectral_radius(law, find_exponential(law)[1])
        worst_rho = max(worst_rho, abs(res.rho - res.rho_dual))
        worst_theta = max(worst_theta, max(abs(a + b) for a, b in
                                           zip(res.theta, res.theta_dual)))
    ok = worst_rho <= 1e-10 and worst_theta <= 1e-8
    report(6, "dual walk spectral radius", ok,
           f"|rho-rho_dual|<={worst_rho:.1e} |theta+theta_dual|<={worst_theta:.1e}")


def test_criterion_7_monte_carlo_harris(bernoulli):
    t0 = time.perf_counter()
    tw = tilt_from_spectral(bernoulli)
    first = simulate_harris(tw.tilted, {(0,)}, 10_000, 10_000, seed=42)
    replay = simulate_harris(tw.tilted, {(0,)}, 10_000, 10_000, seed=42)
    elapsed = time.perf_counter() - t0
    ok = (first.return_fraction >= 0.98
          and replay.return_fraction == first.return_fraction
          and elapsed < 30.0)
    report(7, "tilted walk returns + determinism", ok,
           f"return_fraction={first.return_fraction:.4f} "
           f"replay identical={replay.return_fraction == first.return_fraction} "
           f"[{elapsed:.1f} s]")


@pytest.mark.xfail(strict=True, reason=(
    "stated band 0.333 +/- 0.015 is unattainable for the return-to-origin "
    "probability of the p=0.25 walk: exact enumeration gives "
    "P(return by step 2) = 2*p*q = 0.375 already above the band, and the "
    "infinite-horizon value is 2*min(p,q) = 0.5 (the band equals the "
    "one-sided against-drift hitting probability p/q instead)"))
def test_criterion_7_untilted_return_band(bernoulli):
    res = simulate_harris(bernoulli, {(0,)}, 10_000, 10_000, seed=42)
    ok = abs(res.return_fraction - 0.333) <= 0.015
    report(7, "untilted return fraction in 0.333 +/- 0.015", ok,
           f"measured={res.return_fraction:.4f}, exact limit=0.5")


def test_criterion_7_untilted_return_exact_oracle(bernoulli):
    # the defensible version of the same experiment: the two-sided
    # gambler's-ruin value is p*1 + q*(p/q) = 2*min(p,q) = 0.5, and the
    # exact finite-horizon DP agrees with the simulation within CI
    res = simulate_harris(bernoulli, {(0,)}, 10_000, 10_000, seed=42)
    table = hitting_dp(bernoulli, {(0,)}, 29)
    exact_30 = math.fsum(p * table.layers[29][window_index(table.window, u)]
                         for u, p in bernoulli.atoms.items())
    ok = (abs(res.return_fraction - 0.5) <= 0.015
          and abs(exact_30 - 0.5) <= 0.01
          and res.return_fraction == pytest.approx(exact_30, abs=0.02))
    report(7, "untilted return fraction vs two-sided ruin oracle", ok,
           f"measured={res.return_fraction:.4f} dp(horizon 30)={exact_30:.4f} "
           "limit=0.5")


def test_criterion_8_series_estimator(bernoulli, lazy_drift, symmetric3d):
    t0 = time.perf_counter()
    worst = 0.0
    for law in (bernoulli, lazy_drift):
        series = return_series(law, 4000)
        _, sp = find_exponential(law)
        worst = max(worst, abs(estimate_rho(series).rho_hat - sp.rho))
    tw = tilt_from_spectral(bernoulli)
    tilted_series = return_series(tw.tilted, 4000)
    rec = r_recurrence_test(tilted_series)
    series3 = return_series(symmetric3d)
    trans = r_recurrence_test(series3)
    elapsed = time.perf_counter() - t0
    ok = (worst <= 5e-3
          and rec.verdict is Verdict.R_RECURRENT and rec.growth_ratio >= 1.8
          and trans.verdict is Verdict.TRANSIENT
          and elapsed < 5.0)
    report(8, "series rho estimate + divergence heuristics", ok,
           f"|rho_hat-rho|<={worst:.2e} growth={rec.growth_ratio:.3f} "
           f"3d growth={trans.growth_ratio:.4f} [{elapsed:.1f} s]")


def test_criterion_9_property_suites(z1, z2, asymmetric_corpus):
    rng = np.random.default_rng(2024)

    def random_law(group):
        dim = group.dim
        atoms = {}
        while len(atoms) < 4:
            x = tuple(int(v) for v in rng.integers(-3, 4, size=dim))
            atoms[x] = float(rng.uniform(0.05, 1.0))
        total = math.fsum(atoms.values())
        return Law(group, {x: p / total for x, p in atoms.items()}, sum_tol=1e-9)

    # convolution associativity
    assoc_ok = True
    for group in (z1, z2):
        for _ in range(4):
            a, b, c = (random_law(group) for _ in range(3))
            left, right = a.convolve(b).convolve(c), a.convolve(b.convolve(c))
            assoc_ok &= all(abs(right.atoms[x] - p) <= 1e-12
                            for x, p in left.atoms.items())

    # dual anti-homomorphism
    dual_ok = True
    for _ in range(4):
        a, b = random_law(z1), random_law(z1)
        lhs, rhs = a.convolve(b).dual(), b.dual().convolve(a.dual())
        dual_ok &= all(abs(rhs.atoms[x] - p) <= 1e-14 for x, p in lhs.atoms.items())

    # convexity of the weight normalizer
    convex_ok = True
    for law in asymmetric_corpus:
        dim = law.group.dim
        for _ in range(20):
            t1, t2 = rng.uniform(-2, 2, dim), rng.uniform(-2, 2, dim)
            convex_ok &= (mgf(law, 0.5 * (t1 + t2))
                          <= 0.5 * mgf(law, t1) + 0.5 * mgf(law, t2) + 1e-12)

    # analytic gradient vs central differences
    grad_ok = True
    for law in asymmetric_corpus:
        dim = law.group.dim
        for _ in range(3):
            theta = rng.uniform(-1, 1, dim)
            grad = _lambda_pass(law, theta)[1]
            fd = np.zeros(dim)
            for k in range(dim):
                up, dn = theta.copy(), theta.copy()
                up[k] += 1e-6
                dn[k] -= 1e-6
                fd[k] = (mgf(law, up) - mgf(law, dn)) / 2e-6
            grad_ok &= (np.linalg.norm(grad - fd)
                        / max(1.0, np.linalg.norm(grad)) <= 1e-6)

    # minimizer uniqueness from 16 scattered starts
    unique_ok = True
    for law in asymmetric_corpus:
        thetas = [np.asarray(find_exponential(
            law, theta0=rng.uniform(-5, 5, law.group.dim))[1].theta)
            for _ in range(16)]
        spread = max(np.linalg.norm(a - b) for a, b in product(thetas, thetas))
        unique_ok &= spread <= 1e-8

    # hitting DP monotone in the horizon
    dp_ok = True
    for law in asymmetric_corpus:
        table = hitting_dp(law, {law.group.identity()}, 10)
        dp_ok &= all(bool(np.all(nxt >= prev)) for prev, nxt in
                     zip(table.layers, table.layers[1:]))

    ok = assoc_ok and dual_ok and convex_ok and grad_ok and unique_ok and dp_ok
    report(9, "property suites", ok,
           f"assoc={assoc_ok} dual={dual_ok} convex={convex_ok} "
           f"grad={grad_ok} unique={unique_ok} dp={dp_ok}")
