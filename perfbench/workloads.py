"""Seeded inputs for the four workloads: spec files, argv lists, oracles.

Everything the program sees is written here as a walk-spec file or an
argv list.  The same (workload, seed) always yields byte-identical spec
files and the same command list; the seed changes values (weights, the
tilt direction, Monte Carlo seeds), never sizes or supports, so every
seed asks for the same work.  Probabilities are 12-digit decimals that
sum to exactly 1 and stay within a factor of about 2000 of each other:
badly scaled laws (ROADMAP item 3) and wide supports (item 4) are left
out because they fail today.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

UNITS = 10 ** 12

# The radius-1 fixtures shipped with the test suite, copied verbatim so the
# benchmark needs nothing from the repository except the program itself.
FIXTURES = {
    "bernoulli_025": "group lattice 1\n\nlaw\n  1 0.25\n  -1 0.75\n\noptions\n  seed 42\n",
    "lazy_drift": "group lattice 1\n\nlaw\n  0 0.5\n  1 0.3\n  -1 0.2\n",
    "symmetric": "group lattice 1\n\nlaw\n  1 0.5\n  -1 0.5\n",
    "drift2d": "group lattice 2\n\nlaw\n  1 0 0.4\n  -1 0 0.2\n  0 1 0.25\n  0 -1 0.15\n",
    "sym3d": "group lattice 3\n\nlaw\n" + "".join(
        f"  {' '.join(str(c) for c in v)} 0.16666666666666666\n"
        for v in ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))),
    "z6": "group finite 6\ncayley\n" + "".join(
        "  " + " ".join(str((i + j) % 6) for j in range(6)) + "\n" for i in range(6))
        + "\nlaw\n  1 0.5\n  5 0.5\n\noptions\n  horizon 400\n",
}

WINDOW_CHECKS = "eq1,eq17,dual,measure,corollary2"
THETA_NORM = 0.5

# simulate: fixed Monte Carlo size and series horizon per dimension.  The
# series horizons keep at least 50 nonzero return terms, which the rho
# estimator needs on drifted laws.
SIM_TRAJECTORIES = 1024
SIM_HORIZON = 5000
SIM_SERIES_HORIZON = {"bernoulli_025": 4000, "drift2d": 300, "sym3d": 120, "z6": 2000}


@dataclass
class Command:
    """One CLI call with what its oracle needs to judge the output."""
    argv: list
    kind: str                      # verify | analyze | tilt | simulate
    report: Path | None = None     # --json report path
    out: Path | None = None        # tilt output path
    spec_name: str = ""
    expect: dict = field(default_factory=dict)


def _law_text(dim: int, weights: dict, options: dict | None = None) -> str:
    """Lattice spec with probabilities weight/sum rounded to the nearest
    1e-12; the last atom takes the remainder so the decimals sum to 1."""
    atoms = sorted(weights)
    total = math.fsum(weights.values())
    units = [round(weights[a] / total * UNITS) for a in atoms]
    units[-1] = UNITS - sum(units[:-1])
    lines = [f"group lattice {dim}", "", "law"]
    lines += [f"  {' '.join(str(c) for c in a)} 0.{u:012d}" for a, u in zip(atoms, units)]
    if options:
        lines += ["", "options"] + [f"  {k} {v}" for k, v in options.items()]
    return "\n".join(lines) + "\n"


def _unit_vectors(dim: int):
    for k in range(dim):
        for s in (1, -1):
            yield tuple(s if j == k else 0 for j in range(dim))


def tilted_weights(rng: random.Random, dim: int, radius: int, n_atoms: int,
                   theta_norm: float):
    """Weights w(x) * exp(-theta0.x) on n_atoms points of [-radius, radius]^d
    with w(x) = w(-x) on a support closed under x -> -x.

    Lambda(theta) = sum_x w(x) exp((theta - theta0).x) / Z is even about
    theta0, so the minimizer is theta* = theta0 exactly, in a random
    direction at a fixed distance theta_norm from 0: every seed needs about
    the same solver work.  The support depends on the shape only, not on
    the seed, so the work of a window check or a convolution is the same
    for every seed.  The +-e_k steps are always present, so the law is
    irreducible; one pair of atoms sits at Chebyshev radius `radius`.
    """
    def neg(p):
        return tuple(-c for c in p)

    shape_rng = random.Random(f"support:{dim}:{radius}:{n_atoms}")
    pairs = sorted({min(p, neg(p)) for p in itertools.product(
        range(-radius, radius + 1), repeat=dim) if any(p)})
    chosen = {min(u, neg(u)) for u in _unit_vectors(dim)}
    chosen.add(shape_rng.choice([p for p in pairs if max(map(abs, p)) == radius]))
    rest = [p for p in pairs if p not in chosen]
    shape_rng.shuffle(rest)
    chosen |= set(rest[:max(0, n_atoms // 2 - len(chosen))])
    direction = [rng.gauss(0.0, 1.0) for _ in range(dim)]
    norm = math.sqrt(math.fsum(c * c for c in direction))
    theta0 = [theta_norm * c / norm for c in direction]
    w = {}
    for p in sorted(chosen):
        w[p] = w[neg(p)] = rng.randint(2, 20)
    if n_atoms % 2:
        w[(0,) * dim] = rng.randint(2, 20)
    weights = {x: m * math.exp(-math.fsum(t * c for t, c in zip(theta0, x)))
               for x, m in w.items()}
    return weights, theta0


def tilted_oracle(text: str, theta0) -> dict:
    """theta* = theta0; rho = Lambda(theta0) from the probabilities as written."""
    _, atoms = parse_lattice_spec(text)
    rho = math.fsum(p * math.exp(math.fsum(t * c for t, c in zip(theta0, x)))
                    for x, p in atoms.items())
    return {"theta": list(theta0), "rho": rho}


def separable_weights(rng: random.Random, dim: int) -> dict:
    """Lazy axis walk: weight at the origin and at +-e_k, drift on every axis."""
    w = {(0,) * dim: rng.randint(2, 20)}
    for k in range(dim):
        up = rng.randint(2, 10)
        w[tuple(1 if j == k else 0 for j in range(dim))] = up
        w[tuple(-1 if j == k else 0 for j in range(dim))] = up + rng.randint(1, 10)
    return w


def separable_oracle(text: str) -> dict:
    """theta_k = 0.5*ln(p-_k/p+_k), rho = p0 + sum_k 2*sqrt(p+_k p-_k),
    from the probabilities exactly as written in the spec."""
    _, atoms = parse_lattice_spec(text)
    dim = len(next(iter(atoms)))
    theta, rho = [], atoms.get((0,) * dim, 0.0)
    for k in range(dim):
        up = atoms[tuple(1 if j == k else 0 for j in range(dim))]
        down = atoms[tuple(-1 if j == k else 0 for j in range(dim))]
        theta.append(0.5 * math.log(down / up))
        rho += 2.0 * math.sqrt(up * down)
    return {"theta": theta, "rho": rho}


def parse_lattice_spec(text: str):
    """Minimal reader for lattice spec files, independent of the program.

    Returns (dim, {element: probability}); raises ValueError on anything
    that is not a well-formed lattice spec.
    """
    lines = [ln.split("#", 1)[0].split() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or lines[0][:2] != ["group", "lattice"] or len(lines[0]) != 3:
        raise ValueError("not a lattice spec")
    dim = int(lines[0][2])
    if lines[1:2] != [["law"]]:
        raise ValueError("missing law block")
    atoms = {}
    for tok in lines[2:]:
        if tok == ["options"]:
            break
        if len(tok) != dim + 1:
            raise ValueError(f"bad law line {tok}")
        x = tuple(int(t) for t in tok[:dim])
        if x in atoms:
            raise ValueError(f"duplicate atom {x}")
        atoms[x] = float(tok[dim])
    if not atoms:
        raise ValueError("empty law")
    return dim, atoms


def _specs(workload: str, seed: int) -> list:
    """[(name, text, extra)] for the workload; extra feeds the commands."""
    rng = random.Random(f"{workload}:{seed}")
    if workload in ("certify", "simulate"):
        # fixed fixtures in a fixed order: the order sets which allocations
        # are still resident when the largest one happens, so it is kept
        # out of the seed's reach to keep peak RSS steady
        names = FIXTURES if workload == "certify" else SIM_SERIES_HORIZON
        return [(n, FIXTURES[n], {}) for n in names]
    if workload == "windows":
        # (dim, support radius, atoms, window_radius): windows sized so that
        # tabulation/stencil work and eq17's dict convolution are both large.
        shapes = [(1, 4, 9, 400), (1, 3, 7, 400), (2, 3, 17, 40), (2, 2, 13, 40),
                  (3, 2, 9, 9)]
        out = []
        for i, (d, r, n, win) in enumerate(shapes):
            weights, _ = tilted_weights(rng, d, r, n, THETA_NORM)
            out.append((f"w{i}_d{d}_r{r}", _law_text(d, weights, {"window_radius": win}), {}))
        return out
    if workload == "solve":
        shapes = [(3, 3, 121), (3, 3, 91), (3, 2, 61), (2, 4, 61), (2, 3, 31), (1, 4, 9)]
        out = []
        for i, (d, r, n) in enumerate(shapes):
            weights, theta0 = tilted_weights(rng, d, r, n, THETA_NORM)
            text = _law_text(d, weights)
            out.append((f"s{i}_d{d}_r{r}", text, {"oracle": tilted_oracle(text, theta0)}))
        for d in (1, 2, 3):
            text = _law_text(d, separable_weights(rng, d))
            out.append((f"sep_d{d}", text, {"oracle": separable_oracle(text)}))
        return out
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("certify", "windows", "solve", "simulate")


def build(workload: str, seed: int, directory: Path) -> list:
    """Write the workload's spec files into `directory`; return its commands."""
    directory.mkdir(parents=True, exist_ok=True)
    commands = []
    for name, text, extra in _specs(workload, seed):
        spec = directory / f"{name}.spec"
        spec.write_text(text)
        rep = directory / f"{name}.{workload}.json"
        if workload == "certify":
            commands.append(Command(["verify", str(spec), "--json", str(rep)],
                                    "verify", rep, spec_name=name,
                                    expect={"checks": ["eq1", "eq17", "dual", "measure",
                                                       "eq12", "corollary2"]}))
        elif workload == "windows":
            commands.append(Command(["verify", str(spec), "--paper-checks", WINDOW_CHECKS,
                                     "--json", str(rep)], "verify", rep, spec_name=name,
                                    expect={"checks": WINDOW_CHECKS.split(",")}))
        elif workload == "solve":
            commands.append(Command(["analyze", str(spec), "--json", str(rep)],
                                    "analyze", rep, spec_name=name, expect=extra))
            out = directory / f"{name}.tilted.spec"
            commands.append(Command(["tilt", str(spec), "-o", str(out)], "tilt",
                                    out=out, spec_name=name,
                                    expect={"support": set(parse_lattice_spec(text)[1])}))
        else:
            mc_seed = random.Random(f"simulate:{seed}:{name}").randrange(2 ** 31)
            commands.append(Command(
                ["simulate", str(spec), "--trajectories", str(SIM_TRAJECTORIES),
                 "--horizon", str(SIM_HORIZON), "--seed", str(mc_seed),
                 "--series-horizon", str(SIM_SERIES_HORIZON[name]), "--json", str(rep)],
                "simulate", rep, spec_name=name,
                expect={"seed": mc_seed, "trajectories": SIM_TRAJECTORIES,
                        "horizon": SIM_HORIZON}))
    return commands

