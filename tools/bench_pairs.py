"""Benchmark a change against a parent commit in alternating run pairs.

    python3 tools/bench_pairs.py --parent REF [--seconds S] [--seed N] \
        -o BENCH_<n>.json simulate:8 certify:3 ...

Run from anywhere inside the repository.  Each side gets its own temporary
directory: the parent is extracted from REF with `git archive`, the change
is the working tree as it stands (tracked and untracked files that
.gitignore does not exclude).  For each
WORKLOAD:PAIRS argument, pair k runs

    python3 perfbench/run.py --workload WORKLOAD --seed N+k --seconds S --trace 0

once on each side, one run at a time, with the side that runs first
alternating from pair to pair, so that drift in the machine's speed falls
on both sides alike.  The output is BENCH_11.json's format: {about, runs},
a run being {side, workload, seed, pair, trace, result} with `result` the
last stdout line of perfbench/run.py; `about` also gives each side's
src/rwalk line count.  At the end a table gives, per workload and metric,
the medians, the pairs the change won and lost (by the metric's `better`
in BENCHMARK.json; ties count for neither) and the interquartile range of
the parent's runs.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path


def git(*args, cwd: Path) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout


def extract_ref(root: Path, ref: str, dest: Path) -> str:
    """Extract the tree of `ref` into dest; return its commit id."""
    sha = git("rev-parse", "--verify", f"{ref}^{{commit}}", cwd=root).strip()
    archive = dest.with_suffix(".tar")
    git("archive", "--format=tar", "-o", str(archive), sha, cwd=root)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()
    return sha


def copy_working_tree(root: Path, dest: Path) -> None:
    """Copy the files of the working tree that git tracks or would track."""
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard",
                cwd=root).split("\0")
    for name in filter(None, names):
        src = root / name
        if src.is_file():   # a tracked file deleted in the working tree is skipped
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def run_once(side_dir: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=side_dir, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(argv[1:])} in {side_dir} exited {proc.returncode}:\n"
                 f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def parse_plan(items) -> list:
    plan = []
    for item in items:
        workload, _, pairs = item.partition(":")
        if not workload or not pairs.isdigit() or int(pairs) < 1:
            sys.exit(f"expected WORKLOAD:PAIRS, got {item!r}")
        plan.append((workload, int(pairs)))
    return plan


def source_lines(side_dir: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in (side_dir / "src/rwalk").glob("*.py"))


def summary(runs, better) -> str:
    """Per workload and metric: the medians, parent -> change, the pairs the
    change won and lost (`better` maps a metric to "lower" or "higher",
    default "lower"; ties count for neither) and the parent's IQR."""
    lines = []
    for workload in dict.fromkeys(r["workload"] for r in runs):
        sides = {side: {r["pair"]: r["result"] for r in runs
                        if r["workload"] == workload and r["side"] == side}
                 for side in ("parent", "change")}
        pairs = sorted(sides["parent"].keys() & sides["change"].keys())
        correct = all(r["correct"] and not r["failed"]
                      for rs in sides.values() for r in rs.values())
        lines.append(f"{workload}: {len(pairs)} pairs, all correct: {correct}")
        for metric in sides["parent"][pairs[0]]["metrics"]:
            value = {side: {k: r["metrics"][metric]["value"] for k, r in rs.items()}
                     for side, rs in sides.items()}
            med = {side: statistics.median(v.values()) for side, v in value.items()}
            change = (med["change"] / med["parent"] - 1.0) * 100 if med["parent"] else 0.0
            sign = -1.0 if better.get(metric, "lower") == "lower" else 1.0
            gain = [sign * (value["change"][k] - value["parent"][k]) for k in pairs]
            parent = list(value["parent"].values())
            q = (statistics.quantiles(parent, n=4) if len(parent) > 1
                 else [parent[0]] * 3)
            lines.append(f"  {metric:<14} {med['parent']:.4g} -> {med['change']:.4g} "
                         f"({change:+.1f}%)  won {sum(g > 0 for g in gain)}, "
                         f"lost {sum(g < 0 for g in gain)}, parent IQR {q[2] - q[0]:.3g}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git ref of the parent side")
    ap.add_argument("--seconds", type=float, default=30.0, help="seconds per run")
    ap.add_argument("--seed", type=int, default=1, help="seed of pair 0; pair k adds k")
    ap.add_argument("-o", "--out", required=True, help="BENCH_<n>.json to write")
    ap.add_argument("plan", nargs="+", metavar="WORKLOAD:PAIRS")
    args = ap.parse_args(argv)
    plan = parse_plan(args.plan)
    root = Path(git("rev-parse", "--show-toplevel", cwd=Path.cwd()).strip())

    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        dirs = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        for d in dirs.values():
            d.mkdir()
        parent_sha = extract_ref(root, args.parent, dirs["parent"])
        copy_working_tree(root, dirs["change"])
        lines = {side: source_lines(d) for side, d in dirs.items()}
        head = git("rev-parse", "HEAD", cwd=root).strip()
        numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                               capture_output=True, text=True).stdout.strip()
        runs = []
        for workload, pairs in plan:
            for pair in range(pairs):
                seed = args.seed + pair
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    result = run_once(dirs[side], workload, seed, args.seconds)
                    runs.append({"side": side, "workload": workload, "seed": seed,
                                 "pair": pair, "trace": 0, "result": result})
                    values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
                    print(f"{workload} pair {pair} {side}: {json.dumps(values)}", file=sys.stderr)

    about = ("Raw perfbench/run.py result lines (the last stdout line of each run) for "
             "alternating parent/change pairs (the side that runs first alternates from "
             f"pair to pair). Parent: {args.parent} ({parent_sha}); "
             f"change: the working tree on {head}. "
             f"Command: python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} "
             "--trace 0, run from the root of a fresh copy of each side, one run at a time, "
             f"on a {os.cpu_count()}-core machine (numpy {numpy}, Python "
             f"{platform.python_version()}). Pair k uses seed {args.seed} + k. Pairs: "
             + ", ".join(f"{w} {n}" for w, n in plan) + ". Lines in src/rwalk: "
             + ", ".join(f"{side} {n}" for side, n in lines.items()) + ".")
    Path(args.out).write_text(json.dumps({"about": about, "runs": runs}, indent=1) + "\n")
    metrics = json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]
    print(summary(runs, {m["name"]: m["better"] for m in metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
