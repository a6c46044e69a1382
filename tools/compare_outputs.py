"""Compare the CLI's outputs on every fixture and benchmark input: parent commit vs working tree.

    python3 tools/compare_outputs.py --parent REF

Run from anywhere inside the repository.  Each side is copied to its own
temporary directory as tools/bench_pairs.py does (the parent with `git
archive`, the working tree as git tracks or would track it).  On each
tests/fixtures/*.spec of either side, read from the working tree's copy
when it has one (so a fixture the change adds also runs on the parent),
it runs, from the root of each copy,

    python3 -m rwalk.cli analyze SPEC --json -
    python3 -m rwalk.cli verify SPEC --json -
    python3 -m rwalk.cli tilt SPEC -o -
    python3 -m rwalk.cli simulate SPEC --trajectories 200 --horizon 300 \
        --series-horizon 200 --json -        (SERIES_HORIZON where given)

sym3d runs at its series cap, 120, which is also its benchmark horizon:
there the 60-step box is 61^3 cells, 14 tiles of tables.powers, so the
in-place tile order is exercised where the benchmark exercises it.
offaxis3d runs at 120 too, its default and cap: its 60-step box is 121^3
cells in the unimodular frame tables.step_frame picks, where x coordinates
would need 241 x 241 x 121, past the dense-array limit.

Then, for every workload of perfbench/workloads.py and seeds 1 and 2, it
writes the benchmark's inputs into each copy with the working tree's
workloads.build and runs each of its commands there, as perfbench/run.py
would but one process per command; the `--json` report and the `tilt -o`
file each command writes are read back.  The copies' paths, which the
commands print (the tilt line) and write (each report's spec path), are
masked as <dir>.

A command differs when its exit code, its stderr, its text output, its
JSON report or the spec file it writes differs between the sides; the
reports' `timings` are blanked first.  Every differing command is listed
with what differed, followed by each differing report field, as a path
with the parent's and the working tree's values, and the first differing
line of the text output, stderr or spec file; the exit status is 1 if any
command differed.  The summary line
also gives each side's src/rwalk line count.  Only the standard library
is used.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import copy_working_tree, extract_ref, git, source_lines

SIMULATE = ["--trajectories", "200", "--horizon", "300", "--json", "-"]
SEEDS = (1, 2)   # workloads.build seeds of the benchmark inputs
SERIES_HORIZON = {"sym3d": "120", "offaxis3d": "120"}


def commands(spec: str) -> dict:
    series = SERIES_HORIZON.get(Path(spec).stem, "200")
    return {"analyze": ["analyze", spec, "--json", "-"],
            "verify": ["verify", spec, "--json", "-"],
            "tilt": ["tilt", spec, "-o", "-"],
            "simulate": ["simulate", spec, *SIMULATE, "--series-horizon", series]}


def run(side_dir: Path, argv: list, report: Path | None = None,
        out: Path | None = None) -> dict:
    """Exit code, stderr, text output, report (timings blanked; printed by
    `--json -`, or written to `report`) and written spec file (`out`) of one
    command, with either side's directory masked as <dir>."""
    env = {**os.environ, "PYTHONPATH": str(side_dir / "src")}
    proc = subprocess.run([sys.executable, "-m", "rwalk.cli", *argv], cwd=side_dir,
                          env=env, capture_output=True, text=True)
    mask = lambda text: re.sub(re.escape(str(side_dir.parent)) + "/(parent|change)", "<dir>",
                               text)
    read = lambda path: mask(path.read_text()) if path is not None and path.is_file() else ""
    # `--json -` prints the report last, from a line that is just "{"
    lines = mask(proc.stdout).splitlines(keepends=True)
    cut = next((i for i, line in enumerate(lines) if line == "{\n"), len(lines))
    text = "".join(lines[cut:]) or read(report)
    report = json.loads(text) if text else None
    if report is not None:
        report["timings"] = None
    return {"exit code": proc.returncode, "stderr": mask(proc.stderr),
            "stdout": "".join(lines[:cut]), "report": report, "spec file": read(out)}


def field_diffs(parent, change, path=""):
    """Yield (path, parent value, change value) for each differing JSON leaf;
    lists of different lengths, and values of different kinds, count as leaves."""
    if isinstance(parent, dict) and isinstance(change, dict):
        for key in [*parent, *(k for k in change if k not in parent)]:
            yield from field_diffs(parent.get(key, "<absent>"), change.get(key, "<absent>"),
                                   f"{path}.{key}")
    elif isinstance(parent, list) and isinstance(change, list) and len(parent) == len(change):
        for i, (a, b) in enumerate(zip(parent, change)):
            yield from field_diffs(a, b, f"{path}[{i}]")
    elif parent != change:
        yield path or ".", parent, change


def describe(part: str, parent, change) -> list:
    """Lines saying how one differing part of a command's output differs."""
    if part == "report":
        return [f"    report {path}: {a!r} -> {b!r}"
                for path, a, b in field_diffs(parent, change)]
    if part == "exit code":
        return [f"    exit code: {parent} -> {change}"]
    pairs = itertools.zip_longest(parent.splitlines(keepends=True),
                                  change.splitlines(keepends=True), fillvalue="<absent>")
    n, (a, b) = next((n, ab) for n, ab in enumerate(pairs, 1) if ab[0] != ab[1])
    return [f"    {part} line {n}: {a!r} -> {b!r}"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git ref of the parent side")
    args = ap.parse_args(argv)
    root = Path(git("rev-parse", "--show-toplevel", cwd=Path.cwd()).strip())

    with tempfile.TemporaryDirectory(prefix="compare_outputs-") as tmp:
        dirs = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        for d in dirs.values():
            d.mkdir()
        sha = extract_ref(root, args.parent, dirs["parent"])
        copy_working_tree(root, dirs["change"])
        lines = {side: source_lines(d) for side, d in dirs.items()}
        specs = sorted({p.relative_to(d).as_posix() for d in dirs.values()
                        for p in (d / "tests" / "fixtures").glob("*.spec")})
        jobs = []   # (label, {side: run's arguments})
        for spec in specs:
            spec = str(next(d / spec for d in (dirs["change"], dirs["parent"])
                            if (d / spec).is_file()))
            jobs += [(f"{name} {Path(spec).name}", {side: (cmd,) for side in dirs})
                     for name, cmd in commands(spec).items()]
        sys.path.insert(0, str(dirs["change"] / "perfbench"))
        import workloads
        for workload, seed in itertools.product(workloads.WORKLOADS, SEEDS):
            built = {side: workloads.build(workload, seed, d / "bench" / f"{workload}-{seed}")
                     for side, d in dirs.items()}
            jobs += [(f"{workload} seed {seed}: {cmd.kind} {cmd.spec_name}",
                      {side: (c[k].argv, c[k].report, c[k].out) for side, c in built.items()})
                     for k, cmd in enumerate(built["change"])]
        differing, details = 0, []
        for label, calls in jobs:
            out = {side: run(d, *calls[side]) for side, d in dirs.items()}
            parts = [k for k in out["parent"] if out["parent"][k] != out["change"][k]]
            if parts:
                differing += 1
                details.append(f"{label}: {', '.join(parts)} differ")
                for k in parts:
                    details += describe(k, out["parent"][k], out["change"][k])

    for line in details:
        print(line)
    print(f"{len(jobs)} commands on {len(specs)} fixtures and the benchmark inputs of seeds "
          f"{', '.join(map(str, SEEDS))}, parent {args.parent} ({sha[:12]}, "
          f"{lines['parent']} src/rwalk lines) against the working tree "
          f"({lines['change']} lines): {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
