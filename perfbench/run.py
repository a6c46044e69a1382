"""rwalk benchmark: closed-loop CLI passes with output oracles.

    python3 perfbench/run.py --workload certify|windows|solve|simulate \
        --seed N --seconds S --trace 0|1

Run from the repository root.  One client drives `rwalk.cli.main(argv)`
in this process: a pass runs the workload's command list, each command
starting when the previous one returns, and passes repeat until the next
one would overrun --seconds.  Every output is checked by an oracle.  The
Monte Carlo worker count is the program's default (the CPU count).

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
and traced passes and prints the per-layer metrics.  The last stdout
line is one JSON object {correct, attempted, failed, metrics}.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 5
# End-to-end times are reported in reference seconds: wall seconds scaled
# by REFERENCE_S / (time of the calibration kernel measured right after).
# The machine's own speed drifts by about 20% over minutes; the scaling
# takes out much of that drift, though not all (see README.md).
REFERENCE_S = 0.0125
CALIBRATION_SAMPLES = 6

sys.path.insert(0, str(HERE))
import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@dataclass
class Outcome:
    cmd: workloads.Command
    cid: int
    rc: int | None
    seconds: float
    report: dict | None = None
    out_text: str | None = None
    problems: list | None = None


def import_rwalk():
    """Import the program from this checkout's src/, never from elsewhere."""
    if not (SRC / "rwalk" / "__init__.py").is_file():
        sys.exit(f"no program source at {SRC / 'rwalk'}; run from the repository root")
    sys.path.insert(0, str(SRC))
    import rwalk.cli
    if Path(rwalk.__file__).resolve().parent != SRC / "rwalk":
        sys.exit(f"imported rwalk from {rwalk.__file__}, not from {SRC}")
    return rwalk


def calibration_kernel() -> float:
    """Seconds for a fixed mix of tuple-keyed dict updates, fsum and numpy
    scans, the kinds of work rwalk does; it never touches the program."""
    import numpy
    t0 = time.perf_counter()
    table = {}
    for i in range(20_000):
        key = (i % 97, i % 89, i % 83)
        table[key] = table.get(key, 0.0) + 0.5 * i
    math.fsum(table.values())
    a = numpy.arange(100_000, dtype=float)
    for _ in range(3):
        a = numpy.sqrt(numpy.cumsum(a))
    return time.perf_counter() - t0


def speed_factor() -> float:
    """Reference seconds per wall second at the machine's current speed."""
    return REFERENCE_S / statistics.mean(
        calibration_kernel() for _ in range(CALIBRATION_SAMPLES))


def setup_probe(workload: str, seed: int) -> None:
    """Child-process half of setup_s: import rwalk, write the specs."""
    directory = WORK / f"setup-{os.getpid()}"
    t0 = time.perf_counter()
    import_rwalk()
    workloads.build(workload, seed, directory)
    elapsed = time.perf_counter() - t0
    shutil.rmtree(directory)
    print(repr(elapsed * speed_factor()))


def measure_setup(workload: str, seed: int) -> float:
    """Median over fresh processes of import plus input generation, in
    reference seconds."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed), "--seconds", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


class Client:
    """One closed-loop client: runs passes and judges their outputs."""

    def __init__(self, rwalk, commands):
        self.main = rwalk.cli.main
        self.commands = commands
        self.references = {}
        self.next_id = 0
        self.outcomes = []

    def run_pass(self, tracer=None):
        """Run every command once; check the outputs after the pass ends."""
        outcomes = []
        start = time.perf_counter()
        for cmd in self.commands:
            cid = self.next_id
            self.next_id += 1
            out, err = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    if tracer is None:
                        rc = self.main(cmd.argv)
                    else:
                        tracer.command = cid
                        rc = tracer.call("cli", self.main, cmd.argv)
            except Exception:  # a raw traceback is a failed command, not a crash
                rc = None
                err.write(traceback.format_exc())
            outcomes.append(Outcome(cmd, cid, rc, time.perf_counter() - t0))
            if rc is None:
                outcomes[-1].problems = [f"uncaught exception: {err.getvalue()[-500:]}"]
        wall = time.perf_counter() - start
        for o in outcomes:
            self._judge(o)
        self.outcomes += outcomes
        return outcomes, wall

    def _judge(self, o: Outcome):
        if o.problems:
            return
        try:
            if o.cmd.report is not None and o.rc == 0:
                o.report = json.loads(o.cmd.report.read_text())
                o.cmd.report.unlink()
            if o.cmd.out is not None and o.rc == 0:
                o.out_text = o.cmd.out.read_text()
                o.cmd.out.unlink()
            o.problems = oracle.check(o.cmd, o.rc, o.report, o.out_text,
                                      self.references.get(o.cmd.spec_name))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            o.problems = [f"unreadable output: {exc!r}"]


def one_worker_references(rwalk, commands):
    """Return fraction and wall time of simulate_harris(workers=1) for each
    simulate input: the oracle's reference and the parallel baseline."""
    refs, total = {}, 0.0
    for cmd in commands:
        if cmd.kind != "simulate":
            continue
        spec = rwalk.parse_walk_spec(Path(cmd.argv[1]).read_text())
        target = frozenset({spec.group.identity()})
        t0 = time.perf_counter()
        mc = rwalk.simulate_harris(spec.law, target, cmd.expect["trajectories"],
                                   cmd.expect["horizon"], cmd.expect["seed"], workers=1)
        total += time.perf_counter() - t0
        refs[cmd.spec_name] = mc.return_fraction
    return refs, total


def environment():
    import numpy
    from rwalk.recurrence import worker_count
    return {"nproc": os.cpu_count(), "mc_workers": worker_count(),
            "numpy": numpy.__version__, "python": platform.python_version()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    # the benchmark measures the default worker count
    os.environ.pop("RWALK_THREADS", None)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    rwalk = import_rwalk()
    env = environment()
    print(f"environment: {json.dumps(env)}", file=sys.stderr)
    directory = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        return measure(rwalk, args, env, directory)
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def measure(rwalk, args, env, directory) -> int:
    commands = workloads.build(args.workload, args.seed, directory)
    client = Client(rwalk, commands)

    # the workers=1 references need less memory than a default pass, so
    # computing them first leaves the peak RSS of the first pass intact
    client.references, t_one_worker = one_worker_references(rwalk, commands)
    tracer = tracing.Tracer() if args.trace else None
    walls, slowest, scales, traced = [], [], [], []
    start = time.perf_counter()
    while True:
        outcomes, wall = client.run_pass()
        if not walls:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            missed = oracle.self_test(outcomes, client.references)
        scales.append(speed_factor())  # right after the pass, so it sees the same speed
        walls.append(wall)
        slowest.append(max(o.seconds for o in outcomes))
        if tracer is not None:
            tracer.install()
            try:
                outcomes, wall = client.run_pass(tracer)
            finally:
                tracer.uninstall()
            traced.append(({o.cid for o in outcomes}, wall))
        elapsed = time.perf_counter() - start
        if elapsed * (len(walls) + 1) / len(walls) > args.seconds:
            break

    failed = [o for o in client.outcomes if o.problems]
    for o in failed[:5]:
        print(f"FAILED {' '.join(o.cmd.argv[:2])}: {o.problems}", file=sys.stderr)
    for name in missed:
        print(f"SELF-TEST: oracle accepted a tampered output of {name}", file=sys.stderr)
    attempted = len(client.outcomes)
    print(f"{args.workload}: {attempted} commands, {len(failed)} failed; pass walls "
          f"{json.dumps(walls)}; slowest commands {json.dumps(slowest)}; speed factors "
          f"{json.dumps(scales)}", file=sys.stderr)

    counts_repeat = True
    if tracer is None:
        metrics = {
            "wall_s": (statistics.median(w * f for w, f in zip(walls, scales)), "s"),
            "slowest_cmd_s": (statistics.median(w * f for w, f in zip(slowest, scales)), "s"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
            "pass_rate": (1.0 - len(failed) / attempted, "ratio"),
            "setup_s": (measure_setup(args.workload, args.seed), "s"),
        }
    else:
        profiles = [tracing.pass_profile(tracer.spans, ids) for ids, _ in traced]
        metrics, counts_repeat = tracing.layer_metrics(
            profiles, len(commands), [w for _, w in traced], walls,
            t_one_worker, env["nproc"])
        if not counts_repeat:
            print("work counts differ between traced passes", file=sys.stderr)
        WORK.mkdir(exist_ok=True)
        spans_file = WORK / f"spans-{args.workload}-seed{args.seed}.json"
        spans_file.write_text(json.dumps({
            "environment": env,
            "commands": [{"id": o.cid, "argv": o.cmd.argv} for o in client.outcomes],
            "spans": tracer.dump()}))
        print(f"spans written to {spans_file}", file=sys.stderr)

    result = {"correct": not failed and not missed and counts_repeat,
              "attempted": attempted, "failed": len(failed),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
