"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads certify,simulate --seeds 1-10 \
        --seconds 30 [--trace 0|1] [--out perfbench/runs.json]

For every workload and metric it prints the median and the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of the median: the steadiness the benchmark's bounds must cover.
With --out, the environment, every run's result line and the summary are
stored in that JSON file under "trace0" or "trace1"; the other key, if
the file has it, is kept.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="certify,windows,solve,simulate")
    ap.add_argument("--seeds", default="1-10", type=seeds)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()

    runs, summary, env = {}, {}, None
    for workload in args.workloads.split(","):
        results = []
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=900)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
            env = json.loads(done.stderr.split("environment: ", 1)[1].splitlines()[0])
            result = json.loads(done.stdout.strip().splitlines()[-1])
            results.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()
                             if args.trace == 0), flush=True)
        runs[workload] = results
        summary[workload] = {}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q = statistics.quantiles(values, n=4) if len(values) > 1 else [med, med, med]
            share = (q[2] - q[0]) / med if med else 0.0
            summary[workload][name] = {"median": med, "iqr_share": share}
            print(f"  {workload:9s} {name:48s} median {med:.6g}  iqr/median {share:.4f}")
    if args.out:
        out = Path(args.out)
        data = json.loads(out.read_text()) if out.exists() else {}
        data["environment"] = env
        data[f"trace{args.trace}"] = {"seconds": args.seconds, "seeds": args.seeds,
                                      "summary": summary, "runs": runs}
        out.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
