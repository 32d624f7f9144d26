"""Run the benchmark once per seed on each workload and summarise the spread.

    python3 perfbench/baseline.py --seeds 0-9 --out perfbench/baseline.json

Runs are made one after another, each in its own process, from the root of
the checkout. For every end-to-end metric the summary gives the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median; ``--trace 1``
summarises the per-layer metrics instead. The wall time of each whole run
is kept as ``run_wall_s``. The environment of the first run
is recorded with the summary.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="0-9", help="range such as 0-9")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workloads", nargs="*",
                    default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--out", default=None, help="summary JSON file")
    args = ap.parse_args()

    summary = {"seeds": seed_list(args.seeds), "seconds": args.seconds,
               "trace": args.trace, "workloads": {}}
    for name in args.workloads:
        values = {}
        walls = []     # wall time of each whole run, start-up included
        for seed in summary["seeds"]:
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=600)
            walls.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{name} seed {seed}: {result['failed']} failed",
                      file=sys.stderr)
            if "environment" not in summary:
                env_line = proc.stdout.splitlines()[0]
                summary["environment"] = json.loads(env_line.split(": ", 1)[1])
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()
                if not args.trace), flush=True)
        rows = {}
        for metric, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (med, med, med))
            rows[metric] = {"median": med, "q1": q1, "q3": q3,
                            "spread": (q3 - q1) / med if med else 0.0,
                            "values": vals}
            print(f"  {name:8s} {metric:44s} median {med:12.6g} "
                  f"spread {rows[metric]['spread']:.4f}", flush=True)
        rows["run_wall_s"] = walls
        print(f"  {name:8s} runs took {min(walls):.1f} to {max(walls):.1f} s",
              flush=True)
        summary["workloads"][name] = rows
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
