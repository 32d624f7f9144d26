"""vmlab benchmark: runs the user's commands in process and times them.

    python3 perfbench/run.py --workload pic2d --seed 0 --seconds 35 --trace 0

Run from the root of a vmlab checkout; vmlab is imported from ``src/``. A
run makes one short, untimed warm-up pass through the workload's commands,
then repeats its command sequence (``vmlab.cli.main``, stdout captured)
until ``--seconds`` have passed; a workload that simulates runs at least
twice, so that the files that must be byte-identical
(``diagnostics.csv``, ``ensemble.csv``) are written twice from the same
seed. Every command is gated on its exit code
and on its outputs; a failed gate counts as a failed operation and the run
goes on.

``--trace 0`` prints the end-to-end metrics (medians over the run's jobs).
``--trace 1`` runs pairs of an untraced job and a job with every layer
wrapped (see ``tracing.py``), and prints the per-layer metrics (medians over
the traced jobs), the job stages of the untraced jobs and
``trace.overhead_frac``.

The last line of stdout is the result as one JSON object. The result, the
environment and, for traced runs, the spans are also written to
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

NPROC = len(os.sched_getaffinity(0))
# Cap native thread pools before NumPy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = str(NPROC)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from tracing import (CORE, LAYERS, SETUP, Tracer,  # noqa: E402
                     layer_metrics, span_totals)
from workloads import (WORKLOADS, compare_failures,  # noqa: E402
                       output_hashes, probes, verify_failures)


def import_vmlab():
    """Import vmlab from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import vmlab
        import vmlab.cli
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import vmlab from {SRC}: {exc}")
    if not os.path.abspath(vmlab.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: vmlab imported from {vmlab.__file__}, "
                 f"not from {SRC}")
    return vmlab


def environment(seed: int) -> dict:
    import numpy
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": NPROC, "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform(),
            "seed": seed}


class Runner:
    """Runs jobs of one workload and keeps their timings and failures."""

    def __init__(self, vm, wl, inputs, work_dir):
        self.vm = vm
        self.wl = wl
        self.inputs = inputs
        self.work_dir = work_dir
        self.tracer = Tracer(vm, keep=("pic.run",))
        self.attempted = 0
        self.failures = []
        self.hashes = []
        self.jobs = []          # stage timings of each job

    def _fail(self, what, reasons):
        self.failures.append(f"{what}: {'; '.join(reasons)}")
        print(f"perfbench: FAILED {what}: {'; '.join(reasons)}",
              file=sys.stderr)

    def _command(self, kind, argv, job_dir):
        """Run one CLI command and gate it; return (wall, ok)."""
        self.attempted += 1
        n_spans = len(self.tracer.spans)
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.vm.cli.main(argv)
        except Exception as exc:  # a traceback out of the CLI is a failed op
            wall = time.perf_counter() - t0
            self._fail(f"vmlab {' '.join(argv[:2])}",
                       [f"raised {type(exc).__name__}: {exc}"])
            return wall, False
        wall = time.perf_counter() - t0
        if rc != 0:
            self._fail(f"vmlab {' '.join(argv[:2])}",
                       [f"exit code {rc}", err.getvalue().strip()[-500:]])
            return wall, False
        try:
            reasons = self._gate(kind, job_dir, n_spans)
        except (OSError, ValueError, KeyError) as exc:
            reasons = [f"unreadable output: {type(exc).__name__}: {exc}"]
        if reasons:
            self._fail(f"vmlab {' '.join(argv[:2])}", reasons)
        return wall, not reasons

    def _gate(self, kind, job_dir, n_spans):
        if kind == "warmup":   # cut-down inputs; only the exit code counts
            return []
        if kind == "verify":
            return verify_failures(job_dir)
        if kind == "compare":
            return compare_failures(job_dir, len(probes()))
        result = self.tracer.returned.pop("pic.run", None)
        runs = [s for s in self.tracer.spans[n_spans:] if s.name == "pic.run"]
        if len(runs) != 1 or result is None:
            return ["simulate did not call pic.run once"]
        reasons = self.wl.gate(self.vm, result)
        self.hashes.append(output_hashes(os.path.join(job_dir, "run")))
        if len(self.hashes) > 1:
            self.attempted += 1    # the byte-determinism comparison
            if self.hashes[-1] != self.hashes[0]:
                self._fail("determinism", [
                    f"{name} differs from the first repeat"
                    for name in self.hashes[0]
                    if self.hashes[-1][name] != self.hashes[0][name]])
        return reasons

    def warm_up(self):
        """Run the workload's commands once on cut-down inputs, so that the
        costs of first calls into vmlab fall outside the timed jobs."""
        job_dir = os.path.join(self.work_dir, "warmup")
        os.makedirs(job_dir)
        for _, argv in self.wl.steps(self.inputs, job_dir, warmup=True):
            if not self._command("warmup", argv, job_dir)[1]:
                break
        shutil.rmtree(job_dir)

    def job(self, traced=False):
        """Run the command sequence once in a fresh directory, with every
        layer wrapped if ``traced``."""
        job_id = self.tracer.job = len(self.jobs)
        job_dir = os.path.join(self.work_dir, f"job{job_id}")
        os.makedirs(job_dir)
        stages = {"job": job_id, "traced": traced, "job_s": 0.0}
        ok = True
        with (self.tracer.patched(LAYERS) if traced
              else contextlib.nullcontext()):
            for kind, argv in self.wl.steps(self.inputs, job_dir):
                if not ok:     # a step after a failed one cannot run
                    self.attempted += 1
                    self._fail(f"vmlab {argv[0]}", ["previous step failed"])
                    continue
                wall, ok = self._command(kind, argv, job_dir)
                stages["job_s"] += wall
                if kind == "simulate":
                    stages["simulate_s"] = wall
                if kind == "compare":
                    stages["compare_s"] = wall
        shutil.rmtree(job_dir)
        total = span_totals(self.tracer.spans, job_id)[0]
        stages["setup_s"] = sum(total[name] for name in SETUP)
        simulate_s = stages.pop("simulate_s", None)
        if simulate_s is not None and "pic.run" in total:
            stages["pic_run_s"] = total["pic.run"]
            stages["write_s"] = simulate_s - total["pic.run"]
        self.jobs.append(stages)

    def run_for(self, seconds, min_jobs=1):
        """Untraced jobs until ``seconds`` pass: at least ``min_jobs``, and
        no job that would be expected to end past the deadline."""
        t_end = time.perf_counter() + seconds
        for k in itertools.count(1):
            self.job()
            typical = statistics.median(j["job_s"] for j in self.jobs)
            if k >= min_jobs and time.perf_counter() + typical > t_end:
                return

    def run_pairs(self, seconds):
        """Pairs of an untraced and a traced job until ``seconds`` pass, at
        least two; every other pair runs the traced job first, so that a
        steady drift of the machine cancels between pairs."""
        t_end = time.perf_counter() + seconds
        for k in itertools.count(1):
            for traced in ((False, True), (True, False))[k % 2 == 0]:
                self.job(traced)
            typical = statistics.median(
                j["job_s"] for j in self.jobs) * 2
            if k >= 2 and time.perf_counter() + typical > t_end:
                return


def median(values):
    values = list(values)
    return statistics.median(values) if values else None


def stage_metrics(wl, jobs, attempted, failed):
    """Job stages; None where the workload has no such stage."""
    scn = wl.scenario
    per_s = None
    if scn is not None:
        steps = round(scn["t_final"] / scn["dt"])
        per_s = median(scn["n_particles"] * steps / j["pic_run_s"]
                       for j in jobs if "pic_run_s" in j)
    return {
        "sim_particle_steps_per_s": per_s,
        "write_s": median(j["write_s"] for j in jobs if "write_s" in j),
        "compare_s": median(j["compare_s"] for j in jobs if "compare_s" in j),
        "ops_failed_frac": failed / attempted,
    }


def metric_units() -> dict:
    """Units of every metric, as declared in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"]
            for m in bench["end_to_end"] + bench["per_layer"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    vm = import_vmlab()
    units = metric_units()
    wl = WORKLOADS[args.workload]
    env = environment(args.seed)
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    work_dir = os.path.join(OUT, "work", tag)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    inputs = wl.prepare(work_dir, args.seed)

    runner = Runner(vm, wl, inputs, work_dir)
    runner.warm_up()
    with runner.tracer.patched(CORE):
        if args.trace:
            runner.run_pairs(args.seconds)
        else:
            # two simulates give the same-seed repeat the hashes need
            runner.run_for(args.seconds, 1 if wl.scenario is None else 2)
    shutil.rmtree(work_dir, ignore_errors=True)
    untraced = [j for j in runner.jobs if not j["traced"]]
    traced = [j for j in runner.jobs if j["traced"]]

    failed = len(runner.failures)
    attempted = runner.attempted
    stages = stage_metrics(wl, untraced, attempted, failed)
    if args.trace:
        per_job = [layer_metrics(runner.tracer.spans, j["job"])
                   for j in traced]
        metrics = {name: median(m[name] for m in per_job)
                   for name in per_job[0]}
        # per-layer metrics of a stage the workload lacks read 0
        metrics.update({k: v or 0.0 for k, v in stages.items()})
        metrics["trace.overhead_frac"] = median(
            t["job_s"] / u["job_s"] - 1.0 for u, t in zip(untraced, traced))
    else:
        metrics = {
            "setup_s": median(j["setup_s"] for j in untraced),
            "job_s": median(j["job_s"] for j in untraced),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", tag + ".json"), "w") as fh:
        json.dump({"environment": env, "workload": wl.name,
                   "jobs": runner.jobs,
                   "stages": stages, "failures": runner.failures,
                   "result": result}, fh, indent=1)
    if args.trace:
        os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
        with open(os.path.join(OUT, "traces", tag + ".jsonl"), "w") as fh:
            for s in runner.tracer.spans:
                fh.write(json.dumps(s.to_dict()) + "\n")

    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"workload {wl.name}: {len(untraced)} untraced and {len(traced)} "
          f"traced jobs, {attempted} operations, {failed} failed")
    for name, value in {**metrics, **stages}.items():
        text = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:44s} {text:>16s} {units[name]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
