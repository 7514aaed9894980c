"""pqvol benchmark: seeded CLI workloads, checked answers, named metrics.

    python3 perfbench/run.py --workload large --seed 1 --seconds 60 --trace 0

Closed loop, one client, ``--jobs`` left at 1.  A run starts a few
set-up probes, then fresh worker processes one after another, each
running the workload's whole op list (one job) through
``pqvol.cli.main``, as long as the next job is expected to end within
--seconds (at least MIN_JOBS jobs).  Answers are checked against
references computed after the timed jobs (perfbench/workloads.py).
Every op runs once per job, so a run times each op several times, in
fresh processes; an op's time is its best over the run's untraced jobs
(the way timeit reports a best-of-N).  On a shared machine the speed
drifts by tens of percent over seconds to minutes, and a best-of-N time
is steadier across runs than a median job wall.  wall_s is the job's time
with every op at its best, the sum of those op times; op_ms_p50/p90
are percentiles (interpolated) over the job's ops of the same op times.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
and traced jobs and prints the per-layer metrics of the traced ones,
with trace.overhead_s = traced wall_s - untraced wall_s (both measured
the same way, over traced and untraced jobs).  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.
Per-run records (with nproc, Python version, load average and commit)
and the spans of traced jobs go to .perfbench/ under the checkout.
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
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

from tracer import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS, Reference, count_failures, make_ops  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
SETUP_PROBES = 5
MIN_JOBS = 3
RUN_LIMIT_S = 170  # a run must finish inside 180 s, whatever --seconds says


def best_op_ms(jobs):
    """Each op's best latency (ms) over the jobs; every job runs the same op list."""
    return [min(job["ops"][i]["ms"] for job in jobs) for i in range(len(jobs[0]["ops"]))]


def environment():
    commit = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=10).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "loadavg": list(os.getloadavg()), "commit": commit}


class Worker:
    """One fresh worker process; times set-up from spawn to its 'ready' line."""

    def __init__(self, args, workdir, tag, trace=False, probe=False):
        self.result = os.path.join(workdir, f"{tag}.json")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--workdir", workdir, "--result", self.result]
        if trace:
            cmd += ["--trace", os.path.join(STATE, f"spans-{args.workload}.bin")]
        if probe:
            cmd.append("--probe")
        self.errlog = open(os.path.join(workdir, f"{tag}.err"), "w")
        t0 = time.perf_counter()
        # a fixed string-hash seed keeps set and dict orders the same in every job
        env = dict(os.environ, PYTHONHASHSEED="0")
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=self.errlog,
                                     text=True, cwd=ROOT, env=env)
        ready = self.proc.stdout.readline().strip() == "ready"
        self.setup_s = time.perf_counter() - t0 if ready else None

    def finish(self, timeout):
        """Wait for the worker; returns its job record, or None if it failed."""
        try:
            self.proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"worker timed out after {timeout:.0f} s", file=sys.stderr)
        finally:
            self.proc.kill()  # no-op once the worker has exited
            self.proc.wait()
            self.proc.stdout.close()
            self.errlog.close()
        code = self.proc.returncode
        if code != 0 or self.setup_s is None:
            with open(self.errlog.name, encoding="utf-8") as fh:
                print(f"worker failed (exit {code}): {fh.read()[-2000:]}", file=sys.stderr)
            return None
        if not os.path.exists(self.result):  # a probe, or a job that wrote nothing
            return None
        with open(self.result, encoding="utf-8") as fh:
            return json.load(fh)


def measure(args, workdir):
    """Probes, then jobs until --seconds have passed; returns (setups, jobs)."""
    start = time.perf_counter()
    setups = []
    for k in range(SETUP_PROBES):
        w = Worker(args, workdir, f"probe{k}", probe=True)
        w.finish(timeout=60)
        setups.append(w.setup_s)
    jobs = []
    begin = time.perf_counter()
    longest = 0.0
    while True:
        traced = bool(args.trace) and len(jobs) % 2 == 1
        t0 = time.perf_counter()
        w = Worker(args, workdir, f"job{len(jobs)}", trace=traced)
        setups.append(w.setup_s)
        job = w.finish(timeout=max(1.0, RUN_LIMIT_S - (time.perf_counter() - start)))
        jobs.append((traced, job))
        longest = max(longest, time.perf_counter() - t0)
        if job is None or time.perf_counter() - start > RUN_LIMIT_S / 2:
            break
        if len(jobs) >= MIN_JOBS and time.perf_counter() - begin + longest > args.seconds:
            break
    return setups, jobs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="pqvol benchmark")
    ap.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "pqvol", "__init__.py")):
        print(f"error: no pqvol sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(STATE, exist_ok=True)
    workdir = os.path.join(STATE, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        setups, jobs = measure(args, workdir)
        ops, _ = make_ops(args.workload, args.seed, workdir)
        sys.path.insert(0, SRC)
        ref = Reference()
        attempted = failed = 0
        for _, job in jobs:
            attempted += len(ops)
            failed += len(ops) if job is None else count_failures(ref, ops, job["ops"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    done = [(traced, job) for traced, job in jobs if job is not None]
    plain = [job for traced, job in done if not traced]
    metrics = {}
    if plain and all(s is not None for s in setups):
        latencies = best_op_ms(plain)
        deciles = statistics.quantiles(latencies, n=10, method="inclusive")
        values = {
            "wall_s": sum(latencies) / 1e3,
            "op_ms_p50": deciles[4],
            "op_ms_p90": deciles[8],
            "peak_rss_mb": statistics.median(job["rss_mb"] for job in plain),
            "setup_s": statistics.median(setups),
        }
        traced_jobs = [job for traced, job in done if traced]
        if args.trace and traced_jobs:
            for name, (unit, _) in LAYER_METRICS.items():
                if name != "trace.overhead_s":
                    vals = [job["layers"][name] for job in traced_jobs]
                    metrics[name] = {"value": statistics.median(vals), "unit": unit}
            overhead = sum(best_op_ms(traced_jobs)) / 1e3 - values["wall_s"]
            metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        elif not args.trace:
            metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    if not metrics:
        failed = max(failed, 1)
    fail_frac = failed / attempted if attempted else 1.0

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": environment(), "jobs": len(jobs),
        "job_walls_s": [job["wall_s"] for _, job in done],
        "job_rss_mb": [job["rss_mb"] for _, job in done], "setups_s": setups,
        "job_op_ms": [[op["ms"] for op in job["ops"]] for _, job in done],
        "job_traced": [traced for traced, _ in done],
        "attempted": attempted, "failed": failed, "fail_frac": fail_frac, "metrics": metrics,
    }
    with open(os.path.join(STATE, f"result-{args.workload}-{args.seed}-t{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    env = record["env"]
    print(f"pqvol benchmark: workload {args.workload}, seed {args.seed}, "
          f"{len(jobs)} jobs ({len(done)} completed) of {len(ops)} ops each, "
          f"{attempted} ops, trace {args.trace}")
    print(f"env: nproc {env['nproc']}, python {env['python']}, "
          f"loadavg {' '.join(f'{x:.2f}' for x in env['loadavg'])}, commit {env['commit']}")
    print(f"{'fail_frac':<48} {fail_frac:.6g} (failed {failed} of {attempted})")
    for name, m in metrics.items():
        print(f"{name:<48} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
