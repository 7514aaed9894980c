"""One job of one workload, in a fresh interpreter.

Set-up (interpreter start, ``import pqvol``, writing the seeded inputs)
ends when this process prints ``ready``.  The job then runs its ops back
to back through ``pqvol.cli.main`` in this process, one client, and
writes each op's exit code, output and latency to the result file.  With
``--trace FILE`` the ops run under the outside-in tracer and the spans
are written to FILE once the job is done.

Run by perfbench/run.py; by hand:
    python3 perfbench/worker.py --workload large --seed 1 \
        --workdir .perfbench/w --result .perfbench/w/result.json
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def run_ops(cli, ops, tracer=None):
    """Run ops in order; returns per-op results and the first-start/last-end times."""
    results, first, last = [], None, None
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.run_id = i
        out, err, res = io.StringIO(), io.StringIO(), {}
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                res["rc"] = cli.main(list(op["argv"]))
            except SystemExit as exc:
                res["rc"] = exc.code
            except Exception:  # an op that raises is a failed op, not a failed job
                res["error"] = traceback.format_exc(limit=5)
            t1 = time.perf_counter()
        first = t0 if first is None else first
        last = t1
        res.update(ms=(t1 - t0) * 1e3, out=out.getvalue(), err=err.getvalue()[-2000:])
        results.append(res)
    return results, first, last


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True, help="where to write the job's JSON result")
    ap.add_argument("--trace", help="trace the ops and write the spans here")
    ap.add_argument("--probe", action="store_true", help="stop after set-up")
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    import pqvol
    from pqvol import cli

    if not os.path.abspath(pqvol.__file__).startswith(SRC + os.sep):
        print(f"error: pqvol imported from {pqvol.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import make_ops

    os.makedirs(args.workdir, exist_ok=True)
    ops, files = make_ops(args.workload, args.seed, args.workdir)
    for name, text in files.items():
        with open(os.path.join(args.workdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    print("ready", flush=True)
    if args.probe:
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
        root = tracer.open("job")
    results, first, last = run_ops(cli, ops, tracer)
    job = {
        "wall_s": last - first,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": results,
    }
    if tracer is not None:
        tracer.close(root)
        tracer.uninstall()
        job["layers"] = layer_metrics(tracer)
        tracer.dump(args.trace)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
