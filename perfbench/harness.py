"""Set-up, timed calls, output checks and the result line of one run."""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import traceback
from time import perf_counter

import numpy as np

import talnet
from tracing import Tracer, instrumented, layer_patches, per_layer_metrics
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUPS = 5


def measure(workload, ctx, seconds, tracer=None, patches=()):
    """Call the workload until `seconds` have passed.

    Without a tracer every call runs untraced. With one, calls alternate
    untraced and traced, at least one of each, so that both modes see the
    same machine conditions. Returns per mode (untraced, traced) the wall
    time of each successful call and the operations attempted, and one
    failure flag per operation. Output checks run outside the timed calls
    and outside the trace.
    """
    times, ops, failed = ([], []), [0, 0], []
    start = perf_counter()
    calls = 0
    while calls < (2 if tracer else 1) or perf_counter() - start < seconds:
        traced = calls % 2 if tracer else 0
        calls += 1
        ops[traced] += workload.ops(ctx)
        with instrumented(patches if traced else ()):
            if traced:
                tracer.new_trace()
                tracer.begin(workload.span)
            t0 = perf_counter()
            try:
                out = workload.call(ctx)
            except Exception:  # a failed call counts its operations as failed
                traceback.print_exc()
                failed += [True] * workload.ops(ctx)
                continue
            finally:
                if traced:
                    tracer.end()
            times[traced].append(perf_counter() - t0)
        failed += workload.check(ctx, out)
    return times, ops, failed


def rate(workload, ctx, times):
    """Items per second of summed call wall time. The machine's speed drifts
    in phases of seconds to minutes; a time-weighted mean over the run
    averages them, where a median over calls would pick one."""
    return workload.items(ctx) * len(times) / sum(times) if times else 0.0


def metadata(args):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "git_commit": git_commit(ROOT), "src_sha256": tree_digest(SRC),
    }


def tree_digest(directory):
    """Hash of every Python source under `directory`: the code state even
    where the checkout carries no `.git`."""
    digest = hashlib.sha256()
    for base, _, files in sorted(os.walk(directory)):
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, directory).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def git_commit(root):
    """HEAD of the checkout, read from `.git` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run(args):
    if os.path.dirname(os.path.abspath(talnet.__file__)) != os.path.join(SRC, "talnet"):
        raise SystemExit(f"talnet imported from {talnet.__file__}, not from {SRC}")
    workload = WORKLOADS[args.workload]
    out_dir = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    tracer = Tracer() if args.trace else None
    patches = layer_patches(tracer, workload.count_forward_graph) if tracer else []

    setup_times = []
    for _ in range(SETUPS):
        with instrumented(patches):
            t0 = perf_counter()
            ctx = workload.setup(args.seed, out_dir)
            setup_times.append(perf_counter() - t0)

    meta = metadata(args)
    times, ops, failed = measure(workload, ctx, args.seconds, tracer, patches)
    plain = rate(workload, ctx, times[0])
    if not tracer:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "items_per_s": (plain, "1/s"),
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "ops_ok_frac": (1.0 - sum(failed) / len(failed), "frac"),
        }
    else:
        traced = rate(workload, ctx, times[1])
        overhead = plain / traced - 1.0 if plain and traced else 0.0
        metrics = per_layer_metrics(tracer, n_ops=ops[1])
        metrics["trace.overhead_frac"] = (overhead, "frac")
        metrics["trainer.loss_final"] = (getattr(ctx, "loss_final", 0.0), "loss")
        meta["tracing_overhead_frac"] = overhead
        tracer.write_jsonl(os.path.join(out_dir, "spans.jsonl"))
    meta["loss_final"] = getattr(ctx, "loss_final", None)
    meta["call_seconds"] = {"untraced": times[0], "traced": times[1]}
    with open(os.path.join(out_dir, "meta.json"), "w") as fh:
        json.dump(meta, fh, indent=1)
    print(json.dumps(meta))
    return {
        "correct": not any(failed),
        "attempted": len(failed),
        "failed": sum(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }

