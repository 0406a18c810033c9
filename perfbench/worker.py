"""One benchmark child process: set up a workload, run it, write the results.

run.py starts this script with the BLAS thread count pinned in the
environment, so numpy reads it before it loads. With ``--setup-only`` the
child stops when set-up is done; run.py starts a few of those to take the
median set-up time.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import time
from pathlib import Path

import numpy as np

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent


def run_pass(wl, ops: list[workloads.Op], traced: bool, samples: list) -> dict:
    """Run every operation once, in order; each starts when the last has ended."""
    gc.collect()
    tracer = undo = None
    cli = isinstance(wl, workloads.CliPipeline)
    if traced and cli:
        wl.traced = True
    elif traced:
        tracer = spans.Tracer()
        undo = tracer.install()
    parts, wall, rss_mb = [], 0.0, 0.0
    started = time.monotonic()
    for op in ops:
        if tracer:
            tracer.enabled = True
        t0 = time.perf_counter()
        try:
            out, problem = op.run(), None
        except Exception as e:  # a failed operation is counted, not fatal
            out, problem = None, f"{type(e).__name__}: {e}"
        seconds = time.perf_counter() - t0
        if tracer:
            tracer.enabled = False
        wall += seconds
        if problem is None:
            try:
                problem = op.check(out)
            except Exception as e:
                problem = f"check raised {type(e).__name__}: {e}"
        if isinstance(out, workloads.CliRun):
            rss_mb = max(rss_mb, out.rss_mb)
            if out.spans_file is not None:
                part = spans.summarize(json.loads(out.spans_file.read_text()))
                # the runner's only root span is cli.main
                part["cli.startup_s"] = seconds - part["_root_s"]
                parts.append(part)
        samples.append([op.kind, seconds, problem, op.label])
    if undo:
        undo()
        parts.append(spans.summarize(tracer.dump()))
    if cli:
        wl.traced = False
    return {
        "traced": traced,
        "ops": len(ops),
        "wall": wall,
        "elapsed": time.monotonic() - started,
        "rss_mb": rss_mb,
        "layers": spans.combine(parts) if traced else None,
    }


def layer_metrics(passes: list[dict], setup_layers: dict) -> dict:
    """Per-layer metrics of one traced pass (median over traced passes).

    construct.* also counts the fixtures built in set-up, which is where the
    in-process workloads call the construct layer.
    """
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    keys = set().union(*(p["layers"] for p in traced))
    pass_part = {k: statistics.median(p["layers"].get(k, 0.0) for p in traced) for k in keys}
    setup_part = {k: setup_layers.get(k, 0.0) for k in ("construct.build_s", "construct.calls")}
    out = spans.finish(spans.combine([pass_part, setup_part]))
    out["trace.overhead_s"] = (statistics.median(p["wall"] for p in traced)
                               - statistics.median(p["wall"] for p in plain))
    out["trace.coverage"] = statistics.median(p["layers"]["_root_s"] / p["wall"] for p in traced)
    return out


def environment() -> dict:
    """What the numbers depend on: versions, thread pins, CPU and commit."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")
                 if k in blas},
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": caches,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True, help="scratch directory for state files")
    ap.add_argument("--out", required=True, help="where to write the result JSON")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    setup_tracer = spans.Tracer() if args.trace else None
    undo = setup_tracer.install() if setup_tracer else None
    wl = workloads.WORKLOADS[args.workload](args.seed, work)
    if undo:
        undo()
    result = {"ready": time.monotonic(), "seeds": wl.seeds}
    if args.setup_only:
        Path(args.out).write_text(json.dumps(result))
        return 0

    ops = wl.ops()
    samples: list = []
    passes: list[dict] = []
    need = 2 if args.trace else 1
    started = time.monotonic()
    while True:
        # a traced run alternates untraced and traced passes
        passes.append(run_pass(wl, ops, bool(args.trace) and len(passes) % 2 == 1, samples))
        elapsed = time.monotonic() - started
        if len(passes) >= need and elapsed + passes[-1]["elapsed"] > args.seconds:
            break
    result.update(samples=samples, passes=passes, env=environment())
    if args.trace:
        result["layers"] = layer_metrics(passes, spans.summarize(setup_tracer.dump()))
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
