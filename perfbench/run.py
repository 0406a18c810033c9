"""Run one workload of the qcrkit benchmark and print its metrics.

    python3 perfbench/run.py --workload cli-1k --seed 1 --seconds 25 --trace 0

Workloads: cli-1k, certify-density-1k, certify-pure-4k, sweep-small (see
README.md in this directory). Every workload is a closed loop with one
client: each operation starts when the previous one has ended.

The work happens in child processes started from the checkout's ``src``
with BLAS pinned to one thread. A few children only set up, and the median
set-up time is ``setup_s``; one more child sets up and then repeats the
workload's fixed operation list until ``--seconds`` would be exceeded (at
least once). Every output is checked. With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` the run alternates untraced and traced passes and reports the
per-layer metrics instead. The exit code is 0 only when every operation
gave the right output.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# the names of workloads.WORKLOADS; this parent imports neither numpy nor qcrkit
WORKLOADS = ("cli-1k", "certify-density-1k", "certify-pure-4k", "sweep-small")
SETUP_ONLY_CHILDREN = 4
DEADLINE_S = 170.0
# per-kind medians below this are not reported; ops_per_s covers them
KIND_FLOOR_S = 0.010


class ChildFailed(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("QCRKIT_CONFIG", None)  # a user's config file would change tolerances
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=str(ROOT / "src"),
    )
    return env


def run_child(args, work: Path, tag: str, deadline: float, setup_only: bool):
    """Start one worker, wait for it, return (start time, result, rusage)."""
    out = work / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", str(work / tag), "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    started = time.monotonic()
    proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
                            start_new_session=True)
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                raise ChildFailed(f"{tag} did not finish before the deadline")
            time.sleep(0.02)
    except BaseException:
        # the child leads its own process group, which holds every qcr
        # subprocess it started
        os.killpg(proc.pid, signal.SIGKILL)
        os.wait4(proc.pid, 0)
        raise
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise ChildFailed(f"{tag} exited with code {code}")
    return started, json.loads(out.read_text()), usage


def end_to_end(workload: str, setups: list[float], res: dict, usage) -> dict:
    passes = [p for p in res["passes"] if not p["traced"]]
    wall = sum(p["wall"] for p in passes)
    if workload == "cli-1k":
        rss_mb = max(p["rss_mb"] for p in passes)  # largest single qcr process
    else:
        rss_mb = usage.ru_maxrss / 1024.0  # the worker is the only process
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(p["wall"] for p in passes), "s"),
        "ops_per_s": (sum(p["ops"] for p in passes) / wall, "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def kind_medians(samples: list) -> dict:
    by_kind: dict[str, list[float]] = {}
    for kind, seconds, _, _ in samples:
        by_kind.setdefault(kind, []).append(seconds)
    return {f"{k}_s": (statistics.median(v), len(v)) for k, v in sorted(by_kind.items())
            if statistics.median(v) >= KIND_FLOOR_S}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "qcrkit" / "__init__.py").is_file():
        print(f"perfbench: no qcrkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    work = ROOT / ".perfbench" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        for i in range(SETUP_ONLY_CHILDREN):
            started, res, _ = run_child(args, work, f"setup-{i}", deadline, True)
            setups.append(res["ready"] - started)
        started, res, usage = run_child(args, work, "run", deadline, False)
        setups.append(res["ready"] - started)
    except (ChildFailed, OSError, ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only if no other run is using it

    samples = res["samples"]
    failures = [(label, problem) for _, _, problem, label in samples if problem]
    if args.trace:
        metrics = {k: (v, spans.METRICS[k]) for k, v in res["layers"].items()}
    else:
        metrics = end_to_end(args.workload, setups, res, usage)

    passes = res["passes"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}  operations {len(samples)}  failed {len(failures)}")
    print("seeds " + json.dumps(res["seeds"]))
    print("environment " + json.dumps(res["env"]))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {unit}")
    if not args.trace:
        for name, (value, count) in kind_medians(samples).items():
            print(f"  {name:<36} {value:>14.6g} s   median of {count}")
    for label, problem in failures[:20]:
        print(f"  FAILED {label}: {problem}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
