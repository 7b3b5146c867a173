"""Benchmark of the `wpc` command: one workload, end-to-end or per-layer metrics.

    python3 wpcbench/run.py --workload greedy-hs --seed 1 --seconds 20 --trace 0

Run from the repository root. Every job is a fresh `python -m wpcontent.cli`
process with `src` on the path, timed from spawn to exit; its CPU time
and peak resident set come from the child's `wait4` rusage. The jobs of
a run repeat one command on inputs made from `--seed`, one at a time,
until `--seconds` have passed, and every job's outputs are checked
against the benchmark's own computation. With `--trace 1` the run
alternates untraced jobs with jobs run under `tracer.py` and reports the
per-layer metrics instead. Thread variables (`OPENBLAS_NUM_THREADS` and
the like) are passed through as given, never set, and recorded.

The last line of standard output is the JSON result; the line before it
is the environment fingerprint.
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
import threading
import time
from pathlib import Path

import numpy as np
from tracer import METRICS as LAYER_UNITS, layer_metrics
from workloads import WORKLOADS, CheckFailed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
JOB_TIMEOUT_S = 60.0
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
END_TO_END = {"setup_s": "s", "job_s": "s", "job_cpu_s": "s", "peak_rss_mb": "MB"}


def job_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], env: dict[str, str], log: Path) -> dict:
    """Run one process to its end: exit code, wall, CPU and peak RSS.

    A process still running after JOB_TIMEOUT_S is killed, and so is one
    whose wait is interrupted, so none outlives the benchmark.
    """
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "exit": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss * 1024 / 1e6,  # ru_maxrss is in KiB on Linux
    }


def fingerprint() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_id = "unknown"
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_id,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha,
    }


def setup_probe(env: dict[str, str], work: Path) -> float:
    """Wall time of a fresh interpreter importing `wpcontent.cli`."""
    res = spawn([sys.executable, "-c", "import wpcontent.cli"], env, work / "setup.log")
    if res["exit"] != 0:
        raise RuntimeError("importing wpcontent.cli failed:\n" + (work / "setup.log").read_text())
    return res["wall_s"]


def run_job(wl, inputs, work: Path, job: int, traced: bool, env,
            keep: bool = False) -> tuple[dict, str | None]:
    """One job and its check; returns (measurement, failure message or None).

    The outputs of a job that passed are removed unless `keep` is set.
    """
    out = work / f"job{job}"
    out.mkdir()
    if traced:
        argv = [sys.executable, str(HERE / "tracer.py"), "--job", str(job),
                "--spans", str(out / "spans.json"), "--", *wl.argv(inputs, out)]
    else:
        argv = [sys.executable, "-m", "wpcontent.cli", *wl.argv(inputs, out)]
    res = spawn(argv, env, out / "log.txt")
    failure = None
    if res["exit"] != 0:
        failure = f"exit {res['exit']}: " + (out / "log.txt").read_text()[-2000:]
    else:
        try:
            wl.check(inputs, out)
        except (CheckFailed, OSError, ValueError, KeyError, TypeError) as exc:
            failure = f"check failed: {type(exc).__name__}: {exc}"
    if traced and failure is None:
        with open(out / "spans.json", encoding="utf-8") as fh:
            res["trace"] = json.load(fh)
        res["trace"]["report_bytes"] = sum(
            p.stat().st_size for p in (out / "report.json", out / "steps.csv") if p.exists()
        )
    if failure is None and not keep:
        shutil.rmtree(out)
    return res, failure


def checker_rejects(wl, inputs, good: Path, work: Path) -> str | None:
    """Corrupt a copy of good outputs; the check must reject it."""
    bad = work / "corrupt"
    shutil.copytree(good, bad)
    what = wl.corrupt(bad)
    try:
        wl.check(inputs, bad)
    except CheckFailed:
        return None
    finally:
        shutil.rmtree(bad)
    return f"the {wl.__class__.__name__} check accepted a {what}"


def main() -> int:
    p = argparse.ArgumentParser(description="Benchmark the wpc command on one workload.")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (SRC / "wpcontent" / "cli.py").is_file():
        print(f"error: {SRC / 'wpcontent'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    env = job_env()
    print("fingerprint " + json.dumps(fingerprint()), flush=True)
    (ROOT / ".wpcbench").mkdir(exist_ok=True)
    work = ROOT / ".wpcbench" / f"run-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    (work / "in").mkdir(parents=True)
    try:
        inputs = wl.make_inputs(args.seed, work / "in")
        correct = True
        failures = []

        # Warm-up job, untimed: it fills the file cache, and its outputs
        # prove that the check can fail.
        setup_probe(env, work)
        res, failure = run_job(wl, inputs, work, 0, False, env, keep=True)
        attempted, failed = 1, 0
        if failure is None:
            refusal = checker_rejects(wl, inputs, work / "job0", work)
            if refusal is not None:
                correct = False
                failures.append(refusal)
        else:
            failed = 1
            failures.append(f"warm-up job: {failure}")

        # Whole rounds until the time is up. A round of the end-to-end run is
        # one set-up probe and one job, so both sample the same moments of a
        # machine whose speed drifts; a traced round is one untraced and one
        # traced job.
        setup, plain, traced = [], [], []
        job = 0
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds:
            if not args.trace:
                setup.append(setup_probe(env, work))
            for with_trace in ([False, True] if args.trace else [False]):
                job += 1
                res, failure = run_job(wl, inputs, work, job, with_trace, env)
                attempted += 1
                if failure is not None:
                    failed += 1
                    failures.append(f"job {job}: {failure}")
                else:
                    (traced if with_trace else plain).append(res)
        for msg in failures:
            print(msg, file=sys.stderr)
        if not plain or (args.trace and not traced):
            print("error: no measured job of this run succeeded", file=sys.stderr)
            return 1

        if args.trace:
            values = layer_metrics([r["trace"] for r in traced])
            values["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - (
                statistics.median(r["wall_s"] for r in plain)
            )
            units = LAYER_UNITS
            with open(ROOT / ".wpcbench" / f"spans-{args.workload}.json", "w") as fh:
                json.dump([r["trace"] for r in traced], fh)
        else:
            values = {
                "setup_s": statistics.median(setup),
                "job_s": statistics.median(r["wall_s"] for r in plain),
                "job_cpu_s": statistics.median(r["cpu_s"] for r in plain),
                "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
            }
            units = END_TO_END
        print(f"{len(plain)} untraced and {len(traced)} traced jobs measured", file=sys.stderr)
        result = {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
