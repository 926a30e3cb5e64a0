"""Run one benchmark workload and print its metrics; the last stdout line is JSON.

    python3 bench/run.py --workload decay --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository: the package is imported from its
`src/` directory, so there is nothing to build.  The load is a closed loop,
one client in one process: ops run back to back, in passes over the
workload's deck (see workloads.py), until `--seconds` of op time have passed
and the current pass is complete.  Each op's output is checked after its
timer stops.  BLAS threads are left at their default and reported.

`--trace 0` reports the end-to-end metrics.  `--trace 1` alternates untraced
and traced passes and reports per-layer metrics from spans recorded at the
package's public-function boundaries (see spans.py).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "rieszseq").is_dir():
    sys.exit(f"no program to measure: {ROOT / 'src' / 'rieszseq'} is missing")
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from rieszseq import cli, constructions, numtheory, spectral, torus  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5          # fresh processes timed for setup_s; the median is reported
WALL_LIMIT_S = 150.0       # no pass starts that could end past this
MODULES = (torus, spectral, numtheory, constructions, cli)


def machine_facts() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = "unknown"
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                getter = getattr(lib, sym)
                getter.restype = ctypes.c_int
                threads = str(getter())
                break
    return (
        f"nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
        f"python={platform.python_version()} numpy={np.__version__} scipy={scipy.__version__} "
        f"blas={blas.get('name')} {blas.get('version')} blas_threads={threads}"
    )


def set_up(workload: str, seed: int, workdir: Path):
    """Imports are done by now; make the inputs of the first pass and run the
    untimed warm-up op.  Returns (workload, first-pass ops, warm-up errors)."""
    workdir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[workload](seed, workdir)
    ops = wl.ops_for_pass(0)
    return wl, ops, wl.warm_up()


def time_setups(args, workdir: Path) -> tuple[list[float], list[str]]:
    """Wall time of SETUP_SAMPLES fresh processes that start, import and set up."""
    samples, errors = [], []
    for i in range(SETUP_SAMPLES):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                "--seed", str(args.seed), "--setup-only", str(workdir / f"setup{i}")]
        t = time.perf_counter()
        proc = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=30)
        samples.append(time.perf_counter() - t)
        if proc.returncode != 0:
            errors.append(f"setup process exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return samples, errors


def run_passes(wl, first_ops, seconds: float, trace: bool, t_start: float):
    """Closed loop over whole passes.  Returns per-pass records and the recorder."""
    rec = spans.Recorder()
    passes = []
    p, ops, longest = 0, first_ops, 0.0
    while True:
        traced = trace and p % 2 == 1
        undo = spans.instrument(rec, MODULES) if traced else []
        record = {"traced": traced, "lat": {}, "errors": []}
        t_pass = time.perf_counter()
        for op in ops:
            if traced:
                rec.op += 1
                root = rec.open(spans.OP_SPAN)
            t = time.perf_counter()
            try:
                wl.run(op)
                err = None
            except Exception as exc:  # an op failure is counted, not fatal
                err = f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t
            if traced:
                rec.close(root, failed=err is not None)
            if err is None:
                try:
                    problems = wl.check(op)
                except Exception as exc:
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
                err = "; ".join(problems) or None
            record["lat"][op.index] = dt
            if err:
                record["errors"].append(f"op {op.index} {op.params}: {err}")
        spans.uninstrument(undo)
        longest = max(longest, time.perf_counter() - t_pass)
        passes.append(record)
        p += 1
        done = (op_time(passes) >= seconds
                or time.perf_counter() - t_start + longest > WALL_LIMIT_S)
        # a traced run ends on an untraced pass: pass 0, then traced/untraced pairs
        if done and (not trace or (p >= 3 and p % 2 == 1)):
            break
        ops = wl.ops_for_pass(p)
    return passes, rec


def op_time(passes) -> float:
    return sum(sum(r["lat"].values()) for r in passes)


def end_to_end(passes, setup_samples) -> tuple[dict, list[str]]:
    lats = [t for r in passes for t in r["lat"].values()]
    failed = sum(len(r["errors"]) for r in passes)
    # each deck op's median over the passes; the deck has an odd number of ops,
    # so the median of these is one op's, not a mean across a cost gap
    per_op = [statistics.median(r["lat"][i] for r in passes) for i in passes[0]["lat"]]
    metrics = {
        "ops_per_s": ((len(lats) - failed) / sum(lats), "1/s"),
        "op_p50_s": (statistics.median(per_op), "s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = [
        f"ops_per_s: {len(lats) - failed} completed ops / {sum(lats):.3f} s of timed op time",
        f"op_p50_s: median over the {len(per_op)} deck ops of each op's median latency in "
        f"{len(passes)} passes ({len(lats)} ops); no tail percentile is reported, since "
        f"p90 needs 100 ops to have ten beyond it",
        f"setup_s: median of {len(setup_samples)} fresh processes: "
        + ", ".join(f"{s:.3f}" for s in setup_samples),
        f"op_fail_ratio: {failed / len(lats):g} ({failed} failed of {len(lats)} attempted)",
    ]
    return metrics, notes


def per_layer(passes, rec) -> tuple[dict, list[str]]:
    metrics, notes = spans.summary(rec)
    # pass 0 runs first after set-up and is slower on some workloads; it is left out
    plain = op_time([r for r in passes[1:] if not r["traced"]])
    traced = op_time([r for r in passes if r["traced"]])
    metrics["trace.overhead_ratio"] = (traced / plain - 1.0, "ratio")
    lines = [f"{k}: {v}" for k, v in notes.items()]
    lines.append(f"trace.overhead_ratio: base {plain:.3f} s untraced vs {traced:.3f} s traced op time")
    return metrics, lines


def main(argv=None) -> int:
    t_start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_only:
        errors = set_up(args.workload, args.seed, Path(args.setup_only))[2]
        for e in errors:
            print(e, file=sys.stderr)
        return 1 if errors else 0

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        setup_samples, errors = ([], []) if args.trace else time_setups(args, workdir)
        wl, ops, warm_errors = set_up(args.workload, args.seed, workdir / "run")
        errors += [f"warm-up: {e}" for e in warm_errors]
        passes, rec = run_passes(wl, ops, args.seconds, bool(args.trace), t_start)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    if args.trace:
        metrics, notes = per_layer(passes, rec)
    else:
        metrics, notes = end_to_end(passes, setup_samples)
    attempted = sum(len(r["lat"]) for r in passes)
    failed = sum(len(r["errors"]) for r in passes)
    errors += [e for r in passes for e in r["errors"]]

    print(f"machine: {machine_facts()}")
    print(f"workload {args.workload} seed {args.seed}: {len(passes[0]['lat'])}-op deck, "
          f"{len(passes)} passes, closed loop with one client")
    for line in notes:
        print(f"  {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for e in errors[:20]:
        print(f"  FAILED {e}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
