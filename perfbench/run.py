#!/usr/bin/env python3
"""mapdecay benchmark: per-tick latency of the online map against the
50 ms budget of a 20 Hz sensor.

Run from the repository root:

    python3 perfbench/run.py --workload overtake --seed 1 --seconds 10 --trace 0

``--trace 0`` times the public entry points only (``load_config`` /
``config_from_dict``, ``build_offline_phase``, ``run_scenario``) and prints
the end-to-end metrics; ``--trace 1`` wraps the layer functions (see
``tracer.py``) and prints the per-layer metrics.  Every run's outputs are
checked (see ``check.py``).  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"

#: Setups timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Ticks a run pools at least, so that >= 10 lie beyond the 97.5th percentile.
MIN_TICKS = 400
#: Tail percentile.  Every 20th tick renders a frame, so the 95th percentile
#: would sit on the edge between rendering and plain ticks and read the
#: slowest plain tick; the 97.5th reads the rendering ticks themselves.
TAIL_PCT = 97.5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def cap_threads() -> dict:
    """Cap BLAS/OpenMP pools at the CPUs this process may use.  Must run
    before numpy is imported."""
    n = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = n
    return {var: n for var in THREAD_VARS}


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git;
    ``unknown`` outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_info(caps: dict) -> dict:
    import numpy
    import scipy
    return {"git_sha": git_sha(), "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "thread_caps": caps,
            "machine": platform.machine()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def setup(workload: str, raw: dict):
    """Config load plus the offline prior, through the public entry points."""
    from mapdecay import config_from_dict, load_config
    from mapdecay.scenario import build_offline_phase
    import workloads

    cfg = load_config(workloads.OVERTAKE_PATH) if workload == "overtake" else config_from_dict(raw)
    return cfg, build_offline_phase(cfg)


def checked_run(cfg, offline, raw: dict, seed: int, workload: str):
    """One ``run_scenario`` call into a fresh directory, timed from outside,
    followed by the output check.  Returns (metrics, seconds, problems)."""
    from mapdecay import run_scenario
    import check
    import workloads

    OUT_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_ROOT) as out:
        with contextlib.redirect_stdout(sys.stderr):  # run summary line
            t0 = time.perf_counter()
            metrics = run_scenario(cfg, offline=offline, output_dir=out)
            seconds = time.perf_counter() - t0
        outputs = check.read_outputs(Path(out))
    problems = check.check_invariants(metrics, outputs)
    ref_path = HERE / "reference" / f"{workload}.npz"
    digest = workloads.config_digest(raw)
    ref = check.load_reference(ref_path) if ref_path.is_file() else None
    if ref is not None and str(ref["config_sha256"]) == digest:
        problems += check.compare_reference(ref, metrics, outputs)
    elif seed == workloads.REFERENCE_SEED:
        problems.append(f"no reference recorded for this config at {ref_path.name}")
    return metrics, seconds, problems


def measure(workload: str, raw: dict, seed: int, seconds: float) -> dict:
    """End-to-end metrics: setup timed SETUP_REPEATS times, then whole
    checked ``run_scenario`` calls, as many as come nearest to ``seconds``
    but at least enough to pool MIN_TICKS ticks."""
    import numpy as np

    setup_times = []
    for _ in range(SETUP_REPEATS):
        cfg = offline = None  # one prior alive at a time keeps peak RSS steady
        t0 = time.perf_counter()
        cfg, offline = setup(workload, raw)
        setup_times.append(time.perf_counter() - t0)

    ticks, per_tick, call_s = [], [], []
    attempted = failed = 0
    rss_mb = None
    start = time.perf_counter()
    # whole calls only: stop at the call count that ends nearest to `seconds`
    while len(ticks) < MIN_TICKS or (
            time.perf_counter() - start + statistics.mean(call_s) / 2 < seconds):
        if failed >= 3:
            break
        attempted += 1
        t0 = time.perf_counter()
        try:
            metrics, run_s, problems = checked_run(cfg, offline, raw, seed, workload)
        except Exception:
            traceback.print_exc()
            failed += 1
            continue
        finally:
            call_s.append(time.perf_counter() - t0)
        if problems:
            failed += 1
            print("output check failed:\n  " + "\n  ".join(problems), file=sys.stderr)
            continue
        ticks.extend(metrics.wall_time * 1e3)
        per_tick.append(1e3 * run_s / len(metrics.wall_time))
        if rss_mb is None:
            # setup plus one checked call; later calls start from whatever
            # freed memory the allocator kept, which shifts their peak by
            # up to two window arrays from run to run
            rss_mb = peak_rss_mb()

    result = {"attempted": attempted, "failed": failed, "metrics": {}}
    if ticks:
        p50, tail = np.percentile(ticks, [50, TAIL_PCT])
        result["samples"] = {"ticks": len(ticks), "beyond_tail": int(np.sum(np.array(ticks) > tail)),
                             "runs": len(per_tick), "setups": len(setup_times)}
        result["metrics"] = {
            "tick_ms_p50": (float(p50), "ms"),
            f"tick_ms_p{TAIL_PCT:g}": (float(tail), "ms"),
            "online_ms_per_tick": (statistics.median(per_tick), "ms"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
            "ok_frac": ((attempted - failed) / attempted, "ratio"),
        }
    return result


def measure_traced(workload: str, raw: dict, seed: int) -> dict:
    """Per-layer metrics: one traced setup and one traced checked run."""
    import tracer

    tr = tracer.Tracer()
    result = {"attempted": 1, "failed": 0, "metrics": {}}
    with tr:
        try:
            tr.phase = "setup"
            cfg, offline = setup(workload, raw)
            tr.phase = "online"
            metrics, run_s, problems = checked_run(cfg, offline, raw, seed, workload)
        except Exception:
            traceback.print_exc()
            result["failed"] = 1
            return result
    if problems:
        result["failed"] = 1
        print("output check failed:\n  " + "\n  ".join(problems), file=sys.stderr)
    result["metrics"] = tracer.layer_metrics(tr, metrics.wall_time, run_s)
    result["samples"] = {"ticks": len(metrics.wall_time), "runs": 1, "setups": 1}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mapdecay").is_dir():
        print(f"error: {SRC / 'mapdecay'} not found; run from a full checkout",
              file=sys.stderr)
        return 2
    caps = cap_threads()
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    try:
        raw = workloads.make_config(args.workload, args.seed)
    except (KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print("machine " + json.dumps(machine_info(caps), sort_keys=True))
    try:
        if args.trace:
            result = measure_traced(args.workload, raw, args.seed)
        else:
            result = measure(args.workload, raw, args.seed, args.seconds)
    finally:
        with contextlib.suppress(OSError):
            OUT_ROOT.rmdir()  # each call's own directory is already gone
    if not result["metrics"]:
        print("error: no run completed", file=sys.stderr)
        return 1

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          + json.dumps(result.get("samples", {}), sort_keys=True))
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:36s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
