#!/usr/bin/env python3
"""Record the reference outputs the benchmark's output check compares with.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Runs each workload (all by default) at ``workloads.REFERENCE_SEED`` and
writes ``perfbench/reference/<workload>.npz``.  Re-record only for a change
that is meant to alter the outputs, and say so where the change is
described.
"""

from __future__ import annotations

import contextlib
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import check  # noqa: E402
import workloads  # noqa: E402
from mapdecay import config_from_dict, run_scenario  # noqa: E402
from mapdecay.scenario import build_offline_phase  # noqa: E402


def record(workload: str) -> Path:
    raw = workloads.make_config(workload, workloads.REFERENCE_SEED)
    cfg = config_from_dict(raw)
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(sys.stderr):
            metrics = run_scenario(cfg, offline=build_offline_phase(cfg), output_dir=out)
        outputs = check.read_outputs(Path(out))
    problems = check.check_invariants(metrics, outputs)
    if problems:
        raise SystemExit(f"{workload}: not recording, invariants fail: {problems}")
    path = HERE / "reference" / f"{workload}.npz"
    check.save_reference(path, workloads.config_digest(raw), metrics, outputs)
    return path


def main(argv: list[str]) -> int:
    for workload in argv or list(workloads.WORKLOADS):
        path = record(workload)
        print(f"{workload}: {path} ({path.stat().st_size} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
