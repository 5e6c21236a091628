"""Output checks for one ``run_scenario`` call.

Every run must satisfy three invariants, whatever the seed:

* every stored value of ``offline.ogm`` and ``online_final.ogm`` is finite
  and inside ``[L_MIN, L_MAX]``;
* every trace cell last observed at least 40 ticks before the end is below
  5 % of its peak deviation 40 ticks after that last observation.  Cells
  whose peak deviation is at most ``VALUE_TOL`` are not traces: the decay
  rule leaves ulp-level residues that never fade;
* over the run, at least 99 % of the static cells observed on each tick
  keep online probability above 0.9 (acceptance test 6 asks this of every
  tick; summed over the run, because grazing rays can free a wall-end cell,
  and on a tick that sees only a wall's end that one cell can be 2 %).

When the run's config is the one a reference was recorded from, the maps
and ``metrics.csv`` must also match that reference: observed flags,
integer columns and ``trace_persistence`` exactly, values to within
``VALUE_TOL`` and CSV floats to within ``CSV_TOL``.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

import numpy as np

from mapdecay import grid as mgrid

#: Map values are compared on a grid of this step (2**-40, about 9.1e-13).
QUANTUM = 2.0 ** -40
#: Largest accepted difference of a stored value from its reference: one
#: quantum step either way, so at most 2**-39 (about 1.8e-12).
VALUE_TOL = 2.0 * QUANTUM
#: Largest accepted difference of a float column of metrics.csv, which is
#: printed with 12 significant digits.
CSV_TOL = 1e-10

FADE_TICKS = 40
FADE_FRACTION = 0.05
STATIC_HELD = 0.99

MAP_NAMES = ("offline", "online_final")


def quantize(values: np.ndarray) -> np.ndarray:
    return np.rint(values / QUANTUM).astype(np.int64)


def read_outputs(out_dir: Path) -> dict:
    """The two saved maps and the CSV text of one run."""
    maps = {name: mgrid.read_map(out_dir / f"{name}.ogm") for name in MAP_NAMES}
    return {"maps": maps,
            "csv": (out_dir / "metrics.csv").read_text(encoding="utf-8")}


def check_invariants(metrics, outputs: dict) -> list[str]:
    problems = []
    for name, grid in outputs["maps"].items():
        v = grid.values
        if not np.isfinite(v).all():
            problems.append(f"{name}: {int((~np.isfinite(v)).sum())} non-finite values")
        elif v.min() < mgrid.L_MIN or v.max() > mgrid.L_MAX:
            problems.append(f"{name}: values outside [L_MIN, L_MAX]: "
                            f"{v.min()!r}..{v.max()!r}")

    dev = metrics.trace_dev
    T = dev.shape[0]
    last = metrics.last_observed
    peak = metrics.peak_dev
    eligible = np.nonzero((last >= 0) & (last <= T - 1 - FADE_TICKS) & (peak > VALUE_TOL))[0]
    later = dev[last[eligible] + FADE_TICKS, eligible]
    slow = eligible[later >= FADE_FRACTION * peak[eligible]]
    if slow.size:
        problems.append(f"{slow.size} of {eligible.size} trace cells still above "
                        f"{FADE_FRACTION:.0%} of their peak {FADE_TICKS} ticks "
                        f"after their last observation")

    total = int(np.sum(metrics.static_total))
    if total == 0:
        problems.append("no tick observed a static cell")
    elif np.sum(metrics.static_ok) / total < STATIC_HELD:
        problems.append(f"static cells above p=0.9: {np.sum(metrics.static_ok) / total:.4f} "
                        f"of {total} observed over the run (need {STATIC_HELD})")
    return problems


def _parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def _map_record(grid) -> dict:
    q = quantize(grid.values)
    levels, index = np.unique(q.reshape(-1), return_inverse=True)
    dtype = np.uint16 if len(levels) <= np.iinfo(np.uint16).max else np.int32
    return {
        "header": np.array([grid.resolution, grid.origin_x, grid.origin_y,
                            grid.width, grid.height], dtype=np.float64),
        "levels": levels,
        "index": index.astype(dtype).reshape(q.shape),
        "observed": np.packbits(grid.observed.reshape(-1), bitorder="little"),
    }


def save_reference(path: Path, digest: str, metrics, outputs: dict) -> None:
    arrays = {"config_sha256": np.array(digest),
              "trace_persistence": np.array(-1 if metrics.trace_persistence is None
                                            else metrics.trace_persistence),
              "metrics_csv": np.array(outputs["csv"])}
    for name, grid in outputs["maps"].items():
        for key, value in _map_record(grid).items():
            arrays[f"{name}.{key}"] = value
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        np.savez_compressed(fh, **arrays)


def load_reference(path: Path) -> dict:
    with np.load(path) as data:
        return {key: data[key] for key in data.files}


def compare_reference(ref: dict, metrics, outputs: dict) -> list[str]:
    problems = []
    persistence = -1 if metrics.trace_persistence is None else metrics.trace_persistence
    if persistence != int(ref["trace_persistence"]):
        problems.append(f"trace_persistence {persistence} != reference "
                        f"{int(ref['trace_persistence'])}")

    for name, grid in outputs["maps"].items():
        rec = _map_record(grid)
        if not np.array_equal(rec["header"], ref[f"{name}.header"]):
            problems.append(f"{name}: header {rec['header']} != reference "
                            f"{ref[f'{name}.header']}")
            continue
        if not np.array_equal(rec["observed"], ref[f"{name}.observed"]):
            problems.append(f"{name}: observed flags differ from the reference")
        expected = ref[f"{name}.levels"][ref[f"{name}.index"]]
        off = np.abs(quantize(grid.values) - expected) > 1
        if off.any():
            problems.append(f"{name}: {int(off.sum())} values differ from the "
                            f"reference by more than {VALUE_TOL:.3g}")

    head, rows = _parse_csv(outputs["csv"])
    ref_head, ref_rows = _parse_csv(str(ref["metrics_csv"]))
    if head != ref_head or len(rows) != len(ref_rows):
        problems.append(f"metrics.csv layout {head} x {len(rows)} != reference "
                        f"{ref_head} x {len(ref_rows)}")
        return problems
    exact = [i for i, h in enumerate(head) if h in ("tick", "t_sec", "observed_cells")]
    loose = [i for i, h in enumerate(head) if i not in exact]
    for k, (row, ref_row) in enumerate(zip(rows, ref_rows)):
        bad = [head[i] for i in exact if row[i] != ref_row[i]]
        bad += [head[i] for i in loose
                if not abs(float(row[i]) - float(ref_row[i])) <= CSV_TOL]
        if bad:
            problems.append(f"metrics.csv row {k}: {', '.join(bad)} differ from "
                            f"the reference")
            break
    return problems
