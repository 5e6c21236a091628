"""Log-odds occupancy grid core: cell math, the decay rule, and map file I/O.

Cells store occupancy as log-odds ``l = ln(p / (1 - p))``.  Evidence combines
by addition (Bayes filter in log space), values are clamped to
``[L_MIN, L_MAX]`` on every store, and the decay rule is a weighted average
that pulls an online cell toward its offline counterpart:

    decayed = (on * w_on + off * w_off) / (w_on + w_off)

The average operates on the stored log-odds values, not on probabilities.
Each step shrinks the deviation from ``off`` by ``a = w_on / (w_on + w_off)``.
The closed form ``off + (on - off) * a**k`` (:func:`decay_cell_pow`) is the
test oracle for ``k`` steps; it matches them only to rounding, so maps are
always decayed one step at a time.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AlignmentError,
    BadMagicError,
    DomainError,
    ParameterError,
    TruncatedMapError,
    VersionMismatchError,
)

#: Clamp bounds for stored log-odds values.
L_MIN = -10.0
L_MAX = 10.0

MAP_MAGIC = b"OGM1"
MAP_VERSION = 1
_HEADER = struct.Struct("<4sHdddII")


def logodds_from_prob(p: float) -> float:
    """Return ``ln(p / (1 - p))`` for a probability in the open unit interval."""
    if not (0.0 < p < 1.0) or math.isnan(p):
        raise DomainError(f"probability must be in (0, 1), got {p!r}")
    return math.log(p / (1.0 - p))


def prob_from_logodds(l: float) -> float:
    """Inverse of :func:`logodds_from_prob`; returns a value in (0, 1)."""
    if not math.isfinite(l):
        raise DomainError(f"log-odds must be finite, got {l!r}")
    return 1.0 / (1.0 + math.exp(-l))


def update_cell(current, measurement, lo: float = L_MIN, hi: float = L_MAX):
    """Add measurement evidence to a cell and clamp the result to [lo, hi].
    Works on floats and elementwise on arrays alike."""
    if not (np.isfinite(current).all() and np.isfinite(measurement).all()):
        raise DomainError("update_cell requires finite log-odds operands")
    return np.clip(current + measurement, lo, hi)


@dataclass(frozen=True)
class DecayParams:
    """Decay weights.  ``w_on`` favors the current online value, ``w_off``
    the offline value; ``retention = w_on / (w_on + w_off)`` is the fraction
    of the deviation from the offline value that survives one step."""

    w_on: float
    w_off: float
    enabled: bool = True

    def __post_init__(self) -> None:
        if not (math.isfinite(self.w_on) and math.isfinite(self.w_off)):
            raise ParameterError("decay weights must be finite")
        if self.w_on < 0.0 or self.w_off < 0.0:
            raise ParameterError("decay weights must be nonnegative")
        if self.w_on + self.w_off <= 0.0:
            raise ParameterError("w_on + w_off must be positive")

    @property
    def retention(self) -> float:
        return self.w_on / (self.w_on + self.w_off)


def decay_cell(on, off, params: DecayParams):
    """One decay step: weighted average of the online and offline values.

    Works on floats and elementwise on arrays alike.  The result always lies
    between ``on`` and ``off`` (inclusive) and the observed flag of the cell
    is not touched by this function.
    """
    return (on * params.w_on + off * params.w_off) / (params.w_on + params.w_off)


def decay_cell_pow(on: float, off: float, params: DecayParams, k: int) -> float:
    """Closed form of ``k`` iterated :func:`decay_cell` steps.

    The specification of the decay's contraction and half-life.  It matches
    the iterated rule only to rounding, so it is a test oracle, not a
    substitute for decaying the map every tick.
    """
    if k < 0:
        raise ParameterError(f"step count must be nonnegative, got {k}")
    if k == 0:
        return on
    return off + (on - off) * params.retention ** k


@dataclass
class GridMap:
    """2D occupancy grid of log-odds cells with per-cell observed flags.

    ``origin`` is the world position of the corner of cell (0, 0); the cell
    holding world point (x, y) is ``col = floor((x - origin_x) / resolution)``
    and symmetrically for ``row``.  ``values`` and ``observed`` are row-major
    arrays of shape (height, width).
    """

    resolution: float
    origin_x: float
    origin_y: float
    values: np.ndarray
    observed: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ParameterError("grid values must be a 2D array")
        if self.observed is None:
            self.observed = np.zeros(self.values.shape, dtype=bool)
        else:
            self.observed = np.asarray(self.observed, dtype=bool)
        if self.observed.shape != self.values.shape:
            raise ParameterError("observed mask shape must match values")
        if self.resolution <= 0.0:
            raise ParameterError("resolution must be positive")

    @classmethod
    def blank(cls, resolution: float, origin_x: float, origin_y: float,
              width: int, height: int) -> "GridMap":
        return cls(resolution, origin_x, origin_y, np.zeros((height, width)))

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def height(self) -> int:
        return self.values.shape[0]

    def cell_of(self, x, y):
        """World point to (col, row), elementwise on arrays.  The one
        world-to-cell rule; the cell may fall outside the grid."""
        return (np.floor((x - self.origin_x) / self.resolution).astype(np.int64),
                np.floor((y - self.origin_y) / self.resolution).astype(np.int64))

    def contains_cell(self, col, row):
        """Whether (col, row) lies in the grid, elementwise on arrays."""
        return (0 <= col) & (col < self.width) & (0 <= row) & (row < self.height)

    def center_of(self, col: int, row: int) -> tuple[float, float]:
        """World coordinates of a cell's center."""
        return (self.origin_x + (col + 0.5) * self.resolution,
                self.origin_y + (row + 0.5) * self.resolution)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def contains_point(self, x, y):
        return self.contains_cell(*self.cell_of(x, y))

    def copy(self) -> "GridMap":
        return GridMap(self.resolution, self.origin_x, self.origin_y,
                       self.values.copy(), self.observed.copy())

    def same_extent(self, other) -> bool:
        """Whether ``other`` (a grid or an instant map) covers the same cells."""
        return (self.shape == other.shape
                and abs(self.resolution - other.resolution) <= 1e-9
                and abs(self.origin_x - other.origin_x) <= 1e-9
                and abs(self.origin_y - other.origin_y) <= 1e-9)

    def offset_in(self, other: "GridMap") -> tuple[int, int]:
        """(col, row) of this grid's cell (0, 0) in ``other``, on the same lattice."""
        return (round((self.origin_x - other.origin_x) / other.resolution),
                round((self.origin_y - other.origin_y) / other.resolution))


def apply_decay(grid: GridMap, offline: GridMap, params: DecayParams) -> None:
    """Decay every cell of ``grid`` toward the corresponding ``offline`` cell.

    A pure per-cell operation: results are independent of traversal order.
    Observed flags are left untouched.  With ``params.enabled`` false this is
    a no-op.
    """
    if not grid.same_extent(offline):
        raise AlignmentError("online and offline grids must share extent and resolution")
    if not params.enabled:
        return
    grid.values[:] = decay_cell(grid.values, offline.values, params)


def write_map(grid: GridMap, path) -> None:
    """Serialize a grid in the OGM1 binary format (bit-exact round-trip).

    Layout (little-endian): magic "OGM1", u16 version, f64 resolution,
    f64 origin_x, f64 origin_y, u32 width, u32 height, width*height f64
    log-odds row-major, then ceil(width*height / 8) bytes of observed bitmap
    (row-major, LSB-first).
    """
    header = _HEADER.pack(MAP_MAGIC, MAP_VERSION, grid.resolution,
                          grid.origin_x, grid.origin_y, grid.width, grid.height)
    payload = grid.values.astype("<f8", copy=False).tobytes()
    bitmap = np.packbits(grid.observed.reshape(-1), bitorder="little").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)
        fh.write(bitmap)


def read_map(path) -> GridMap:
    """Parse an OGM1 file written by :func:`write_map`."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise TruncatedMapError("file shorter than the OGM1 header")
    magic, version, resolution, ox, oy, width, height = _HEADER.unpack_from(blob)
    if magic != MAP_MAGIC:
        raise BadMagicError(f"bad magic {magic!r}, expected {MAP_MAGIC!r}")
    if version != MAP_VERSION:
        raise VersionMismatchError(f"unsupported map version {version}")
    n = width * height
    expected = _HEADER.size + 8 * n + (n + 7) // 8
    if len(blob) != expected:
        raise TruncatedMapError(
            f"payload size mismatch: expected {expected} bytes, got {len(blob)}")
    values = np.frombuffer(blob, dtype="<f8", count=n, offset=_HEADER.size)
    values = values.reshape(height, width).astype(np.float64)
    bits = np.frombuffer(blob, dtype=np.uint8, offset=_HEADER.size + 8 * n)
    observed = np.unpackbits(bits, count=n, bitorder="little").astype(bool)
    return GridMap(resolution, ox, oy, values, observed.reshape(height, width))
