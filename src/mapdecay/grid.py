"""Log-odds occupancy grid core: cell math, the decay rule, and map file I/O.

Cells store occupancy as log-odds ``l = ln(p / (1 - p))``.  Evidence combines
by addition (Bayes filter in log space), values are clamped to
``[L_MIN, L_MAX]`` on every store, and the decay rule is the paper's weighted
average, which pulls an online cell toward its offline counterpart:

    decayed = (on * w_on + off * w_off) / (w_on + w_off)
            = off + (on - off) * a,   a = w_on / (w_on + w_off)

The average operates on the stored log-odds values, not on probabilities, in
the second, deviation form: a cell at its offline value stays exactly there.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import AlignmentError, DomainError, MapFormatError, ParameterError

#: Clamp bounds for stored log-odds values.
L_MIN = -10.0
L_MAX = 10.0

MAP_MAGIC = b"OGM1"
MAP_VERSION = 1
_HEADER = struct.Struct("<4sHdddII")


def logodds_from_prob(p: float) -> float:
    """Return ``ln(p / (1 - p))`` for a probability in the open unit interval."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"probability must be in (0, 1), got {p!r}")
    return math.log(p / (1.0 - p))


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
        if self.w_on < 0.0 or self.w_off < 0.0:
            raise ParameterError("decay weights must be nonnegative")
        if not 0.0 < self.w_on + self.w_off < math.inf:
            raise ParameterError("w_on + w_off must be positive and finite")

    @property
    def retention(self) -> float:
        return self.w_on / (self.w_on + self.w_off)


def decay_cell(on, off, params: DecayParams):
    """One decay step, ``off + (on - off) * retention``: the weighted average of
    the online and offline values, elementwise on arrays.  ``decay_cell(v, v, p)``
    is exactly ``v`` up to the sign of a zero; for values in ``[L_MIN, L_MAX]``
    and ``retention < 1`` the result lies between ``on`` and ``off``."""
    return off + (on - off) * params.retention


def deviates(on, off):
    """Where ``on`` differs from ``off`` or is a -0.0 (a decay step toward an
    equal ``off`` makes it +0.0); elsewhere decay leaves ``on`` bit for bit."""
    return (on != off) | (on == 0.0) & np.signbit(on)


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
        if not 0.0 < self.resolution < math.inf:
            raise ParameterError(f"resolution must be positive and finite, got {self.resolution!r}")
        if not (math.isfinite(self.origin_x) and math.isfinite(self.origin_y)):
            raise ParameterError(f"origin ({self.origin_x!r}, {self.origin_y!r}) must be finite")

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
        """:meth:`cell_of`'s rule on the floored floats, before any int64 cast can overflow."""
        return self.contains_cell(np.floor((x - self.origin_x) / self.resolution),
                                  np.floor((y - self.origin_y) / self.resolution))

    def copy(self) -> "GridMap":
        return GridMap(self.resolution, self.origin_x, self.origin_y,
                       self.values.copy(), self.observed.copy())

    def offset_in(self, other: "GridMap") -> tuple[int, int]:
        """(col, row) of this grid's cell (0, 0) in ``other``.  The one relation
        between two lattices: an AlignmentError unless they are the same."""
        cells = ((self.origin_x - other.origin_x) / other.resolution,
                 (self.origin_y - other.origin_y) / other.resolution)
        # negated, so that the NaN of an infinite offset fails it too
        if not (abs(self.resolution - other.resolution) <= 1e-9
                and np.all(np.abs(np.subtract(cells, np.rint(cells))) <= 1e-6)):
            raise AlignmentError(f"grids not on one lattice: {self.resolution!r} m vs "
                                 f"{other.resolution!r} m, offset {cells} cells")
        return round(cells[0]), round(cells[1])


def apply_decay(grid: GridMap, offline: GridMap, params: DecayParams,
                cells: np.ndarray) -> np.ndarray:
    """Decay the ``cells`` (flat indices) of ``grid`` toward the same cells of
    ``offline`` through :func:`decay_cell`, in place, and return whether each
    still :func:`deviates`.  Results are independent of traversal order.
    Observed flags are left untouched, and ``params.enabled`` is not read.
    """
    if not (grid.shape == offline.shape and grid.offset_in(offline) == (0, 0)):
        raise AlignmentError("online and offline grids must share extent and resolution")
    at = np.divmod(cells, grid.width)
    off = offline.values[at]
    on = decay_cell(grid.values[at], off, params)
    grid.values[at] = on
    return deviates(on, off)


def check_values(grid: GridMap, name: str) -> GridMap:
    """``grid`` if every value lies in ``[L_MIN, L_MAX]``, else a DomainError."""
    bad = np.argwhere(~((grid.values >= L_MIN) & (grid.values <= L_MAX)))
    if len(bad):
        r, c = bad[0]
        raise DomainError(f"{name}: {len(bad)} cell(s) not in [{L_MIN}, {L_MAX}], "
                          f"the first at row {r}, col {c}: {grid.values[r, c]}")
    return grid


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
        raise MapFormatError("file shorter than the OGM1 header")
    magic, version, resolution, ox, oy, width, height = _HEADER.unpack_from(blob)
    if magic != MAP_MAGIC:
        raise MapFormatError(f"bad magic {magic!r}, expected {MAP_MAGIC!r}")
    if version != MAP_VERSION:
        raise MapFormatError(f"unsupported map version {version}")
    n = width * height
    expected = _HEADER.size + 8 * n + (n + 7) // 8
    if len(blob) != expected:
        raise MapFormatError(f"payload size mismatch: expected {expected} bytes, got {len(blob)}")
    values = np.frombuffer(blob, dtype="<f8", count=n, offset=_HEADER.size)
    values = values.reshape(height, width).astype(np.float64)
    bits = np.frombuffer(blob, dtype=np.uint8, offset=_HEADER.size + 8 * n)
    observed = np.unpackbits(bits, count=n, bitorder="little").astype(bool)
    return GridMap(resolution, ox, oy, values, observed.reshape(height, width))
