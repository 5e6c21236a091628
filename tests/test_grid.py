from __future__ import annotations

import math
import struct
import sys

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from conftest import decay_cell_pow, prob_from_logodds
from hypothesis import given, reject, strategies as st

from mapdecay import (
    AlignmentError,
    DecayParams,
    DomainError,
    GridMap,
    MapFormatError,
    ParameterError,
    apply_decay,
    read_map,
    write_map,
)
from mapdecay.grid import (
    L_MAX,
    L_MIN,
    MAP_MAGIC,
    decay_cell,
    logodds_from_prob,
    update_cell,
)


class TestLogOdds:
    def test_known_values(self):
        assert logodds_from_prob(0.5) == 0.0
        assert prob_from_logodds(0.0) == 0.5
        assert logodds_from_prob(0.9) == pytest.approx(math.log(9.0), rel=1e-15)
        assert logodds_from_prob(0.1) == pytest.approx(-math.log(9.0), rel=1e-15)

    @given(st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
    def test_round_trip(self, p):
        assert prob_from_logodds(logodds_from_prob(p)) == pytest.approx(p, rel=1e-9)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.3, float("nan")])
    def test_rejects_degenerate_probabilities(self, p):
        with pytest.raises(DomainError):
            logodds_from_prob(p)

    def test_rejects_nan_logodds(self):
        with pytest.raises(DomainError):
            prob_from_logodds(float("nan"))


class TestUpdateCell:
    def test_adds_evidence(self):
        assert update_cell(1.0, 2.5) == 3.5
        assert update_cell(-1.0, 2.5) == 1.5

    def test_clamps_to_limits(self):
        assert update_cell(9.5, 3.0) == L_MAX
        assert update_cell(-9.5, -3.0) == L_MIN

    def test_rejects_non_finite_operands(self):
        with pytest.raises(DomainError, match="finite log-odds operands"):
            update_cell(float("nan"), 1.0)

    @given(st.floats(-10, 10), st.floats(-10, 10))
    def test_stays_in_range(self, cur, meas):
        assert L_MIN <= update_cell(cur, meas) <= L_MAX


class TestDecayCell:
    def test_weight_validation(self):
        with pytest.raises(ParameterError):
            DecayParams(0.0, 0.0)
        with pytest.raises(ParameterError):
            DecayParams(10.0, -1.0)
        with pytest.raises(ParameterError):
            DecayParams(-1.0, 10.0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ParameterError):
                DecayParams(bad, 1.0)
            with pytest.raises(ParameterError):
                DecayParams(10.0, bad)

    def test_weight_sum_must_be_finite(self):
        # each weight is finite but their sum is not, so retention would be
        # 1e308 / inf = 0 and every step would snap a cell to its prior
        with pytest.raises(ParameterError, match=r"w_on \+ w_off"):
            DecayParams(1e308, 1e308)

    def test_weighted_average(self):
        p = DecayParams(10.0, 1.0)
        assert decay_cell(10.0, 0.0, p) == pytest.approx(100.0 / 11.0, rel=1e-15)
        assert decay_cell(0.0, 0.0, p) == 0.0
        assert decay_cell(5.0, 5.0, p) == 5.0

    def test_retention_fraction(self):
        assert DecayParams(10.0, 1.0).retention == pytest.approx(10.0 / 11.0)
        assert DecayParams(1.0, 1.0).retention == 0.5

    @given(st.floats(-10, 10), st.floats(-10, 10))
    def test_contraction(self, on, off):
        # one step shrinks the deviation from the offline value by exactly
        # the retention fraction
        p = DecayParams(10.0, 1.0)
        out = decay_cell(on, off, p)
        assert abs(out - off) == pytest.approx((10.0 / 11.0) * abs(on - off),
                                               rel=1e-12, abs=1e-12)

    @given(st.floats(-10, 10), st.floats(-10, 10), st.integers(0, 120))
    def test_closed_form_matches_iteration(self, on, off, k):
        p = DecayParams(10.0, 1.0)
        v = on
        for _ in range(k):
            v = decay_cell(v, off, p)
        assert decay_cell_pow(on, off, p, k) == pytest.approx(v, rel=1e-12, abs=1e-12)

    @given(st.floats(0.0, sys.float_info.max), st.floats(0.0, sys.float_info.max),
           st.floats(L_MIN, L_MAX), st.floats(L_MIN, L_MAX))
    def test_one_step_is_the_closed_form_term(self, w_on, w_off, on, off):
        # every accepted pair of weights gives a retention in [0, 1]; the prior
        # is a fixed point, one step is the k = 1 term bit for bit, and the
        # step never overshoots the prior
        try:
            p = DecayParams(w_on, w_off)
        except ParameterError:
            reject()
        assert 0.0 <= p.retention <= 1.0
        out = decay_cell(on, off, p)
        assert decay_cell(on, on, p) == on and decay_cell(off, off, p) == off
        assert out == decay_cell_pow(on, off, p, 1)
        if p.retention < 1.0:
            assert min(on, off) <= out <= max(on, off)

    def test_pow_zero_steps_is_identity(self):
        p = DecayParams(10.0, 1.0)
        assert decay_cell_pow(3.7, -1.2, p, 0) == 3.7

    def test_halving_step_counts(self):
        # (10/11)^7 > 1/2 but (10/11)^8 < 1/2: the deviation halves on the
        # eighth step, and is down to about 2% after forty
        r = 10.0 / 11.0
        assert r**7 > 0.5 > r**8
        assert r**40 < 0.05


class TestApplyDecay:
    ALL_CELLS = np.arange(6 * 7)

    def _pair(self):
        rng = np.random.default_rng(11)
        on = GridMap(0.5, 0.0, 0.0, rng.uniform(-10, 10, (6, 7)))
        off = GridMap(0.5, 0.0, 0.0, rng.uniform(-10, 10, (6, 7)))
        return on, off

    def test_matches_scalar_op(self):
        on, off = self._pair()
        expect = np.empty_like(on.values)
        p = DecayParams(10.0, 1.0)
        for r in range(6):
            for c in range(7):
                expect[r, c] = decay_cell(on.values[r, c], off.values[r, c], p)
        apply_decay(on, off, p, self.ALL_CELLS)
        np.testing.assert_allclose(on.values, expect, rtol=1e-15)

    def test_observed_flags_untouched(self):
        on, off = self._pair()
        on.observed[2, 3] = True
        apply_decay(on, off, DecayParams(10.0, 1.0), self.ALL_CELLS)
        assert on.observed[2, 3] and on.observed.sum() == 1

    def test_extent_mismatch_rejected(self):
        on, _ = self._pair()
        off = GridMap(0.5, 1.0, 0.0, np.zeros((6, 7)))
        with pytest.raises(AlignmentError):
            apply_decay(on, off, DecayParams(10.0, 1.0), self.ALL_CELLS)

    # signed zeros, subnormals and the clamp bounds beside ordinary values
    CELLS = hnp.arrays(np.float64, (4, 5), elements=st.one_of(
        st.floats(L_MIN, L_MAX),
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, L_MIN, L_MAX])))

    @given(CELLS, CELLS, st.floats(0.0, 1e3), st.floats(0.0, 1e3))
    def test_in_place_matches_out_of_place(self, on, off, w_on, w_off):
        try:
            p = DecayParams(w_on, w_off)
        except ParameterError:
            reject()
        grid = GridMap(0.5, 0.0, 0.0, on.copy())
        apply_decay(grid, GridMap(0.5, 0.0, 0.0, off), p, np.arange(on.size))
        # bit for bit, the sign of a zero included
        assert grid.values.tobytes() == decay_cell(on, off, p).tobytes()
        assert grid.values.tobytes() == (off + (on - off) * p.retention).tobytes()

    @given(CELLS)
    def test_decay_toward_itself_is_the_identity(self, values):
        grid = GridMap(0.5, 0.0, 0.0, values.copy())
        apply_decay(grid, grid, DecayParams(10.0, 1.0), np.arange(values.size))
        # -0.0 becomes 0.0, as it does out of place: -0.0 + 0.0 is 0.0
        assert np.array_equal(grid.values, values)
        assert grid.values.tobytes() == decay_cell(values, values, DecayParams(10.0, 1.0)).tobytes()


class TestGridMap:
    def test_cell_lookup_floors(self):
        g = GridMap.blank(0.5, -1.0, -1.0, 10, 10)
        assert g.cell_of(-1.0, -1.0) == (0, 0)
        assert g.cell_of(-0.51, -0.51) == (0, 0)
        assert g.cell_of(-0.5, -0.5) == (1, 1)
        cols, rows = g.cell_of(np.array([-1.0, -0.51, -0.5, 4.1]),
                               np.array([-1.0, -0.5, 3.99, -1.01]))
        assert cols.tolist() == [0, 0, 1, 10] and rows.tolist() == [0, 1, 9, -1]
        assert g.center_of(0, 0) == (pytest.approx(-0.75), pytest.approx(-0.75))

    def test_contains_point(self):
        g = GridMap.blank(0.2, 0.0, 0.0, 5, 5)
        assert g.contains_point(0.0, 0.0)
        assert g.contains_point(0.999, 0.999)
        assert not g.contains_point(1.0, 0.5)
        assert not g.contains_point(-0.001, 0.5)
        inside = g.contains_point(np.array([0.0, 0.999, 1.0, -0.001, 0.5]),
                                  np.array([0.0, 0.999, 0.5, 0.5, 1.0]))
        assert inside.tolist() == [True, True, False, False, False]

    def test_shape_validation(self):
        with pytest.raises(ParameterError):
            GridMap(0.2, 0.0, 0.0, np.zeros(5))
        with pytest.raises(ParameterError):
            GridMap(0.0, 0.0, 0.0, np.zeros((2, 2)))
        with pytest.raises(ParameterError, match="observed mask shape must match values"):
            GridMap(0.2, 0.0, 0.0, np.zeros((2, 2)), np.zeros((3, 3), dtype=bool))

    @pytest.mark.parametrize("lattice", [(math.nan, 0.0, 0.0), (math.inf, 0.0, 0.0),
                                         (0.2, math.inf, 0.0), (0.2, 0.0, math.nan)])
    def test_lattice_must_be_finite(self, lattice):
        with pytest.raises(ParameterError):
            GridMap(*lattice, np.zeros((2, 2)))


class TestMapFormat:
    def _grid(self):
        rng = np.random.default_rng(5)
        values = rng.uniform(-10, 10, (13, 9))
        observed = rng.random((13, 9)) > 0.5
        return GridMap(0.25, -2.0, 3.5, values, observed)

    def test_round_trip_bit_exact(self, tmp_path):
        g = self._grid()
        path = tmp_path / "m.ogm"
        write_map(g, path)
        back = read_map(path)
        np.testing.assert_array_equal(back.values, g.values)
        np.testing.assert_array_equal(back.observed, g.observed)
        assert (back.resolution, back.origin_x, back.origin_y) == (0.25, -2.0, 3.5)
        path2 = tmp_path / "m2.ogm"
        write_map(back, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_layout_matches_independent_packing(self, tmp_path):
        # 1x2 map assembled by hand from the documented layout
        g = GridMap(0.5, 1.0, 2.0, np.array([[0.25, -3.5]]), np.array([[True, False]]))
        path = tmp_path / "tiny.ogm"
        write_map(g, path)
        expect = struct.pack("<4sHdddII", b"OGM1", 1, 0.5, 1.0, 2.0, 2, 1)
        expect += struct.pack("<2d", 0.25, -3.5)
        expect += bytes([0b01])
        assert path.read_bytes() == expect

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ogm"
        g = self._grid()
        write_map(g, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(MapFormatError, match=r"^bad magic b'NOPE', expected b'OGM1'$"):
            read_map(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "bad.ogm"
        write_map(self._grid(), path)
        blob = bytearray(path.read_bytes())
        blob[4:6] = struct.pack("<H", 9)
        path.write_bytes(bytes(blob))
        with pytest.raises(MapFormatError, match="^unsupported map version 9$"):
            read_map(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "bad.ogm"
        write_map(self._grid(), path)
        blob = path.read_bytes()
        for cut, message in ((3, "^file shorter than the OGM1 header$"),
                             (len(blob) - 1, rf"^payload size mismatch: expected {len(blob)} "
                                             rf"bytes, got {len(blob) - 1}$")):
            path.write_bytes(blob[:cut])
            with pytest.raises(MapFormatError, match=message):
                read_map(path)

    def test_magic_constant(self):
        assert MAP_MAGIC == b"OGM1"
