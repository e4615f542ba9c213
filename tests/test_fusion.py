import math

import numpy as np
import pytest

from uavsense import (
    detect,
    detection_delta,
    fuse,
    fuse_and_detect,
    hypothesis_test,
    normalize_map,
)


def stack(*maps):
    """A (U, L, L) stack of local maps."""
    return np.array(maps, dtype=float)


class TestNormalizeMap:
    def test_three_values(self):
        out = normalize_map(stack([2.0, 4.0, 6.0]))
        assert np.allclose(out, [[0.0, 0.5, 1.0]])

    def test_endpoints(self, rng):
        values = rng.uniform(1.0, 9.0, size=(6, 6))
        values[0, 0] = np.nan
        out = normalize_map(values)
        assert np.nanmin(out) == 0.0
        assert np.nanmax(out) == 1.0
        assert np.isnan(out[0, 0])

    def test_constant_map(self):
        out = normalize_map(stack([5.0, 5.0]))
        assert np.allclose(out, 0.0)

    def test_all_nan_passthrough(self):
        out = normalize_map(stack([np.nan, np.nan]))
        assert np.all(np.isnan(out))

    def test_idempotent(self, rng):
        values = rng.uniform(0.0, 3.0, size=(4, 4))
        once = normalize_map(values)
        twice = normalize_map(once)
        assert np.allclose(once, twice)

    def test_equals_masked_reduction_form(self, rng):
        # The fmin/fmax reductions give the bytes of the masked min/max form,
        # signed zeros, constant, all-NaN and infinite maps included.
        for _ in range(400):
            maps = rng.choice([0.0, -0.0, 0.5, 2.0, -1.0, np.nan, np.inf], size=(rng.integers(1, 5), 4, 6))
            estimated = ~np.isnan(maps)
            with np.errstate(invalid="ignore"):
                lo = np.min(maps, axis=(-2, -1), keepdims=True, initial=np.inf, where=estimated)
                span = np.max(maps, axis=(-2, -1), keepdims=True, initial=-np.inf, where=estimated) - lo
                scaled = np.divide(maps - lo, span, out=np.zeros_like(maps), where=span > 0)
                expected = np.where(np.isfinite(maps), scaled, np.nan)
                assert normalize_map(maps).tobytes() == expected.tobytes()

    def test_stack_equals_map_by_map(self, rng):
        # Each map of a stack is rescaled on its own, byte for byte as alone;
        # constant and all-NaN maps raise no floating-point warning.
        maps = rng.uniform(0.0, 5.0, size=(4, 3, 3))
        maps[0, 1, 2] = np.nan
        maps[1] = 2.5
        maps[2] = np.nan
        with np.errstate(all="raise"):
            out = normalize_map(maps)
            for u in range(len(maps)):
                assert normalize_map(maps[u]).tobytes() == out[u].tobytes()
        assert np.all(out[1] == 0.0)
        assert np.all(np.isnan(out[2]))


class TestFuse:
    def test_mean_of_two(self):
        fused = fuse(stack([[1.0]], [[3.0]]))
        assert fused[0, 0] == 2.0

    def test_single_contributor(self):
        fused = fuse(stack([[np.nan, 2.0]], [[4.0, np.nan]]))
        assert np.allclose(fused, [[4.0, 2.0]])

    def test_nan_only_where_nobody_estimates(self):
        fused = fuse(stack([[np.nan, 1.0]], [[np.nan, 2.0]]))
        assert np.isnan(fused[0, 0])
        assert fused[0, 1] == 1.5

    def test_prenorm_shared_argmax(self):
        # Two maps on different scales with co-located maxima fuse to a
        # maximum of exactly 1 at the shared argmax cell.
        a = np.arange(9.0).reshape(3, 3) * 10 / 8
        b = np.arange(9.0).reshape(3, 3) * 1000 / 8
        fused = fuse(stack(a, b), method="prenorm")
        assert fused[2, 2] == pytest.approx(1.0)
        assert np.nanmax(fused) == pytest.approx(1.0)
        assert detect(fused) == (2, 2)

    def test_requires_maps(self):
        with pytest.raises(ValueError):
            fuse(np.empty((0, 2, 2)))

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            fuse(stack([[1.0]]), method="median")

    def test_scale_invariance_of_average_argmax(self, rng):
        maps = rng.uniform(0, 5, size=(4, 5, 5))
        assert detect(fuse(maps)) == detect(fuse(7.3 * maps))

    def test_consistency_when_maps_agree(self, rng):
        values = rng.uniform(0, 1, size=(5, 5))
        values[3, 1] = 2.0
        maps = stack(values, values, values)
        assert detect(fuse(maps, "avg")) == (3, 1)
        assert detect(fuse(maps, "prenorm")) == (3, 1)


class TestFuseAndDetect:
    @staticmethod
    def _stacks(rng):
        """Random stacks with NaN cells and signed zeros, and stacks holding an
        all-NaN map, a constant map and a map with a single estimate."""
        base = rng.uniform(0.0, 4.0, size=(5, 6, 6))
        base[rng.random(base.shape) < 0.3] = np.nan
        all_nan, constant, single = base.copy(), base.copy(), base.copy()
        all_nan[1] = np.nan
        constant[2] = np.where(np.isnan(constant[2]), np.nan, 1.5)
        single[3] = np.nan
        single[3, 4, 1] = 0.75
        stacks = [base, all_nan, constant, single, rng.choice([0.0, -0.0, np.nan], size=(4, 5, 5))]
        for _ in range(200):
            U, L = rng.integers(1, 6), rng.integers(1, 8)
            if rng.random() < 0.5:
                maps = rng.choice([0.0, -0.0, 0.25, 1.0, 3.5, -2.0], size=(U, L, L))
            else:
                maps = rng.uniform(-2.0, 5.0, size=(U, L, L))
            maps[rng.random(maps.shape) < rng.uniform(0.0, 0.9)] = np.nan
            stacks.append(maps)
        return stacks

    def test_equals_fuse_then_detect_per_method(self, rng):
        # One pass gives each method's fused map and detection byte for byte
        # as fuse(maps, method) followed by detect.
        checked = 0
        for maps in self._stacks(rng):
            if not np.isfinite(maps).any():
                continue
            results = fuse_and_detect(maps)
            assert list(results) == ["avg", "prenorm"]
            for method, (fused, cell) in results.items():
                expected = fuse(maps, method)
                assert fused.shape == expected.shape and fused.tobytes() == expected.tobytes()
                assert cell == detect(expected)
            checked += 1
        assert checked > 150

    def test_no_estimate_rejected_like_detect(self):
        with pytest.raises(ValueError, match="no cell carries an estimate"):
            fuse_and_detect(np.full((3, 2, 2), np.nan))

    def test_trial_axis_equals_one_call_per_stack(self, rng):
        # A (T, U, L, L) block gives each stack's fused maps and detections
        # byte for byte as a call on that stack alone, whatever the other
        # stacks hold (signed zeros, constant maps, sparse estimates).
        for T, U, L in [(1, 3, 4), (5, 4, 6), (8, 16, 5)]:
            block = rng.choice([0.0, -0.0, 0.25, 1.0, 3.5], size=(T, U, L, L))
            block[rng.random(block.shape) < 0.4] = np.nan
            block[0, 0] = 2.0
            if T > 1:
                block[1] = rng.uniform(0.0, 5.0, size=(U, L, L))
            results = fuse_and_detect(block)
            for t in range(T):
                for method, (fused, (row, col)) in fuse_and_detect(block[t]).items():
                    assert results[method][0][t].tobytes() == fused.tobytes()
                    assert (results[method][1][0][t], results[method][1][1][t]) == (row, col)
        with pytest.raises(ValueError, match="no cell carries an estimate"):
            fuse_and_detect(np.stack([block[0], np.full(block.shape[1:], np.nan)]))


class TestDetect:
    def test_single_finite_cell(self):
        values = np.full((4, 4), np.nan)
        values[2, 3] = 0.1
        assert detect(values) == (2, 3)

    def test_strict_maximum(self, rng):
        values = rng.uniform(0, 1, size=(8, 8))
        values[3, 7] = 5.0
        assert detect(values) == (3, 7)

    def test_row_major_tie_break(self):
        values = np.zeros((3, 3))
        values[1, 1] = values[2, 0] = 1.0
        assert detect(values) == (1, 1)

    def test_all_nan_rejected(self):
        with pytest.raises(ValueError):
            detect(np.full((2, 2), np.nan))


def scalar_delta(target, center, cell_size) -> int:
    """The per-pair formula of detection_delta, max(0, ceil(L_inf / d - 1/2)), in Python floats."""
    dist = max(abs(target[0] - center[0]), abs(target[1] - center[1]))
    return max(0, math.ceil(dist / cell_size - 0.5))


class TestDetectionDelta:
    @pytest.mark.parametrize("cell_size", [2.0, 2.5, 4.0, 0.1])
    def test_stack_equals_the_scalar_formula_on_thresholds_and_edges(self, cell_size):
        # Targets exactly d (1/2 + delta) from a cell center along x, y and the
        # diagonal, just inside and outside, and at the grid edges, with the
        # target's own cell clipped to the grid.
        L = 6
        centers = (np.arange(L) + 0.5) * cell_size
        targets, cells = [], []
        for delta in range(4):
            r = cell_size * (0.5 + delta)
            for dx, dy in [(r, 0.0), (0.0, -r), (r, r), (-r, np.nextafter(r, 0.0)), (np.nextafter(r, np.inf), 0.0)]:
                targets.append((centers[2] + dx, centers[3] + dy, 0.0))
                cells.append((centers[2], centers[3], 0.0))
        area = L * cell_size
        for x, y in [(area, area), (0.0, 0.0), (area, 0.0), (area, centers[1])]:
            a, b = min(max(int(x / cell_size), 0), L - 1), min(max(int(y / cell_size), 0), L - 1)
            for cell in [(a, b), (a - 1, b), (0, L - 1)]:
                targets.append((x, y, 0.0))
                cells.append((centers[cell[0]], centers[cell[1]], 0.0))
        targets, cells = np.array(targets), np.array(cells)
        stars = detection_delta(targets, cells, cell_size)
        assert stars.dtype.kind == "i" and stars.shape == (len(targets),)
        expected = [scalar_delta(t, c, cell_size) for t, c in zip(targets, cells)]
        assert stars.tolist() == expected
        assert [detection_delta(t, c, cell_size).tolist() for t, c in zip(targets, cells)] == expected
        # Broadcast over a leading (values, trials) block, as the engine calls it.
        block = detection_delta(targets[:4], np.stack([cells[:4], cells[4:8]]), cell_size)
        assert block.tolist() == [expected[:4], [scalar_delta(t, c, cell_size) for t, c in zip(targets[:4], cells[4:8])]]

    def test_exact_thresholds_are_the_smallest_accepting_delta(self):
        # With a dyadic cell size the thresholds are exact: delta* is the
        # smallest delta at which the closed L-infinity test accepts.
        d, center = 4.0, (10.0, 6.0)
        for delta in range(4):
            for offset in (d * (0.5 + delta), d * (0.5 + delta) - 0.25, d * (0.5 + delta) + 0.25):
                target = (center[0] + offset, center[1] - offset / 2)
                star = detection_delta(target, center, d)
                assert hypothesis_test(target, center, d, star)
                assert star == 0 or not hypothesis_test(target, center, d, star - 1)


class TestHypothesisTest:
    def test_inside_cell(self):
        assert hypothesis_test((12.0, 7.0), (12.5, 7.5), 5.0, delta=0)

    def test_closed_on_border(self):
        assert hypothesis_test((10.0, 7.5), (12.5, 7.5), 5.0, delta=0)

    def test_two_cells_away(self):
        target = (12.5 + 10.0, 7.5)
        assert not hypothesis_test(target, (12.5, 7.5), 5.0, delta=1)
        assert hypothesis_test(target, (12.5, 7.5), 5.0, delta=2)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            hypothesis_test((0, 0), (0, 0), -1.0)
        with pytest.raises(ValueError):
            hypothesis_test((0, 0), (0, 0), 1.0, delta=-1)

    def test_matches_chebyshev_distance_at_cell_centers(self):
        # For targets on cell centers the continuous threshold test reduces to
        # the integer Chebyshev distance on cell indices.
        d = 5.0
        centers = {(a, b): ((a + 0.5) * d, (b + 0.5) * d) for a in range(6) for b in range(6)}
        target_cell = (2, 4)
        target = centers[target_cell]
        for cell, center in centers.items():
            for delta in (0, 1, 2):
                expected = max(abs(cell[0] - target_cell[0]), abs(cell[1] - target_cell[1])) <= delta
                assert hypothesis_test(target, center, d, delta) == expected
                assert (detection_delta(target, center, d) <= delta) == expected
