import math

import numpy as np
import pytest

from uavsense import (
    ScenarioConfig,
    aoa,
    build_grid,
    classify_cells,
    deploy_uavs,
    derive_altitude,
    footprint_radius,
    hpbw,
)
from uavsense.geometry import cell_of_point
from dataclasses import replace


def _config(**kwargs):
    base = dict(uav_count=16, grid_side=20, area_side_m=100.0)
    base.update(kwargs)
    return ScenarioConfig(**base)


class TestBuildGrid:
    def test_default_grid(self):
        grid = build_grid(_config())
        assert grid.cell_size == 5.0
        assert np.allclose(grid.centers[0, 0], (2.5, 2.5, 0.0))
        assert np.allclose(grid.centers[19, 19], (97.5, 97.5, 0.0))
        assert grid.centers.shape == (20, 20, 3)

    def test_single_cell_grid(self):
        grid = build_grid(ScenarioConfig(uav_count=1, grid_side=1, area_side_m=10.0))
        assert np.allclose(grid.centers[0, 0], (5.0, 5.0, 0.0))

    def test_all_centers_inside_area(self):
        cfg = _config()
        grid = build_grid(cfg)
        assert np.all(grid.centers[:, :, :2] > 0)
        assert np.all(grid.centers[:, :, :2] < cfg.area_side_m)


class TestDeploy:
    def test_default_deployment(self):
        cfg = _config()
        positions = deploy_uavs(cfg, build_grid(cfg))
        assert positions.shape == (16, 3)
        assert np.allclose(positions[0][:2], (12.5, 12.5))
        # Blocks of 5 cells (25 m): UAV u = 4i + j above the center of block (i, j).
        centers = [((i + 0.5) * 25.0, (j + 0.5) * 25.0) for i in range(4) for j in range(4)]
        assert np.array_equal(positions[:, :2], centers)

    def test_single_uav(self):
        cfg = ScenarioConfig(uav_count=1, grid_side=2, area_side_m=10.0)
        positions = deploy_uavs(cfg, build_grid(cfg))
        assert np.allclose(positions[0][:2], (5.0, 5.0))

    def test_block_centers_by_hand(self):
        # U=4, L=4, area 8 m: blocks of 2x2 cells (4 m); UAV (i=1, j=0) at (6, 2).
        cfg = ScenarioConfig(uav_count=4, grid_side=4, area_side_m=8.0)
        positions = deploy_uavs(cfg, build_grid(cfg))
        assert np.array_equal(positions[:, :2], [(2.0, 2.0), (2.0, 6.0), (6.0, 2.0), (6.0, 6.0)])

    def test_explicit_altitude(self):
        cfg = _config(altitude_m=100.0)
        positions = deploy_uavs(cfg, build_grid(cfg))
        assert np.all(positions[:, 2] == 100.0)

    def test_common_altitude(self):
        cfg = _config()
        positions = deploy_uavs(cfg, build_grid(cfg))
        assert np.all(positions[:, 2] == derive_altitude(cfg, 5))


class TestHpbw:
    def test_reference_values(self):
        assert hpbw(8) == pytest.approx(0.2215, abs=1e-6)
        assert hpbw(2) == pytest.approx(0.886)
        assert hpbw(16) == pytest.approx(hpbw(8) / 2)

    def test_strictly_decreasing(self):
        widths = [hpbw(n) for n in range(2, 30)]
        assert all(a > b for a, b in zip(widths, widths[1:]))

    def test_rejects_small_arrays(self):
        with pytest.raises(ValueError):
            hpbw(1)


class TestDeriveAltitude:
    def test_reference_values(self):
        cfg = _config()
        assert derive_altitude(cfg, 5) == pytest.approx(158.9646, abs=1e-3)
        assert derive_altitude(cfg, 1) == pytest.approx(31.7929, abs=1e-3)

    def test_proportional_to_cell_size(self):
        cfg1 = _config()
        cfg2 = _config(area_side_m=200.0)  # doubles d at fixed L
        assert derive_altitude(cfg2, 5) == pytest.approx(2 * derive_altitude(cfg1, 5))

    def test_consistency_with_classification(self):
        # At the derived altitude the centered block fits; 1% lower it does not.
        cfg = _config()
        grid = build_grid(cfg)
        positions = deploy_uavs(cfg, grid)
        sets = classify_cells(cfg, 5, grid, positions)  # interior UAV (i=1, j=1)
        block = {(a, b) for a in range(5, 10) for b in range(5, 10)}
        assert block <= {tuple(c) for c in sets.intended}

        lower = replace(cfg, altitude_m=0.99 * positions[5, 2])
        sets_low = classify_cells(lower, 5, grid, deploy_uavs(lower, grid))
        assert not (block <= {tuple(c) for c in sets_low.intended})


class TestClassifyCells:
    def test_exact_block_at_derived_altitude(self):
        cfg = _config()
        grid = build_grid(cfg)
        sets = classify_cells(cfg, 0, grid, deploy_uavs(cfg, grid))
        block = {(a, b) for a in range(5) for b in range(5)}
        assert {tuple(c) for c in sets.intended} == block

    def test_low_altitude_empty_intended(self):
        # Inscribed square smaller than one cell: no intended cells, clutter
        # (illuminated, not intended) only where centers fall inside the circle.
        cfg = _config(altitude_m=20.0)
        grid = build_grid(cfg)
        sets = classify_cells(cfg, 0, grid, deploy_uavs(cfg, grid))
        assert len(sets.intended) == 0
        radius = footprint_radius(cfg, 20.0)
        expected = {
            (a, b)
            for a in range(20)
            for b in range(20)
            if math.hypot(grid.centers[a, b, 0] - 12.5, grid.centers[a, b, 1] - 12.5) <= radius
        }
        assert {tuple(c) for c in sets.illuminated} == expected

    def test_three_by_three_at_100m(self):
        # r = 100 tan(0.1108) = 11.12 m, square side 15.73 m: a 3x3 block of
        # 5 m cells (15 m) fits around an interior UAV.
        cfg = _config(altitude_m=100.0)
        grid = build_grid(cfg)
        sets = classify_cells(cfg, 5, grid, deploy_uavs(cfg, grid))  # UAV above (37.5, 37.5)
        assert {tuple(c) for c in sets.intended} == {(a, b) for a in (6, 7, 8) for b in (6, 7, 8)}

    def test_monotone_in_altitude(self):
        cfg = _config()
        grid = build_grid(cfg)
        previous = set()
        for h in (40.0, 80.0, 120.0, 160.0):
            cfg_h = _config(altitude_m=h)
            intended = {tuple(c) for c in classify_cells(cfg_h, 5, grid, deploy_uavs(cfg_h, grid)).intended}
            assert previous <= intended
            previous = intended

    def test_partition_property(self):
        # The intended sets partition the grid at the derived altitude, each inside its own illuminated set.
        cfg = _config()
        grid = build_grid(cfg)
        positions = deploy_uavs(cfg, grid)
        seen = np.zeros((20, 20), dtype=int)
        for u in range(16):
            sets = classify_cells(cfg, u, grid, positions)
            for a, b in sets.intended:
                seen[a, b] += 1
            assert {tuple(c) for c in sets.intended} <= {tuple(c) for c in sets.illuminated}
        assert np.all(seen == 1)

    @pytest.mark.parametrize("altitude", [None, 5.0, 20.0, 100.0, 400.0])
    def test_illuminated_is_the_row_major_union(self, altitude):
        # classify_cells stores the union of the intended cells and the cells
        # whose center lies inside the footprint circle once, in row-major
        # order: the lexsorted stack of the two sets.
        cfg = _config() if altitude is None else _config(altitude_m=altitude)
        grid = build_grid(cfg)
        positions = deploy_uavs(cfg, grid)
        radius = footprint_radius(cfg, positions[0, 2])
        for u in range(cfg.uav_count):
            sets = classify_cells(cfg, u, grid, positions)
            distance = np.hypot(*(grid.centers[:, :, :2] - positions[u, :2]).transpose(2, 0, 1))
            in_circle = np.argwhere(distance <= radius + 1e-9 * max(1.0, radius))
            both = np.unique(np.vstack([sets.intended, in_circle]), axis=0)
            expected = both[np.lexsort((both[:, 1], both[:, 0]))]
            assert sets.illuminated.dtype == expected.dtype and sets.illuminated.shape == expected.shape
            assert sets.illuminated.tobytes() == expected.tobytes()


class TestAoa:
    def test_right_triangle(self):
        d = aoa((0.0, 0.0, 100.0), (100.0, 0.0, 0.0))
        assert isinstance(d.theta, np.ndarray) and d.theta.shape == d.phi.shape == ()
        assert d.theta == pytest.approx(math.pi / 4)
        assert d.phi == pytest.approx(0.0)

    def test_boresight_convention(self):
        d = aoa((0.0, 0.0, 100.0), (0.0, 0.0, 0.0))
        assert (d.theta, d.phi) == (0.0, 0.0)

    def test_axis_symmetry(self):
        d = aoa((0.0, 0.0, 100.0), (0.0, 100.0, 0.0))
        assert d.theta == pytest.approx(math.pi / 4)
        assert d.phi == pytest.approx(math.pi / 2)

    def test_point_above_observer_rejected(self):
        with pytest.raises(ValueError):
            aoa((0.0, 0.0, 100.0), (5.0, 5.0, 100.0))

    def test_stacked_points_match_single_points(self, rng):
        cfg = _config()
        grid = build_grid(cfg)
        positions = deploy_uavs(cfg, grid)
        points = grid.centers.reshape(-1, 3)
        stacked = aoa(positions[5], points)
        assert stacked.theta.shape == stacked.phi.shape == (len(points),)
        for k, point in enumerate(points):
            single = aoa(positions[5], point)
            assert (stacked.theta[k], stacked.phi[k]) == (single.theta, single.phi)
        observers = aoa(positions, points[7])
        for u in range(cfg.uav_count):
            assert observers.theta[u] == aoa(positions[u], points[7]).theta

    def test_stacked_points_above_observer_rejected(self):
        with pytest.raises(ValueError):
            aoa((0.0, 0.0, 100.0), np.array([[1.0, 2.0, 0.0], [5.0, 5.0, 100.0]]))

    def test_inverse_reconstruction(self, rng):
        cfg = _config()
        grid = build_grid(cfg)
        positions = deploy_uavs(cfg, grid)
        for _ in range(50):
            a, b = rng.integers(0, 20, size=2)
            u = rng.integers(0, 16)
            obs = positions[u]
            d = aoa(obs, grid.centers[a, b])
            rho = obs[2] * math.tan(d.theta)
            rebuilt = (obs[0] + rho * math.cos(d.phi), obs[1] + rho * math.sin(d.phi))
            assert np.allclose(rebuilt, grid.centers[a, b, :2], atol=1e-9)


def test_cell_of_point_clips_to_grid():
    grid = build_grid(_config())
    assert cell_of_point(grid, 2.4, 97.6) == (0, 19)
    assert cell_of_point(grid, 100.0, 0.0) == (19, 0)
