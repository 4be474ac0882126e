"""Scenario generator and experiment driver checks (desk scale)."""

import numpy as np
import numpy.testing as npt
import pytest

from hopca.decompose import SolverConfig, _shared_grams
from hopca.simulate import (
    METHODS,
    SimScenarioSpec,
    _default_sparse_grid,
    run_roc_experiment,
    run_table_experiment,
    simulate,
)
from hopca.sparse import PenaltySpec
from hopca.tensor3 import frob_norm


class TestScenarioSpec:
    def test_dims_per_scenario(self):
        assert SimScenarioSpec(1).dims == (100, 100, 100)
        assert SimScenarioSpec(2).dims == (1000, 20, 20)
        assert SimScenarioSpec(3).dims == (100, 100, 100)
        assert SimScenarioSpec(4).dims == (1000, 20, 20)

    def test_sparse_modes(self):
        assert SimScenarioSpec(1).sparse_modes == ("u",)
        assert SimScenarioSpec(3).sparse_modes == ("u", "v", "w")

    def test_weights(self):
        npt.assert_array_equal(SimScenarioSpec(1, k=1).d, [100.0])
        npt.assert_array_equal(SimScenarioSpec(1, k=2).d, [200.0, 100.0])
        npt.assert_array_equal(SimScenarioSpec(1, k=2, signal="low").d,
                               [100.0, 50.0])

    def test_invalid_fields(self):
        with pytest.raises(ValueError):
            SimScenarioSpec(5)
        with pytest.raises(ValueError):
            SimScenarioSpec(1, k=3)
        with pytest.raises(ValueError):
            SimScenarioSpec(1, signal="medium")

    @pytest.mark.parametrize("noise", [np.nan, np.inf])
    def test_a_non_finite_noise_scale_is_refused(self, noise):
        with pytest.raises(ValueError, match="finite and non-negative"):
            SimScenarioSpec(2, noise=noise)


class TestSimulate:
    def test_sparse_factor_zero_count(self):
        truth = simulate(SimScenarioSpec(2, k=2, sparsity=0.5, seed=3))
        n = truth.U.shape[0]
        for k in range(2):
            assert np.sum(truth.U[:, k] == 0) == round(0.5 * n)
            assert np.linalg.norm(truth.U[:, k]) == pytest.approx(1.0)

    def test_ninety_percent_sparsity(self):
        truth = simulate(SimScenarioSpec(2, k=1, sparsity=0.9, seed=4))
        assert np.sum(truth.U[:, 0] == 0) == round(0.9 * truth.U.shape[0])

    def test_dense_factors_orthonormal(self):
        truth = simulate(SimScenarioSpec(2, k=2, seed=5))
        npt.assert_allclose(truth.V.T @ truth.V, np.eye(2), atol=1e-10)
        npt.assert_allclose(truth.W.T @ truth.W, np.eye(2), atol=1e-10)

    def test_same_seed_bit_identical(self):
        spec = SimScenarioSpec(2, k=2, seed=6)
        a = simulate(spec)
        b = simulate(spec)
        npt.assert_array_equal(a.x, b.x)
        npt.assert_array_equal(a.U, b.U)

    def test_replicates_differ(self):
        spec = SimScenarioSpec(2, k=1, seed=7)
        a = simulate(spec, replicate=0)
        b = simulate(spec, replicate=1)
        assert frob_norm(a.x - b.x) > 0

    def test_noiseless_variant(self):
        truth = simulate(SimScenarioSpec(2, k=1, seed=8, noise=0.0))
        npt.assert_array_equal(truth.x, truth.x_signal)

    def test_signal_is_weighted_outer_sum(self):
        truth = simulate(SimScenarioSpec(2, k=2, seed=9))
        rebuilt = np.einsum("ik,jk,lk,k->ijl", truth.U, truth.V, truth.W,
                            truth.d, optimize=True)
        npt.assert_allclose(truth.x_signal, rebuilt, atol=1e-12)


class TestTableExperiment:
    def test_noiseless_sparse_run_recovers_exactly(self):
        spec = SimScenarioSpec(2, k=1, seed=10, noise=0.0)
        result = run_table_experiment(spec, ["sparse-cp-tpa"], 1,
                                      cfg=SolverConfig(max_iter=100))
        rows = {(r[0], r[1], r[2]): r for r in result.rows}
        tp = rows[("sparse-cp-tpa", 0, "u")][3]
        fp = rows[("sparse-cp-tpa", 0, "u")][4]
        mse = rows[("sparse-cp-tpa", 0, "u")][5]
        assert tp == pytest.approx(1.0)
        assert fp == pytest.approx(0.0, abs=1e-12)
        assert mse <= 1e-8

    def test_empty_methods_gives_empty_table(self):
        spec = SimScenarioSpec(2, k=1, seed=11)
        result = run_table_experiment(spec, [], 1)
        assert result.rows == []

    def test_timings_recorded_per_method_and_replicate(self):
        spec = SimScenarioSpec(2, k=1, seed=12, noise=0.0)
        result = run_table_experiment(spec, ["tpa", "hosvd"], 2)
        assert len(result.timings) == 4
        assert all(t[2] >= 0 for t in result.timings)

    def test_parallel_jobs_match_serial(self):
        spec = SimScenarioSpec(2, k=1, seed=13, noise=0.0)
        serial = run_table_experiment(spec, ["tpa"], 2, jobs=1)
        parallel = run_table_experiment(spec, ["tpa"], 2, jobs=2)
        assert serial.rows == parallel.rows

    def test_unregularized_cp_and_greedy_mse_agree(self):
        # both unregularized solvers fit the same model class, so their
        # signal errors agree closely on matched scenario-1 seeds
        spec = SimScenarioSpec(1, k=2, seed=555)
        result = run_table_experiment(spec, ["cp-als", "tpa"], 2,
                                      cfg=SolverConfig(max_iter=100))
        rows = {(r[0], r[1], r[2]): r for r in result.rows}
        cp_mse = rows[("cp-als", 0, "u")][5]
        tpa_mse = rows[("tpa", 0, "u")][5]
        assert max(cp_mse, tpa_mse) <= 1.1 * min(cp_mse, tpa_mse)


class TestRocExperiment:
    def test_noiseless_touches_perfect_corner(self):
        spec = SimScenarioSpec(2, k=1, seed=14, noise=0.0)
        result = run_roc_experiment(spec, ["sparse-cp-tpa"], 1, points=8)
        corners = [(row[6], row[5]) for row in result.rows]
        assert any(fp == 0.0 and tp == 1.0 for fp, tp in corners)

    def test_naive_baseline_included(self):
        spec = SimScenarioSpec(2, k=1, seed=15, noise=0.0)
        result = run_roc_experiment(spec, ["cp-naive"], 1, points=5)
        assert all(row[0] == "cp-naive" for row in result.rows)
        assert len(result.rows) == 5

    def test_single_grid_point(self):
        spec = SimScenarioSpec(2, k=1, seed=16, noise=0.0)
        result = run_roc_experiment(spec, ["sparse-cp-tpa"], 2, grid=[0.5])
        assert len(result.rows) == 1

    @pytest.mark.parametrize("scenario", [1, 2])
    def test_the_default_grids_top_level_zeroes_the_first_u(self, scenario):
        """The top level is a few ulps above the first contraction's
        zeroing level, so no entry of the first component's u survives it
        by rounding: the sparse CP fits, whose first u-update thresholds
        that contraction, keep none."""
        spec = SimScenarioSpec(scenario, seed=2024)
        with _shared_grams(simulate(spec, replicate=0).x) as x:
            top = _default_sparse_grid(x, 20)[-1]
            for name in ("sparse-cp-tpa", "sparse-cp-als"):
                model = METHODS[name].fit(x, 2, SolverConfig(max_iter=60),
                                          PenaltySpec.lasso(u=top))
                assert np.count_nonzero(model.U) == 0, name
