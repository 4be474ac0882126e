"""The fit digest that ``tools/fit_digest.py`` prints for each fit."""

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np

from hopca.decompose import SolverConfig, tpa
from hopca.evaluate import support_metrics
from hopca.generalized import SmootherSet, fpca_rank_one
from hopca.simulate import SimScenarioSpec, fit_method, simulate

TOOL = Path(__file__).resolve().parents[1] / "tools" / "fit_digest.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("fit_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_fit_has_one_digest_and_another_fit_another():
    digest = load_tool().digest
    x = np.random.default_rng(5).standard_normal((4, 3, 5))
    first, again = digest(tpa(x, 2)), digest(tpa(x, 2))
    assert first == again and len(first) == 64
    assert digest(tpa(x + 1e-12, 2)) != first
    s = SmootherSet.second_difference(x.shape, 1.0)
    assert digest(fpca_rank_one(x, s)) == digest(fpca_rank_one(x, s))


def test_a_models_traces_have_their_own_digest():
    tool = load_tool()
    x = np.random.default_rng(7).standard_normal((4, 3, 5))
    model = tpa(x, 2)
    retraced = dataclasses.replace(model, diagnostics={
        **model.diagnostics,
        "objective_traces": [t + 1.0 for t in
                             model.diagnostics["objective_traces"]]})
    assert tool.digest(retraced) == tool.digest(model)
    assert tool.trace_digest(retraced) != tool.trace_digest(model)
    assert tool.trace_digest(tpa(x, 2)) == tool.trace_digest(model)


def test_support_scores_have_one_digest_and_other_scores_another():
    score_digest = load_tool().score_digest
    x = np.random.default_rng(6).standard_normal((5, 4, 3))
    truth = tpa(x, 2)
    scores = support_metrics(tpa(x, 2), truth)
    assert score_digest(scores) == score_digest(support_metrics(tpa(x, 2),
                                                                truth))
    flipped = dataclasses.replace(scores, signs=-scores.signs)
    assert score_digest(flipped) != score_digest(scores)


def test_the_penalized_pca_has_fits_of_its_own():
    tool = load_tool()
    fits = dict(tool.pca_fits())
    assert list(fits) == ["pca rank-one 0.4 0.2",
                          *(f"pca nonneg 0.4 comp {c}" for c in range(3))]
    digests = {label: tool.digest(fit) for label, fit in fits.items()}
    assert len(set(digests.values())) == 4
    assert {label: tool.digest(fit)
            for label, fit in tool.pca_fits()} == digests
    rank_one = fits["pca rank-one 0.4 0.2"]
    # the positive right level zeroes entries of v, so it is exercised
    assert 0 < np.count_nonzero(rank_one.v) < rank_one.v.size
    assert (rank_one.lam_left, rank_one.lam_right) == (0.4, 0.2)
    flipped = dataclasses.replace(rank_one, v=-rank_one.v)
    assert tool.digest(flipped) != digests["pca rank-one 0.4 0.2"]
    assert all(fit.lam_left == 0.4 and np.all(fit.u >= 0.0)
               for label, fit in fits.items() if "nonneg" in label)


def test_each_component_of_the_pca_of_three_unfoldings_is_digested():
    """Three BIC components of each unfolding, so that the later starts
    (tall view, wide view, small Gram) have digests of their own."""
    tool = load_tool()
    fits = dict(tool.unfolding_pca_fits())
    shapes = ("1000x400", "20x20000", "100x10000")
    assert list(fits) == [
        f"pca s{scenario} mode {mode} {shape} bic comp {comp}"
        for (scenario, mode), shape in zip(tool.UNFOLDINGS, shapes)
        for comp in range(3)]
    assert all(fit.d > 0.0 for fit in fits.values())


def test_the_fixed_level_tucker_fits_are_digested_on_scenario_2():
    fits = {label: fit for label, fit, _ in load_tool().scenario_fits()}
    for method in ("sparse-hosvd", "sparse-hooi"):
        fit = fits[f"s2 {method} u=2.0"]
        assert fit.diagnostics["method"] == method
        assert fit.diagnostics["lambdas"]["u"] == [2.0, 2.0]
        assert 0 < min(fit.diagnostics["nnz"]["u"]) < fit.U.shape[0]


def test_fits_of_a_tensor_read_back_are_digested_per_family():
    """One fit per family of the scenario-1 tensor after a ``.t3`` round
    trip; the read-back tensor has the written one's values and layout, so
    each fit has the digests of the same fit of the written tensor."""
    tool = load_tool()
    fits = dict(tool.t3_fits())
    assert list(fits) == [f"s1 t3 {name}" for name in tool.T3_METHODS]
    spec = SimScenarioSpec(1, seed=tool.SEED)
    x = simulate(spec).x
    for name in tool.T3_METHODS:
        fit = fits[f"s1 t3 {name}"]
        assert fit.diagnostics["method"] == name
        again = fit_method(name, x, spec, SolverConfig(max_iter=100))
        assert tool.digest(fit) == tool.digest(again)
        assert tool.trace_digest(fit) == tool.trace_digest(again)


def test_the_bic_tucker_fits_penalize_every_mode_of_scenarios_3_and_4():
    """A penalized PCA runs in every mode, modes 2 and 3 on the wide
    unfoldings, and its levels are BIC's; the (3, 2, 1) fit has a
    non-negative v at level 0.5 and a trace line of its own."""
    tool = load_tool()
    fits = {label: fit for label, fit, _ in tool.all_modes_fits()}
    assert list(fits) == [f"s{s} {m}" for s in (3, 4)
                          for m in ("sparse-hosvd", "sparse-hooi")]
    for fit in fits.values():
        for mode, f in zip("uvw", (fit.U, fit.V, fit.W)):
            assert min(fit.diagnostics["lambdas"][mode]) > 0.0
            assert 0 < np.count_nonzero(f[:, 0]) < f.shape[0]
    (label, fit), = tool.uneven_ranks_fits()
    assert label == "s4 sparse-hooi (3, 2, 1) u=bic v=nonneg 0.5"
    assert fit.ranks == (3, 2, 1)
    assert fit.diagnostics["lambdas"]["v"] == [0.5, 0.5]
    assert np.all(fit.V >= 0.0) and np.count_nonzero(fit.V) < fit.V.shape[0]
    assert fit.diagnostics["converged"][-1]
