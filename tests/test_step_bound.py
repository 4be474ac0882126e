"""The q-weighted lasso's step bound comes from the operator check.

``QuadOperators`` keeps both ends of the ``eigvalsh`` that checks each
operator, the engine passes the largest as the lasso's step bound, and a
standalone ``qnorm_lasso_solve`` without one takes a single ``eigvalsh``
for both the positive-definiteness check and the bound.  The solver is
checked bit for bit against a copy of the earlier one, which found its
bound by power iteration, checked q by a Cholesky factorization and ran
the KKT test before the sign test: the minimizer is unique and a
candidate depends only on its sign pattern, so the bound changes only
the iteration count.  Properties are derandomized, so every run draws
the same examples.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopca import generalized
from hopca.decompose import SolverConfig, _ModeUpdate
from hopca.generalized import (
    QuadOperators,
    SmootherSet,
    qnorm_lasso_kkt_residual,
    qnorm_lasso_solve,
    sparse_gcp_rank_one,
)
from hopca.sparse import ModePenalty, soft_threshold

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True)


# ---------------------------------------------------------------------------
# the earlier solver, kept as the reference


def reference_soft_threshold(x, lam):
    return np.sign(x) * np.maximum(np.abs(x) - lam, 0.0)


def reference_power_lambda_max(q, iters=200, tol=1e-12):
    z = np.ones(q.shape[0]) / np.sqrt(q.shape[0])
    value = 0.0
    for _ in range(iters):
        zq = q @ z
        nrm = np.linalg.norm(zq)
        if nrm <= 1e-300:
            return 0.0
        z_new = zq / nrm
        new_value = float(z_new @ (q @ z_new))
        if abs(new_value - value) <= tol * max(abs(value), 1e-300):
            return new_value
        value = new_value
        z = z_new
    return value


def reference_kkt_residual(y, q, lam, u):
    grad = q @ (u - y)
    nonzero = u != 0
    res = np.where(nonzero, np.abs(grad + lam * np.sign(u)),
                   np.maximum(np.abs(grad) - lam, 0.0))
    return float(np.max(res)) if res.size else 0.0


def reference_solve(y, q, lam, lipschitz=None, start=None):
    if lipschitz is None:
        try:
            np.linalg.cholesky(q)
        except np.linalg.LinAlgError:
            raise ValueError("q must be positive definite") from None
    if lam == 0.0:
        return y.copy()
    lip = reference_power_lambda_max(q) if lipschitz is None else lipschitz
    u = np.zeros_like(y) if start is None else start.copy()
    qy = q @ y
    tol = 1e-10 * max(float(np.abs(qy).max(initial=0.0)), lam)
    for step in range(int(start is None), 100001):
        if step:
            u = reference_soft_threshold(u - (q @ u - qy) / lip, lam / lip)
        if step % 8:
            continue
        theta = np.sign(u)
        active = theta != 0
        candidate = np.zeros_like(y)
        rhs = qy[active] - lam * theta[active]
        try:
            candidate[active] = np.linalg.solve(q[active][:, active], rhs)
        except np.linalg.LinAlgError:
            pass
        else:
            if (reference_kkt_residual(y, q, lam, candidate) <= tol
                    and (np.sign(candidate) == theta).all()):
                return candidate
        if reference_kkt_residual(y, q, lam, u) <= tol:
            break
    return u


# ---------------------------------------------------------------------------


def instance(dim, seed, frac):
    """A positive definite q of order ``dim``, a y, and ``frac`` times the
    level ``||q y||_inf`` at which the solution first vanishes."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim))
    q = g @ g.T / dim + rng.uniform(0.05, 3.0) * np.eye(dim)
    q = 0.5 * (q + q.T)
    y = rng.standard_normal(dim) * rng.uniform(0.1, 10.0)
    return rng, q, y, frac * float(np.max(np.abs(q @ y)))


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@PROPERTY
@given(st.integers(1, 30), st.integers(0, 2**32 - 1))
def test_the_operator_check_keeps_the_largest_eigenvalue(dim, seed):
    _, q, _, _ = instance(dim, seed, 0.0)
    ops = QuadOperators(q, np.eye(2), 2.0 * np.eye(3))
    eigs = np.linalg.eigvalsh(q)
    assert ops.max_eigs == (eigs[-1], 1.0, 2.0)
    assert ops.min_eigs == (eigs[0], 1.0, 2.0)


@PROPERTY
@given(st.integers(1, 30), st.integers(0, 2**32 - 1), st.floats(0.0, 1.5),
       st.sampled_from(["cold", "random", "minimizer"]), st.booleans())
def test_the_solver_keeps_the_earlier_bits(dim, seed, frac, start,
                                           given_bound):
    """Cold and warm starts, levels from 0 to above the zeroing level, and
    the bound given (the operator's eigenvalue here, power iteration's
    before) or not."""
    rng, q, y, lam = instance(dim, seed, frac)
    if start == "cold":
        start = None
    elif start == "random":
        start = rng.standard_normal(dim) * rng.uniform(0.1, 10.0)
    else:
        start = reference_solve(y, q, lam)
    if given_bound:
        new_bound = QuadOperators(q, np.eye(1), np.eye(1)).max_eigs[0]
        old_bound = reference_power_lambda_max(q)
    else:
        new_bound = old_bound = None
    solved = qnorm_lasso_solve(y, q, lam, new_bound, start)
    assert same_bits(solved, reference_solve(y, q, lam, old_bound, start))
    assert (qnorm_lasso_kkt_residual(y, q, lam, solved)
            == reference_kkt_residual(y, q, lam, solved))


@PROPERTY
@given(st.integers(1, 30), st.integers(0, 2**32 - 1), st.floats(0.0, 1.5),
       st.integers(0, 30))
def test_the_kkt_residual_and_the_prox_keep_their_bits(dim, seed, frac,
                                                       zeros):
    rng, q, y, lam = instance(dim, seed, frac)
    u = rng.standard_normal(dim)
    u[rng.permutation(dim)[:zeros]] = 0.0
    assert (qnorm_lasso_kkt_residual(y, q, lam, u)
            == reference_kkt_residual(y, q, lam, u))
    assert same_bits(soft_threshold(u, lam), reference_soft_threshold(u, lam))


def test_a_fit_computes_no_eigenvalue_once_its_operators_are_built(
        monkeypatch):
    rng = np.random.default_rng(3)
    x = rng.standard_normal((6, 5, 4))
    ops = QuadOperators(*(instance(n, n, 0.0)[1] for n in x.shape))
    calls = []

    def counted(name):
        real = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    for name in ("eigvalsh", "cholesky"):
        monkeypatch.setattr(np.linalg, name, counted(name))
    bounds = []
    real_solve = generalized.qnorm_lasso_solve

    def solve(y, q, lam, lipschitz=None, start=None):
        bounds.append(lipschitz)
        return real_solve(y, q, lam, lipschitz, start)

    monkeypatch.setattr(generalized, "qnorm_lasso_solve", solve)
    fit = sparse_gcp_rank_one(x, ops, (0.3, 0.2, 0.1), SolverConfig())
    assert bounds and fit.d > 0.0
    assert set(bounds) == set(ops.max_eigs)
    assert calls == []


def test_a_standalone_solve_takes_one_eigenvalue_computation(monkeypatch):
    _, q, y, lam = instance(7, 1, 0.3)
    calls = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a: calls.append(a) or real(a))
    monkeypatch.setattr(np.linalg, "cholesky", None)
    qnorm_lasso_solve(y, q, lam)
    assert len(calls) == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_an_operator_with_a_non_finite_entry_is_refused(bad):
    q = np.eye(3)
    q[1, 1] = bad
    with pytest.raises(ValueError, match="q2 has a NaN or infinite entry"):
        QuadOperators(np.eye(2), q, np.eye(4))


@pytest.mark.parametrize("alpha", [np.nan, np.inf])
def test_a_non_finite_smoother_weight_is_refused(alpha):
    with pytest.raises(ValueError, match="alpha"):
        SmootherSet(*np.zeros((3, 2, 2)), alpha=alpha)


@pytest.mark.parametrize("lam", [np.nan, [np.nan], [0.1, np.nan],
                                 [np.nan, 0.1]])
def test_a_nan_penalty_level_is_refused(lam):
    with pytest.raises(ValueError, match="non-negative"):
        ModePenalty("lasso", lam)


def test_a_nan_engine_level_is_refused():
    with pytest.raises(ValueError, match="non-negative"):
        _ModeUpdate(level=np.nan)
