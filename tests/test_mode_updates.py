"""One per-mode update for every loop: a penalty spec becomes one
``_ModeUpdate`` per mode, and the deflation, ALS and Tucker loops each
take that same tuple, ``_PLAIN[m]`` standing for the loop's own
unpenalized step."""

import numpy as np
import pytest

from hopca import sparse
from hopca.decompose import _PLAIN, SolverConfig
from hopca.sparse import (ModePenalty, PenaltySpec, _mode_updates,
                          sparse_cp_als, sparse_cp_tpa, sparse_hooi,
                          sparse_hosvd)

SPEC = PenaltySpec(ModePenalty("lasso", None), ModePenalty("lasso", 0.5))


@pytest.mark.parametrize("solver, rank, loop, position", [
    (sparse_cp_tpa, 1, "_fit_greedy", 2),
    (sparse_cp_als, 1, "_als", 4),
    (sparse_hosvd, (1, 1, 1), "_tucker", 4),
    (sparse_hooi, (1, 1, 1), "_tucker", 4),
])
def test_each_sparse_solver_hands_its_loop_the_specs_updates(
        monkeypatch, solver, rank, loop, position):
    seen = []
    monkeypatch.setattr(sparse, loop, lambda *args, **kwargs: seen.append(
        args[position]))
    solver(np.ones((4, 3, 2)), rank, SPEC, SolverConfig())
    assert seen == [_mode_updates(SPEC)]
    # a BIC lasso, a fixed lasso and the plain update of the last mode
    assert seen[0][0].grid is not None and seen[0][1].level == 0.5
    assert seen[0][2] == _PLAIN[2]


def test_no_penalty_is_the_plain_update_by_value():
    assert _mode_updates(None) == _mode_updates(PenaltySpec.none()) == _PLAIN
    # a lasso at level 0 is a penalized step, not the plain one
    assert _mode_updates(PenaltySpec.lasso(u=0.0))[0] != _PLAIN[0]


@pytest.mark.parametrize("pen, steps", [(PenaltySpec.none(), 0),
                                        (PenaltySpec.lasso(u=0.0), 2)])
def test_the_als_loop_takes_the_lasso_step_only_in_a_penalized_mode(
        monkeypatch, pen, steps):
    made, modes = sparse._lasso_step, []

    def counted(upd, *args):
        modes.append(upd)
        return made(upd, *args)

    monkeypatch.setattr(sparse, "_lasso_step", counted)
    x = np.random.default_rng(4).standard_normal((5, 4, 3))
    sparse_cp_als(x, 1, pen, SolverConfig(max_iter=2, tol=1e-300))
    assert modes == [_mode_updates(pen)[0]] * steps
