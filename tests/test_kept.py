"""A ``_shared_grams`` block keeps what it computes of its tensor in one
store, by key: the norm, each Gram by ``("gram", mode, side)``, each
start by ``(mode, k)`` and each Tucker pass by ``(ranks, updates,
config)``.  Each kept value comes back as itself, read-only; a Gram key
must not meet a start key (``(2, True) == (2, 1)`` in Python)."""

import numpy as np
import pytest

from hopca import decompose
from hopca.decompose import (_PLAIN, _kept, _norm, _shared_grams,
                             _smaller_gram, _unfolding_vectors, hosvd)
from hopca.simulate import SimScenarioSpec, simulate
from hopca.sparse import PenaltySpec, sparse_hosvd
from hopca.tensor3 import frob_norm

RANKS = (2, 2, 2)


@pytest.fixture(scope="module")
def x():
    """Mode 2 of 30 x 12 x 10 is wide, so its Gram key is side True and
    its k = 1 start's key ``(2, 1)``."""
    return np.random.default_rng(3).standard_normal((30, 12, 10))


def unmade():
    raise AssertionError("a kept value was computed again")


def assert_read_only(value):
    for a in value if isinstance(value, tuple) else (value,):
        if isinstance(a, np.ndarray):
            assert not a.flags.writeable


@pytest.mark.parametrize("gram_first", [True, False])
def test_each_kept_value_comes_back_as_itself_read_only(x, gram_first):
    with _shared_grams(x) as view:
        if gram_first:
            gram = _smaller_gram(view, 2)
            start = _unfolding_vectors(view, 2, 1, return_values=True)
        else:
            start = _unfolding_vectors(view, 2, 1, return_values=True)
            gram = _smaller_gram(view, 2)
        hosvd(view, RANKS)
        run = _kept(view, (RANKS, _PLAIN, False), unmade)
        assert _kept(view, "norm", unmade) == _norm(view) == frob_norm(x)
        assert _kept(view, ("gram", 2, True), unmade) is gram
        assert _kept(view, (2, 1), unmade) is start
        assert _smaller_gram(view, 2) is gram
        assert _unfolding_vectors(view, 2, 1, return_values=True) is start
        for value in (gram, start, run):
            assert_read_only(value)
    # each is its own value: the mode-2 row Gram, the (vectors, values)
    # pair, the (factors, levels, loops, core) pass of hosvd
    assert gram.shape == (12, 12)
    assert np.array_equal(gram, _smaller_gram(x, 2))
    assert isinstance(start, tuple) and len(start) == 2
    for got, want in zip(start, _unfolding_vectors(x, 2, 1, True)):
        assert np.array_equal(got, want)
    model = hosvd(x, RANKS)
    assert np.array_equal(run[3], model.core)
    assert all(np.array_equal(f, g) for f, g in zip(run[0], (model.U,
                                                             model.V,
                                                             model.W)))


def test_outside_a_block_nothing_is_kept(x):
    made = []
    assert _kept(x, "norm", lambda: made.append(1) or 1.0) == 1.0
    assert _kept(x, "norm", lambda: made.append(1) or 1.0) == 1.0
    assert made == [1, 1]
    assert _smaller_gram(x, 2).flags.writeable


def test_a_penalized_pca_view_is_seeded_with_the_blocks_gram(x, monkeypatch):
    """The view ``m[:, :, None]`` of mode 1's unfolding opens its own
    block, kept under mode 2's Gram key of the view: the outer block's
    Gram of ``x`` for the right factor, itself and read-only."""
    seen = []
    greedy = decompose._greedy

    def spy(terms, *args, **kwargs):
        seen.append((terms.x, _smaller_gram(terms.x, 2)))
        return greedy(terms, *args, **kwargs)

    monkeypatch.setattr(decompose, "_greedy", spy)
    with _shared_grams(x) as view:
        gram = _smaller_gram(view, 1, right=True)
        sparse_hosvd(view, RANKS, PenaltySpec.lasso(u=0.5))
        assert len(seen) == 1
        m, seeded = seen[0]
        assert m.shape == (30, 120, 1)
        assert seeded is gram and not seeded.flags.writeable
