"""The fit digest that ``tools/fit_digest.py`` prints for each fit."""

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np

from hopca.decompose import tpa
from hopca.evaluate import support_metrics
from hopca.generalized import SmootherSet, fpca_rank_one

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


def test_support_scores_have_one_digest_and_other_scores_another():
    score_digest = load_tool().score_digest
    x = np.random.default_rng(6).standard_normal((5, 4, 3))
    truth = tpa(x, 2)
    scores = support_metrics(tpa(x, 2), truth)
    assert score_digest(scores) == score_digest(support_metrics(tpa(x, 2),
                                                                truth))
    flipped = dataclasses.replace(scores, signs=-scores.signs)
    assert score_digest(flipped) != score_digest(scores)
