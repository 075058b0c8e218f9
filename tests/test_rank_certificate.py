"""The rank certificate a history carries across appended rows.

``History`` keeps ||R_D^-1||_F of a kept factor's design block from the last
triangular inverse it formed, and settles later rank rules from it.  These
tests check that no rank decision moves because of that, and that an on-line
run or a batch prediction no longer forms one inverse per step or per row.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack

import olreg.base
from olreg import (
    FeatureSchedule,
    History,
    Observation,
    RankDeficiencyError,
    SyntheticConfig,
    gen_synthetic,
)
from olreg.base import _passes_rank_rule, absorb_rows
from olreg.cli import batch_predict
from olreg.predictors import _step_projector
from olreg.protocol import GaussPredictor, run_online


def stream_rows(rng, k, count, delta, repeated):
    """Features with x2 = x1 + delta * noise when delta is given (an exact
    copy at delta 0, so the full design never gains rank), and the
    first ``repeated`` rows all equal, so the design starts rank deficient."""
    features = rng.normal(size=(count, k))
    if delta is not None and k >= 2:
        features[:, 1] = features[:, 0] + delta * rng.normal(size=count)
    features[:repeated] = features[0]
    responses = features.sum(axis=1) + rng.normal(size=count)
    return features, responses


def parent_step_rule(history, x, ridge, schedule):
    """The rank rule on the step triangle, formed from a freshly built
    history and decided by its own inverse and singular values."""
    fresh = History.from_observations(
        Observation(row, y) for row, y in zip(history.features, history.responses)
    )
    n = len(history) + 1
    active = schedule.active_features(n) if schedule is not None else history.feature_count
    cols = active + 1
    row = np.concatenate([[1.0], x[:active], [0.0]])[None]
    triangle = absorb_rows(fresh.triangular_factor(ridge, cols), row)
    return _passes_rank_rule(triangle[:cols, :cols], n, ridge)


@settings(deadline=None, max_examples=80)
@given(
    st.integers(min_value=1, max_value=6),
    st.sampled_from([None, 1e-3, 1e-8, 0.0]),
    st.booleans(),
    st.sampled_from([0.0, 0.01]),
    st.booleans(),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_carried_certificate_keeps_every_rank_decision(k, delta, deficient, ridge, scheduled, seed):
    rng = np.random.default_rng(seed)
    repeated = k + 3 if deficient else 0
    count = k + 3 + repeated + 6
    features, responses = stream_rows(rng, k, count, delta, repeated)
    schedule = FeatureSchedule(1, k + 3 + repeated, k) if scheduled else None
    history = History(k)
    for i in range(count - 1):
        history.append(Observation(features[i], responses[i]))
        fresh = History.from_observations(
            Observation(row, y) for row, y in zip(features[: i + 1], responses[: i + 1])
        )
        assert history.design_has_full_rank() == fresh.design_has_full_rank(), i
        x = features[i + 1]
        expected = parent_step_rule(history, x, ridge, schedule)
        try:
            _step_projector(history, x, ridge, schedule, float(history.responses.mean()))
        except RankDeficiencyError:
            assert not expected, i
        else:
            assert expected, i


def count_inverses(monkeypatch):
    calls = []
    inverse = lapack.dtrtri

    def counted(*args, **kwargs):
        calls.append(1)
        return inverse(*args, **kwargs)

    monkeypatch.setattr(olreg.base.lapack, "dtrtri", counted)
    return calls


def test_certificate_is_taken_again_once_the_design_gains_rank(monkeypatch):
    # the bound taken while the rows repeat is useless; the first check after
    # the design gains rank replaces it, and later checks reuse the new one
    rng = np.random.default_rng(8)
    features, responses = stream_rows(rng, 4, 40, None, 10)
    history = History(4)
    calls = count_inverses(monkeypatch)
    for i, (row, y) in enumerate(zip(features, responses)):
        history.append(Observation(row, y))
        if i == 13:  # the fifth distinct row: the design gains rank
            calls.clear()
        assert history.design_has_full_rank() == (i >= 13)
    assert len(calls) == 1


def test_gauss_run_forms_no_inverse_per_step(monkeypatch):
    stream = gen_synthetic(SyntheticConfig(seed=4, observation_count=200, feature_count=20))
    calls = count_inverses(monkeypatch)
    ledger = run_online(GaussPredictor(), stream, (0.05, 0.01))
    assert ledger.step_count == 200
    # the rank rule is asked at each of the 178 steps from K + 3 on
    assert len(calls) <= 2


@pytest.mark.parametrize("model", ["iid", "mva"])
def test_ridge_zero_batch_prediction_forms_no_inverse_per_row(monkeypatch, model):
    rng = np.random.default_rng(6)
    train = rng.normal(size=(120, 20))
    responses = train @ rng.normal(size=20) + rng.normal(size=120)
    calls = count_inverses(monkeypatch)
    result = batch_predict(train, responses, rng.normal(size=(50, 20)), (0.05, 0.01), model=model)
    assert result.code == 0 and np.isfinite(result.upper).all()
    assert len(calls) <= 2
