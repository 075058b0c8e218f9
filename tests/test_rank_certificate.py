"""The rank rule on the history's design block, and the certificate it reads.

``History`` keeps ||R_D^-1||_F of a kept factor's design block from the last
triangular inverse it formed, and settles later rank rules from it.  These
tests check that no rank decision moves because of that, and that an on-line
run or a batch prediction no longer forms one inverse per step or per row.
The IID, Gauss, MVA and IID-Gauss steps and the conditional sampler all
decide rank by that one rule on the history's design block, so a history
that only the new row would make full rank raises for each of them.
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
    IidGaussPredictor,
    Observation,
    RankDeficiencyError,
    SyntheticConfig,
    gen_synthetic,
    sample_conditional,
)
from olreg.cli import batch_predict, main
from olreg.predictors import _step_projector
from olreg.protocol import GaussPredictor, IidPredictor, MvaPredictor, run_online

import oracles


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


def fresh_block_rule(history, ridge, schedule):
    """The rank rule on the design block of a freshly built history, over
    its own n - 1 rows, decided by the block's singular values alone; fewer
    rows than columns fail at ridge 0."""
    fresh = History.from_observations(
        Observation(row, y) for row, y in zip(history.features, history.responses)
    )
    n = len(history) + 1
    active = schedule.active_features(n) if schedule is not None else history.feature_count
    cols = active + 1
    if ridge == 0.0 and n - 1 < cols:
        return False
    return oracles.svd_rank_rule(fresh.triangular_factor(ridge, cols)[:cols, :cols], n - 1)


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
        expected = fresh_block_rule(history, ridge, schedule)
        try:
            _step_projector(history, x, ridge, schedule)
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


@pytest.mark.parametrize("model", ["iid", "mva", "gauss"])
def test_ridge_zero_batch_prediction_forms_no_inverse_per_row(monkeypatch, model):
    rng = np.random.default_rng(6)
    train = rng.normal(size=(120, 20))
    responses = train @ rng.normal(size=20) + rng.normal(size=120)
    calls = count_inverses(monkeypatch)
    result = batch_predict(train, responses, rng.normal(size=(50, 20)), (0.05, 0.01), model=model)
    assert result.code == 0 and np.isfinite(result.upper).all()
    assert len(calls) <= 2


@pytest.mark.parametrize("block", ["whole", "leading"])
def test_rank_deficient_design_is_inverted_once_per_check(monkeypatch, block):
    # while the design is deficient no certificate settles the rule: each
    # check inverts its block once and the singular values decide.  A
    # leading block of a wider factor is inverted alone, since its inverse
    # says nothing of the whole block's and no certificate is taken for it
    rng = np.random.default_rng(8)
    if block == "leading":
        # x2 = x1: the leading block [1 | x1 | x2] never gains rank
        features, responses = stream_rows(rng, 4, 16, 0.0, 0)
        history = History.from_arrays(features[:6], responses[:6])
        assert not history.design_has_full_rank()  # keeps the factor full width
        columns, start = 3, 6
    else:
        features, responses = stream_rows(rng, 4, 10, None, 10)
        history, columns, start = History(4), None, 0
    calls = count_inverses(monkeypatch)
    for i in range(start, len(features)):
        history.append(Observation(features[i], responses[i]))
        calls.clear()
        assert not history.design_has_full_rank(0.0, columns)
        assert len(calls) == (1 if i >= 4 else 0), i


def collinear_split():
    """20 training rows with x2 = x1 and 15 test rows with x2 != x1: each
    test row alone would make the step's rows full rank at ridge 0."""
    rng = np.random.default_rng(0)
    first = rng.normal(size=20)
    responses = first + rng.normal(size=20)
    return np.column_stack([first, first]), responses, rng.normal(size=(15, 2))


@pytest.mark.parametrize("model", ["iid", "mva", "gauss"])
def test_history_that_only_the_new_row_makes_full_rank_raises(model):
    train, responses, test = collinear_split()
    with pytest.raises(RankDeficiencyError):
        batch_predict(train, responses, test, (0.1, 0.05), model=model)
    # a positive ridge keeps every row's step
    if model != "gauss":
        result = batch_predict(train, responses, test, (0.1, 0.05), model=model, ridge=0.01)
        assert result.code == 0 and np.isfinite(result.upper).all()


def test_iidgauss_and_the_sampler_decide_rank_on_such_a_history():
    # the conditional law needs the history's whole design at full rank, so
    # a positive ridge does not keep the step; deciding rank on the history
    # plus the new row gave ridge-0 ends near 2e8 of rounding noise
    train, responses, test = collinear_split()
    history = History.from_arrays(train, responses)
    for ridge in (0.0, 0.01):
        with pytest.raises(RankDeficiencyError):
            IidGaussPredictor(ridge=ridge).step(history, test[0])
    with pytest.raises(RankDeficiencyError):
        sample_conditional(history, 1, seed=0)
    with pytest.raises(RankDeficiencyError):
        batch_predict(train, responses, test, (0.1, 0.05), model="iidgauss")


def test_iid_predict_on_such_a_history_exits_11(tmp_path, capsys):
    train, responses, test = collinear_split()
    train_path, test_path = tmp_path / "train.csv", tmp_path / "test.csv"
    np.savetxt(train_path, np.column_stack([train, responses]), delimiter=",",
               header="x1,x2,y", comments="")
    np.savetxt(test_path, test, delimiter=",", header="x1,x2", comments="")
    code = main(
        ["predict", "--model", "iid", "--ridge", "0", "--train", str(train_path),
         "--test", str(test_path), "--out", str(tmp_path / "bounds")]
    )
    assert code == 11
    assert "rank deficient" in capsys.readouterr().err
    assert not (tmp_path / "bounds_lower.csv").exists()


@settings(deadline=None, max_examples=80)
@given(
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=3, max_value=14),
    st.sampled_from(["collinear", "repeated", "well-posed"]),
    st.sampled_from([0.0, 0.01]),
    st.booleans(),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_iid_step_raises_exactly_when_the_mva_step_does(k, n, kind, ridge, scheduled, seed):
    # the new row never joins the history's rank: in a collinear history
    # x2 = x1 in every row but the new one, and in a repeated one every
    # history row is the first
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, k))
    if kind == "collinear":
        features[:-1, 1] = features[:-1, 0]
    elif kind == "repeated":
        features[:-1] = features[0]
    responses = features.sum(axis=1) + rng.normal(size=n)
    schedule = FeatureSchedule(1, int(rng.integers(2, n + 2)), k) if scheduled else None
    raised = []
    for predictor in (IidPredictor(ridge, schedule), MvaPredictor(ridge, schedule)):
        # each its own history, so that no cached decision is shared
        history = History.from_arrays(features[:-1], responses[:-1])
        try:
            predictor.step(history, features[-1])
        except RankDeficiencyError:
            raised.append(True)
        else:
            raised.append(False)
    assert raised[0] == raised[1], raised
