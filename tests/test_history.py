"""Building a history from arrays in one copy, against appending row by row."""

import numpy as np
import pytest

from olreg import History, Observation, observations_from_arrays


def appended(features, responses):
    """The history built one ``append`` at a time."""
    history = History(features.shape[1])
    for row, y in zip(features, responses):
        history.append(Observation(row, y))
    return history


def assert_same_history(got, want):
    assert len(got) == len(want) and got.feature_count == want.feature_count
    assert got.design_matrix.tobytes() == want.design_matrix.tobytes()
    assert got.responses.tobytes() == want.responses.tobytes()
    for ridge in (0.0, 0.01):
        assert got.triangular_factor(ridge).tobytes() == want.triangular_factor(ridge).tobytes()
    assert got.design_has_full_rank() == want.design_has_full_rank()


def instances():
    rng = np.random.default_rng(51)
    yield rng.normal(size=(50, 4)), rng.normal(size=50)
    yield rng.normal(size=(3, 5)), rng.normal(size=3)  # fewer rows than columns
    yield rng.normal(size=(12, 0)), rng.normal(size=12)  # location model
    collinear = rng.normal(size=(30, 3))
    collinear[:, 2] = collinear[:, 0] + collinear[:, 1]
    yield collinear, rng.normal(size=30)
    yield 1e6 + rng.normal(size=(40, 2)), 1e9 + rng.normal(size=40)


def test_array_built_history_equals_the_appended_one_bitwise():
    for features, responses in instances():
        assert_same_history(History.from_arrays(features, responses), appended(features, responses))
        stream = observations_from_arrays(features, responses)
        assert_same_history(History.from_observations(stream), appended(features, responses))


def test_appends_after_bulk_construction_grow_the_buffer():
    rng = np.random.default_rng(52)
    features, responses = rng.normal(size=(90, 3)), rng.normal(size=90)
    for start in (1, 20, 40):
        bulk = History.from_arrays(features[:start], responses[:start])
        rows = appended(features[:start], responses[:start])
        for history in (bulk, rows):
            for i in range(start, 90):
                history.append(Observation(features[i], responses[i]))
                if i % 17 == 0:
                    history.triangular_factor(0.01)
        assert_same_history(bulk, rows)


@pytest.mark.parametrize(
    "bad_features, bad_responses",
    [([(3, 1)], []), ([], [1]), ([(4, 0)], [2]), ([(2, 2)], [2]), ([(1, 0)], [5])],
)
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_non_finite_rows_raise_what_an_observation_raises(bad_features, bad_responses, value):
    rng = np.random.default_rng(53)
    features, responses = rng.normal(size=(6, 3)), rng.normal(size=6)
    for row, col in bad_features:
        features[row, col] = value
    for row in bad_responses:
        responses[row] = value
    with pytest.raises(ValueError) as reference:
        History.from_observations(observations_from_arrays(features, responses))
    with pytest.raises(ValueError, match=f"^{reference.value}$"):
        History.from_arrays(features, responses)


def test_mismatched_row_counts_raise():
    with pytest.raises(ValueError, match="equal count"):
        History.from_arrays(np.ones((3, 2)), np.ones(4))


def assert_norm_is_carried(history, ridge, columns):
    block = history.triangular_factor(ridge, columns)[:columns, :columns]
    want = np.linalg.norm(block)
    assert history.design_norm(ridge, columns) == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("ridge", [0.0, 0.5])
def test_carried_design_norm_matches_the_kept_block(ridge):
    rng = np.random.default_rng(54)
    k = 6
    features = 3.0 + rng.normal(size=(60, k))
    responses = features.sum(axis=1) + rng.normal(size=60)
    history = History(k)
    # a narrow request first keeps a narrow factor; the full-width request
    # after it refactors and starts the column sums again
    for i, (row, y) in enumerate(zip(features, responses)):
        history.append(Observation(row, y))
        if i < 20:
            assert_norm_is_carried(history, ridge, 3)
        else:
            for columns in (k + 1, 3, 1):  # the truncated requests read the wide factor
                assert_norm_is_carried(history, ridge, columns)
    bulk = History.from_arrays(features, responses)
    for columns in (3, k + 1):  # absorbed in one batch, then refactored wider
        assert_norm_is_carried(bulk, ridge, columns)
