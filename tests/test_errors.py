import pickle

import pytest

from gradridge import ModelEvaluationFailure, SolverFailure


@pytest.mark.parametrize("failure", [
    ModelEvaluationFailure(5, "output"),
    ModelEvaluationFailure(7, cause=SolverFailure(2e-9)),
    ModelEvaluationFailure(0),
    SolverFailure(1e-3),
    SolverFailure(float("inf"), "banded Cholesky failed: leading minor 8 is not positive"),
], ids=["what", "cause", "bare", "residual", "residual-and-message"])
def test_failures_survive_a_pickle_round_trip(failure):
    # an exception pickles its constructor arguments, so a failure sent
    # between processes keeps its message and its fields
    back = pickle.loads(pickle.dumps(failure))
    assert type(back) is type(failure)
    assert str(back) == str(failure)
    if isinstance(failure, SolverFailure):
        assert (back.residual, back.message) == (failure.residual, failure.message)
    else:
        assert (back.sample_index, back.what) == (failure.sample_index, failure.what)
        assert type(back.cause) is type(failure.cause)
        assert str(back.cause) == str(failure.cause)
