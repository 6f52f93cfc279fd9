"""Package errors cross process boundaries: ``generate`` raises a worker's
error in the command, so every error must survive a pickle round trip."""

import pickle
from dataclasses import replace

import pytest

from minicar import errors, models
from minicar.integrators import non_finite_state
from minicar.params import reference_params
from minicar.scenarios import Scenario, constant
from minicar.simulator import simulate


def _diverged() -> errors.SimulationDiverged:
    """The error a diverging scenario raises, with its partial trajectory."""
    params = reference_params()
    wild = replace(params, motor=replace(params.motor, d=1e9))  # a stall force no state survives
    scenario = Scenario("wild", 1.0, 0.01, "kinematic", constant(0.3), constant(0.0))
    with pytest.raises(errors.SimulationDiverged) as caught:
        simulate(scenario, wild)
    assert caught.value.trajectory is not None
    return caught.value


def _placed() -> errors.DataError:
    """A refusal of one step, placed at its time and its log row."""
    return models.slip_refusal().at(0.45, row=46)


CASES = [
    lambda: errors.MinicarError("bad value", row=4),
    lambda: errors.ParseError("malformed number", row=7),
    lambda: errors.DataError("no usable rows"),
    lambda: errors.ConfigError("unknown field 'x'"),
    lambda: errors.FitDivergedError("non-finite loss", iteration=12),
    lambda: errors.IntegrationError("non-finite state"),
    _diverged,
    _placed,
]


def _case_id(make) -> str:
    return "placed" if make is _placed else type(make()).__name__


def _package_errors(cls=errors.MinicarError) -> set:
    found = {cls} if cls.__module__.startswith("minicar") else set()
    return found.union(*(_package_errors(sub) for sub in cls.__subclasses__()))


def test_the_cases_cover_every_package_error():
    assert {type(make()) for make in CASES} == _package_errors()


@pytest.mark.parametrize("make", CASES, ids=_case_id)
def test_a_package_error_survives_pickling(make):
    error = make()
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error)
    assert copy.args == error.args
    assert vars(copy).keys() == vars(error).keys()
    for name in ("row", "t", "iteration"):
        assert getattr(copy, name, None) == getattr(error, name, None)
    # every attribute, the trajectory's arrays included, pickles as before
    assert pickle.dumps(copy) == pickle.dumps(error)


@pytest.mark.parametrize("make", [models.steering_refusal, models.slip_refusal, non_finite_state])
def test_at_places_an_error_of_one_step_at_its_time_and_row(make):
    """``at`` keeps the class, appends the time and then the row, and sets
    ``row``; without a row it appends the time alone."""
    error = make()
    placed = error.at(0.45, row=46)
    assert type(placed) is type(error) and error.row is None
    assert str(placed) == f"{error} at t=0.450000 s (row 46)"
    assert placed.row == 46
    in_run = error.at(0.45)
    assert (type(in_run), str(in_run), in_run.row) == (type(error), f"{error} at t=0.450000 s",
                                                       None)
