import math

import numpy as np
import pytest

from minicar import models
from minicar.errors import ConfigError, DataError, IntegrationError
from minicar.integrators import rk4_step, rk4_tuple_stages


def integrate(rhs, y0, dt, t_end):
    y = y0
    for _ in range(int(round(t_end / dt))):
        y = rk4_step(rhs, y, dt)
    return y


def decay(state):
    return [-y for y in state]


def test_constant_rhs_is_exact():
    y = rk4_step(lambda s: np.array([2.5]), np.array([1.0]), 0.1)
    assert y[0] == pytest.approx(1.25, rel=1e-15)


def test_exponential_decay_accuracy():
    y = integrate(decay, [1.0], 0.01, 1.0)
    assert y[0] == pytest.approx(math.exp(-1), abs=1e-9)


def test_halving_dt_cuts_error_sixteenfold():
    errors = []
    for dt in (0.01, 0.005):
        y = integrate(decay, [1.0], dt, 1.0)
        errors.append(abs(y[0] - math.exp(-1)))
    assert errors[0] / errors[1] == pytest.approx(16.0, rel=0.1)


def test_convergence_order_within_window():
    errors = []
    for dt in (0.01, 0.005, 0.0025):
        y = integrate(decay, [1.0], dt, 1.0)
        errors.append(abs(y[0] - math.exp(-1)))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    for order in orders:
        assert 3.8 <= order <= 4.2


def test_kinematic_circle_closure(ref):
    """Constant steering at constant speed traces a circle that closes
    to well under a micro-radius after one period."""
    geom = ref.geometry
    delta, v = 0.3, 1.0
    radius = geom.l / math.tan(delta)
    period = 2 * math.pi * radius / v
    n = int(round(period / 0.005))
    dt = period / n
    state = np.array([0.0, 0.0, 0.0, v])
    for _ in range(n):
        state = rk4_step(lambda s: models.kinematic_rhs(s, 0.0, math.tan(delta), lambda g, v: 0.0,
                                                        geom), state, dt)
    assert math.hypot(state[0], state[1]) < 1e-6 * radius
    assert state[2] == pytest.approx(2 * math.pi, rel=1e-9)


def test_non_finite_derivative_raises():
    def bad(s):
        return np.array([np.nan])

    with pytest.raises(IntegrationError, match="^non-finite derivative or state$"):
        rk4_step(bad, np.array([1.0]), 0.01)


def test_non_finite_derivative_in_one_row_raises():
    def bad(state):
        (y,) = state
        return (np.where(y > 0, np.nan, -y),)

    with pytest.raises(IntegrationError, match="^non-finite derivative or state$"):
        rk4_step(bad, [np.array([-1.0, 1.0, -2.0])], 0.01)


def test_infinite_derivative_on_floats_raises():
    def bad(state):
        return [math.inf, -state[1]]

    with pytest.raises(IntegrationError, match="^non-finite derivative or state$"):
        rk4_step(bad, [1.0, 2.0], 0.01)


@pytest.mark.parametrize("state", [[math.nan, 1.0], [1.0, -math.inf],
                                   [np.array([1.0, 2.0]), np.array([0.0, math.nan])]])
def test_non_finite_input_state_raises(state):
    with pytest.raises(IntegrationError, match="^non-finite derivative or state$"):
        rk4_step(decay, state, 0.01)


def test_non_positive_dt_rejected():
    with pytest.raises(IntegrationError):
        rk4_step(decay, [1.0], 0.0)


def _decay_law(refuse_at_step, refuse_in_stage):
    """A law on three decaying components whose step ``refuse_at_step``
    is refused: by the law itself, or by its right-hand side in stage
    ``refuse_in_stage`` (1 to 4)."""
    def law(u, y):
        if u == refuse_at_step and refuse_in_stage is None:
            raise ConfigError("refused by the law")
        calls = []

        def rhs(u_, s):
            assert u_ == u
            calls.append(s)
            if u == refuse_at_step and len(calls) == refuse_in_stage:
                raise DataError("refused by the right-hand side")
            return (-s[0], -2.0 * s[1], 0.5 * s[2])

        return rhs, None

    return law


@pytest.mark.parametrize("stage", [None, 1, 4])
def test_rk4_tuple_stages_ends_before_a_refused_step_and_returns_the_refusal(stage):
    """The run up to a refused step is the run that ends before it, and
    nothing of the refused step, none of its stages and not its end
    state, comes back; the refusal does, as raised."""
    y0, dt = (1.0, -2.0, 0.5), 0.01
    stages, end, refusal = rk4_tuple_stages(_decay_law(3, stage), y0, range(6), dt, 1e6)
    before, before_end, none = rk4_tuple_stages(_decay_law(3, stage), y0, range(3), dt, 1e6)
    assert none is None
    assert isinstance(refusal, DataError if stage else ConfigError)
    assert stages == before and len(stages) == 3 * 4 * 3
    assert end == before_end
