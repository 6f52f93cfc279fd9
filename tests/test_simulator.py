from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from minicar import models, simulator
from minicar.delay import estimate_delay_xcorr
from minicar.errors import (ConfigError, DataError, IntegrationError, MinicarError,
                            SimulationDiverged)
from minicar.params import (Delays, FrictionParams, Geometry, MotorParams, SteeringParams,
                            TireParams, VehicleParams)
from minicar.scenarios import (
    PiecewiseSchedule,
    Scenario,
    SineSchedule,
    StepSchedule,
    coast_down_battery,
    constant,
    constant_steering_battery,
    mocap_circular_battery,
    mocap_circular_ramp,
    sinusoidal_steering,
    step_throttle_battery,
)
from minicar.simulator import NoiseSpec, rk4_step, simulate, synthesize_log


# --- simulate ----------------------------------------------------------------


def _scenario(throttle, steering, duration=5.0, model="kinematic", dt=0.01, init=()):
    return Scenario(
        name="t", duration=duration, dt=dt, model=model,
        throttle=throttle, steering=steering, initial_state=init,
    )


def test_zero_input_stays_at_rest(ref):
    # stationary up to the femtonewton leak of the smooth throttle gate
    traj = simulate(_scenario(constant(0.0), constant(0.0)), ref)
    np.testing.assert_allclose(traj.states, 0.0, atol=1e-9)


def test_step_throttle_approaches_force_balance_speed(ref):
    """Terminal speed matches the root of motor + friction force found
    by an independent scalar root-finder."""
    tau = 0.2
    traj = simulate(_scenario(constant(tau), constant(0.0), duration=8.0), ref)
    v = traj.states[:, 3]
    assert np.all(np.diff(v) >= -1e-12)  # monotone rise

    balance = lambda vv: float(
        models.motor_force(tau, vv, ref.motor) + models.friction_force(vv, ref.friction)
    )
    v_terminal = brentq(balance, 1e-9, 10.0, xtol=1e-12)
    assert v[-1] == pytest.approx(v_terminal, rel=0.01)


def test_sinusoidal_steering_lags_by_configured_delay(ref):
    scenario = sinusoidal_steering()
    traj = simulate(scenario, ref)
    est = estimate_delay_xcorr(traj.commanded_s, traj.applied_s, scenario.dt)
    assert est == pytest.approx(ref.delays.steer_delay, abs=scenario.dt)


def test_coasting_speed_never_increases(ref):
    scen = _scenario(constant(0.0), constant(0.0), init=(0, 0, 0, 2.0))
    traj = simulate(scen, ref)
    assert np.all(np.diff(traj.states[:, 3]) <= 1e-12)


def test_simulation_is_deterministic(ref):
    scen = _scenario(SineSchedule(amplitude=0.5, frequency=0.4), constant(0.3), duration=3.0)
    a = simulate(scen, ref)
    b = simulate(scen, ref)
    np.testing.assert_array_equal(a.states, b.states)
    np.testing.assert_array_equal(a.applied_s, b.applied_s)


def test_divergence_guard_attaches_partial_trajectory(ref, monkeypatch):
    monkeypatch.setattr(simulator, "DIVERGENCE_LIMIT", 0.5)
    scen = _scenario(constant(0.4), constant(0.0), duration=8.0)
    with pytest.raises(SimulationDiverged) as err:
        simulate(scen, ref)
    partial = err.value.trajectory
    assert partial is not None and len(partial) >= 1
    assert err.value.t > 0


def test_trajectory_arrays_read_only(ref):
    traj = simulate(_scenario(constant(0.2), constant(0.0), duration=1.0), ref)
    with pytest.raises(ValueError):
        traj.states[0, 0] = 99.0


def test_dynamic_blend_below_threshold_matches_kinematic(ref):
    """In normalized-slip mode below the blend speed the dynamic
    simulation propagates kinematically."""
    s_cmd = 0.3
    kin = simulate(
        _scenario(constant(0.2), constant(s_cmd), duration=4.0, init=(0, 0, 0, 0.2)), ref
    )
    dyn = simulate(
        _scenario(constant(0.2), constant(s_cmd), duration=4.0, model="dynamic",
                  init=(0, 0, 0, 0.2, 0, 0)),
        replace(ref, normalized_slip=True),
    )
    # terminal speed for tau=0.2 is ~0.085 m/s, well under the blend speed
    np.testing.assert_allclose(dyn.states[:, :4], kin.states, atol=1e-12)


def test_only_kinematic_steps_reject_a_steering_angle_at_pi_over_2(ref):
    """|delta| >= pi/2 stops a kinematic scenario and a normalized
    dynamic one in its rolling fallback, but not the dynamic model. The
    error names the scenario and the time of the first such step: full
    lock is commanded at t = 0.3 s and applied one steering delay later."""
    wide = replace(ref, steering=replace(ref.steering, a_t=6.0, d_t=6.0))
    steer = PiecewiseSchedule(times=(0.0, 0.3), values=(0.0, 1.0))
    refused = rf"pi/2 at t={0.3 + wide.delays.steer_delay:.6f} s in scenario 't'$"
    with pytest.raises(ConfigError, match=refused):
        simulate(_scenario(constant(0.3), steer, duration=1.0), wide)
    dynamic = _scenario(constant(0.0), steer, duration=1.0, model="dynamic",
                        init=(0, 0, 0, 0.1, 0, 0))
    assert len(simulate(dynamic, wide)) == dynamic.times.size
    with pytest.raises(ConfigError, match=refused):
        simulate(dynamic, replace(wide, normalized_slip=True))


def test_a_refused_rolling_step_is_named_by_its_own_time(ref):
    """A normalized dynamic coast at full lock takes its fast steps at
    |delta| >= pi/2 unchecked and stops at its first rolling step: the
    run up to the named time succeeds, one step more fails."""
    wide = replace(ref, steering=replace(ref.steering, a_t=3.0, d_t=3.0, b_t=5.0, e_t=5.0),
                   normalized_slip=True)
    coast = _scenario(constant(0.0), constant(1.0), duration=5.0, model="dynamic",
                      init=(0, 0, 0, 0.6, 0, 0))
    with pytest.raises(ConfigError, match=r"pi/2 at t=(\S+) s in scenario 't'") as refused:
        simulate(coast, wide)
    t = float(str(refused.value).split("at t=")[1].split(" s")[0])
    assert t > coast.dt
    assert len(simulate(replace(coast, duration=t), wide)) == round(t / coast.dt) + 1
    with pytest.raises(ConfigError, match=f"at t={t:.6f} s"):
        simulate(replace(coast, duration=t + coast.dt), wide)


def test_a_normalized_slip_refusal_names_the_time_of_its_step(spin):
    """A spinning normalized run whose v_x falls to 0 within the step
    from t = 0.25 s names that time: the run up to it succeeds."""
    params, scenario = spin
    with pytest.raises(DataError, match=r"^normalized slip angles need v_x > 0 "
                                        r"at t=0\.250000 s in scenario 'spin'$"):
        simulate(scenario, params)
    assert len(simulate(replace(scenario, duration=0.25), params)) == 51


def test_a_speed_beyond_the_envelope_beats_a_later_refused_kinematic_step(ref):
    """One stop rule for both: full lock reaches the wheels at t = 900.15 s,
    but with almost no back-EMF and no viscous friction full throttle has
    driven the speed beyond DIVERGENCE_LIMIT by t = 827.65 s, so the run
    diverges there; at a lower throttle it is refused at full lock."""
    fast = replace(ref, motor=replace(ref.motor, e=1e-9), friction=replace(ref.friction, c=0.0),
                   steering=replace(ref.steering, a_t=6.0, d_t=6.0))
    lock = StepSchedule(t=900.0, before=0.0, after=1.0)
    with pytest.raises(SimulationDiverged, match="'t'") as err:
        simulate(_scenario(constant(1.0), lock, duration=1000.0, dt=0.05), fast)
    assert err.value.t == pytest.approx(827.65, abs=1e-9)
    assert np.abs(err.value.trajectory.states).max() <= simulator.DIVERGENCE_LIMIT
    with pytest.raises(ConfigError, match=r"pi/2 at t=900\.150000 s in scenario 't'$"):
        simulate(_scenario(constant(0.3), lock, duration=1000.0, dt=0.05), fast)


def test_a_pose_beyond_the_envelope_beats_a_later_refused_rolling_step(ref, monkeypatch):
    """A normalized dynamic run that rolls below BLEND_SPEED carries its
    pose past the lowered limit before full lock reaches the wheels at
    t = 1.15 s: it diverges as the step-at-a-time reference does, with
    the same time and partial trajectory."""
    wide = replace(ref, steering=replace(ref.steering, a_t=6.0, d_t=6.0), normalized_slip=True)
    roll = _scenario(constant(0.2), StepSchedule(t=1.0, before=0.0, after=1.0), duration=2.0,
                     model="dynamic", init=(0.45, 0, 0, 0.2, 0, 0))
    with pytest.raises(ConfigError, match=r"pi/2 at t=1\.150000 s in scenario 't'$"):
        simulate(roll, wide)
    monkeypatch.setattr(simulator, "DIVERGENCE_LIMIT", 0.5)
    with pytest.raises(SimulationDiverged) as got:
        simulate(roll, wide)
    with pytest.raises(SimulationDiverged) as expected:
        _step_at_a_time(roll, wide, limit=0.5)
    assert got.value.t == expected.value.t < 1.15
    np.testing.assert_array_equal(got.value.trajectory.states, expected.value.trajectory)
    assert got.value.trajectory.states[-1, 3] < simulator.BLEND_SPEED  # it rolls throughout


def test_dynamic_scenario_requires_tire_parameters(ref):
    dynamic = _scenario(constant(0.3), constant(0.0), duration=0.5, model="dynamic",
                        init=(0, 0, 0, 0.5, 0, 0))
    with pytest.raises(ConfigError, match="tire"):
        simulate(dynamic, replace(ref, tire=None))


# --- simulate against a step-at-a-time reference -------------------------------

TRAJECTORY_FIELDS = ("t", "states", "commanded_tau", "commanded_s", "applied_tau", "applied_s")


def _short_library():
    """Every library battery, shortened: both models and many lengths."""
    return (
        coast_down_battery(launch_levels=(0.4, 0.25), launch=2.0, coast=1.5,
                           pulse_levels=(0.24, 0.3), pulse_cycles=2)
        + step_throttle_battery(levels=(0.15, 0.4), t_on=0.5, hold=2.0, coast=1.0)
        + constant_steering_battery(s_values=(-1.0, 0.4), duration=2.5)
        + [sinusoidal_steering(duration=2.0)]
        + mocap_circular_battery(s_values=(-0.45, 0.3), duration=3.0, ramp_steps=6)
    )


def _step_at_a_time(scenario, params, limit=None):
    """Reference states: one scenario, one step at a time on numpy
    scalars, inputs sampled from the schedules and delayed by index, in
    the parameters' slip convention, on the float laws pass 1 steps
    (``models.kinematic_speed_law`` and ``models.dynamic_body_law``;
    tests/test_bit_identity.py checks their formulas against the curves).
    A step that ends non-finite raises IntegrationError, and a dynamic
    step whose normalized slip angles meet v_x <= 0 DataError, naming
    its time; with a ``limit``, a state beyond it raises
    SimulationDiverged with the states before it."""
    geom, dt, times = params.geometry, scenario.dt, scenario.times
    normalized = params.normalized_slip
    rate, rates = models.kinematic_speed_law(params), models.dynamic_body_law(params)
    lag_tau = int(round(params.delays.long_delay / dt))
    lag_s = int(round(params.delays.steer_delay / dt))
    states = np.empty((times.size, len(scenario.initial_state)))
    states[0] = scenario.initial_state
    tau, s = scenario.throttle.sample(times), scenario.steering.sample(times)
    for k in range(times.size - 1):
        gate = models.smooth_positive_throttle(float(tau[max(k - lag_tau, 0)]), params.motor.g)
        delta = float(models.steering_angle(float(s[max(k - lag_s, 0)]), params.steering))

        def kin_rhs(y, gate=gate, delta=delta):
            return models.kinematic_rhs(y, gate, np.tan(delta), rate, geom)

        y, t = states[k], times[k]
        try:
            if scenario.model == "kinematic":
                states[k + 1] = rk4_step(kin_rhs, y, dt)
            elif normalized and y[3] < simulator.BLEND_SPEED:
                kin = rk4_step(kin_rhs, y[:4], dt)
                omega = kin[3] * np.tan(delta) / geom.l
                states[k + 1] = [*kin, omega * geom.l_r, omega]
            else:
                u = (gate, delta, np.tan(delta), np.cos(delta), np.sin(delta))
                states[k + 1] = rk4_step(lambda y: models.dynamic_rhs(y, u, rates), y, dt)
        except MinicarError as exc:
            raise exc.at(t) from None
        if limit is not None and np.abs(states[k + 1]).max() > limit:
            raise SimulationDiverged("reference", t=float(times[k + 1]),
                                     trajectory=states[:k + 1])
    return states


@pytest.mark.parametrize("normalized", [False, True])
def test_batch_equals_step_at_a_time_reference(ref, normalized):
    """Scenarios that start at rest, on a piecewise throttle, and in
    the dynamic model under the blend speed."""
    scenarios = [
        sinusoidal_steering(duration=2.0),
        _scenario(PiecewiseSchedule(times=(0.0, 0.5), values=(0.0, 0.35)), constant(-0.4),
                  duration=1.5),
        _scenario(constant(0.2), constant(0.3), duration=1.0, model="dynamic",
                  init=(0, 0, 0, 0.2, 0, 0)),
    ]
    params = replace(ref, normalized_slip=normalized)
    for scenario in scenarios:
        traj = simulate(scenario, params)
        np.testing.assert_array_equal(traj.states, _step_at_a_time(scenario, params))


@pytest.mark.parametrize("normalized", [False, True])
def test_library_batch_equals_per_scenario_runs(ref, normalized):
    """Every scenario of the shortened library, simulated one at a time
    as ``minicar generate`` does, equals the step-at-a-time reference."""
    library = _short_library()
    assert {s.model for s in library} == {"kinematic", "dynamic"}
    params = replace(ref, normalized_slip=normalized)
    for scenario in library:
        traj = simulate(scenario, params)
        np.testing.assert_array_equal(traj.t, scenario.times)
        np.testing.assert_array_equal(traj.states, _step_at_a_time(scenario, params),
                                      err_msg=scenario.name)


def test_normalized_blend_is_per_row(ref):
    """Each step picks its model from the speed it starts at: a
    coast-down through the blend speed integrates the dynamic model
    above it and rolls rigidly below it."""
    coast = _scenario(constant(0.0), constant(0.3), duration=3.0, model="dynamic",
                      init=(0, 0, 0, 0.6, 0, 0))
    normalized = replace(ref, normalized_slip=True)
    traj = simulate(coast, normalized)
    v_x = traj.states[:, 3]
    slow = np.flatnonzero(v_x[:-1] < simulator.BLEND_SPEED)
    assert 0 < slow[0] and slow.size < v_x.size - 1  # crosses the blend speed
    delta = models.steering_angle(traj.applied_s[slow], ref.steering)
    omega = models.kinematic_yaw_rate(v_x[slow + 1], np.tan(delta), ref.geometry)
    np.testing.assert_array_equal(traj.states[slow + 1, 5], omega)
    np.testing.assert_array_equal(traj.states[slow + 1, 4], omega * ref.geometry.l_r)
    fast = np.setdiff1d(np.arange(slow[0]), slow)
    assert not np.any(traj.states[fast + 1, 4] == traj.states[fast + 1, 5] * ref.geometry.l_r)
    np.testing.assert_array_equal(traj.states, _step_at_a_time(coast, normalized))


@pytest.mark.parametrize("normalized, kinds", [(False, 1), (True, 2)])
def test_pass_1_builds_no_right_hand_side_per_step(ref, monkeypatch, normalized, kinds):
    """A raw-convention circle hands ``rk4_tuple_stages`` the same function
    object in every step, and a normalized run from rest, which rolls
    before it crosses the blend speed and then does not, one of two."""
    if normalized:
        scenario = _scenario(constant(0.4), constant(0.3), duration=2.0, model="dynamic")
    else:
        scenario = mocap_circular_ramp(0.35, duration=2.0)
    handed, tuple_stages = [], simulator.rk4_tuple_stages  # each step's right-hand side

    def recording(law, *args):
        def recorded(u, y):
            rhs, settle = law(u, y)
            handed.append(rhs)
            return rhs, settle

        return tuple_stages(recorded, *args)

    monkeypatch.setattr(simulator, "rk4_tuple_stages", recording)
    traj = simulate(scenario, replace(ref, normalized_slip=normalized))
    assert len(traj) == len(handed) + 1 == scenario.times.size
    assert len({id(rhs) for rhs in handed}) == kinds


def test_batch_divergence_names_the_failing_scenario(ref, monkeypatch):
    calm = Scenario(name="calm", duration=8.0, dt=0.01, model="kinematic",
                    throttle=constant(0.0), steering=constant(0.0))
    wild = Scenario(name="wild", duration=6.0, dt=0.01, model="kinematic",
                    throttle=constant(0.4), steering=constant(0.0))
    full = simulate(wild, ref)
    monkeypatch.setattr(simulator, "DIVERGENCE_LIMIT", 0.5)
    assert len(simulate(calm, ref)) == calm.times.size
    with pytest.raises(SimulationDiverged, match="'wild'") as err:
        simulate(wild, ref)
    partial = err.value.trajectory
    assert 1 < len(partial) < len(full)
    assert np.all(np.abs(partial.states) <= 0.5)
    assert np.abs(full.states[len(partial)]).max() > 0.5
    assert err.value.t == pytest.approx(full.t[len(partial)])
    for name in TRAJECTORY_FIELDS:
        np.testing.assert_array_equal(getattr(partial, name),
                                      getattr(full, name)[: len(partial)], err_msg=name)


def test_batch_integration_error_names_the_failing_scenario(ref, monkeypatch):
    _fragile_friction(monkeypatch, 0.5)
    calm = _scenario(constant(0.0), constant(0.0), duration=4.0)
    wild = Scenario(name="wild", duration=3.0, dt=0.01, model="kinematic",
                    throttle=constant(0.4), steering=constant(0.0))
    assert len(simulate(calm, ref)) == calm.times.size
    with pytest.raises(IntegrationError,
                       match=r"non-finite derivative or state at t=0\.160000 s in scenario 'wild'$"):
        simulate(wild, ref)


def _outcome(run):
    with pytest.raises((IntegrationError, SimulationDiverged)) as err, np.errstate(all="ignore"):
        run()
    return err.value


def _patch_pass_1(patch, stage):
    """Route each stage of pass 1, and of the step-at-a-time reference,
    through ``stage(v, value)``, which gets the stage's speed (v or v_x)
    and its law's value and returns the value to use; the laws write
    their curves inline, so patching a curve does not reach them."""
    speed_law, body_law = models.kinematic_speed_law, models.dynamic_body_law

    def patched_speed_law(*args, **kwargs):
        rate = speed_law(*args, **kwargs)
        return lambda gate, v: stage(v, rate(gate, v))

    def patched_body_law(*args, **kwargs):
        rates = body_law(*args, **kwargs)
        return lambda u, body: stage(body[0], rates(u, body))

    patch.setattr(models, "kinematic_speed_law", patched_speed_law)
    patch.setattr(models, "dynamic_body_law", patched_body_law)


def _fragile_friction(patch, v_max):
    """Make the friction force NaN above ``v_max``: in pass 1 and the
    reference, every derivative of a stage above ``v_max``, as a NaN net
    force makes them."""

    def stage(v, value):
        if v > v_max:
            return (np.nan,) * 3 if isinstance(value, tuple) else np.nan
        return value

    _patch_pass_1(patch, stage)


# (model, throttle, steering, initial state, DIVERGENCE_LIMIT, friction NaN
#  above, first state out of bounds: (pose beyond, rest beyond) or
#  "non-finite"); a dynamic case runs under both slip conventions
PRECEDENCE_CASES = {
    # the pose passes the limit while the speed stays below it, and a
    # later NaN speed does not count
    "pose first": ("kinematic", 0.22, 0.0, (), 0.5, 0.35, (True, False)),
    "speed first": ("kinematic", 0.4, 0.0, (), 0.5, None, (False, True)),
    "non-finite speed": ("kinematic", 0.4, 0.3, (0.2, -0.1, 0.4, 0.0), 1e6, 0.3, "non-finite"),
    # one step from v = 2e307 at full lock overflows the heading to inf
    # while the speed stays finite, beyond the limit
    "non-finite pose with the speed beyond": ("kinematic", 0.0, 1.0, (0, 0, 0, 2e307), 1e6, None,
                                              "non-finite"),
    "dynamic pose first": ("dynamic", 0.22, 0.0, (0, 0, 0, 0.4, 0, 0), 0.5, 0.412, (True, False)),
    # from rest, so the normalized run rolls before it crosses BLEND_SPEED
    "dynamic body state first": ("dynamic", 0.4, 0.0, (), 0.5, None, (False, True)),
    "dynamic non-finite body state": ("dynamic", 0.4, 0.3, (0.2, -0.1, 0.4, 0.5, 0.0, 0.0), 1e6,
                                      0.8, "non-finite"),
    # in one step omega = 1e308 overflows the heading; a normalized run
    # rolls at v_x = -2e307 instead, its yaw rate at full lock overflows
    # the heading and its body state stays finite, beyond the limit
    "dynamic heading overflow": ("dynamic", 0.0, 1.0, (0, 0, 0, -2e307, 0, 1e308), 1e6, None,
                                 "non-finite"),
    # the first stage overflows inside the body law, b*v_x in the
    # friction's tanh and v_y*omega in the v_x rate; the float law's
    # math.tanh, math.atan and math.sin raise no ValueError or
    # OverflowError on what follows, so both sides raise one
    # IntegrationError
    "dynamic overflow inside the law": ("dynamic", 0.0, 0.3, (0, 0, 0, 1.4e307, 1e160, 1e160),
                                        1e6, None, "non-finite"),
}


@pytest.mark.parametrize("case", sorted(PRECEDENCE_CASES))
def test_earliest_offending_step_decides_the_error(ref, monkeypatch, case):
    """The simulator raises what the step-at-a-time reference raises, at
    the same t and with the same partial trajectory: pose and the rest
    of the state are checked together, and a non-finite state beats one
    beyond the limit."""
    model, tau, s, init, limit, nan_above, first = PRECEDENCE_CASES[case]
    scenario = _scenario(constant(tau), constant(s), duration=4.0, model=model, init=init)
    for normalized in (False, True) if model == "dynamic" else (False,):
        params = replace(ref, normalized_slip=normalized)
        free = simulate(scenario, params) if first != "non-finite" else None
        with monkeypatch.context() as patch:
            patch.setattr(simulator, "DIVERGENCE_LIMIT", limit)
            if nan_above is not None:
                _fragile_friction(patch, nan_above)
            got = _outcome(lambda: simulate(scenario, params))
            expected = _outcome(lambda: _step_at_a_time(scenario, params, limit=limit))
        assert type(got) is type(expected)
        if first == "non-finite":
            assert str(got) == f"{expected} in scenario 't'"
            continue
        assert got.t == expected.t
        np.testing.assert_array_equal(got.trajectory.states, expected.trajectory)
        beyond = np.abs(free.states[len(got.trajectory)]) > limit
        assert (bool(beyond[:3].any()), bool(beyond[3:].any())) == first


def test_a_pose_beyond_the_limit_beats_a_later_slip_refusal(spin):
    """One stop rule for both refusals: the spinning run started at
    x = 2e6 leaves the envelope in its first step, long before its v_x
    falls to 0 within the step from t = 0.25 s, and raises what the
    step-at-a-time reference raises."""
    params, scenario = spin
    far = replace(scenario, initial_state=(2e6, 0, 0, 0.25, 0, 0))
    got = _outcome(lambda: simulate(far, params))
    expected = _outcome(lambda: _step_at_a_time(far, params, limit=simulator.DIVERGENCE_LIMIT))
    assert type(got) is type(expected) is SimulationDiverged
    assert got.t == expected.t == 0.005
    np.testing.assert_array_equal(got.trajectory.states, expected.trajectory)


@pytest.mark.parametrize("model, normalized", [("kinematic", False), ("dynamic", False),
                                               ("dynamic", True)])
def test_pass_1_takes_no_step_after_the_first_speed_beyond_the_limit(ref, monkeypatch, model,
                                                                     normalized):
    """Each step evaluates its law four times, and the step that ends in
    the first state beyond the envelope is the last one."""
    speeds = []
    _patch_pass_1(monkeypatch, lambda v, value: speeds.append(v) or value)
    monkeypatch.setattr(simulator, "DIVERGENCE_LIMIT", 0.5)
    with pytest.raises(SimulationDiverged) as err:
        simulate(_scenario(constant(0.4), constant(0.0), duration=4.0, model=model),
                 replace(ref, normalized_slip=normalized))
    assert len(speeds) == 4 * len(err.value.trajectory)
    assert np.abs(err.value.trajectory.states[:, :3]).max() <= 0.5  # the speed left first


def _piecewise_inputs(draw, n, dt):
    """Piecewise throttle and steering over the whole command range, on
    shared breaks among the n steps of dt."""
    breaks = draw(st.integers(1, min(4, n + 1)))
    times = tuple(sorted(draw(st.sets(st.integers(0, n), min_size=breaks, max_size=breaks))))

    def schedule():
        values = draw(st.lists(st.floats(-1, 1), min_size=len(times), max_size=len(times)))
        return PiecewiseSchedule(times=tuple(i * dt for i in times), values=tuple(values))

    return schedule(), schedule()


@st.composite
def _short_runs(draw, model):
    """Short runs on piecewise throttle and steering over the whole
    command range, from a moving pose: a kinematic one forwards or
    backwards, a dynamic one with v_x on either side of BLEND_SPEED."""
    dt = draw(st.sampled_from([0.005, 0.01, 0.02, 0.05]))
    n = draw(st.integers(1, 80))
    throttle, steering = _piecewise_inputs(draw, n, dt)
    pose = st.floats(-50, 50, allow_nan=False).filter(lambda x: x != 0)
    state = (draw(pose), draw(pose), draw(pose))
    if model == "kinematic":
        state += (draw(st.floats(-4, -0.01)),)
    else:
        blend = simulator.BLEND_SPEED
        v_x = draw(st.one_of(st.floats(-1, blend, exclude_max=True), st.floats(blend, 3)))
        state += (v_x, draw(st.floats(-0.5, 0.5)), draw(st.floats(-2, 2)))
    return _scenario(throttle, steering, duration=n * dt, dt=dt, model=model, init=state)


@given(scenario=_short_runs("kinematic"))
@settings(max_examples=60)
def test_kinematic_two_pass_states_equal_rk4_steps(ref, scenario):
    np.testing.assert_array_equal(simulate(scenario, ref).states, _step_at_a_time(scenario, ref))


def _assert_simulate_equals_step_at_a_time(scenario, params):
    """``simulate`` gives the reference's states, or the reference's
    DataError, naming the same time, where a normalized run's v_x falls
    to 0 within a dynamic step."""
    try:
        expected = _step_at_a_time(scenario, params)
    except DataError as exc:
        with pytest.raises(DataError) as got:
            simulate(scenario, params)
        assert str(got.value) == f"{exc} in scenario 't'"
        return
    np.testing.assert_array_equal(simulate(scenario, params).states, expected)


@given(scenario=_short_runs("dynamic"), normalized=st.booleans())
@settings(max_examples=60)
def test_dynamic_two_pass_states_equal_rk4_steps(ref, scenario, normalized):
    _assert_simulate_equals_step_at_a_time(scenario, replace(ref, normalized_slip=normalized))


@st.composite
def _vehicles(draw):
    """Parameter sets the loaders accept, every field drawn over a range
    around the reference vehicle's; the steering scales stay below
    pi/2, so no kinematic step is refused."""

    def group(cls, **ranges):
        return cls(**{name: draw(st.floats(lo, hi)) for name, (lo, hi) in ranges.items()})

    wheelbase = draw(st.floats(0.1, 0.4))
    return VehicleParams(
        friction=group(FrictionParams, a=(0.8, 3.0), b=(5.0, 25.0), c=(0.0, 1.0)),
        motor=group(MotorParams, d=(10.0, 60.0), e=(2.0, 12.0), g=(-0.5, 0.0)),
        steering=group(SteeringParams, a_t=(0.2, 1.5), b_t=(0.1, 2.0), c_t=(-0.2, 0.2),
                       d_t=(0.2, 1.5), e_t=(0.1, 2.0)),
        tire=group(TireParams, D=(1.0, 6.0), C=(0.3, 1.4), B=(0.1, 0.6), E=(-6.0, 0.5),
                   C_r=(0.2, 0.8)),
        geometry=Geometry.rectangle(m=draw(st.floats(1.0, 3.0)), l=wheelbase,
                                    w=draw(st.floats(0.05, 0.2)),
                                    l_f=wheelbase * draw(st.floats(0.3, 0.7))),
        delays=group(Delays, steer_delay=(0.0, 0.2), long_delay=(0.0, 0.05)))


@st.composite
def _drawn_vehicle_runs(draw):
    """A drawn vehicle on a 0.3-0.5 s run of either model under either
    slip convention, a dynamic one often starting near BLEND_SPEED."""
    model, normalized = draw(st.sampled_from([("kinematic", False), ("dynamic", False),
                                              ("dynamic", True)]))
    dt = draw(st.sampled_from([0.005, 0.01, 0.02]))
    n = draw(st.integers(round(0.3 / dt), round(0.5 / dt)))
    throttle, steering = _piecewise_inputs(draw, n, dt)
    pose = st.floats(-5, 5)
    state = (draw(pose), draw(pose), draw(pose))
    if model == "kinematic":
        state += (draw(st.floats(0, 2)),)
    else:
        near = simulator.BLEND_SPEED + 0.15
        state += (draw(st.floats(0.2, near) | st.floats(near, 3)), draw(st.floats(-0.3, 0.3)),
                  draw(st.floats(-2, 2)))
    scenario = _scenario(throttle, steering, duration=n * dt, dt=dt, model=model, init=state)
    return replace(draw(_vehicles()), normalized_slip=normalized), scenario


@given(run=_drawn_vehicle_runs())
@settings(max_examples=60)
def test_simulate_equals_step_at_a_time_on_drawn_vehicles(run):
    """Pass 1 steps each model's law on floats; on drawn vehicles, not
    the reference alone, its states are those of the step-at-a-time
    reference, on the laws written from the curves, bit for bit. A drawn
    vehicle may spin until a normalized run's v_x falls to 0 within a
    dynamic step; then both raise one DataError."""
    params, scenario = run
    _assert_simulate_equals_step_at_a_time(scenario, params)


# --- synthesize_log ----------------------------------------------------------


def test_zero_noise_log_equals_trajectory(ref):
    scen = _scenario(constant(0.3), constant(0.1), duration=2.0)
    traj = simulate(scen, ref)
    log = synthesize_log(scen, ref, NoiseSpec(), 5)
    np.testing.assert_array_equal(log.v_enc, traj.states[:, 3])
    np.testing.assert_array_equal(log.tau, traj.commanded_tau)
    omega = simulator.trajectory_yaw_rate(traj, ref)
    np.testing.assert_array_equal(log.omega_imu, omega)
    assert log.mocap is None


def test_same_seed_same_log(ref):
    scen = _scenario(constant(0.3), constant(0.1), duration=2.0)
    spec = NoiseSpec(v_enc=0.02, omega_imu=0.01)
    a = synthesize_log(scen, ref, spec, 42)
    b = synthesize_log(scen, ref, spec, 42)
    np.testing.assert_array_equal(a.v_enc, b.v_enc)
    np.testing.assert_array_equal(a.omega_imu, b.omega_imu)


def test_different_seed_differs(ref):
    scen = _scenario(constant(0.3), constant(0.1), duration=2.0)
    a = synthesize_log(scen, ref, NoiseSpec(v_enc=0.02), 1)
    b = synthesize_log(scen, ref, NoiseSpec(v_enc=0.02), 2)
    assert not np.array_equal(a.v_enc, b.v_enc)


def test_mocap_block_present_when_requested(ref):
    scen = Scenario(
        name="m", duration=1.0, dt=0.01, model="kinematic",
        throttle=constant(0.3), steering=constant(0.0), mocap=True,
    )
    log = synthesize_log(scen, ref, NoiseSpec(mocap_xy=0.001), 0)
    assert log.mocap is not None
    assert log.mocap.x_t.size == len(log)


def test_noise_spec_rejects_negative_std():
    with pytest.raises(ConfigError):
        NoiseSpec(v_enc=-0.1)


# --- trajectory CSV -----------------------------------------------------------


def test_trajectory_csv_round_trip_columns(ref, tmp_path):
    from minicar.validation import read_table

    scen = _scenario(constant(0.3), constant(0.2), duration=1.0)
    traj = simulate(scen, ref)
    path = tmp_path / "traj.csv"
    simulator.save_trajectory(traj, ref, path)
    table = read_table(path)
    assert set(table) == {"t", "tau", "s", "v_enc", "omega_imu",
                          "tau_applied", "s_applied", "x", "y", "eta", "v"}
    np.testing.assert_array_equal(table["v"], traj.states[:, 3])
    np.testing.assert_array_equal(table["s_applied"], traj.applied_s)
