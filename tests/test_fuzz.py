"""Malformed input fails at the boundary: parameter files, scenario files,
noise levels and logs raise ConfigError or ParseError, never another
exception."""

import io
import json
import math
import re

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from minicar.errors import ConfigError, ParseError
from minicar.logs import RawLog, load_log
from minicar.params import (
    _GROUPS,
    VehicleParams,
    load_params,
    params_from_dict,
    params_to_dict,
    reference_params,
)
from minicar.scenarios import Scenario, load_scenario, scenario_from_json
from minicar.simulator import NoiseSpec, load_noise

VALID_PARAMS = params_to_dict(reference_params())

VALID_SCENARIO = {
    "name": "fuzz",
    "duration": 3.0,
    "dt": 0.01,
    "model": "dynamic",
    "throttle": {"type": "step", "t": 0.5, "before": 0.0, "after": 0.3},
    "steering": {"type": "sine", "amplitude": 0.4, "frequency": 0.5},
    "initial_state": [0, 0, 0, 0.5, 0, 0],
    "mocap": True,
}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=10,
)


def _replace(doc: dict, path: tuple, value) -> dict:
    """A copy of ``doc`` with the field at ``path`` set to ``value``."""
    out = dict(doc)
    if len(path) == 1:
        out[path[0]] = value
    else:
        out[path[0]] = _replace(doc[path[0]], path[1:], value)
    return out


def _paths(doc: dict, prefix=()) -> list[tuple]:
    paths = []
    for key, value in doc.items():
        paths.append(prefix + (key,))
        if isinstance(value, dict):
            paths += _paths(value, prefix + (key,))
    return paths


@given(doc=json_values)
def test_params_from_arbitrary_json_raises_only_config_error(doc):
    try:
        params_from_dict(doc)
    except ConfigError:
        pass


@given(path=st.sampled_from(_paths(VALID_PARAMS)), value=json_values)
@example(path=("motor", "g"), value=False)
@example(path=("geometry", "w"), value=1)
@settings(max_examples=300)
def test_params_with_one_bad_field_raise_only_config_error(path, value):
    try:
        params = params_from_dict(_replace(VALID_PARAMS, path, value))
    except ConfigError:
        return
    assert isinstance(params, VehicleParams)
    for group in (params.friction, params.motor, params.steering, params.tire,
                  params.geometry, params.delays):
        assert group is None or all(type(v) is float and math.isfinite(v) for v in group)


@given(doc=json_values)
def test_scenario_from_arbitrary_json_raises_only_config_error(doc):
    try:
        scenario_from_json(doc)
    except ConfigError:
        pass


@given(path=st.sampled_from(_paths(VALID_SCENARIO)), value=json_values)
@settings(max_examples=300)
def test_scenario_with_one_bad_field_raises_only_config_error(path, value):
    try:
        scenario = scenario_from_json(_replace(VALID_SCENARIO, path, value))
    except ConfigError:
        return
    assert isinstance(scenario, Scenario)
    assert math.isfinite(scenario.duration) and all(map(math.isfinite, scenario.initial_state))
    assert isinstance(scenario.mocap, bool)


@pytest.mark.parametrize("valid, parse", [(VALID_PARAMS, params_from_dict),
                                          (VALID_SCENARIO, scenario_from_json)])
@given(key=st.text(max_size=12), value=json_values)
def test_unknown_top_level_key_is_named(valid, parse, key, value):
    assume(key not in valid)
    with pytest.raises(ConfigError, match=re.escape(repr(key))):
        parse({**valid, key: value})


@pytest.mark.parametrize("schedule", ["throttle", "steering"])
@given(key=st.text(max_size=12), value=json_values)
def test_unknown_schedule_key_is_named(schedule, key, value):
    assume(key not in VALID_SCENARIO[schedule])
    with pytest.raises(ConfigError, match=re.escape(repr(key))):
        scenario_from_json(_replace(VALID_SCENARIO, (schedule, key), value))


@pytest.mark.parametrize("load", [load_params, load_scenario])
@given(data=st.binary(max_size=32))
@example(data=b"\xff\xfe{}")
@example(data=b"[" * 100_000)
def test_json_documents_from_arbitrary_bytes_raise_only_config_error(tmp_path_factory, load,
                                                                     data):
    path = tmp_path_factory.getbasetemp() / "document.json"
    path.write_bytes(data)
    try:
        load(path)
    except ConfigError:
        pass


@given(level=json_values)
@example(level=math.nan)
def test_noise_levels_are_finite_non_negative_numbers(level):
    try:
        spec = NoiseSpec(v_enc=level)
    except ConfigError:
        return
    assert isinstance(spec.v_enc, float) and math.isfinite(spec.v_enc) and spec.v_enc >= 0


def _near(valid: dict):
    """JSON objects near ``valid``: some of its fields kept, and others
    replaced or added."""
    return st.builds(lambda keep, more: {**{k: valid[k] for k in keep}, **more},
                     st.sets(st.sampled_from(sorted(valid))),
                     st.dictionaries(st.sampled_from(sorted(valid)) | st.text(max_size=8),
                                     json_values | st.floats(), max_size=3))


def _all_finite_floats(group) -> bool:
    return all(type(v) is float and math.isfinite(v) for v in group)


@given(doc=_near({"v_enc": 0.02, "omega_imu": 0.02, "mocap_xy": 0.001, "mocap_eta": 0.002}))
def test_a_noise_file_loads_or_raises_config_error_naming_it(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "noise.json"
    path.write_text(json.dumps(doc))
    try:
        noise = load_noise(path)
    except ConfigError as exc:
        assert str(exc).startswith(f"{path}: ")
        return
    assert _all_finite_floats(noise) and min(noise) >= 0


@pytest.mark.parametrize("name", [name for name in _GROUPS if VALID_PARAMS[name]])
@given(data=st.data())
def test_a_parameter_group_loads_or_raises_config_error_naming_it(name, data):
    doc = data.draw(_near(VALID_PARAMS[name]))
    try:
        params = params_from_dict({**VALID_PARAMS, name: doc})
    except ConfigError as exc:
        assert str(exc).startswith(f"parameter group {name!r}: ")
        return
    assert _all_finite_floats(getattr(params, name))


@given(text=st.text(max_size=200))
def test_load_log_on_arbitrary_text_raises_only_parse_error(text):
    try:
        load_log(io.StringIO(text))
    except ParseError:
        pass


log_fields = st.sampled_from(["0", "0.01", "1e400", "nan", "-inf", "x", "", " 1", "1,2", "2e-3"])


@given(rows=st.lists(st.lists(log_fields, min_size=4, max_size=6), max_size=6),
       mocap=st.booleans())
def test_load_log_on_near_valid_rows_raises_only_parse_error(rows, mocap):
    header = "t,tau,s,v_enc,omega_imu" + (",x_t,y_t,eta_t" if mocap else "")
    text = "\n".join([header] + [",".join(row) for row in rows])
    try:
        assert isinstance(load_log(io.StringIO(text)), RawLog)
    except ParseError:
        pass


def test_load_log_rejects_bytes_that_are_not_utf8():
    with pytest.raises(ParseError):
        load_log(b"t,tau,s,v_enc,omega_imu\n\xff,0,0,0,0\n")


# --- the malformed inputs seen to leak other exceptions ----------------

@pytest.mark.parametrize("doc", [[], "params", 3, {"schema_version": 1, "friction": [1.0]}])
def test_params_from_non_object_raises_config_error(doc):
    with pytest.raises(ConfigError):
        params_from_dict(doc)


def test_params_with_an_integer_too_large_for_a_float_raise_config_error():
    with pytest.raises(ConfigError, match="friction"):
        params_from_dict(_replace(VALID_PARAMS, ("friction", "a"), 10**400))


@pytest.mark.parametrize("path, value, field", [
    (("duration",), "abc", "duration"),
    (("duration",), math.nan, "duration"),
    (("duration",), math.inf, "duration"),
    (("initial_state",), ["a", 0, 0, 0, 0, 0], "initial_state"),
    (("initial_state",), [math.nan, 0, 0, 0, 0, 0], "initial_state"),
    (("initial_state",), 3, "initial_state"),
    (("throttle",), [1], "throttle"),
    (("throttle",), {"type": "piecewise", "times": 5, "values": [0.0]}, "times"),
    (("throttle", "t"), "1.0", "'t'"),
    (("steering", "amplitude"), math.nan, "amplitude"),
    (("name",), 7, "name"),
])
def test_scenario_with_a_bad_field_names_it(path, value, field):
    with pytest.raises(ConfigError, match=field):
        scenario_from_json(_replace(VALID_SCENARIO, path, value))
