"""Every JSON document is read through one field checker and one
finite-number rule, and written by one writer: an unknown or missing
field gets one message shape, booleans are not numbers, and a saved
parameter file loads and saves back to the same bytes."""

import json
import tempfile
from dataclasses import MISSING, fields, replace
from pathlib import Path

import pytest

from minicar.cli import _LogEntry, _read_manifest, main
from minicar.errors import ConfigError
from minicar.params import (_GROUPS, Delays, VehicleParams, load_params, params_from_dict,
                            params_to_dict, reference_params, save_params, write_json)
from minicar.scenarios import SCHEDULE_TYPES, Scenario, scenario_from_json, schedule_from_json
from minicar.simulator import NoiseSpec, load_noise

PARAMS = params_to_dict(reference_params())

SCHEDULES = {
    "step": {"type": "step", "t": 0.5, "before": 0.0, "after": 0.3},
    "piecewise": {"type": "piecewise", "times": [0.0, 1.0], "values": [0.1, 0.2]},
    "sine": {"type": "sine", "amplitude": 0.4, "frequency": 0.5, "phase": 0.1, "offset": 0.0},
}

SCENARIO = {
    "name": "doc",
    "duration": 2.0,
    "dt": 0.01,
    "model": "kinematic",
    "throttle": SCHEDULES["step"],
    "steering": SCHEDULES["sine"],
    "initial_state": [0.0, 0.0, 0.0, 0.5],
    "mocap": False,
}


def _params_group(name):
    def parse(group):
        return params_from_dict({**PARAMS, name: group})
    return parse


def _in_file(read, name, wrap=lambda doc: doc):
    """A parser that writes ``wrap(doc)`` to a file called ``name`` and
    reads it back with ``read``; the file's path reads as ``name`` in an
    error."""
    def parse(doc):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / name
            path.write_text(json.dumps(wrap(doc)))
            try:
                return read(path)
            except ConfigError as exc:
                raise ConfigError(str(exc).replace(str(path), name)) from exc
    return parse


NOISE = {"v_enc": 0.02, "omega_imu": 0.02, "mocap_xy": 0.001, "mocap_eta": 0.002}

# (the "<what>" a document's errors start with, a valid object, its
# dataclass, the parser of that object)
DOCUMENTS = (
    [pytest.param(f"parameter group {name!r}", PARAMS[name], cls, _params_group(name), id=name)
     for name, cls in _GROUPS.items()]
    + [pytest.param(f"{kind} schedule", SCHEDULES[kind], cls, schedule_from_json, id=kind)
       for kind, cls in SCHEDULE_TYPES.items()]
    + [pytest.param("scenario", SCENARIO, Scenario, scenario_from_json, id="scenario"),
       pytest.param("noise.json", NOISE, NoiseSpec, _in_file(load_noise, "noise.json"),
                    id="noise"),
       pytest.param("manifest.json: logs[0]", {"file": "a.csv", "tag": "coast"}, _LogEntry,
                    _in_file(_read_manifest, "manifest.json", lambda entry: {"logs": [entry]}),
                    id="log-entry")]
)


def _required(cls):
    return [f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING]


@pytest.mark.parametrize("what, valid, cls, parse", DOCUMENTS)
def test_unknown_and_missing_fields_have_one_message_shape(what, valid, cls, parse):
    parse(valid)
    with pytest.raises(ConfigError) as unknown:
        parse({**valid, "bogus": 1.0})
    assert str(unknown.value) == f"{what}: unknown field 'bogus'"
    for name in _required(cls):
        with pytest.raises(ConfigError) as missing:
            parse({key: value for key, value in valid.items() if key != name})
        assert str(missing.value) == f"{what}: missing field {name!r}"


def test_a_manifest_entry_whose_file_is_not_a_string_is_refused(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"logs": [{"tag": "coast", "file": 3}]}))
    with pytest.raises(ConfigError) as refusal:
        _read_manifest(path)
    assert str(refusal.value) == f"{path}: logs[0]: 'file' must be a string, got 3"


@pytest.mark.parametrize("doc", [[1], "step", 0.5, None])
def test_a_schedule_that_is_not_an_object_has_the_common_message(doc):
    message = f"schedule: expected a JSON object, got {type(doc).__name__}"
    with pytest.raises(ConfigError) as alone:
        schedule_from_json(doc)
    assert str(alone.value) == message
    with pytest.raises(ConfigError) as in_scenario:
        scenario_from_json({**SCENARIO, "throttle": doc})
    assert str(in_scenario.value) == f"scenario field 'throttle': {message}"


@pytest.mark.parametrize("name", [*_GROUPS, "normalized_slip"])
def test_a_parameter_group_may_be_left_out_exactly_when_it_has_a_default(name):
    """``delays`` and ``tire`` have defaults; every other group is
    required. A file without ``normalized_slip``, as every file written
    before the field existed, reads as the raw-velocity convention."""
    doc = {key: value for key, value in PARAMS.items() if key != name}
    defaults = {"delays": Delays(steer_delay=0.0, long_delay=0.0), "tire": None,
                "normalized_slip": False}
    if name not in defaults:
        with pytest.raises(ConfigError) as missing:
            params_from_dict(doc)
        assert str(missing.value) == f"parameter document: missing field {name!r}"
        return
    params = params_from_dict(doc)
    assert isinstance(params, VehicleParams) and getattr(params, name) == defaults[name]


@pytest.mark.parametrize("path", [(group, key) for group in _GROUPS if PARAMS[group]
                                  for key in PARAMS[group]] + [("schema_version",)])
@pytest.mark.parametrize("value", [True, False])
def test_parameter_files_reject_booleans_as_numbers(path, value):
    doc = json.loads(json.dumps(PARAMS))
    if len(path) == 1:
        doc[path[0]] = value
        pattern = "schema_version"
    else:
        doc[path[0]][path[1]] = value
        pattern = f"parameter group '{path[0]}': field '{path[1]}' must be a finite number"
    with pytest.raises(ConfigError, match=pattern):
        params_from_dict(doc)


@pytest.mark.parametrize("value", [1, 0, "true", None], ids=repr)
def test_normalized_slip_must_be_a_json_boolean(tmp_path, caplog, value):
    """As a scenario's ``mocap`` is; ``simulate --params`` on such a
    file exits 2 naming the field and writes nothing."""
    message = f"field 'normalized_slip' must be true or false, got {value!r}"
    doc = {**PARAMS, "normalized_slip": value}
    with pytest.raises(ConfigError) as err:
        params_from_dict(doc)
    assert str(err.value) == f"parameter document: {message}"
    params, scenario, out = tmp_path / "params.json", tmp_path / "scenario.json", tmp_path / "out"
    params.write_text(json.dumps(doc))
    write_json(scenario, SCENARIO)
    assert main(["simulate", "--params", str(params), "--scenario", str(scenario),
                 "--out", str(out)]) == 2
    assert message in caplog.text and not out.exists()


def test_a_hand_written_integer_parameter_saves_back_as_a_float(tmp_path):
    doc = json.loads(json.dumps(PARAMS))
    doc["geometry"].update(m=2, w=1)
    hand = tmp_path / "hand.json"
    hand.write_text(json.dumps(doc))
    saved = tmp_path / "saved.json"
    save_params(load_params(hand), saved)
    geometry = json.loads(saved.read_text())["geometry"]
    assert (geometry["m"], geometry["w"]) == (2.0, 1.0)
    assert '"m": 2.0' in saved.read_text()


def _twice(save, load, value, tmp_path):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save(value, first)
    save(load(first), second)
    return first.read_bytes(), second.read_bytes()


def test_a_parameter_file_saves_loads_and_saves_to_the_same_bytes(tmp_path):
    first, second = _twice(save_params, load_params, reference_params(), tmp_path)
    assert first == second
    assert first.endswith(b"}\n") and b'\n  "friction": {\n    "a": 1.72,' in first


def test_a_normalized_parameter_file_saves_loads_and_saves_to_the_same_bytes(tmp_path):
    params = replace(reference_params(), normalized_slip=True)
    first, second = _twice(save_params, load_params, params, tmp_path)
    assert first == second
    assert load_params(tmp_path / "second.json") == params
    assert first.endswith(b'\n  },\n  "normalized_slip": true\n}\n')
