"""Vehicle parameter groups and the JSON dialect of every minicar document.

Each document is read by ``read_json_object``, each of its objects is
built by ``from_json`` (a dataclass's fields are what its object may
hold, and each error names the document), every number goes through
``finite_float`` and ``write_json`` writes each document. All values
are SI unless noted. Throttle and steering inputs are dimensionless
commands in [-1, 1].
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

from .errors import ConfigError

PARAMS_SCHEMA_VERSION = 1


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def finite_float(value, what: str) -> float:
    """``value`` as a finite float, or ConfigError naming ``what``.
    Booleans are not numbers."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:
            x = math.inf
        if math.isfinite(x):
            return x
    raise ConfigError(f"{what} must be a finite number, got {value!r}")


def finite_floats(values, what: str) -> tuple[float, ...]:
    """A list of numbers as a tuple of finite floats, by ``finite_float``."""
    if isinstance(values, (str, bytes, dict)) or not hasattr(values, "__iter__"):
        raise ConfigError(f"{what} must be a list of numbers, got {values!r}")
    return tuple(finite_float(v, f"{what}[{i}]") for i, v in enumerate(values))


def from_json(cls, doc, what: str, *, extra: tuple[str, ...] = (), parse: dict | None = None):
    """The dataclass ``cls`` built from the JSON object ``doc``, which
    holds only its fields (and ``extra`` keys, not passed on) and each
    field without a default. ``parse`` maps a field to the function that
    builds its value from its name and JSON value, and names its own
    errors. Anything else wrong, a ConfigError of ``cls`` included,
    raises ConfigError "<what>: ..."."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{what}: expected a JSON object, got {type(doc).__name__}")
    required = {f.name: f.default is MISSING and f.default_factory is MISSING
                for f in fields(cls)}
    for key in doc:
        if key not in required and key not in extra:
            raise ConfigError(f"{what}: unknown field {key!r}")
    for name, needed in required.items():
        if needed and name not in doc:
            raise ConfigError(f"{what}: missing field {name!r}")
    parse = parse or {}
    values = {key: parse[key](key, value) if key in parse else value
              for key, value in doc.items() if key in required}
    try:
        return cls(**values)
    except ConfigError as exc:
        raise ConfigError(f"{what}: {exc}") from exc


class FloatFields:
    """Base of a frozen dataclass whose fields are all finite floats: a
    parameter group or a schedule. Each field is set to its value as a
    float by ``finite_float``. Iterating yields the values in field
    order, so ``a, b, c = group`` unpacks a group and its fit vector
    alike."""

    def __post_init__(self):
        for name, value in self.__dict__.items():
            object.__setattr__(self, name, finite_float(value, f"field {name!r}"))

    def __iter__(self):
        return iter(self.__dict__.values())


@dataclass(frozen=True)
class FrictionParams(FloatFields):
    """Rolling/drag resistance curve F = -(a*tanh(b*v) + v*c)."""

    a: float  # force scale [N]
    b: float  # velocity sharpness [s/m]
    c: float  # viscous coefficient [N*s/m]

    def __post_init__(self):
        super().__post_init__()
        _require(self.a > 0, "friction a must be > 0")
        _require(self.b > 0, "friction b must be > 0")
        _require(self.c >= 0, "friction c must be >= 0")


@dataclass(frozen=True)
class MotorParams(FloatFields):
    """Brushed-motor curve F = (d - v*e) * relu-like(tau + g)."""

    d: float  # stall-force scale [N]
    e: float  # back-EMF slope [N*s/m]
    g: float  # throttle dead-zone offset, in (-1, 0]

    def __post_init__(self):
        super().__post_init__()
        _require(self.d > 0, "motor d must be > 0")
        _require(self.e > 0, "motor e must be > 0")
        _require(-1 < self.g <= 0, "motor g must lie in (-1, 0]")


@dataclass(frozen=True)
class SteeringParams(FloatFields):
    """Input-to-angle map built from two blended tanh branches.

    The weighting lets left and right steering have different gain and
    saturation, which is typical for a servo-driven linkage.
    """

    a_t: float  # left-branch angle scale [rad]
    b_t: float  # left-branch input gain
    c_t: float  # input offset
    d_t: float  # right-branch angle scale [rad]
    e_t: float  # right-branch input gain

    def __post_init__(self):
        super().__post_init__()
        _require(self.a_t > 0 and self.d_t > 0, "steering angle scales must be > 0")
        _require(self.b_t > 0 and self.e_t > 0, "steering input gains must be > 0")
        _require(abs(self.c_t) < 1, "steering offset must satisfy |c_t| < 1")


@dataclass(frozen=True)
class TireParams(FloatFields):
    """Front magic-formula lateral curve plus linear rear coefficient."""

    D: float  # peak force [N]
    C: float  # shape factor
    B: float  # stiffness factor [1/rad]
    E: float  # curvature factor
    C_r: float  # rear cornering coefficient [N/rad]

    def __post_init__(self):
        super().__post_init__()
        _require(self.D > 0, "tire D must be > 0")
        _require(self.C > 0, "tire C must be > 0")
        _require(self.B > 0, "tire B must be > 0")
        _require(self.C_r > 0, "tire C_r must be > 0")


@dataclass(frozen=True)
class Geometry(FloatFields):
    """Mass and dimensions of the robot."""

    m: float  # mass [kg]
    l: float  # wheelbase [m]
    l_f: float  # CoM to front axle [m]
    l_r: float  # CoM to rear axle [m]
    w: float  # width [m]
    I_z: float  # yaw inertia [kg*m^2]

    def __post_init__(self):
        super().__post_init__()
        _require(self.m > 0, "mass must be > 0")
        _require(self.w > 0, "width must be > 0")
        _require(self.I_z > 0, "yaw inertia must be > 0")
        _require(self.l > 0 and self.l_f >= 0 and self.l_r >= 0, "lengths must be positive")
        _require(
            abs(self.l - (self.l_f + self.l_r)) < 1e-9,
            "wheelbase must equal l_f + l_r",
        )


@dataclass(frozen=True)
class Delays(FloatFields):
    """Actuation delays between command and response."""

    steer_delay: float = 0.0  # [s]
    long_delay: float = 0.0  # [s]

    def __post_init__(self):
        super().__post_init__()
        _require(0 <= self.steer_delay < 1, "steer delay must lie in [0, 1) s")
        _require(0 <= self.long_delay < 1, "longitudinal delay must lie in [0, 1) s")


@dataclass(frozen=True)
class VehicleParams:
    """Complete fitted parameter set for one vehicle.

    ``tire`` may be None when no lateral-force identification has been
    run; the dynamic model refuses to evaluate in that case.
    """

    friction: FrictionParams
    motor: MotorParams
    steering: SteeringParams
    geometry: Geometry
    delays: Delays = field(default_factory=Delays)
    tire: TireParams | None = None


_GROUPS = {
    "friction": FrictionParams,
    "motor": MotorParams,
    "steering": SteeringParams,
    "tire": TireParams,
    "geometry": Geometry,
    "delays": Delays,
}


def params_to_dict(params: VehicleParams) -> dict:
    doc: dict = {"schema_version": PARAMS_SCHEMA_VERSION}
    for name in _GROUPS:
        group = getattr(params, name)
        doc[name] = None if group is None else asdict(group)
    return doc


def _group(name: str, doc):
    """The parameter group ``name`` from its JSON object, or None from
    null where the group's default is None."""
    if doc is None and VehicleParams.__dataclass_fields__[name].default is None:
        return None
    return from_json(_GROUPS[name], doc, f"parameter group {name!r}")


def params_from_dict(doc: dict) -> VehicleParams:
    """A VehicleParams from its JSON object; ConfigError naming the group
    and field for anything missing, unknown, mistyped, out of range or
    non-finite. A group may be left out exactly when its field has a
    default: ``delays`` (then zero) and ``tire`` (then None)."""
    version = doc.get("schema_version") if isinstance(doc, dict) else PARAMS_SCHEMA_VERSION
    if isinstance(version, bool) or version != PARAMS_SCHEMA_VERSION:
        raise ConfigError(f"unsupported parameter schema_version: {version!r}")
    return from_json(VehicleParams, doc, "parameter document", extra=("schema_version",),
                     parse=dict.fromkeys(_GROUPS, _group))


def write_json(path: str | Path, doc) -> None:
    """Write ``doc`` as UTF-8 JSON, indented by 2, with a trailing newline."""
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def save_params(params: VehicleParams, path: str | Path) -> None:
    write_json(path, params_to_dict(params))


def read_json_object(path: str | Path, what: str) -> dict:
    """The JSON object stored in ``path``, a ``what`` document (say,
    "parameter"); ConfigError naming both when the file is not UTF-8,
    not JSON (or nested too deeply to parse) or not an object."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"invalid {what} JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} file {path} must hold a JSON object, "
                          f"got {type(doc).__name__}")
    return doc


def load_json(path: str | Path, what: str, build):
    """``build`` applied to the JSON object in ``path``, a ``what``
    document; any ConfigError starts with the path."""
    doc = read_json_object(path, what)
    try:
        return build(doc)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def load_params(path: str | Path) -> VehicleParams:
    return load_json(path, "parameter", params_from_dict)


def reference_params() -> VehicleParams:
    """Parameter set identified on the reference 1:10 platform.

    Useful as a simulation default and as the ground truth for the
    synthetic round-trip test suite. The wheelbase is 0.192 m and the
    center of mass is assumed to sit midway between the axles; yaw
    inertia follows the uniform-rectangle approximation.
    """
    from .models import rectangle_inertia  # models imports this module
    m, l, w = 1.67, 0.192, 0.1
    return VehicleParams(
        friction=FrictionParams(a=1.72, b=13.32, c=0.29),
        motor=MotorParams(d=28.88, e=5.99, g=-0.15),
        steering=SteeringParams(a_t=1.64, b_t=0.33, c_t=0.02, d_t=1.66, e_t=0.38),
        tire=TireParams(D=2.98, C=0.69, B=0.29, E=-3.07, C_r=0.39),
        geometry=Geometry(m=m, l=l, l_f=l / 2, l_r=l / 2, w=w, I_z=rectangle_inertia(m, l, w)),
        delays=Delays(steer_delay=0.15, long_delay=0.01),
    )
