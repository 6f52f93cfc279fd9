"""Correctness checks for the benchmark workloads, made apart from minicar.

Nothing here imports minicar. The reference vehicle, the battery's
make-up and the curve formulas are written out again, so that a fault
in the program cannot hide by also being in its oracle. Every check
returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np

DT = 0.01

# The reference vehicle, as the workloads write it to params.json.
REFERENCE = {
    "schema_version": 1,
    "friction": {"a": 1.72, "b": 13.32, "c": 0.29},
    "motor": {"d": 28.88, "e": 5.99, "g": -0.15},
    "steering": {"a_t": 1.64, "b_t": 0.33, "c_t": 0.02, "d_t": 1.66, "e_t": 0.38},
    "tire": {"D": 2.98, "C": 0.69, "B": 0.29, "E": -3.07, "C_r": 0.39},
    "geometry": {"m": 1.67, "l": 0.192, "l_f": 0.096, "l_r": 0.096, "w": 0.1,
                 "I_z": 1.67 * (0.192**2 + 0.1**2) / 12},
    "delays": {"steer_delay": 0.15, "long_delay": 0.01},
}

NOISE = {"v_enc": 0.02, "omega_imu": 0.02, "mocap_xy": 0.001, "mocap_eta": 0.002}

THROTTLE_SHARPNESS = 100.0
STEER_BLEND_SHARPNESS = 30.0

_STEER_NAMES = ("-1.00", "-0.80", "-0.60", "-0.40", "-0.20", "-0.00",
                "+0.20", "+0.40", "+0.60", "+0.80", "+1.00")

# name -> (experiment tag, duration [s], CSV column count) for the
# 32-scenario library that `minicar generate` writes.
BATTERY = {
    **{f"coast_{x}": ("coast", 10.0, 5) for x in ("0.40", "0.35", "0.30", "0.25")},
    **{f"pulse_{x}": ("coast", 36.0, 5)
       for x in ("0.23", "0.24", "0.26", "0.28", "0.30", "0.32")},
    **{f"step_{x}": ("step", 13.0, 5)
       for x in ("0.15", "0.20", "0.25", "0.30", "0.35", "0.40")},
    **{f"steer_{x}": ("steer", 8.0, 5) for x in _STEER_NAMES},
    "sine_0.50Hz": ("sine", 14.0, 5),
    **{f"circle_{x}": ("mocap", 40.0, 8) for x in ("-0.45", "-0.30", "+0.30", "+0.45")},
}

STRAIGHT_LINE = tuple(n for n in BATTERY if n.split("_")[0] in ("coast", "step", "pulse"))

# Slip angles the battery's four circles reach at the front axle; every
# seed tried covered at least this interval.
FRONT_SLIP_RANGE = (-0.43, 0.43)


def rows_of(name: str) -> int:
    return round(BATTERY[name][1] / DT) + 1


# --- curves, written out ---------------------------------------------------


def friction_force(v, p):
    return -(p["a"] * np.tanh(p["b"] * v) + p["c"] * v)


def motor_force(tau, v, p):
    x = tau + p["g"]
    return (p["d"] - p["e"] * v) * x * 0.5 * (np.tanh(THROTTLE_SHARPNESS * x) + 1.0)


def steering_angle(s, p):
    x = s + p["c_t"]
    w = 0.5 * (np.tanh(STEER_BLEND_SHARPNESS * x) + 1.0)
    return w * p["a_t"] * np.tanh(p["b_t"] * x) + (1 - w) * p["d_t"] * np.tanh(p["e_t"] * x)


def front_lateral(alpha, p):
    ba = p["B"] * alpha
    return p["D"] * np.sin(p["C"] * np.arctan(ba - p["E"] * (ba - np.arctan(ba))))


# --- straight-line reference ----------------------------------------------


def commanded_throttle(name: str) -> np.ndarray:
    """Commanded throttle of a coast, step or pulse scenario on its grid."""
    kind, level = name.split("_")
    tau = float(level)
    switches = {  # grid index -> throttle from then on
        "coast": {0: tau, 500: 0.0},
        "step": {0: 0.0, 100: tau, 900: 0.0},
        "pulse": {k: v for c in range(12) for k, v in ((300 * c, tau), (300 * c + 140, 0.0))},
    }[kind]
    out = np.empty(rows_of(name))
    for k in sorted(switches):
        out[k:] = switches[k]
    return out


def reference_speed(tau_cmd: np.ndarray, params: dict = REFERENCE) -> np.ndarray:
    """Speed of m*dv/dt = motor + friction from rest, by scipy's DOP853.

    The throttle reaches the motor one sample late (the 0.01 s
    longitudinal delay, filled with the first command) and is held over
    each step. The ODE is smooth between throttle changes, so each
    constant stretch is solved on its own, to a relative 1e-9.
    """
    from scipy.integrate import solve_ivp

    m = params["geometry"]["m"]
    lag = round(params["delays"]["long_delay"] / DT)
    applied = np.concatenate([np.full(lag, tau_cmd[0]), tau_cmd[: tau_cmd.size - lag]])
    n = tau_cmd.size
    t = np.arange(n) * DT
    v = np.empty(n)
    v[0] = 0.0
    starts = [0, *(np.flatnonzero(np.diff(applied[:-1])) + 1)]
    for a, b in zip(starts, [*starts[1:], n - 1]):
        u = applied[a]

        def accel(_t, y, u=u):
            return [(motor_force(u, y[0], params["motor"])
                     + friction_force(y[0], params["friction"])) / m]

        sol = solve_ivp(accel, (t[a], t[b]), [v[a]], method="DOP853",
                        t_eval=t[a:b + 1], rtol=1e-9, atol=1e-11)
        v[a:b + 1] = sol.y[0]
    return v


# --- generate-battery -------------------------------------------------------


def read_csv(path) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8") as f:
        header = f.readline().strip().split(",")
        data = np.loadtxt(f, delimiter=",", ndmin=2)
    return header, data


def battery_problems(manifest: dict, tables: dict) -> list[str]:
    """Make-up of a written battery: names, tags and row counts.

    ``tables`` maps a scenario name to its (header, data) pair.
    """
    problems = []
    listed = {e["file"]: e["tag"] for e in manifest.get("logs", [])}
    expected = {f"{n}.csv": tag for n, (tag, _, _) in BATTERY.items()}
    if listed != expected:
        problems.append(f"manifest lists {sorted(listed)} with tags other than expected")
    for name, (_, _, columns) in BATTERY.items():
        if name not in tables:
            problems.append(f"{name}: missing")
            continue
        header, data = tables[name]
        if data.shape != (rows_of(name), columns) or len(header) != columns:
            problems.append(f"{name}: shape {data.shape}, expected ({rows_of(name)}, {columns})")
    return problems


def speed_noise_problems(name: str, tau: np.ndarray, v_enc: np.ndarray,
                         v_ref: np.ndarray, sigma: float = NOISE["v_enc"]) -> list[str]:
    """Logged commands match the schedule; v_enc is v_ref plus N(0, sigma)."""
    if not np.array_equal(tau, commanded_throttle(name)):
        return [f"{name}: logged throttle differs from the scenario's schedule"]
    residual = v_enc - v_ref
    mean, std = float(residual.mean()), float(residual.std())
    problems = []
    if abs(mean) >= 0.003:
        problems.append(f"{name}: v_enc - reference has mean {mean:.5f} (limit 0.003)")
    if abs(std / sigma - 1.0) > 0.15:
        problems.append(f"{name}: v_enc - reference has std {std:.5f} (expected {sigma} +-15%)")
    return problems


# --- fit-battery ------------------------------------------------------------


def _rms(x) -> float:
    return float(np.sqrt(np.mean(np.square(x))))


def fit_problems(params: dict, report: dict, ref: dict = REFERENCE) -> list[str]:
    """Acceptance criteria 1-4 against the generating parameters."""
    problems = [f"stage {s['name']} is {s['status']}" for s in report.get("stages", [])
                if s.get("status") != "fitted"]
    if not problems and len(report.get("stages", [])) != 6:
        problems.append("report.json does not list six stages")

    v = np.linspace(0.0, 4.0, 401)
    f_true = friction_force(v, ref["friction"])
    rel = _rms(friction_force(v, params["friction"]) - f_true) / np.ptp(f_true)
    if rel >= 0.02:
        problems.append(f"friction curve off by {rel:.2%} of its range (limit 2%)")
    taus, vs = np.meshgrid(np.arange(0.15, 0.401, 0.05), v)
    m_true = motor_force(taus, vs, ref["motor"])
    rel = _rms(motor_force(taus, vs, params["motor"]) - m_true) / np.ptp(m_true)
    if rel >= 0.02:
        problems.append(f"motor curve off by {rel:.2%} of its range (limit 2%)")
    for group, names in (("friction", "abc"), ("motor", "deg")):
        for k in names:
            err = abs(params[group][k] - ref[group][k]) / abs(ref[group][k])
            if err >= 0.10:
                problems.append(f"{group}.{k} off by {err:.1%} (limit 10%)")

    s = np.linspace(-1.0, 1.0, 201)
    err = _rms(steering_angle(s, params["steering"]) - steering_angle(s, ref["steering"]))
    if err >= 0.01:
        problems.append(f"steering map RMS {err:.4f} rad (limit 0.01)")
    delay = params["delays"]["steer_delay"]
    if abs(delay - ref["delays"]["steer_delay"]) > 0.01 + 1e-12:
        problems.append(f"steer delay {delay:.3f} s (expected 0.150 +- 0.010)")

    tire = params.get("tire")
    if tire is None:
        return problems + ["no tire parameters"]
    alpha = np.linspace(*FRONT_SLIP_RANGE, 301)
    err = _rms(front_lateral(alpha, tire) - front_lateral(alpha, ref["tire"]))
    if err >= 0.03 * ref["tire"]["D"]:
        problems.append(f"front tire curve off by {err / ref['tire']['D']:.2%} of D (limit 3%)")
    c_r_err = abs(tire["C_r"] - ref["tire"]["C_r"]) / ref["tire"]["C_r"]
    if c_r_err >= 0.10:
        problems.append(f"C_r off by {c_r_err:.1%} (limit 10%)")
    return problems


# --- simulate-validate ------------------------------------------------------


def export_problems(name: str, rms: dict) -> list[str]:
    """A trajectory export must replay its own one-step predictions."""
    if set(rms) != {"x", "y", "eta", "v_x", "v_y", "omega"}:
        return [f"{name}: validate reported channels {sorted(rms)}"]
    return [f"{name}: one-step RMS of {k} is {v:.3g} (limit 1e-9)"
            for k, v in rms.items() if not v <= 1e-9]


def noisy_log_problems(name: str, rms: dict, sigma: float = NOISE["v_enc"]) -> list[str]:
    """One-step RMS on a noisy kinematic log is sqrt(2)*sigma, within 20%."""
    if set(rms) != {"v"}:
        return [f"{name}: validate reported channels {sorted(rms)}"]
    expected = math.sqrt(2.0) * sigma
    if not abs(rms["v"] / expected - 1.0) <= 0.20:
        return [f"{name}: one-step RMS of v is {rms['v']:.5f} (expected {expected:.5f} +-20%)"]
    return []


def format_csv(header: list[str], columns: list[np.ndarray]) -> str:
    """CSV text in the RawLog dialect, floats written to round-trip."""
    lines = [",".join(header)]
    lines += [",".join(map(repr, row)) for row in zip(*(c.tolist() for c in columns))]
    return "\n".join(lines) + "\n"
