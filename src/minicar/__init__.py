"""minicar: identification and simulation of small car-like robots.

Pure model curves and bicycle-model ODEs, staged sub-model fitting
from driving logs, and a scenario simulator that can synthesize the
very logs the fitting pipeline consumes.
"""

from .datasets import (
    Dataset,
    build_friction_dataset,
    build_motor_dataset,
    build_steering_dataset,
    build_tire_dataset,
    estimate_steering_angle_series,
)
from .delay import delay_shift, estimate_delay_xcorr
from .errors import (
    ConfigError,
    DataError,
    FitDivergedError,
    IntegrationError,
    MinicarError,
    ParseError,
    SimulationDiverged,
)
from .fitting import (
    FitConfig,
    FitResult,
    adam_fit,
    fit_friction,
    fit_front_tire,
    fit_motor,
    fit_rear_tire,
    fit_steering,
    lm_fit,
)
from .integrators import rk4_step
from .logs import RawLog, dump_log, load_log, save_log
from .models import (
    body_frame_velocity,
    dynamic_rhs,
    friction_force,
    kinematic_rhs,
    motor_force,
    pacejka_lateral,
    rear_lateral,
    rectangle_inertia,
    slip_angles,
    smooth_positive_throttle,
    steering_angle,
)
from .params import (
    Delays,
    FrictionParams,
    Geometry,
    MotorParams,
    SteeringParams,
    TireParams,
    VehicleParams,
    load_params,
    reference_params,
    save_params,
)
from .pipeline import PipelineResult, fit_pipeline
from .preprocess import differentiate, smooth
from .scenarios import Scenario, load_scenario, save_scenario, scenario_library
from .simulator import NoiseSpec, Trajectory, simulate, synthesize_log
from .validation import one_step_rms

__version__ = "0.1.0"
