"""minicar: identification and simulation of small car-like robots.

Pure model curves and bicycle-model ODEs, staged sub-model fitting
from driving logs, and a scenario simulator that can synthesize the
very logs the fitting pipeline consumes. Every public name lives in
the one module that defines it; the package root holds only the version.
"""

__version__ = "0.1.0"
