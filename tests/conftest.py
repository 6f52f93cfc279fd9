import numpy as np
import pytest
from hypothesis import settings

from minicar.params import reference_params

# The same generated cases on every run, and no per-example time limit,
# so that the property and fuzz tests cannot flake on a slow machine.
settings.register_profile("minicar", derandomize=True, deadline=None)
settings.load_profile("minicar")


@pytest.fixture(scope="session")
def ref():
    """Reference parameter set used as ground truth throughout."""
    return reference_params()


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
