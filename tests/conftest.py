import numpy as np
import pytest
from hypothesis import settings

# Property tests draw the same bounded set of examples on every run.
settings.register_profile("swirl", derandomize=True, max_examples=20, deadline=None, database=None)
settings.load_profile("swirl")

WATER_XYZ = """3
water molecule
O 0.000000 0.000000 0.119262
H 0.000000 0.763239 -0.477047
H 0.000000 -0.763239 -0.477047
"""


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def water_xyz():
    return WATER_XYZ
