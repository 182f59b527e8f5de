import os

# one BLAS thread: OpenBLAS reads this when NumPy first loads it, and its
# small dense SVDs slow down many times over when a neighbour holds a core
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(20240501)
