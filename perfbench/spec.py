"""The benchmark's workloads as plain data.

run.py reads this table before NumPy is imported, because the BLAS thread
count a workload pins has to be in the environment before OpenBLAS starts.
All problems are square and rank 2. ``blas_threads = None`` keeps the
library default: every inherited BLAS/OpenMP thread variable is cleared.
"""

RANK = 2

WORKLOADS = {
    # selection path: dense SVD of the 1000x1000 zero-filled proxy
    "complete-1000": {
        "task": "admira", "kind": "entry", "n": 1000, "p": 200_000,
        "max_iter": 60, "blas_threads": 1,
    },
    # the Gate 2 problem: many cheap iterations, and the only SVT run
    "complete-200": {
        "task": "admira+svt", "kind": "entry", "n": 200, "p": 8000,
        "max_iter": 150, "svt_max_iter": 500, "blas_threads": 1,
    },
    # dense Gaussian operator, p = 20 * d_r; selection is a 50x50 SVD
    "gaussian-50": {
        "task": "admira", "kind": "gaussian", "n": 50, "p": 3920,
        "max_iter": None, "blas_threads": 1,
    },
    # harness parallelism on top of default BLAS threading
    "sweep-threads": {
        "task": "sweep", "kind": "entry", "n": 150, "p_over_dr": (5, 10, 20),
        "trials": 4, "blas_threads": None,
    },
}

# Same tasks at tiny sizes: every metric and check runs in about a second.
SMOKE = {
    "complete-1000": {**WORKLOADS["complete-1000"], "n": 40, "p": 1200},
    "complete-200": {**WORKLOADS["complete-200"], "n": 30, "p": 700},
    "gaussian-50": {**WORKLOADS["gaussian-50"], "n": 10, "p": 720},
    "sweep-threads": {**WORKLOADS["sweep-threads"], "n": 20, "p_over_dr": (4, 5), "trials": 2},
}

# thread variables cleared or set together when a workload fixes BLAS threads
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "GOTO_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
