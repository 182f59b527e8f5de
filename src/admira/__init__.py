"""Low-rank matrix recovery by greedy atomic decomposition.

The package recovers a rank-r matrix from linear measurements by iterating
atom selection on the residual proxy, set merging, restricted least
squares, and rank truncation. It ships rank-one pursuit and singular value
thresholding baselines, sampled rank-restricted isometry diagnostics, and a
seeded experiment harness (sweeps, phase grids, comparison tables).
"""

from .atoms import (
    AtomExpansion,
    AtomSet,
    assemble,
    empty_expansion,
    leading_atoms,
    merge,
    truncate_expansion,
)
from .baselines import (
    PursuitConfig,
    SvtConfig,
    rank_one_pursuit,
    svt_solve,
)
from .harness import (
    Problem,
    TrialReport,
    compare_table,
    degrees_of_freedom,
    gen_problem,
    phase_transition,
    run_sweep,
    run_trial,
    snr_recon,
)
from .linalg import (
    frobenius_norm,
    least_squares_minnorm,
    svd_truncated,
)
from .operators import EntrySampler, GaussianOperator, MeasurementOperator
from .ripcheck import (
    OrthogonalityReport,
    estimate_delta,
    restricted_orthogonality_check,
)
from .seeding import derive_rng, derive_seed
from .solver import (
    AdmiraConfig,
    AdmiraResult,
    TraceRow,
    admira_solve,
    admira_step,
    restricted_least_squares,
)

__version__ = "0.1.0"
