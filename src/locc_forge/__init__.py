"""locc_forge: LOCC transformations between bipartite pure states.

Decide whether one bipartite pure state can be carried into another by local
operations and classical communication, compute the maximal success
probability, synthesize the explicit measurement/unitary protocol achieving
it, and verify or simulate the result numerically.
"""

__version__ = "0.1.0"

from .bipartite import (
    BipartiteState,
    SchmidtForm,
    apply_local,
    fidelity,
    from_schmidt,
    schmidt,
    schmidt_rank,
    squared_spectrum,
)
from .errors import (
    InfeasibleError,
    InvalidInputError,
    LoccForgeError,
    NumericalDegeneracyError,
)
from .simulate import EstimateResult, RunTrace, VerificationReport, estimate, run_once, verify
from .synth import (
    FeasibilityReport,
    LoccProtocol,
    StageOneOutcome,
    StageTwo,
    feasibility,
    max_probability,
    reduce_bob,
    substochastic_matrix,
    synthesize,
)

__all__ = [
    "__version__",
    "BipartiteState",
    "SchmidtForm",
    "apply_local",
    "fidelity",
    "from_schmidt",
    "schmidt",
    "schmidt_rank",
    "squared_spectrum",
    "LoccForgeError",
    "InvalidInputError",
    "InfeasibleError",
    "NumericalDegeneracyError",
    "FeasibilityReport",
    "LoccProtocol",
    "StageOneOutcome",
    "StageTwo",
    "max_probability",
    "feasibility",
    "synthesize",
    "reduce_bob",
    "substochastic_matrix",
    "VerificationReport",
    "RunTrace",
    "EstimateResult",
    "verify",
    "run_once",
    "estimate",
]
