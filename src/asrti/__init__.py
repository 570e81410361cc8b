"""Real-time nonlinear MPC with advanced-step real-time iterations.

The package provides a multiple-shooting transcription layer, an implicit
Radau IIA integrator with exact sensitivities, an active-set QP solver on
a banded factorization of the full-space KKT system with a matrix/vector
phase split, SQP iterations at four inexactness levels (A-D) and a
closed-loop controller plus benchmark harness around an inverted pendulum.
"""

from .controller import AsRtiController, ControllerConfig, CycleLog, predict_state
from .integrators import (
    IntegrationError,
    IntegrationResult,
    OdeModel,
    radau3_step,
    radau3_step_batch,
    simulate_plant,
)
from .mli import (
    ContractionDiagnostics,
    IterationRecord,
    MliConfig,
    PreparedLinearization,
    SqpResult,
    beta_vector,
    estimate_contraction,
    level_a,
    level_b,
    level_c,
    level_d,
    prepare_linearization,
    sqp_solve,
)
from .nlp import (
    Iterate,
    KktResidual,
    LinearStageConstraint,
    LinearTerminalConstraint,
    OcpConfigError,
    OcpNlp,
    OcpSpec,
    QuadraticStageCost,
    QuadraticTerminalCost,
    control_bounds,
    eval_kkt,
    kkt_vectors,
    transcribe,
)
from .qp import (
    CondensedLhs,
    DenseQpResult,
    OcpQpData,
    QpInfeasibleError,
    QpSolution,
    QpSolverError,
    build_qp_data,
    condense_and_solve,
    condense_lhs,
    condense_rhs_and_solve,
    solve_dense_qp,
)

__version__ = "0.1.0"
