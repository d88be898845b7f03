"""Exact nondivergence checker for A*M actions on SL_n-product quotients."""

__version__ = "0.1.0"

from .linalg import (
    NEG_INFINITY,
    BilinearForm,
    Orthant,
    StrictRegion,
    Subspace,
    fm_feasible,
    integral_kernel_vector,
    invdim,
    orthant_meets_subspace,
    project_subspace,
    rank,
    restricted_independent,
)
from .rootdata import (
    CartanSpace,
    Functional,
    GroupSpec,
    LieElement,
    ParabolicSide,
    fundamental_weight,
    nilradical_basis,
    parabolic_contains,
    weight_of_nilradical,
)
from .weyl import (
    CentralizerWeylElement,
    WeylElement,
    act_on_functional,
    act_on_lie,
    enumerate_weyl,
    identity_centralizer_element,
    signed_permutation_matrix,
    weyl_order,
)
from .criterion import (
    Certificate,
    ConfigError,
    ConfigInconsistencyError,
    GroupConfig,
    SearchStats,
    Verdict,
    check_general,
    check_torus,
    dependence_coefficients,
    replay_certificate,
)
from .witness import (
    DecayRow,
    DivergenceSequence,
    EscapeWitness,
    ExactCheckFailedError,
    HSampler,
    NoMissedOrthantError,
    NotProperError,
    WedgeLine,
    WitnessReport,
    build_escape_witness,
    check_witness_exact,
    closed_form_torus_norm,
    decay_table,
    realize_divergence_sequence,
    verify_divergence,
    wedge_norm,
)
from .lattice import (
    ProbeStats,
    QuadraticOrder,
    embed_lattice,
    orbit_probe,
    shortest_vector,
)
from .config import (
    ProblemFile,
    ProbeSettings,
    build_config,
    parse_problem,
    serialize_problem,
)
