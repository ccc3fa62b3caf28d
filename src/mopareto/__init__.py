"""mopareto: exact computation, verification, and minimization of partially
exact approximation sets for explicitly given multiobjective instances.

All arithmetic is exact rational arithmetic; every construction is paired
with an independent verifier that re-checks coverage from the definitions.
"""

from .constructors import (
    QueryLimitExceeded,
    UnsupportedRelationError,
    VerificationFailed,
    VerifyResult,
    certificate_is_valid,
    construct_grid_approx,
    construct_via_gap,
    grid_select,
    verify_approximation,
    weakly_efficient_lift,
)
from .dominance import (
    DominationDigraph,
    dominates,
    domination_digraph,
    efficient_set,
    exact_components,
    r_dominates,
    strictly_dominates,
    weakly_efficient_set,
)
from .domsets import (
    NodeLimitExceeded,
    exact_min_dominating_set,
    greedy_cover_dominating_set,
    greedy_tournament_dominating_set,
    is_dominating,
    tournament_view,
)
from .generators import (
    gen_antichain,
    gen_duplicated,
    gen_prop_dominated,
    gen_prop_one_exact,
    gen_quasi2_gap,
    gen_random,
)
from .grid import (
    GridBucketing,
    bucket,
    cell_coord,
    diagonal_of,
    filter_weakly_nondominated_cells,
    ratio_steps_to_reach,
)
from .model import (
    ApproximationSet,
    CertificateEntry,
    FormatError,
    GapQuery,
    Instance,
    RelationKind,
    RelationSpec,
    Solution,
    derive_value_bound,
    load_instance,
    load_set,
    save_instance,
    save_set,
)
from .numerics import (
    encoding_bits,
    exact_sqrt,
    half_step_delta,
    parse_rational,
    render_rational,
)
from .oracles import (
    AdversarialPair,
    AdversaryPrecisionError,
    adversarial_pair,
    consistent_gap_answer,
    constrained_oracle,
    dual_restrict_2approx,
    dual_restrict_oracle,
    gap_oracle,
    greedy_biobjective_min,
    valid_gap_answer,
)

__version__ = "0.1.0"
