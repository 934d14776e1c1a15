"""Winner criteria for open alternating-move games on full trees.

Exact determination of the winner for finite open winning sets, Kraft-type
sum certificates, the prefix-code maximality correspondence, free-group
subgroup indices via graph folding, and the covering identities for
maximal prefix codes.
"""

from .codes import (
    EquivalenceReport,
    HistoryMixer,
    PrefixCode,
    XVector,
    build_Z_from_code,
    equivalence_check,
    extract_generating_subset,
    history_code,
    history_encode,
    history_equivalence_check,
    is_bifix_code,
    is_maximal,
    is_prefix_code,
    xvectors_enumerate,
)
from .covering import (
    IdentityReport,
    Measure,
    MeasureSpec,
    MonteCarloReport,
    averaged_identity,
    identity_sum,
    lift_count,
    lift_enumerate,
    measure_criterion,
    monte_carlo_hit,
    strategy_consistent_lifts,
    weighted_identity,
)
from .criteria import (
    MoranRoot,
    P2Certificate,
    is_minimal_size,
    kraft_sum,
    moran_dimension,
    p2_certificate,
    subtree_criterion,
    word_sum,
)
from .freegroup import (
    IndexResult,
    LabeledGraph,
    fold,
    hat_index,
    membership,
    parse_word,
    reduce_word,
    subgroup_index,
    word_from_position,
    word_to_str,
)
from .solver import (
    GameInstance,
    SolveReport,
    Strategy,
    brute_force_oracle,
    consistent_positions,
    extract_minimal_size,
    solve,
    verify_strategy,
)
from .tree import (
    Position,
    PositionSet,
    concat_prefix_member,
    hat,
    is_prefix,
    normalize_even,
)

__version__ = "0.1.0"
