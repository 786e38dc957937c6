"""Rowmotion on graded posets, with exact orbit statistics.

The core objects are finite graded posets with bitmask ideals, the rowmotion
operator on ideals and antichains, binary-word codecs that linearize the
dynamics for chain products and chain-times-K products, and the catalog of
posets (three families plus twenty sporadic root-system layers) whose orbit
averages are constant.
"""

from .constructions import (
    Chain,
    DUnion,
    H,
    J,
    K,
    Layer,
    OSum,
    PosetExpr,
    Prod,
    build,
    grid_poset,
    k_product_poset,
    to_text,
)
from .homomesy import (
    AverageReport,
    ConjectureReport,
    OccurrenceTable,
    Witness,
    check_conjecture_antichains,
    check_conjecture_ideals,
    check_conjectures,
    occurrence_counts,
    orbit_reports,
    verify_constant_average,
)
from .poset import (
    DEFAULT_CAP,
    AntichainSet,
    CapExceeded,
    IdealSet,
    InvalidSubset,
    NotGraded,
    OrbitReport,
    Poset,
    all_orbits,
    antichain_of_ideal,
    enumerate_ideals,
    ideal_of_antichain,
    operator_order,
    orbit_of,
    rowmotion_antichain,
    rowmotion_ideal,
)
from .roots import RootLayer, RootSystem, cartan_matrix, layer, root_system
from .words import (
    MarkedSequence,
    SizeProfile,
    count_10,
    decode_grid,
    decode_K_fullrank,
    decode_K_starred,
    dual_ideal,
    encode_grid,
    encode_K_fullrank,
    encode_K_starred,
    epsilon_n,
    is_full_rank,
    long_sequences,
    long_zero_sequence_K,
    p_pattern,
    parse_blocks,
    plain_to_starred,
    psi,
    psi_bar,
    psi_bar_iterates,
    psi_iterates,
    size_by_formula,
    size_profile,
    starred_to_plain,
    validate_starred,
    window_sizes_K,
    zigzag,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
