"""Core partitions, abacus displays, alcove geometry and simultaneous cores."""

from types import ModuleType as _ModuleType

from .abacus import (
    BetaSet,
    SSet,
    beta_set,
    core,
    core_from_s_set,
    is_s_core,
    make_sset,
    partition_from_beta_set,
    q_set,
    size_from_s_set,
)
from .affine_actions import alpha, apply_word, chi_gen, chi_on_core, chi_on_sset, psi_gen
from .alcoves import (
    AlcoveKey,
    Hyperplane,
    SPoint,
    alcove_key,
    fold_to_dominant,
    hyperplane_meets_rhomboid,
    in_rhomboid,
    origin,
    reflect,
    reflect_hyperplane,
    rhomboid_points,
    separating_hyperplanes,
    side_of,
    simplex_vertices,
    tip,
)
from .errors import DomainError
from .orbits import (
    ContainmentChain,
    OrbitDescentTrace,
    anderson_count,
    containment_chain,
    count_st_cores,
    descend_to_t_core,
    enumerate_st_cores,
    kappa,
    lemma53_check,
    level_orbit_up_to_size,
    residue_multiset,
    same_level_t_orbit,
)
from .partitions import (
    Box,
    Partition,
    RimHook,
    boxes_of_residue,
    brute_core,
    contains,
    hook_lengths,
    is_s_core_by_hooks,
    partitions_of,
    partitions_up_to,
    remove_rim_hook,
    removable_rim_hooks,
    rim,
    size,
    toggle_residue,
)

# The layer modules bind themselves here on import; they are not API.
__all__ = [
    name
    for name in dir()
    if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)
]
