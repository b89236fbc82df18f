from types import ModuleType

import stcores

# Every public name the package exported before its submodules were dropped
# from __all__.
PUBLIC = """
AlcoveKey BetaSet Box ContainmentChain DomainError Hyperplane OrbitDescentTrace
Partition RimHook SPoint SSet alcove_key alpha anderson_count apply_word
beta_set boxes_of_residue brute_core chi_gen chi_on_core chi_on_sset
containment_chain contains core core_from_s_set count_st_cores
descend_to_t_core enumerate_st_cores fold_to_dominant hook_lengths
hyperplane_meets_rhomboid in_rhomboid is_s_core is_s_core_by_hooks kappa
lemma53_check level_orbit_up_to_size make_sset origin partition_from_beta_set
partitions_of partitions_up_to psi_gen q_set reflect reflect_hyperplane
removable_rim_hooks remove_rim_hook residue_multiset rhomboid_points rim
same_level_t_orbit separating_hyperplanes side_of simplex_vertices size
size_from_s_set tip toggle_residue
""".split()


def test_all_lists_no_modules():
    assert not [name for name in stcores.__all__ if isinstance(getattr(stcores, name), ModuleType)]


def test_all_keeps_every_public_name():
    assert set(PUBLIC) <= set(stcores.__all__)
    assert all(hasattr(stcores, name) for name in stcores.__all__)
