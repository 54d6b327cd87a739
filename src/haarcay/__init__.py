"""Haar / bi-Cayley graph toolkit: small finite groups as multiplication
tables, graph construction, automorphism search with certificates, and the
group-ring calculus behind transitivity modules."""

from .automorphisms import (
    AutResult,
    Certificate,
    are_isomorphic,
    automorphism_group,
    cayley_status,
    is_vertex_transitive,
    regular_subgroup_search,
)
from .bicayley import (
    BiCayleyHints,
    PartFixMap,
    PartSwapMap,
    cayley_certificate_from_swaps,
    normalizer_structure,
    part_fix_maps,
    part_swap_maps,
    vt_certificate,
)
from .cases import (
    CASE_INDEX,
    CATALOG,
    CaseSpec,
    ObstructionReport,
    check_quotient_obstruction,
    constructor_catalog,
    enumerate_haar,
    inner_abelian_scan,
    reproduce,
    reproduce_all,
)
from .graphs import (
    BipartiteLabeling,
    Graph,
    bicayley_graph,
    cayley_graph,
    components,
    haar_graph,
    is_connected,
    lex_product,
    read_edge_list,
    write_edge_list,
)
from .groupring import (
    TransitivityModule,
    convolve,
    indicator,
    inverse_vector,
    is_block_of_imprimitivity,
    level_set,
    module_law_suite,
    schur_product,
    subgroup_indicator,
    transitivity_module,
)
from .groups import (
    GroupConstructionError,
    GroupTable,
    connection_set,
    cyclic_group,
    dihedral_group,
    direct_product,
    evaluate_word,
    group_automorphisms,
    group_from_name,
    group_from_spec,
    group_isomorphism,
    inner_automorphism,
    is_inner_abelian,
    miller_moreno_group,
    mp1_group,
    mp_group,
    presented_group,
    quaternion_group,
    quotient,
    subgroup_generated,
)
from .perms import BudgetExceeded, PermGroup

__all__ = [name for name in dir() if not name.startswith("_")]
