"""Exact-arithmetic Koszulity checker for incidence rings of graded posets,
and more generally for finitely supported connected graded rings and
corings over a split semisimple base.
"""

from .errors import (KoszulityError, InputError, StructureError,
                     PreconditionError, CriteriaDisagreement, InvariantError)
from .exact_linalg import FieldSpec, RATIONALS, SparseMatrix, Subspace
from .bimodule import (BaseRing, Bimodule, BimoduleMap, SubBimodule,
                       tensor, tensor_many, tensor_power, tensor_map,
                       unit_bimodule, zero_bimodule, left_dual,
                       dual_label, dual_tensor_iso)
from .graded_structures import (GradedRing, GradedCoring, QuadraticData,
                                quadratic_ring_of, quadratic_coring_of,
                                shriek_of_ring, shriek_of_coring,
                                is_strongly_graded_ring,
                                is_strongly_graded_coring,
                                primitive_dims, indecomposable_dims,
                                truncate_ring, truncate_coring,
                                direct_product, direct_sum_corings)
from .homology import (partitions, ComplexSlice, BettiTable, SliceHomology,
                       bar_complex_ring, cobar_complex_coring,
                       tor_table, ext_table, tor_primitive_dims,
                       homology_coring_components,
                       cohomology_ring_component,
                       ext_diagonal_products_surjective,
                       quadratic_via_tor, quadratic_via_ext,
                       is_quadratic_direct, is_quadratic_coring_direct,
                       verify_tor2_sequence, verify_ext2_sequence,
                       alpha_map)
from .koszul import (AlmostKoszulPair, KoszulVerdict,
                     make_pair_shriek_ring, make_pair_shriek_coring,
                     koszul_complex_left, koszul_complex_right, is_exact,
                     decide_koszul_ring, decide_koszul_coring,
                     phi_shriek_ring_check, phi_shriek_coring_check,
                     pair_product)
from .duality import (dual_map, graded_left_dual_of_ring,
                      graded_left_dual_of_coring,
                      dual_pair, double_dual_check)
from .poset import (GradedPoset, parse_poset, incidence_ring,
                    incidence_coring, zeta_ring, incidence_duality_check,
                    disjoint_union, canonical_form, enumerate_corpus,
                    random_graded_poset)

__version__ = '0.1.0'
