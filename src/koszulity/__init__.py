"""Exact-arithmetic Koszulity checker for incidence rings of graded posets,
and more generally for finitely supported connected graded rings and
corings over a split semisimple base.

The public names resolve on first access (PEP 562): importing the package,
or koszulity.cli, loads no algebra module, and ``from koszulity import X``
loads the submodule that defines X.
"""

import importlib

_EXPORTS = {
    'errors': ('KoszulityError', 'InputError', 'StructureError',
               'PreconditionError', 'CriteriaDisagreement', 'InvariantError'),
    'exact_linalg': ('FieldSpec', 'RATIONALS', 'SparseMatrix', 'Subspace'),
    'bimodule': ('BaseRing', 'Bimodule', 'BimoduleMap', 'tensor',
                 'unit_bimodule', 'zero_bimodule', 'left_dual', 'dual_label'),
    'graded_structures': ('GradedRing', 'GradedCoring',
                          'shriek_of_ring', 'shriek_of_coring',
                          'is_strongly_graded_ring',
                          'is_strongly_graded_coring'),
    'homology': ('ComplexSlice', 'BettiTable', 'SliceHomology',
                 'bar_complex_ring', 'cobar_complex_coring',
                 'tor_table', 'ext_table', 'tor_primitive_dims',
                 'ext_diagonal_products_surjective',
                 'is_quadratic_direct', 'is_quadratic_coring_direct'),
    'koszul': ('AlmostKoszulPair', 'KoszulVerdict',
               'make_pair_shriek_ring', 'make_pair_shriek_coring',
               'koszul_complex_left', 'koszul_complex_right', 'is_exact',
               'decide_koszul_ring', 'decide_koszul_coring'),
    'duality': ('graded_left_dual_of_ring', 'graded_left_dual_of_coring',
                'dual_pair', 'double_dual_check'),
    'poset': ('GradedPoset', 'parse_poset', 'incidence_ring',
              'incidence_coring', 'zeta_ring', 'incidence_duality_check',
              'canonical_form', 'enumerate_corpus'),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}
__all__ = list(_MODULE_OF)
__version__ = '0.1.0'


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f'module {__name__!r} has no attribute {name!r}')
    return getattr(importlib.import_module(f'.{module}', __name__), name)


def __dir__():
    return list(__all__)
