"""The structures filled in as numbered tables equal the references of
conftest that build their structure maps label by label.

incidence_ring and incidence_coring fill their tables from the intervals
of the poset, the shriek partners from the ideal walk on words of ids,
and a graded dual takes its source's ids and transposed table.  Each must
equal its reference component for component, with the same labels in the
same blocks in the same order, and map for map, with the same top degree
and truncation flag; the tables must hold the same entries on the same
ids, and the graded duals of the references must match too.
"""

import random

import pytest

from koszulity import bimodule, graded_structures, koszul
from koszulity.bimodule import BaseRing, Bimodule, unit_bimodule
from koszulity.duality import (double_dual_check, graded_left_dual_of_coring,
                               graded_left_dual_of_ring)
from koszulity.errors import StructureError
from koszulity.exact_linalg import RATIONALS, FieldSpec
from koszulity.graded_structures import (GradedCoring, GradedRing, _entries,
                                         shriek_of_coring, shriek_of_ring)
from koszulity.homology import is_quadratic_coring_direct, is_quadratic_direct
from koszulity.poset import (enumerate_corpus, incidence_coring,
                             incidence_duality_check, incidence_ring)
from conftest import (boolean_lattice, grid_poset, random_quiver_ring,
                      reference_incidence, reference_graded_left_dual,
                      reference_shriek_of_coring, reference_shriek_of_ring)

F2, F3 = FieldSpec.prime_field(2), FieldSpec.prime_field(3)


def assert_same_structure(X, ref):
    assert type(X) is type(ref)
    assert (X.top_degree, X.support_truncated) == (ref.top_degree,
                                                   ref.support_truncated)
    for n in range(ref.top_degree + 1):
        assert (list(X.component(n).blocks.items())
                == list(ref.component(n).blocks.items())), n
    assert X.maps.keys() == ref.maps.keys()
    for pq, f in ref.maps.items():
        assert X.maps[pq] == f, pq
    num, ref_num = X._numbering, ref._numbering
    assert (num.labels, num.degree, num.start, num.end) == (
        ref_num.labels, ref_num.degree, ref_num.start, ref_num.end)
    assert _entries(num.table) == _entries(ref_num.table)
    assert X == ref


def assert_duals_match(X, ref):
    'The graded duals of X and of its reference agree, and so do those.'
    dual, ref_dual = ((graded_left_dual_of_ring(X), GradedCoring)
                      if isinstance(X, GradedRing)
                      else (graded_left_dual_of_coring(X), GradedRing))
    assert_same_structure(dual, reference_graded_left_dual(ref, ref_dual))


def assert_incidence_matches(P, field):
    """Both incidence structures of P and their shriek partners, and the
    graded duals of all four, against the references."""
    A, C = incidence_ring(P, field), incidence_coring(P, field)
    ref_A = reference_incidence(P, field, GradedRing)
    ref_C = reference_incidence(P, field, GradedCoring)
    assert_same_structure(A, ref_A)
    assert_same_structure(C, ref_C)
    for X, ref in ((shriek_of_ring(A), reference_shriek_of_ring(ref_A)),
                   (shriek_of_coring(C), reference_shriek_of_coring(ref_C)),
                   (A, ref_A), (C, ref_C)):
        assert_same_structure(X, ref)
        assert_duals_match(X, ref)


@pytest.mark.parametrize('field', [RATIONALS, F2], ids=['Q', 'F2'])
def test_corpus_tables_match_reference(field):
    posets = list(enumerate_corpus(5))
    assert len(posets) == 86
    for P in posets:
        assert_incidence_matches(P, field)


@pytest.mark.parametrize('field', [RATIONALS, F2], ids=['Q', 'F2'])
def test_rp2_tables_match_reference(field, rp2):
    assert_incidence_matches(rp2, field)


def test_p_bad_and_grid_tables_match_reference(p_bad):
    for P in (p_bad, grid_poset(4, 5)):
        assert_incidence_matches(P, RATIONALS)


def one_idempotent_structures():
    """The loop ring and coring, V = {a} in block (x, x), whose partners
    are cut at degree 2, and the gapped ring, A^1 = 0 with A^2 = k b."""
    base = BaseRing(('x',), RATIONALS)
    loop = {0: unit_bimodule(base), 1: Bimodule(base, {('x', 'x'): ('a',)})}
    yield GradedRing(base, loop, {}, 1)
    yield GradedCoring(base, loop, {}, 1)
    yield GradedRing(base, {0: unit_bimodule(base),
                            2: Bimodule(base, {('x', 'x'): ('b',)})}, {}, 2)


def test_one_idempotent_partners_match_reference():
    truncated = 0
    for X in one_idempotent_structures():
        if isinstance(X, GradedRing):
            shriek, ref = shriek_of_ring(X), reference_shriek_of_ring(X)
        else:
            shriek, ref = shriek_of_coring(X), reference_shriek_of_coring(X)
        assert_same_structure(shriek, ref)
        assert_duals_match(shriek, ref)
        truncated += shriek.support_truncated
    assert truncated == 2


@pytest.mark.parametrize('field', [RATIONALS, F2, F3], ids=['Q', 'F2', 'F3'])
def test_quiver_ring_partners_match_reference(field):
    # relations that mix words: a lead reduces to several words
    rng = random.Random(71)
    several = 0
    for _ in range(10):
        A = random_quiver_ring(rng, field)
        C = graded_left_dual_of_ring(A)
        assert_duals_match(A, A)
        for X, ref in ((shriek_of_ring(A), reference_shriek_of_ring(A)),
                       (shriek_of_coring(C), reference_shriek_of_coring(C))):
            assert_same_structure(X, ref)
            assert_duals_match(X, ref)
            several += any(len(terms) > 1
                           for terms in X._numbering.table.values())
    assert several


def test_table_builders_walk_no_labels(monkeypatch, rp2):
    # the incidence structures, both partners, the graded duals, strong
    # grading, the direct quadraticity tests and the duality checks read
    # and fill numbered tables: none takes a tensor product, builds a
    # BimoduleMap or looks a label up
    def refuse(*args, **kwargs):
        raise AssertionError('label walk')

    for owner in (bimodule, graded_structures, koszul):
        monkeypatch.setattr(owner, 'tensor', refuse, raising=False)
    for owner, name in ((bimodule.Bimodule, 'index_of'),
                        (bimodule.Bimodule, 'indices'),
                        (bimodule.BimoduleMap, '__init__')):
        monkeypatch.setattr(owner, name, refuse)
    for field in (RATIONALS, F2):
        A, C = incidence_ring(rp2, field), incidence_coring(rp2, field)
        assert shriek_of_ring(A).dims() == shriek_of_coring(C).dims()
        assert is_quadratic_direct(A)[0] and is_quadratic_coring_direct(C)[0]
        assert incidence_duality_check(A, C)
        assert double_dual_check(A) and double_dual_check(C)


def test_table_entries_keep_degrees_and_blocks():
    A = incidence_ring(boolean_lattice(3))
    num, table = A._numbering, A._numbering.table
    (a, b), [(c, v)] = next(iter(table.items()))
    # a product into the wrong block, of the wrong degree, and of a pair
    # that does not compose
    other = next(x for x in num.of_degree[2] if num.start[x] != num.start[c])
    apart = next(x for x in num.of_degree[1] if num.start[x] != num.end[a])
    for key, term in (((a, b), other), ((a, b), a), ((a, apart), c)):
        bad = {**table, key: [(term, v)]}
        with pytest.raises(StructureError, match='term outside its ends'):
            GradedRing._from_table(A.base, A.components, A.top_degree,
                                   lambda num, bad=bad: bad)
    assert GradedRing._from_table(A.base, A.components, A.top_degree,
                                  lambda num: table) == A
