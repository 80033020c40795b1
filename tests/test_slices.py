"""The slices built on numbered bases equal a reference that walks labels.

Bar, cobar and Koszul slices read their differentials from the
structure-constant tables of _Numbering, and conftest keeps the builder
that read the stored maps label by label (tensor_many words,
from_basis_action, apply_label).  Every slice below must equal
its reference matrix for matrix, block for block and in basis order.

The Koszul sweep that decides a verdict and the bar and cobar slices whose
Betti tables cross-check it read the same tables.  A fault in a table
would reach both alike and the criteria would still agree, so this
comparison, and not the agreement of the criteria, is what guards the
cross-check against a table fault.
"""

import random

import pytest

from koszulity.bimodule import BaseRing, Bimodule, unit_bimodule
from koszulity.duality import graded_left_dual_of_ring
from koszulity.exact_linalg import RATIONALS, FieldSpec
from koszulity.graded_structures import (GradedRing, is_strongly_graded_ring,
                                         is_strongly_graded_coring)
from koszulity.homology import bar_complex_ring, cobar_complex_coring
from koszulity.koszul import (koszul_complex_left, koszul_complex_right,
                              make_pair_shriek_ring, make_pair_shriek_coring)
from koszulity.poset import enumerate_corpus, incidence_ring, incidence_coring
from conftest import (grid_poset, random_quiver_ring, reference_bar,
                      reference_cobar, reference_koszul_left,
                      reference_koszul_right)

F2, F3 = FieldSpec.prime_field(2), FieldSpec.prime_field(3)


def assert_same_slice(got, want):
    'Equal spaces and differentials, with blocks and labels in one order.'
    assert (got.direction, got.weight) == (want.direction, want.weight)
    assert list(got.spaces) == list(want.spaces)
    for n, space in want.spaces.items():
        assert list(got.spaces[n].blocks.items()) == \
            list(space.blocks.items()), (want, n)
    assert sorted(got.differentials) == sorted(want.differentials), want
    for n, d in want.differentials.items():
        mine = got.differentials[n]
        assert (mine.source, mine.target) == (d.source, d.target)
        assert list(mine.blocks) == list(d.blocks), (want, n)
        for key, mat in d.blocks.items():
            assert mine.blocks[key] == mat, (want, n, key)


def assert_slices_match_reference(A, C) -> int:
    """Compare the bar slices of the ring A and the cobar slices of the
    coring C at weights 0..2 top + 1, and the left and right Koszul slices
    of the decision pairs of each strongly graded one, up to one weight
    past the sum of the two top degrees.  Returns the number of slices."""
    slices = 0
    for X, build, reference in ((A, bar_complex_ring, reference_bar),
                                (C, cobar_complex_coring, reference_cobar)):
        for m in range(2 * X.top_degree + 2):
            assert_same_slice(build(X, m), reference(X, m))
            slices += 1
    pairs = []
    if is_strongly_graded_ring(A)[0]:
        pairs.append(make_pair_shriek_ring(A))
    if is_strongly_graded_coring(C)[0]:
        pairs.append(make_pair_shriek_coring(C))
    for pair in pairs:
        for m in range(pair.ring.top_degree + pair.coring.top_degree + 2):
            assert_same_slice(koszul_complex_left(pair, m),
                              reference_koszul_left(pair, m))
            assert_same_slice(koszul_complex_right(pair, m),
                              reference_koszul_right(pair, m))
            slices += 2
    return slices


def one_idempotent_rings():
    """The rings of the cyclic and gapped word tests: a degree-1 loop, and
    A^1 = 0 with A^2 = k b, on one idempotent."""
    base = BaseRing(('x',), RATIONALS)
    yield GradedRing(base, {0: unit_bimodule(base),
                            1: Bimodule(base, {('x', 'x'): ('a',)})}, {}, 1)
    yield GradedRing(base, {0: unit_bimodule(base),
                            2: Bimodule(base, {('x', 'x'): ('b',)})}, {}, 2)


def test_corpus_slices_match_reference():
    posets = list(enumerate_corpus(5))
    assert len(posets) == 86
    assert sum(assert_slices_match_reference(incidence_ring(P),
                                             incidence_coring(P))
               for P in posets) > 2000


@pytest.mark.parametrize('field', [RATIONALS, F2], ids=['Q', 'F2'])
def test_rp2_slices_match_reference(field, rp2):
    assert assert_slices_match_reference(incidence_ring(rp2, field),
                                         incidence_coring(rp2, field))


def test_p_bad_and_grid_slices_match_reference(p_bad):
    for P in (p_bad, grid_poset(4, 5)):
        assert assert_slices_match_reference(incidence_ring(P),
                                             incidence_coring(P))


def test_one_idempotent_slices_match_reference():
    for A in one_idempotent_rings():
        assert assert_slices_match_reference(A, graded_left_dual_of_ring(A))


@pytest.mark.parametrize('field', [RATIONALS, F2, F3], ids=['Q', 'F2', 'F3'])
def test_quiver_ring_slices_match_reference(field):
    # products of two letters of these rings are sums of several words
    rng = random.Random(47)
    several = 0
    for _ in range(10):
        A = random_quiver_ring(rng, field)
        several += any(len(terms) > 1
                       for terms in A._numbering.table.values())
        assert assert_slices_match_reference(A, graded_left_dual_of_ring(A))
    assert several
