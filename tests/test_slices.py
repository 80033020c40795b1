"""The slices built on numbered bases equal a reference that walks labels.

Bar, cobar and Koszul slices read their differentials from the
structure-constant tables of _Numbering, and conftest keeps the builder
that read the stored maps label by label (tensor_many words,
from_basis_action, apply_label).  Every slice below must equal
its reference matrix for matrix, block for block and in basis order, once
each of its basis words is spelled in the labels of the reference: a bar
or cobar word by the degrees and labels of its ids, a Koszul id pair as
(ring label, coring label).

The Koszul sweep that decides a verdict and the bar and cobar slices whose
Betti tables cross-check it read the same tables.  A fault in a table
would reach both alike and the criteria would still agree, so this
comparison, and not the agreement of the criteria, is what guards the
cross-check against a table fault.
"""

import random
from functools import partial

import pytest

from koszulity import bimodule, graded_structures, homology, koszul
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
                      reference_koszul_right, spell_pair, spell_word,
                      spelled, spelled_map_equals)

F2, F3 = FieldSpec.prime_field(2), FieldSpec.prime_field(3)


def assert_same_slice(got, want, spell):
    """Equal spaces and differentials, with blocks and labels in one order,
    once the words of got are spelled by spell."""
    assert (got.direction, got.weight) == (want.direction, want.weight)
    assert list(got.spaces) == list(want.spaces)
    for n, space in want.spaces.items():
        assert spelled(got.spaces[n], spell) == \
            list(space.blocks.items()), (want, n)
    assert sorted(got.differentials) == sorted(want.differentials), want
    for n, d in want.differentials.items():
        mine = got.differentials[n]
        assert spelled_map_equals(mine, d, spell), (want, n)
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
            assert_same_slice(build(X, m), reference(X, m),
                              partial(spell_word, X))
            slices += 1
    pairs = []
    if is_strongly_graded_ring(A)[0]:
        pairs.append(make_pair_shriek_ring(A))
    if is_strongly_graded_coring(C)[0]:
        pairs.append(make_pair_shriek_coring(C))
    for pair in pairs:
        spell = partial(spell_pair, pair)
        for m in range(pair.ring.top_degree + pair.coring.top_degree + 2):
            assert_same_slice(koszul_complex_left(pair, m),
                              reference_koszul_left(pair, m), spell)
            assert_same_slice(koszul_complex_right(pair, m),
                              reference_koszul_right(pair, m), spell)
            slices += 2
    return slices


def test_slices_walk_no_labels(monkeypatch, rp2):
    # every bar, cobar and Koszul slice is assembled on id words and ranked
    # on its matrices: none takes a tensor product or looks a label up (the
    # pairs are made first: their check of mu(1, 1) Delta(1, 1) = 0 does)
    def refuse(*args, **kwargs):
        raise AssertionError('label walk')

    sides = []
    for field in (RATIONALS, F2):
        A, C = incidence_ring(rp2, field), incidence_coring(rp2, field)
        sides.append((A, C, make_pair_shriek_ring(A),
                      make_pair_shriek_coring(C)))
    for owner in (bimodule, graded_structures, homology, koszul):
        monkeypatch.setattr(owner, 'tensor', refuse, raising=False)
    for name in ('index_of', 'indices'):
        monkeypatch.setattr(Bimodule, name, refuse)
    for A, C, *pairs in sides:
        slices = [build(X, m)
                  for X, build in ((A, bar_complex_ring),
                                   (C, cobar_complex_coring))
                  for m in range(2 * X.top_degree + 2)]
        for pair in pairs:
            for m in range(pair.ring.top_degree + pair.coring.top_degree + 2):
                slices += [koszul_complex_left(pair, m),
                           koszul_complex_right(pair, m)]
        homology_dims = [cx.homology_dims() for cx in slices]
        assert sum(cx.total_dim() for cx in slices) and any(
            any(dims.values()) for dims in homology_dims)


def test_negative_weight_is_refused(diamond):
    A, C = incidence_ring(diamond), incidence_coring(diamond)
    pair = make_pair_shriek_ring(A)
    for build, X in ((bar_complex_ring, A), (cobar_complex_coring, C),
                     (koszul_complex_left, pair),
                     (koszul_complex_right, pair)):
        with pytest.raises(ValueError, match='negative weight -1'):
            build(X, -1)


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
