"""Graded duals: the relabeling isomorphism with the incidence coring,
dual pairs, double duals, and verdict agreement across the duality."""

from fractions import Fraction

import pytest

from koszulity.bimodule import BimoduleMap, left_dual, dual_label, tensor
from koszulity.duality import (dual_map, graded_left_dual_of_ring,
                               graded_left_dual_of_coring,
                               dual_pair, double_dual_check)
from koszulity.koszul import (make_pair_shriek_ring, make_pair_shriek_coring,
                              koszul_complex_left, koszul_complex_right,
                              is_exact, decide_koszul_ring,
                              decide_koszul_coring)
from koszulity.poset import (incidence_ring, incidence_coring, zeta_ring,
                             incidence_duality_check, enumerate_corpus)
from conftest import chain_poset, antichain_poset


def test_dual_map_transposes_blockwise(diamond):
    A = incidence_ring(diamond)
    f = A.mu(1, 1)
    df = dual_map(f)
    assert df.source == left_dual(f.target)
    assert df.target == left_dual(f.source)
    assert set(df.blocks) == set(f.blocks)
    for key, mat in f.blocks.items():
        assert df.blocks[key] == mat.transpose()
    assert dual_map(df) == f


def test_dual_of_ring_is_coring_of_duals(diamond):
    D = graded_left_dual_of_ring(incidence_ring(diamond))
    C = incidence_coring(diamond)
    assert D.dims() == C.dims()
    # Delta on the dual of the long interval cuts over both middles
    col = dict(D.delta(1, 1).apply_label(('0', '1'), ('f', '0', '1')))
    assert col == {(('f', '0', 'a'), ('f', 'a', '1')): Fraction(1),
                   (('f', '0', 'b'), ('f', 'b', '1')): Fraction(1)}


def test_dual_coring_convolution(diamond):
    D = graded_left_dual_of_coring(incidence_coring(diamond))
    m = D.mu(1, 1)
    hit = dict(m.apply_label(('0', '1'), (('f', '0', 'a'), ('f', 'a', '1'))))
    assert hit == {('f', '0', '1'): Fraction(1)}


def test_incidence_duality_fixtures(diamond, p_bad, tail_diamond):
    for P in (diamond, p_bad, tail_diamond, chain_poset(3),
              antichain_poset(3)):
        assert incidence_duality_check(incidence_ring(P),
                                       incidence_coring(P))


def test_incidence_duality_corpus():
    for size in range(1, 5):
        for P in enumerate_corpus(size):
            assert incidence_duality_check(incidence_ring(P),
                                           incidence_coring(P))


def test_double_dual_fixtures(diamond, p_bad, tail_diamond):
    for P in (diamond, p_bad, tail_diamond, chain_poset(4),
              antichain_poset(2)):
        assert double_dual_check(incidence_ring(P))
        assert double_dual_check(incidence_coring(P))
        assert double_dual_check(zeta_ring(P))
    with pytest.raises(TypeError):
        double_dual_check('not a graded structure')


def test_dual_pair_constructs_and_is_almost_koszul(diamond, p_bad):
    for P in (diamond, p_bad):
        pair = make_pair_shriek_ring(incidence_ring(P))
        dp = dual_pair(pair)   # the constructor re-runs the axioms
        assert dp.ring.dims() == pair.coring.dims()
        assert dp.coring.dims() == pair.ring.dims()
        assert dual_map(dp.theta) == pair.theta


def test_dual_pair_slices_of_diamond_exact(diamond):
    dp = dual_pair(make_pair_shriek_ring(incidence_ring(diamond)))
    bound = dp.ring.top_degree + dp.coring.top_degree
    for m in range(1, bound + 1):
        ok, dims = is_exact(koszul_complex_left(dp, m))
        assert ok, (m, dims)


def test_dual_pair_mirrors_slice_exactness(diamond, p_bad, tail_diamond):
    # duality preserves exactness weight by weight; note it need not
    # preserve the standalone verdict of the ring component: the dual of
    # P_bad's shriek coring is a quadratic monomial ring that is Koszul in
    # its own right even though P_bad's incidence ring is not
    for P in (diamond, p_bad, tail_diamond):
        pair = make_pair_shriek_ring(incidence_ring(P))
        dp = dual_pair(pair)
        bound = pair.ring.top_degree + pair.coring.top_degree
        for m in range(1, bound + 1):
            assert is_exact(koszul_complex_left(dp, m))[0] == \
                is_exact(koszul_complex_left(pair, m))[0], m
            assert is_exact(koszul_complex_right(dp, m))[0] == \
                is_exact(koszul_complex_right(pair, m))[0], m


def test_ring_verdict_matches_dual_coring_verdict(diamond, p_bad):
    for P in (diamond, p_bad, chain_poset(2), antichain_poset(3)):
        A = incidence_ring(P)
        rv = decide_koszul_ring(A).verdict
        cv = decide_koszul_coring(graded_left_dual_of_ring(A)).verdict
        assert rv == cv


def test_dual_labels_on_components(diamond):
    A = incidence_ring(diamond)
    D = graded_left_dual_of_ring(A)
    for n in range(A.top_degree + 1):
        for key, labels in A.component(n).blocks.items():
            assert D.component(n).block(*key) == tuple(
                dual_label(l) for l in labels)
