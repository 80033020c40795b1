"""Graded duals: the relabeling isomorphism with the incidence coring,
dual pairs, double duals, and verdict agreement across the duality."""

import random
from fractions import Fraction

import pytest

from koszulity.exact_linalg import FieldSpec, RATIONALS
from koszulity.bimodule import (BaseRing, Bimodule, UNIT_LABEL, left_dual,
                                dual_label, tensor, unit_bimodule)
from koszulity.graded_structures import (GradedRing, GradedCoring, _Graded,
                                         shriek_of_ring, shriek_of_coring)
from koszulity.duality import (graded_left_dual_of_ring,
                               graded_left_dual_of_coring,
                               dual_pair, double_dual_check)
from koszulity.koszul import (make_pair_shriek_ring, koszul_complex_left,
                              koszul_complex_right, is_exact,
                              decide_koszul_ring, decide_koszul_coring)
from koszulity.poset import (incidence_ring, incidence_coring, zeta_ring,
                             incidence_duality_check, enumerate_corpus)
from conftest import (apply_label, chain_poset, antichain_poset, dual_map,
                      identity_map, relabeling, scaled_map, truncate_ring,
                      direct_product, direct_sum_corings, random_quiver_ring,
                      from_basis_action)


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
    col = dict(apply_label(D.delta(1, 1), ('0', '1'), ('f', '0', '1')))
    assert col == {(('f', '0', 'a'), ('f', 'a', '1')): Fraction(1),
                   (('f', '0', 'b'), ('f', 'b', '1')): Fraction(1)}


def test_dual_coring_convolution(diamond):
    D = graded_left_dual_of_coring(incidence_coring(diamond))
    m = D.mu(1, 1)
    hit = dict(apply_label(m, ('0', '1'),
                           (('f', '0', 'a'), ('f', 'a', '1'))))
    assert hit == {('f', '0', '1'): Fraction(1)}


def test_incidence_duality_fixtures(diamond, p_bad, tail_diamond):
    for P in (diamond, p_bad, tail_diamond, chain_poset(3),
              antichain_poset(3)):
        assert incidence_duality_check(incidence_ring(P),
                                       incidence_coring(P))


def test_incidence_duality_corpus():
    for P in enumerate_corpus(4):
        assert incidence_duality_check(incidence_ring(P), incidence_coring(P))


def test_incidence_duality_rejects_other_products_and_degrees(diamond):
    A = incidence_ring(diamond)
    C = incidence_coring(diamond)
    doubled = dict(A.maps)
    doubled[(1, 1)] = scaled_map(A.maps[(1, 1)], 2)
    scaled = GradedRing(A.base, A.components, doubled, A.top_degree)
    assert not incidence_duality_check(scaled, C)
    assert not incidence_duality_check(truncate_ring(A, 1), C)


def test_incidence_duality_builds_no_dual(monkeypatch, diamond, p_bad):
    from koszulity import duality, graded_structures
    built = []
    for module, name in ((duality, 'graded_left_dual_of_ring'),
                         (duality, 'graded_left_dual_of_coring'),
                         (duality, '_graded_left_dual'),
                         (graded_structures, '_graded_left_dual')):
        original = getattr(module, name)

        def counting(*args, name=name, original=original):
            built.append(name)
            return original(*args)

        monkeypatch.setattr(module, name, counting)
    for P in (diamond, p_bad):
        assert incidence_duality_check(incidence_ring(P), incidence_coring(P))
    assert built == []


def _reference_dual(X, structure_map, out_cls):
    """The graded dual built through the canonical isomorphism
    phi : ^*V (x) ^*W -> ^*(V (x) W) and its inverse psi, with the round
    trips checked: the dual of a product is psi after its transpose, the
    dual of a comultiplication its transpose after phi."""
    components = {n: left_dual(X.component(n))
                  for n in range(X.top_degree + 1)}
    maps = {}
    for p in range(1, X.top_degree):
        for q in range(1, X.top_degree - p + 1):
            if components[p].is_zero() or components[q].is_zero():
                continue
            V, W = X.component(p), X.component(q)
            phi = relabeling(
                tensor(left_dual(V), left_dual(W)), left_dual(tensor(V, W)),
                lambda l: dual_label((dual_label(l[0]), dual_label(l[1]))))
            psi = relabeling(
                phi.target, phi.source,
                lambda l: tuple(dual_label(x) for x in dual_label(l)))
            assert phi.compose(psi) == identity_map(phi.target)
            assert psi.compose(phi) == identity_map(phi.source)
            transposed = dual_map(structure_map(p, q))
            if out_cls is GradedCoring:
                f = psi.compose(transposed)
            else:
                f = transposed.compose(phi)
            if not f.is_zero():
                maps[(p, q)] = f
    D = out_cls(X.base, components, maps, X.top_degree)
    D.support_truncated = X.support_truncated
    return D


def _assert_duals_match_reference(A, C):
    for X in (A, shriek_of_coring(C)):
        D = graded_left_dual_of_ring(X)
        ref = _reference_dual(X, X.mu, GradedCoring)
        assert D == ref and D.support_truncated == ref.support_truncated
    for X in (C, shriek_of_ring(A)):
        D = graded_left_dual_of_coring(X)
        ref = _reference_dual(X, X.delta, GradedRing)
        assert D == ref and D.support_truncated == ref.support_truncated


@pytest.mark.parametrize('field', [RATIONALS, FieldSpec.prime_field(2),
                                   FieldSpec.prime_field(3)],
                         ids=['Q', 'F2', 'F3'])
def test_graded_duals_carry_their_check(field, rp2, monkeypatch):
    """A graded dual runs no _validate when it is built: its checks carry
    over from its source (_Graded._carried).  Every dual built here still
    passes _validate run by hand: the duals of the incidence rings and
    corings of the corpus up to 5 elements and of RP^2, of 10 seeded quiver
    rings, and of a loop ring on two letters, with the shriek corings of all
    these rings, the loop ring's cut at degree 2, and the duals of the
    truncated ones."""
    rings = [incidence_ring(P, field) for P in [*enumerate_corpus(5), rp2]]
    corings = [incidence_coring(P, field)
               for P in [*enumerate_corpus(5), rp2]]
    rng = random.Random(53)
    rings += [random_quiver_ring(rng, field) for _ in range(10)]
    base = BaseRing(('x',), field)
    rings.append(GradedRing(base, {0: unit_bimodule(base), 1: Bimodule(
        base, {('x', 'x'): ('p', 'q')})}, {}, 1))
    validated = []
    validate = _Graded._validate
    monkeypatch.setattr(_Graded, '_validate',
                        lambda self: validated.append(self) or validate(self))
    duals = [D for A in rings
             for D in (graded_left_dual_of_ring(A), shriek_of_ring(A))]
    duals += [graded_left_dual_of_coring(C) for C in corings]
    truncated = [D for D in duals if D.support_truncated]
    assert len(truncated) == 1 and truncated[0].dims() == [1, 2, 4]
    duals += [graded_left_dual_of_coring(D) for D in truncated]
    assert duals[-1].support_truncated
    assert not {id(D) for D in duals} & {id(X) for X in validated}
    for D in duals:
        validate(D)


def test_transposed_duals_match_the_isomorphism_construction(rp2, diamond):
    for P in enumerate_corpus(5):
        _assert_duals_match_reference(incidence_ring(P), incidence_coring(P))
    F2 = FieldSpec.prime_field(2)
    _assert_duals_match_reference(incidence_ring(rp2, F2),
                                  incidence_coring(rp2, F2))
    chain = chain_poset(3)   # idempotents disjoint from the diamond's
    _assert_duals_match_reference(
        direct_product(incidence_ring(diamond), incidence_ring(chain)),
        direct_sum_corings(incidence_coring(diamond), incidence_coring(chain)))


def test_double_dual_fixtures(diamond, p_bad, tail_diamond):
    for P in (diamond, p_bad, tail_diamond, chain_poset(4),
              antichain_poset(2)):
        assert double_dual_check(incidence_ring(P))
        assert double_dual_check(incidence_coring(P))
        assert double_dual_check(zeta_ring(P))
    with pytest.raises(TypeError):
        double_dual_check('not a graded structure')


def test_double_dual_keeps_starred_labels():
    # degree-1 labels that are already duals of an incidence symbol, of
    # the unit label or of a dual come back unchanged from the double dual
    base = BaseRing(('x', 'y', 'z'), RATIONALS)
    V = Bimodule(base, {('x', 'y'): (('*', ('e', 'x', 'y')),
                                     ('*', ('*', 'a'))),
                        ('y', 'z'): (('*', UNIT_LABEL),)})
    A2 = Bimodule(base, {('x', 'z'): ('p',)})
    mu = from_basis_action(tensor(V, V), A2,
                                       lambda key, l: [('p', 1)])
    A = GradedRing(base, {0: unit_bimodule(base), 1: V, 2: A2},
                   {(1, 1): mu}, 2)
    assert double_dual_check(A)
    assert double_dual_check(graded_left_dual_of_ring(A))
    # A^! is a double dual in degree 1, and shares A^1 with A
    assert make_pair_shriek_ring(A).coring.component(1) == V


def test_dual_pair_constructs_and_is_almost_koszul(diamond, p_bad):
    for P in (diamond, p_bad):
        pair = make_pair_shriek_ring(incidence_ring(P))
        dp = dual_pair(pair)   # the constructor re-runs the axioms
        assert dp.ring.dims() == pair.coring.dims()
        assert dp.coring.dims() == pair.ring.dims()
        assert dp.ring.component(1) == dp.coring.component(1) \
            == left_dual(pair.ring.component(1))


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
            assert D.component(n).blocks[key] == tuple(
                dual_label(l) for l in labels)
