"""Graded rings and corings: structure checks, quadratic and shriek
constructions, products and truncations, all against the brute oracle."""

from fractions import Fraction

import pytest

from koszulity.exact_linalg import RATIONALS, FieldSpec, Subspace
from koszulity.bimodule import (BaseRing, Bimodule, BimoduleMap, SubBimodule,
                                UNIT_LABEL, tensor, tensor_power,
                                unit_bimodule, kernel_sub, image_sub)
from koszulity.graded_structures import (GradedRing, GradedCoring,
                                         QuadraticData, quadratic_ring_of,
                                         quadratic_coring_of, shriek_of_ring,
                                         shriek_of_coring,
                                         is_strongly_graded_ring,
                                         is_strongly_graded_coring,
                                         primitive_dims, indecomposable_dims,
                                         truncate_ring, truncate_coring,
                                         direct_product, direct_sum_corings,
                                         left_unit_map, left_unit_section,
                                         right_unit_map, right_unit_section)
from koszulity.errors import StructureError
from koszulity.poset import (GradedPoset, incidence_ring, incidence_coring,
                             zeta_ring)
from conftest import chain_poset, antichain_poset
import oracle


def diamond_ring(field=RATIONALS):
    return incidence_ring(GradedPoset(
        ['0', 'a', 'b', '1'],
        [('0', 'a'), ('0', 'b'), ('a', '1'), ('b', '1')]), field)


def test_incidence_ring_dims(diamond, p_bad):
    A = incidence_ring(diamond)
    assert A.dims() == [4, 4, 1]
    B = incidence_ring(p_bad)
    assert B.dims() == [6, 6, 4, 1]


def test_not_connected_rejected():
    base = BaseRing(('x',), RATIONALS)
    with pytest.raises(StructureError):
        GradedRing(base, {0: Bimodule(base, {('x', 'x'): ('g', 'h')})}, {}, 0)


def test_associativity_enforced():
    # one idempotent, A^1 = <v>, A^2 = <w>, A^3 = <z>; make
    # (vv)v and v(vv) disagree by a sign
    base = BaseRing(('x',), RATIONALS)
    R = unit_bimodule(base)
    A1 = Bimodule(base, {('x', 'x'): ('v',)})
    A2 = Bimodule(base, {('x', 'x'): ('w',)})
    A3 = Bimodule(base, {('x', 'x'): ('z',)})
    comps = {0: R, 1: A1, 2: A2, 3: A3}
    mu11 = BimoduleMap.from_basis_action(
        tensor(A1, A1), A2, lambda key, l: [('w', 1)])
    mu12 = BimoduleMap.from_basis_action(
        tensor(A1, A2), A3, lambda key, l: [('z', 1)])
    mu21 = BimoduleMap.from_basis_action(
        tensor(A2, A1), A3, lambda key, l: [('z', -1)])
    with pytest.raises(StructureError):
        GradedRing(base, comps, {(1, 1): mu11, (1, 2): mu12, (2, 1): mu21}, 3)
    # flipping the sign repairs it
    mu21_ok = mu21.scale(-1)
    GradedRing(base, comps, {(1, 1): mu11, (1, 2): mu12, (2, 1): mu21_ok}, 3)


def test_mu_unit_degrees(diamond):
    A = incidence_ring(diamond)
    lu = A.mu(0, 1)
    assert lu.source == tensor(unit_bimodule(A.base), A.component(1))
    assert lu.apply_label(('0', 'a'), (UNIT_LABEL, ('e', '0', 'a'))) == \
        [(('e', '0', 'a'), Fraction(1))]
    ru = A.mu(1, 0)
    assert ru.apply_label(('0', 'a'), (('e', '0', 'a'), UNIT_LABEL)) == \
        [(('e', '0', 'a'), Fraction(1))]


def test_unit_sections_invert_unit_maps(diamond):
    A = incidence_ring(diamond)
    V = A.component(1)
    ls = left_unit_section(A.base, V)
    lm = left_unit_map(A.base, V)
    assert lm.compose(ls) == BimoduleMap.identity(V)
    rs = right_unit_section(A.base, V)
    rm = right_unit_map(A.base, V)
    assert rm.compose(rs) == BimoduleMap.identity(V)


def test_delta_unit_degrees(diamond):
    C = incidence_coring(diamond)
    d01 = C.delta(0, 1)
    assert d01.apply_label(('0', 'a'), ('e', '0', 'a')) == \
        [((UNIT_LABEL, ('e', '0', 'a')), Fraction(1))]
    d10 = C.delta(1, 0)
    assert d10.apply_label(('0', 'a'), ('e', '0', 'a')) == \
        [((('e', '0', 'a'), UNIT_LABEL), Fraction(1))]


def test_mu_partition_matches_iterated(p_bad):
    A = incidence_ring(p_bad)
    mu3 = A.iterated_mu(3)
    assert mu3 == A.mu_partition((1, 1, 1))
    assert mu3.rank() == A.component(3).dim  # strongly graded in degree 3
    assert A.mu_partition((2, 1)).source == tensor(A.component(2),
                                                   A.component(1))


def test_incidence_structures_strongly_graded(diamond, p_bad, tail_diamond):
    for P in (diamond, p_bad, tail_diamond, chain_poset(4),
              antichain_poset(3)):
        ok, witness = is_strongly_graded_ring(incidence_ring(P))
        assert ok and witness is None
        ok, witness = is_strongly_graded_coring(incidence_coring(P))
        assert ok and witness is None


def test_strongly_graded_failure_witness():
    # A^2 has a basis vector nobody multiplies onto
    base = BaseRing(('x',), RATIONALS)
    A1 = Bimodule(base, {('x', 'x'): ('v',)})
    A2 = Bimodule(base, {('x', 'x'): ('w', 'stray')})
    mu11 = BimoduleMap.from_basis_action(
        tensor(A1, A1), A2, lambda key, l: [('w', 1)])
    A = GradedRing(base, {0: unit_bimodule(base), 1: A1, 2: A2},
                   {(1, 1): mu11}, 2)
    ok, witness = is_strongly_graded_ring(A)
    assert not ok
    assert witness['degree'] == 2
    assert witness['cokernel_label'] == 'stray'


def test_primitive_and_indecomposable_dims(diamond, p_bad):
    C = incidence_coring(diamond)
    assert primitive_dims(C) == {1: 4, 2: 0}
    A = incidence_ring(p_bad)
    assert indecomposable_dims(A) == {1: 6, 2: 0, 3: 0}


def test_shriek_of_ring_against_oracle(diamond, p_bad, tail_diamond):
    for P, ref in ((diamond, oracle.DIAMOND), (p_bad, oracle.P_BAD),
                   (tail_diamond, None)):
        shr = shriek_of_ring(incidence_ring(P))
        assert not shr.support_truncated
        if ref is not None:
            for n in range(1, shr.top_degree + 1):
                paths, vecs = oracle.shriek_coring_basis(ref, n)
                assert shr.component(n).dim == len(vecs)


def test_shriek_diamond_dims(diamond):
    shr = shriek_of_ring(incidence_ring(diamond))
    assert shr.dims() == [4, 4, 1]
    # the degree-2 component is Ker mu^{1,1}: the single zeta relation
    assert shr.component(2).block_dim('0', '1') == 1


def test_shriek_pbad_stops_in_degree_two(p_bad):
    # Ker mu^{1,1} = 0 forces A^! to die above degree 1
    shr = shriek_of_ring(incidence_ring(p_bad))
    assert shr.dims() == [6, 6]
    assert kernel_sub(incidence_ring(p_bad).mu(1, 1)).dim == 0


def test_shriek_of_coring_matches_zeta(diamond, p_bad):
    # zeta_ring asserts equality with shriek_of_coring internally; check
    # the dims against the oracle too
    for P, ref in ((diamond, oracle.DIAMOND), (p_bad, oracle.P_BAD)):
        Z = zeta_ring(P)
        for n in range(Z.top_degree + 1):
            assert Z.component(n).dim == oracle.shriek_ring_dim(ref, n)


def test_shriek_zero_degree_one():
    A = incidence_ring(antichain_poset(4))
    shr = shriek_of_ring(A)
    assert shr.top_degree == 0
    assert not shr.support_truncated


def boolean_lattice(n):
    'B_n as the subsets of range(n), named by their sorted digits.'
    name = {s: ''.join(str(i) for i in range(n) if s >> i & 1) or 'e'
            for s in range(2 ** n)}
    return GradedPoset(list(name.values()),
                       [(name[s], name[s | 1 << i]) for s in range(2 ** n)
                        for i in range(n) if not s >> i & 1])


@pytest.mark.parametrize('side', ['ring', 'coring'])
def test_shriek_computes_each_component_once(monkeypatch, side):
    from koszulity import graded_structures as gs
    P = boolean_lattice(3)
    if side == 'ring':
        X = incidence_ring(P)
        W = kernel_sub(X.mu(1, 1))
        name, shriek, explicit = ('intersection_component', shriek_of_ring,
                                  quadratic_coring_of)
    else:
        X = incidence_coring(P)
        W = image_sub(X.delta(1, 1))
        name, shriek, explicit = ('ideal_component_span', shriek_of_coring,
                                  quadratic_ring_of)
    degrees = []
    original = getattr(gs, name)

    def counting(V, W, n):
        degrees.append(n)
        return original(V, W, n)

    monkeypatch.setattr(gs, name, counting)
    shr = shriek(X)
    assert shr.top_degree == 3 and not shr.support_truncated
    # the probe may stop at degree 4, where no word of V survives
    assert len(degrees) == len(set(degrees))
    assert {2, 3} <= set(degrees) <= {2, 3, 4}
    monkeypatch.undo()
    assert shr == explicit(QuadraticData(X.component(1), W), 3)


def test_quadratic_constructions_embed(diamond):
    A = incidence_ring(diamond)
    V = A.component(1)
    W = kernel_sub(A.mu(1, 1))
    coring = quadratic_coring_of(QuadraticData(V, W), 2)
    assert coring.embeddings[2].rank() == W.dim
    ring = quadratic_ring_of(QuadraticData(V, W), 2)
    assert ring.projections[2].rank() == ring.component(2).dim


def test_truncations(p_bad):
    A = incidence_ring(p_bad)
    T = truncate_ring(A, 3)
    assert T.dims() == [6, 6, 4]
    assert (1, 2) not in T.mult
    C = incidence_coring(p_bad)
    D = truncate_coring(C, 2)
    assert D.dims() == [6, 6]


def test_direct_product_and_sum(diamond):
    A = incidence_ring(diamond)
    B = incidence_ring(chain_poset(2))
    AB = direct_product(A, B)
    assert AB.dims() == [7, 6, 2]
    ok, _ = is_strongly_graded_ring(AB)
    assert ok
    C = incidence_coring(diamond)
    D = incidence_coring(chain_poset(2))
    CD = direct_sum_corings(C, D)
    assert CD.dims() == [7, 6, 2]
    with pytest.raises(StructureError):
        direct_product(A, A)  # idempotent collision


def test_prime_field_construction(diamond):
    A = incidence_ring(diamond, FieldSpec.prime_field(5))
    assert A.dims() == [4, 4, 1]
    shr = shriek_of_ring(A)
    assert shr.dims() == [4, 4, 1]


def test_ring_equality(diamond):
    assert incidence_ring(diamond) == incidence_ring(diamond)
    assert incidence_ring(diamond) != incidence_ring(chain_poset(2))
