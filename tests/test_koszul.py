"""Koszul pairs, complex slices, and the cross-checked decision."""

from functools import partial

import pytest

from koszulity.exact_linalg import RATIONALS, FieldSpec
from koszulity.bimodule import (BaseRing, Bimodule, UNIT_LABEL, tensor,
                                unit_bimodule)
from koszulity.duality import graded_left_dual_of_ring
from koszulity.graded_structures import (GradedRing, GradedCoring,
                                         shriek_of_ring)
from koszulity.koszul import (AlmostKoszulPair, make_pair_shriek_ring,
                              make_pair_shriek_coring, koszul_complex_left,
                              koszul_complex_right, is_exact,
                              decide_koszul_ring, decide_koszul_coring,
                              RING_CRITERION_KINDS, CORING_CRITERION_KINDS,
                              _check_agreement)
from koszulity.homology import (is_quadratic_direct,
                                is_quadratic_coring_direct)
from koszulity.poset import GradedPoset, incidence_ring, incidence_coring
from koszulity.errors import (StructureError, PreconditionError,
                              CriteriaDisagreement)
from conftest import (chain_poset, antichain_poset, direct_product,
                      P_BAD_COVERS, QuadraticData, quadratic_ring_of,
                      SubBimodule, from_basis_action, from_spanning,
                      spell_pair, spelled_map_equals)
import oracle


def renamed_p_bad():
    'p_bad with primed element names, for products with the diamond.'
    ren = {x: x + "'" for x in ('0', 'a', 'b', 'c', 'd', '1')}
    return GradedPoset(list(ren.values()),
                       [(ren[a], ren[b]) for a, b in P_BAD_COVERS])


def test_pair_rejects_base_mismatch(diamond):
    A = incidence_ring(diamond)
    B = incidence_ring(chain_poset(1))
    with pytest.raises(StructureError, match='different bases'):
        AlmostKoszulPair(A, shriek_of_ring(B))


def test_pair_rejects_different_degree_one_parts(diamond):
    # the graded dual of A is a coring on the letters ('f', x, y), while
    # A^1 has the letters ('e', x, y)
    A = incidence_ring(diamond)
    with pytest.raises(StructureError, match='degree-1'):
        AlmostKoszulPair(A, graded_left_dual_of_ring(A))


def test_pair_rejects_nonzero_square(diamond):
    # the incidence coring shares A^1 with the incidence ring, but it is not
    # a Koszul partner: mu(1, 1) Delta(1, 1)(e_{0,1}) = 2 e_{0,1}
    A = incidence_ring(diamond)
    C = incidence_coring(diamond)
    assert A.component(1) == C.component(1)
    with pytest.raises(StructureError, match='not zero'):
        AlmostKoszulPair(A, C)


def test_make_pair_requires_strongly_graded():
    base = BaseRing(('x',), RATIONALS)
    A1 = Bimodule(base, {('x', 'x'): ('v',)})
    A2 = Bimodule(base, {('x', 'x'): ('w',)})
    lonely = GradedRing(base, {0: unit_bimodule(base), 1: A1, 2: A2},
                        {}, 2)   # nothing multiplies onto A^2
    with pytest.raises(PreconditionError):
        make_pair_shriek_ring(lonely)
    # a failed check is not remembered: every entry point raises again
    with pytest.raises(PreconditionError):
        is_quadratic_direct(lonely)
    all_primitive = GradedCoring(base, {0: unit_bimodule(base), 1: A1,
                                        2: A2}, {}, 2)   # nothing comultiplies
    for entry in (make_pair_shriek_coring, is_quadratic_coring_direct):
        with pytest.raises(PreconditionError):
            entry(all_primitive)


def test_one_decision_checks_strong_grading_once(monkeypatch, diamond):
    from koszulity import homology
    calls = []
    for name in ('is_strongly_graded_ring', 'is_strongly_graded_coring'):
        original = getattr(homology, name)
        monkeypatch.setattr(homology, name,
                            lambda X, original=original, name=name:
                            calls.append(name) or original(X))
    assert decide_koszul_ring(incidence_ring(diamond)).verdict
    assert decide_koszul_coring(incidence_coring(diamond)).verdict
    assert calls == ['is_strongly_graded_ring', 'is_strongly_graded_coring']


def test_left_complex_matches_oracle(diamond, p_bad):
    # the package slice carries the augmentation (degree -1 holds R at
    # weight 0), the oracle does not; at m = 0 augmented exactness is the
    # same statement as the oracle's H_0 = dim R
    for P, ref in ((diamond, oracle.DIAMOND), (p_bad, oracle.P_BAD)):
        pair = make_pair_shriek_ring(incidence_ring(P))
        ok0, _ = is_exact(koszul_complex_left(pair, 0))
        assert ok0
        assert oracle.koszul_left_homology(ref, 0) == {0: len(P.elements)}
        bound = pair.ring.top_degree + pair.coring.top_degree
        for m in range(1, bound + 1):
            got = {n: d for n, d in
                   koszul_complex_left(pair, m).homology_dims().items() if d}
            want = {n: d for n, d in
                    oracle.koszul_left_homology(ref, m).items() if d}
            assert got == want, (m, got, want)


def test_diamond_slices_exact(diamond):
    pair = make_pair_shriek_ring(incidence_ring(diamond))
    for m in range(1, 5):
        ok, dims = is_exact(koszul_complex_left(pair, m))
        assert ok, (m, dims)
        ok, dims = is_exact(koszul_complex_right(
            make_pair_shriek_coring(incidence_coring(diamond)), m))
        assert ok, (m, dims)


def test_pbad_fails_exactly_at_weight_three(p_bad):
    pair = make_pair_shriek_ring(incidence_ring(p_bad))
    failing = {}
    for m in range(1, 7):
        ok, dims = is_exact(koszul_complex_left(pair, m))
        if not ok:
            failing[m] = {n: d for n, d in dims.items() if d}
    assert failing == {3: {1: 1}}


def test_weight_zero_slice_is_the_unit_resolution(diamond):
    pair = make_pair_shriek_ring(incidence_ring(diamond))
    cx = koszul_complex_left(pair, 0)
    assert cx.spaces[-1].dim == 4 and cx.spaces[0].dim == 4
    ok, _ = is_exact(cx)
    assert ok


def test_decide_diamond(diamond):
    v = decide_koszul_ring(incidence_ring(diamond))
    assert v.verdict is True
    assert v.sound is True
    assert v.m_bound_used == 4
    assert set(v.per_criterion) == set(RING_CRITERION_KINDS)
    assert all(ok for ok, _ in v.per_criterion.values())
    j = v.to_json()
    assert j['verdict'] is True
    assert [c['id'] for c in j['criteria']] == sorted(RING_CRITERION_KINDS)


def test_decide_pbad(p_bad):
    v = decide_koszul_ring(incidence_ring(p_bad))
    assert v.verdict is False
    assert v.sound is True
    ok, ev = v.per_criterion['pair_exactness']
    assert not ok and '3' in ev['failing_weights']
    ok, ev = v.per_criterion['tor_diagonal']
    assert not ok and ev['off_diagonal'] == [[2, 3, 1]]
    ok, ev = v.per_criterion['primitives_degree_one']
    assert not ok and ev['nonzero'] == [[2, 3, 1]]
    ok, ev = v.per_criterion['shriek_isomorphism']
    assert not ok
    ok, ev = v.per_criterion['quadraticity_consistent']
    assert ok and ev['direct'] is False

    cv = decide_koszul_coring(incidence_coring(p_bad))
    assert cv.verdict is False
    assert set(cv.per_criterion) == set(CORING_CRITERION_KINDS)
    ok, ev = cv.per_criterion['ext_strongly_graded']
    assert not ok and ev['off_diagonal'] == [[2, 3, 1]]


def test_decide_chains_and_antichains():
    for L in range(1, 6):
        assert decide_koszul_ring(incidence_ring(chain_poset(L))).verdict
        assert decide_koszul_coring(
            incidence_coring(chain_poset(L))).verdict
    for k in range(1, 6):
        v = decide_koszul_ring(incidence_ring(antichain_poset(k)))
        assert v.verdict and v.m_bound_used == 0


def test_check_agreement_guard():
    crit = {'pair_exactness': (True, {}), 'tor_diagonal': (False, {}),
            'primitives_degree_one': (True, {}),
            'shriek_isomorphism': (True, {}),
            'quadraticity_consistent': (True, {})}
    with pytest.raises(CriteriaDisagreement) as err:
        _check_agreement(True, crit, RING_CRITERION_KINDS)
    assert 'tor_diagonal' in str(err.value)
    crit['tor_diagonal'] = (True, {})
    _check_agreement(True, crit, RING_CRITERION_KINDS)
    crit['quadraticity_consistent'] = (False, {'why': 'routes split'})
    with pytest.raises(CriteriaDisagreement):
        _check_agreement(True, crit, RING_CRITERION_KINDS)


def test_koszul_end_cells_are_the_unit_identifications(diamond):
    # on the diamond pair (A, A^!) the a = 0 cell sends ('1', c) to the cut
    # of c and the c = 1 cell sends (a, c) to (ac, '1'); in weight 1 one
    # cell is both, and both slices run through the same cells
    pair = make_pair_shriek_ring(incidence_ring(diamond))
    A, C = pair.ring, pair.coring

    def e(x, y):
        return ('e', x, y)

    # A^!_2 is dual to the complement word of the zeta relation in ^*V^(2)
    one, relation = UNIT_LABEL, ('*', (('f', '0', 'b'), ('f', 'b', '1')))
    letters = [e('0', 'a'), e('0', 'b'), e('a', '1'), e('b', '1')]
    zero_cell = {(one, relation): [((e('0', 'a'), e('a', '1')), -1),
                                   ((e('0', 'b'), e('b', '1')), 1)]}
    one_cell = {(e('0', 'a'), e('a', '1')): [((e('0', '1'), one), 1)],
                (e('0', 'b'), e('b', '1')): [((e('0', '1'), one), 1)]}
    weight_one = {(one, v): [((v, one), 1)] for v in letters}

    def by_hand(images, a, c):
        return from_basis_action(
            tensor(A.component(a), C.component(c)),
            tensor(A.component(a + 1), C.component(c - 1)),
            lambda key, label: images[label])

    def equal(d, want):
        return spelled_map_equals(d, want, partial(spell_pair, pair))

    for left, m, n in ((True, 1, 1), (False, 1, 0)):
        cx = (koszul_complex_left if left else koszul_complex_right)(pair, m)
        assert equal(cx.differentials[n], by_hand(weight_one, 0, 1))
    for left, zero_at, one_at in ((True, 2, 1), (False, 0, 1)):
        cx = (koszul_complex_left if left else koszul_complex_right)(pair, 2)
        assert equal(cx.differentials[zero_at], by_hand(zero_cell, 0, 2))
        assert equal(cx.differentials[one_at], by_hand(one_cell, 1, 1))
    # no structure map is kept against degree 0
    for f in (lambda: A.mu(0, 1), lambda: A.mu(1, 0),
              lambda: C.delta(0, 1), lambda: C.delta(2, 0)):
        with pytest.raises(ValueError):
            f()


def pq_ring(top: int) -> GradedRing:
    'k<p, q> modulo <pq, qp, qq>, cut at degree top: only powers of p live.'
    base = BaseRing(('x',), RATIONALS)
    V = Bimodule(base, {('x', 'x'): ('p', 'q')})
    VV = tensor(V, V)
    relations = [{VV.index_of(('x', 'x'), word): 1}
                 for word in (('p', 'q'), ('q', 'p'), ('q', 'q'))]
    W = SubBimodule(VV, {('x', 'x'): from_spanning(relations, 4)})
    return quadratic_ring_of(QuadraticData(V, W), top)


def test_truncated_partner_is_swept_only_up_to_its_cut():
    # cut at degree 1 the ring is Koszul, but its partner, the tensor
    # coring on {p, q}, is cut at degree 2: exact up to the cut, undecided
    v = decide_koszul_ring(pq_ring(1))
    assert v.pair.coring.dims() == [1, 2, 4]
    assert v.pair.coring.support_truncated
    assert v.verdict is None and not v.sound and v.m_bound_used == 2
    ok, ev = v.per_criterion['pair_exactness']
    assert ok is None and ev == {'failing_weights': {}}
    assert v.to_json()['verdict'] is None
    # cut at degree 2, p^3 = 0 is a cubic relation: weights 3 and 4 fail
    # inside the window of the partner cut at degree 4, and nothing past it
    # is swept
    v = decide_koszul_ring(pq_ring(2))
    assert v.pair.coring.top_degree == 4 and v.pair.coring.support_truncated
    assert v.verdict is False and not v.sound and v.m_bound_used == 4
    ok, ev = v.per_criterion['pair_exactness']
    assert ok is False and set(ev['failing_weights']) == {'3', '4'}


@pytest.mark.parametrize('p', [None, 2, 3], ids=['Q', 'F2', 'F3'])
def test_q10_is_quadratic_and_not_koszul(q10, p):
    # both quadraticity routes say quadratic, and the one class off the
    # diagonal, Tor_{3,4} = Ext^{3,4} = k at [0, 1], fails every criterion
    # that theory ties to Koszulity, on both sides and over every field
    field = RATIONALS if p is None else FieldSpec.prime_field(p)
    offd = [[3, 4, 1]]
    for X, side in ((incidence_ring(q10, field), 'tor'),
                    (incidence_coring(q10, field), 'ext')):
        v = (decide_koszul_ring if side == 'tor' else decide_koszul_coring)(X)
        assert v.verdict is False and v.sound
        extra = ({'primitives_degree_one': (False, {'nonzero': offd})}
                 if side == 'tor' else
                 {'ext_strongly_graded': (False, {
                     'off_diagonal': offd, 'non_surjective_degree': None})})
        assert v.per_criterion == {
            'pair_exactness': (False,
                               {'failing_weights': {'4': {'2': 1}}}),
            f'{side}_diagonal': (False, {'off_diagonal': offd}),
            'shriek_isomorphism': (False, {'diagonal_mismatches': [],
                                           'off_diagonal': offd}),
            'quadraticity_consistent': (True, {f'via_{side}': True,
                                               'direct': True,
                                               'witness': None}),
            **extra}


def test_product_verdict_is_conjunction(diamond):
    A = direct_product(incidence_ring(diamond),
                       incidence_ring(chain_poset(2)))
    assert decide_koszul_ring(A).verdict is True
    B = direct_product(incidence_ring(diamond),
                       incidence_ring(renamed_p_bad()))
    assert decide_koszul_ring(B).verdict is False


def test_verdict_repr(diamond):
    v = decide_koszul_ring(incidence_ring(diamond))
    text = repr(v)
    assert 'True' in text and 'm_bound=4' in text
