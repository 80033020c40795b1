"""Acceptance gate: one test per headline guarantee, one printed line each.

The lines are printed with capture suspended, so any plain pytest run
leaves an auditable trail of the form

    [criterion 1] PASS: diamond: Koszul=True, diagonal (4, 4, 1), ...

Every frozen number below was cross-checked against tests/oracle.py, which
ranks explicitly assembled matrices and shares no code with the pipeline
under test.
"""

import random
import time

from conftest import (DIAMOND_COVERS, P_BAD_COVERS, antichain_poset,
                      chain_poset)

from koszulity.bimodule import kernel_sub
from koszulity.duality import double_dual_check, dual_pair
from koszulity.errors import CriteriaDisagreement
from koszulity.graded_structures import ideal_component_span
from koszulity.homology import (bar_complex_ring, cobar_complex_coring,
                                is_quadratic_coring_direct,
                                is_quadratic_direct, quadratic_via_ext,
                                quadratic_via_tor, tor_table,
                                verify_ext2_sequence, verify_tor2_sequence)
from koszulity.koszul import (decide_koszul_coring, decide_koszul_ring,
                              is_exact, koszul_complex_left,
                              koszul_complex_right, make_pair_shriek_ring)
from koszulity.poset import (GradedPoset, disjoint_union, enumerate_corpus,
                             incidence_coring, incidence_duality_check,
                             incidence_ring, random_graded_poset, zeta_ring)


def stamp(capfd, criterion, ok, detail):
    line = f'[criterion {criterion}] {"PASS" if ok else "FAIL"}: {detail}'
    with capfd.disabled():
        print(line, flush=True)
    assert ok, line


_CORPUS = None
_VERDICTS = {}


def corpus():
    'Every graded poset with at most 5 elements, built once per session.'
    global _CORPUS
    if _CORPUS is None:
        _CORPUS = [P for n in range(1, 6) for P in enumerate_corpus(n)]
        assert len(_CORPUS) == 86
    return _CORPUS


def both_verdicts(P):
    key = (tuple(P.elements), tuple(tuple(c) for c in P.covers))
    if key not in _VERDICTS:
        _VERDICTS[key] = (decide_koszul_ring(incidence_ring(P)),
                          decide_koszul_coring(incidence_coring(P)))
    return _VERDICTS[key]


def test_criterion_1_diamond(capfd):
    t0 = time.perf_counter()
    P = GradedPoset(['0', 'a', 'b', '1'], DIAMOND_COVERS)
    A = incidence_ring(P)
    verdict = decide_koszul_ring(A)
    table = tor_table(A)
    pair = make_pair_shriek_ring(A)
    exact = all(is_exact(koszul_complex_left(pair, m))[0]
                for m in range(1, 5))
    elapsed = time.perf_counter() - t0
    ok = (verdict.verdict is True and verdict.sound
          and table.diagonal() == {0: 4, 1: 4, 2: 1}
          and not table.off_diagonal() and exact and elapsed < 1.0)
    stamp(capfd, 1, ok, f'diamond: Koszul={verdict.verdict}, diagonal '
                 f'{tuple(table.diagonal().values())}, slices m=1..4 '
                 f'exact={exact}, {elapsed:.3f}s')


def test_criterion_2_p_bad(capfd):
    t0 = time.perf_counter()
    P = GradedPoset(['0', 'a', 'b', 'c', 'd', '1'], P_BAD_COVERS)
    A = incidence_ring(P)
    V = A.component(1)
    K = kernel_sub(A.mu(1, 1))
    cubic_kernel = kernel_sub(A.iterated_mu(3)).dim
    cubic_ideal = sum(s.dim for s in ideal_component_span(V, K, 3).values())
    quadratic, witness = is_quadratic_direct(A)
    t23 = tor_table(A).entry(2, 3)
    verdict = decide_koszul_ring(A)
    _, evidence = verdict.per_criterion['pair_exactness']
    weights = sorted(int(w) for w in evidence['failing_weights'])
    elapsed = time.perf_counter() - t0
    ok = (cubic_kernel == 1 and cubic_ideal == 0
          and not quadratic and witness['degree'] == 3
          and t23 == 1 and verdict.verdict is False and weights == [3]
          and elapsed < 1.0)
    stamp(capfd, 2, ok, f'P_bad: Ker mu_3 dim {cubic_kernel}, quadratic ideal dim '
                 f'{cubic_ideal} in weight 3, T_2,3={t23}, verdict '
                 f'{verdict.verdict} with witness weights {weights}, '
                 f'{elapsed:.3f}s')


def test_criterion_3_chains_and_antichains(capfd):
    t0 = time.perf_counter()
    bad = []
    for L in range(1, 6):
        A = incidence_ring(chain_poset(L))
        v = decide_koszul_ring(A)
        rows = sorted({n for n, m in tor_table(A).entries if n >= 2})
        if not (v.verdict and v.sound) or rows:
            bad.append(('chain', L, v.verdict, rows))
    for k in range(1, 6):
        v = decide_koszul_ring(incidence_ring(antichain_poset(k)))
        if not (v.verdict and v.sound):
            bad.append(('antichain', k, v.verdict))
    elapsed = time.perf_counter() - t0
    detail = (f'chains L=1..5 and antichains 1..5: {10 - len(bad)}/10 Koszul '
              f'with no chain Tor row above n=1, {elapsed:.2f}s')
    stamp(capfd, 3, not bad and elapsed < 5.0,
          detail + (f'; failures {bad}' if bad else ''))


def test_criterion_4_criteria_agreement_sweep(capfd):
    t0 = time.perf_counter()
    rng = random.Random(20260816)
    randoms = [random_graded_poset(6 + i % 2, rng) for i in range(100)]
    bad = []
    for P in corpus() + randoms:
        try:
            ring, coring = both_verdicts(P)
        except CriteriaDisagreement as exc:
            bad.append((tuple(P.covers), f'internal disagreement: {exc}'))
            continue
        if ring.verdict != coring.verdict:
            bad.append((tuple(P.covers),
                        f'ring={ring.verdict} coring={coring.verdict}'))
        elif not (ring.sound and coring.sound):
            bad.append((tuple(P.covers), 'unsound on an untruncated input'))
    elapsed = time.perf_counter() - t0
    detail = (f'{len(corpus())} enumerated + {len(randoms)} random posets, '
              f'{len(bad)} disagreements, {elapsed:.1f}s')
    stamp(capfd, 4, not bad and elapsed < 600.0,
          detail + (f'; first failures {bad[:3]}' if bad else ''))


def test_criterion_5_duality_suite(capfd):
    t0 = time.perf_counter()
    bad = []
    for P in corpus():
        ring, coring = both_verdicts(P)
        if ring.verdict != coring.verdict:
            bad.append((tuple(P.covers), 'ring/coring verdicts split'))
        if not incidence_duality_check(incidence_ring(P), incidence_coring(P)):
            bad.append((tuple(P.covers), 'chi relabeling failed'))
        A, C = incidence_ring(P), incidence_coring(P)
        try:
            dual_pair(make_pair_shriek_ring(A))
        except Exception as exc:
            bad.append((tuple(P.covers), f'dual pair not almost-Koszul: {exc}'))
        if not (double_dual_check(A) and double_dual_check(C)):
            bad.append((tuple(P.covers), 'double dual differs'))
    elapsed = time.perf_counter() - t0
    detail = (f'{len(corpus())} posets: verdict equality, chi, dual pairs, '
              f'double duals; {len(bad)} failures, {elapsed:.1f}s')
    stamp(capfd, 5, not bad, detail + (f'; first failures {bad[:3]}' if bad else ''))


def test_criterion_6_quadraticity_equivalence(capfd):
    t0 = time.perf_counter()
    bad = []
    for P in corpus():
        A, C = incidence_ring(P), incidence_coring(P)
        if quadratic_via_tor(A) != is_quadratic_direct(A)[0]:
            bad.append((tuple(P.covers), 'ring quadraticity routes split'))
        if quadratic_via_ext(C) != is_quadratic_coring_direct(C)[0]:
            bad.append((tuple(P.covers), 'coring quadraticity routes split'))
    rng = random.Random(97)
    eligible = [P for P in corpus() if incidence_ring(P).top_degree >= 1]
    sampled = rng.sample(eligible, 20)
    sampled.append(GradedPoset(['0', 'a', 'b', 'c', 'd', '1'], P_BAD_COVERS))
    identities = 0
    for P in sampled:
        A, C = incidence_ring(P), incidence_coring(P)
        for m in range(2, 2 * A.top_degree + 1):
            if not verify_tor2_sequence(A, m):
                bad.append((tuple(P.covers), f'Tor2 identity at weight {m}'))
            if not verify_ext2_sequence(C, m):
                bad.append((tuple(P.covers), f'Ext2 identity at weight {m}'))
            identities += 2
    elapsed = time.perf_counter() - t0
    detail = (f'routes agree on {len(corpus())} posets, {identities} '
              f'Tor2/Ext2 identities on {len(sampled)} posets, {len(bad)} '
              f'failures, {elapsed:.1f}s')
    stamp(capfd, 6, not bad, detail + (f'; first failures {bad[:3]}' if bad else ''))


def test_criterion_7_product_stability(capfd):
    t0 = time.perf_counter()
    rng = random.Random(4242)
    bad = []
    for _ in range(10):
        P, Q = rng.choice(corpus()), rng.choice(corpus())
        union = disjoint_union(P, Q)
        got = decide_koszul_ring(incidence_ring(union)).verdict
        want = both_verdicts(P)[0].verdict and both_verdicts(Q)[0].verdict
        if got is not want:
            bad.append((tuple(P.covers), tuple(Q.covers), got, want))
    elapsed = time.perf_counter() - t0
    detail = (f'10 sampled unions: verdict(P u Q) == verdict(P) and '
              f'verdict(Q), {len(bad)} failures, {elapsed:.1f}s')
    stamp(capfd, 7, not bad, detail + (f'; failures {bad}' if bad else ''))


def test_criterion_8_structural_sanity(capfd):
    # d after d = 0 and the Euler comparison are asserted inside every
    # ComplexSlice and homology_dims call, so criteria 1-7 already ran them
    # thousands of times.  This recomputes both from raw ranks on a spread
    # of slices so the gate does not rest on the constructor asserts alone.
    t0 = time.perf_counter()
    rng = random.Random(11)
    samples = [GradedPoset(['0', 'a', 'b', '1'], DIAMOND_COVERS),
               GradedPoset(['0', 'a', 'b', 'c', 'd', '1'], P_BAD_COVERS),
               chain_poset(3), antichain_poset(3),
               random_graded_poset(6, rng), random_graded_poset(7, rng)]
    checked = 0
    bad = []
    for P in samples:
        A, C = incidence_ring(P), incidence_coring(P)
        pair = make_pair_shriek_ring(A)
        for m in range(0, 2 * A.top_degree + 1):
            for cx in (bar_complex_ring(A, m), cobar_complex_coring(C, m),
                       koszul_complex_left(pair, m),
                       koszul_complex_right(pair, m)):
                step = -1 if cx.direction == 'chain' else 1
                for n, d in cx.differentials.items():
                    nxt = cx.differentials.get(n + step)
                    if nxt is not None and not nxt.compose(d).is_zero():
                        bad.append((tuple(P.covers), m, n, 'd after d != 0'))
                ranks = {n: d.rank() for n, d in cx.differentials.items()}
                hom = {n: sp.dim - ranks.get(n, 0) - ranks.get(n - step, 0)
                       for n, sp in cx.spaces.items()}
                if any(h < 0 for h in hom.values()):
                    bad.append((tuple(P.covers), m, 'negative homology'))
                if (sum((-1) ** n * sp.dim for n, sp in cx.spaces.items())
                        != sum((-1) ** n * h for n, h in hom.items())):
                    bad.append((tuple(P.covers), m, 'Euler imbalance'))
                checked += 1
    elapsed = time.perf_counter() - t0
    detail = (f'{checked} slices recomputed from raw ranks: d after d = 0 '
              f'and Euler balance, {len(bad)} violations, {elapsed:.1f}s')
    stamp(capfd, 8, not bad, detail + (f'; first failures {bad[:3]}' if bad else ''))


def test_criterion_9_zeta_rings_of_koszul_posets(capfd):
    t0 = time.perf_counter()
    koszul = [P for P in corpus() if both_verdicts(P)[0].verdict]
    bad = [tuple(P.covers) for P in koszul
           if not decide_koszul_ring(zeta_ring(P)).verdict]
    elapsed = time.perf_counter() - t0
    detail = (f'zeta rings of all {len(koszul)} Koszul corpus posets decided '
              f'Koszul, {len(bad)} exceptions, {elapsed:.1f}s')
    stamp(capfd, 9, not bad, detail + (f'; first failures {bad[:3]}' if bad else ''))
