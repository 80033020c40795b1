"""Poset validation, canonical forms, enumeration, incidence structures."""

import hashlib
import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from koszulity.errors import InputError
from koszulity.poset import (GradedPoset, parse_poset, incidence_ring,
                             incidence_coring, canonical_form,
                             enumerate_corpus)
from conftest import (apply_label, chain_poset, antichain_poset,
                      boolean_lattice, deadline, DIAMOND_COVERS,
                      direct_product, disjoint_union, random_graded_poset)
import oracle


def test_rejects_duplicate_elements():
    with pytest.raises(InputError):
        GradedPoset(['x', 'x'], [])


def test_rejects_unknown_cover():
    with pytest.raises(InputError):
        GradedPoset(['x'], [('x', 'y')])


def test_rejects_cycles():
    with pytest.raises(InputError):
        GradedPoset(['x', 'y'], [('x', 'y'), ('y', 'x')])
    with pytest.raises(InputError):
        GradedPoset(['x'], [('x', 'x')])


def test_rejects_non_graded():
    # x < a < b < y alongside x < c < y: [x, y] has chains of length 2 and 3
    with pytest.raises(InputError) as err:
        GradedPoset(['x', 'a', 'b', 'c', 'y'],
                    [('x', 'a'), ('a', 'b'), ('b', 'y'), ('x', 'c'),
                     ('c', 'y')])
    assert 'not graded' in str(err.value)


def test_parse_poset_document_errors():
    with pytest.raises(InputError):
        parse_poset([])
    with pytest.raises(InputError):
        parse_poset({'elements': ['x']})
    with pytest.raises(InputError):
        parse_poset({'elements': ['x'], 'covers': [['x']]})
    with pytest.raises(InputError):
        parse_poset({'elements': [1], 'covers': []})
    P = parse_poset({'elements': ['x', 'y'], 'covers': [['x', 'y']]})
    assert P.max_length == 1
    assert P.to_document() == {'elements': ['x', 'y'],
                               'covers': [['x', 'y']]}


def test_intervals_and_middles(diamond):
    assert diamond.intervals(0) == [(x, x) for x in diamond.elements]
    assert set(diamond.intervals(1)) == {('0', 'a'), ('0', 'b'),
                                         ('a', '1'), ('b', '1')}
    assert diamond.intervals(2) == [('0', '1')]
    assert diamond.middles('0', '1', 1) == ['a', 'b']
    assert diamond.middles('0', '1', 0) == ['0']
    assert diamond.middles('0', '1', 2) == ['1']
    assert ('0', '1') in diamond._length and ('a', 'b') not in diamond._length
    assert diamond.length('0', '1') == 2
    assert diamond.length('a', 'b') is None


def test_canonical_form_relabeling_invariant(p_bad):
    base_key = p_bad.canonical_key()
    rng = random.Random(11)
    names = list('pqrstu')
    for _ in range(10):
        rng.shuffle(names)
        ren = dict(zip(p_bad.elements, names))
        covers = [(ren[a], ren[b]) for a, b in p_bad.covers]
        rng.shuffle(covers)
        els = sorted(names, key=lambda _: rng.random())
        Q = GradedPoset(els, covers)
        assert Q.canonical_key() == base_key


def test_canonical_form_separates(diamond):
    assert diamond.canonical_key() != chain_poset(2).canonical_key()
    assert canonical_form(['x'], []) == (1, ())


def _shuffled(elements, covers, rng):
    'The same DAG with its elements and covers listed in a random order.'
    return rng.sample(elements, len(elements)), rng.sample(covers, len(covers))


def _random_dag_with_duplicate_covers(rng):
    n = rng.randint(1, 8)
    names = rng.sample([f'v{i}' for i in range(n)], n)
    covers = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)
              if rng.random() < 0.3]
    covers += rng.choices(covers, k=rng.randint(0, 3)) if covers else []
    return names, covers


def test_canonical_form_matches_unpruned_search_on_the_corpus():
    rng = random.Random(2024)
    for P in enumerate_corpus(6):
        for _ in range(2):
            els, covers = _shuffled(list(P.elements), list(P.covers), rng)
            assert canonical_form(els, covers) == \
                oracle.canonical_form_reference(els, covers)


def test_canonical_form_matches_unpruned_search_on_symmetric_input(diamond):
    three_diamonds = disjoint_union(disjoint_union(diamond, diamond), diamond)
    cases = [(list(P.elements), list(P.covers))
             for P in (boolean_lattice(3), three_diamonds, antichain_poset(6))]
    rng = random.Random(7)
    cases += [_random_dag_with_duplicate_covers(rng) for _ in range(300)]
    for els, covers in cases:
        assert canonical_form(els, covers) == \
            oracle.canonical_form_reference(els, covers)


def test_canonical_form_tells_apart_same_color_vertices_that_are_not_twins():
    # refinement leaves every minimum of the three crowns in one cell,
    # though those of the 12-cycle are not automorphic to those of the
    # 6-cycles: trying only the first vertex of a cell gets a wrong key
    parts = [oracle.crown(6, 'x'), oracle.crown(3, 'y'), oracle.crown(3, 'z')]
    els = [e for part in parts for e in part.elements]
    covers = [c for part in parts for c in part.covers]
    want = oracle.canonical_form_reference(els, covers)
    for seed in range(2):
        assert canonical_form(*_shuffled(els, covers,
                                         random.Random(seed))) == want


def test_canonical_form_of_a_large_antichain_is_fast():
    # the unpruned search walks 12! leaves here
    with deadline(10):
        assert canonical_form([f'u{i}' for i in range(12)], []) == (12, ())


def test_corpus_up_to_six_is_frozen():
    # the canonical keys fix each poset's labels, covers and row order
    rows = [(len(P.elements), P.covers) for P in enumerate_corpus(6)]
    assert len(rows) == 385
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == \
        'b731acc529879279a5cbb7a01433c7232dec26190e32fc510e2e4ad49dba51ec'


@given(st.integers(1, 5), st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_random_poset_valid_and_relabel_stable(n, rng):
    P = random_graded_poset(n, rng)
    assert len(P.elements) == n
    # already validated by the constructor; canonical key round-trips
    n2, edges = P.canonical_key()
    assert n2 == n
    Q = GradedPoset([str(i) for i in range(n)],
                    [(str(a), str(b)) for a, b in edges])
    assert Q.canonical_key() == P.canonical_key()


def test_corpus_counts_small_sizes():
    # all posets on up to 4 unlabeled elements are interval-graded, so
    # these counts match the full poset counts 1, 2, 5, 16; on 5 elements
    # exactly one of the 63 posets fails gradedness
    counts = Counter(len(P.elements) for P in enumerate_corpus(5))
    assert counts == {1: 1, 2: 2, 3: 5, 4: 16, 5: 62}


def test_corpus_members_distinct_and_valid():
    seen = set()
    for P in enumerate_corpus(4):
        if len(P.elements) < 4:
            continue
        key = P.canonical_key()
        assert key not in seen
        seen.add(key)
    # membership spot checks
    assert chain_poset(3).canonical_key() in seen
    assert antichain_poset(4).canonical_key() in seen
    assert GradedPoset(['0', 'a', 'b', '1'], DIAMOND_COVERS
                       ).canonical_key() in seen


def test_corpus_is_one_walk_in_size_then_key_order(monkeypatch):
    from koszulity import poset
    calls = []
    original = poset.canonical_form

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(poset, 'canonical_form', counting)
    posets = list(enumerate_corpus(5))
    order = [(len(P.elements), original(P.elements, P.covers))
             for P in posets]
    assert order == sorted(order)
    # every child of every level up to size 5 gets one canonical form;
    # walking each size again from size 1 would take 219
    assert len(calls) == 171


def test_corpus_size_guard():
    with pytest.raises(InputError):
        list(enumerate_corpus(0))
    with pytest.raises(InputError):
        list(enumerate_corpus(9))


def test_disjoint_union_matches_direct_product(diamond):
    Q = chain_poset(2)
    U = disjoint_union(diamond, Q)
    assert len(U.elements) == 7
    A = incidence_ring(U)
    B = direct_product(incidence_ring(diamond),
                       incidence_ring(rename_like(U, Q)))
    # the union relabels the right factor to keep elements distinct; the
    # product of the relabeled factors is literally the union's ring
    assert A.dims() == B.dims()


def rename_like(U, Q):
    'Rebuild Q with the element names the union assigned to its copy.'
    tail = U.elements[-len(Q.elements):]
    ren = dict(zip(Q.elements, tail))
    return GradedPoset([ren[x] for x in Q.elements],
                       [(ren[a], ren[b]) for a, b in Q.covers])


def test_incidence_coring_counts(p_bad):
    C = incidence_coring(p_bad)
    assert C.dims() == [6, 6, 4, 1]
    # deconcatenation of the long interval splits over both middle chains
    out = apply_label(C.delta(1, 2), ('0', '1'), ('e', '0', '1'))
    assert len(out) == 2
