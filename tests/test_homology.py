"""Bar and cobar homology, Betti tables, primitives, and the quadraticity
routes, all cross-checked against the dense brute-force oracle."""

import copy
import random
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from koszulity.exact_linalg import FieldSpec, RATIONALS, Subspace, accumulate
from koszulity.bimodule import BaseRing, Bimodule, tensor, unit_bimodule
from koszulity.graded_structures import (GradedRing, _Graded,
                                         shriek_of_ring)
from koszulity.homology import (bar_complex_ring,
                                cobar_complex_coring, tor_table, ext_table,
                                tor_primitive_dims,
                                ext_diagonal_products_surjective,
                                is_quadratic_direct,
                                is_quadratic_coring_direct,
                                ComplexSlice, SliceHomology,
                                _cut_boundaries, _deconcatenate)
from koszulity.koszul import (decide_koszul_coring, decide_koszul_ring,
                              make_pair_shriek_ring, make_pair_shriek_coring,
                              koszul_complex_left, koszul_complex_right)
from koszulity.duality import (graded_left_dual_of_ring,
                               graded_left_dual_of_coring)
from koszulity.poset import (GradedPoset, incidence_ring, incidence_coring,
                             enumerate_corpus)
from koszulity.errors import InvariantError
from conftest import (chain_poset, antichain_poset, boolean_lattice,
                      grid_poset, degree2_sequence_holds, identity_map,
                      iterated_mu, map_rank, QuadraticData,
                      quadratic_ring_of, random_quiver_ring, truncate_ring,
                      truncate_coring, from_basis_action, from_spanning,
                      image_sub, kernel_sub, spell_word, spelled,
                      tensor_many, tensor_power, zero_map)
from oracle import partitions
import oracle

PRIME = FieldSpec.prime_field(1048583)


def oracle_tor_entries(ref, m_top):
    entries = {}
    for m in range(m_top + 1):
        for n, d in oracle.bar_homology(ref, m).items():
            if d:
                entries[(n, m)] = d
    return entries


def oracle_ext_entries(ref, m_top):
    entries = {}
    for m in range(m_top + 1):
        for n, d in oracle.cobar_homology(ref, m).items():
            if d:
                entries[(n, m)] = d
    return entries


# -- compositions -------------------------------------------------------------

def test_partitions_base_cases():
    assert list(partitions(0, 0)) == [()]
    assert list(partitions(0, 3)) == []
    assert list(partitions(2, 3)) == [(1, 2), (2, 1)]
    assert list(partitions(3, 3)) == [(1, 1, 1)]
    assert list(partitions(4, 3)) == []


@given(st.integers(1, 7), st.integers(1, 7))
@settings(max_examples=40, deadline=None)
def test_partitions_count_and_content(n, m):
    parts = list(partitions(n, m))
    # compositions of m into n positive parts: C(m-1, n-1)
    from math import comb
    assert len(parts) == comb(m - 1, n - 1)
    for p in parts:
        assert len(p) == n and sum(p) == m and all(x >= 1 for x in p)
    assert parts == sorted(parts)


# -- bar/cobar slices against the oracle --------------------------------------

@pytest.mark.parametrize('ref_name', ['DIAMOND', 'P_BAD'])
def test_bar_slice_homology_matches_oracle(ref_name, diamond, p_bad):
    P = {'DIAMOND': diamond, 'P_BAD': p_bad}[ref_name]
    ref = getattr(oracle, ref_name)
    A = incidence_ring(P)
    for m in range(0, 2 * A.top_degree + 1):
        cx = bar_complex_ring(A, m)
        got = {n: d for n, d in cx.homology_dims().items() if d}
        want = {n: d for n, d in oracle.bar_homology(ref, m).items() if d}
        assert got == want, (m, got, want)


def test_cobar_slice_homology_matches_oracle(diamond, p_bad):
    for P, ref in ((diamond, oracle.DIAMOND), (p_bad, oracle.P_BAD)):
        C = incidence_coring(P)
        for m in range(0, 2 * C.top_degree + 1):
            cx = cobar_complex_coring(C, m)
            got = {n: d for n, d in cx.homology_dims().items() if d}
            want = {n: d for n, d in oracle.cobar_homology(ref, m).items()
                    if d}
            assert got == want, (m, got, want)


def test_weight_zero_slice(diamond):
    cx = bar_complex_ring(incidence_ring(diamond), 0)
    assert cx.degrees() == [0]
    assert cx.total_dim() == 4
    assert cx.homology_dims() == {0: 4}


def test_slices_vanish_beyond_length(p_bad):
    A = incidence_ring(p_bad)
    for m in range(A.top_degree + 1, 2 * A.top_degree + 1):
        assert bar_complex_ring(A, m).total_dim() == 0


def compositions_space(X, n, m):
    """The degree-n slice space built from every composition of m in
    partitions() order, skipping those with a zero component, with the
    labels (parts, word) that spell_word gives the id words."""
    blocks = {}
    for parts in partitions(n, m):
        if not parts:
            for s in X.base.idempotents:
                blocks.setdefault((s, s), []).append(((), ()))
            continue
        comps = [X.component(p) for p in parts]
        if any(c.is_zero() for c in comps):
            continue
        for key, labels in tensor_many(comps).blocks.items():
            blocks.setdefault(key, []).extend(
                (parts, l if n != 1 else (l,)) for l in labels)
    return Bimodule(X.base, blocks)


def assert_slice_spaces_match(P):
    A, C = incidence_ring(P), incidence_coring(P)
    ref = oracle.RefPoset(P.elements, P.covers)
    for m in range(0, 2 * A.top_degree + 2):
        chains = oracle.bar_basis(ref, m)
        for X, build in ((A, bar_complex_ring), (C, cobar_complex_coring)):
            cx = build(X, m)
            assert sorted(cx.spaces) == list(range(m + 1))
            for n in range(m + 1):
                space = cx.spaces[n]
                want = compositions_space(X, n, m)
                assert spelled(space, partial(spell_word, X)) == \
                    list(want.blocks.items()), (m, n)
                assert space.dim == len(chains[n]), (m, n)


def test_slice_spaces_keep_composition_order_corpus():
    for P in enumerate_corpus(5):
        assert_slice_spaces_match(P)


def test_slice_spaces_keep_composition_order_grid():
    assert_slice_spaces_match(grid_poset(3, 4))


def test_weight_above_reachable_gives_zero_spaces():
    A = incidence_ring(grid_poset(3, 4))
    C = incidence_coring(grid_poset(3, 4))
    L = A.top_degree
    assert L == 5
    for m in range(L + 1, 2 * L + 1):
        for cx in (bar_complex_ring(A, m), cobar_complex_coring(C, m)):
            assert sorted(cx.spaces) == list(range(m + 1))
            assert all(sp is A.base.zero or sp is C.base.zero
                       for sp in cx.spaces.values())
            assert cx.total_dim() == 0
            assert all(d == 0 for d in cx.homology_dims().values())


def test_cyclic_words_are_not_pruned():
    # one idempotent with a degree-1 loop: words of every weight exist
    base = BaseRing(('x',), RATIONALS)
    V = Bimodule(base, {('x', 'x'): ('a',)})
    A = GradedRing(base, {0: unit_bimodule(base), 1: V}, {}, 1)
    cx = bar_complex_ring(A, 4)
    assert spelled(cx.spaces[4], partial(spell_word, A)) == \
        [(('x', 'x'), (((1, 1, 1, 1), ('a',) * 4),))]
    assert all(cx.spaces[n].is_zero() for n in range(4))


def test_gapped_cyclic_words_reach_only_even_weights():
    # one idempotent, A^1 = 0, A^2 = k b: the words are the powers of b,
    # so weight 2k holds one word in degree k and odd weights hold none
    base = BaseRing(('x',), RATIONALS)
    A = GradedRing(base, {0: unit_bimodule(base),
                          2: Bimodule(base, {('x', 'x'): ('b',)})}, {}, 2)
    nonzero = {}
    for m in range(1, 8):
        cx = bar_complex_ring(A, m)
        for n in range(m + 1):
            want = compositions_space(A, n, m)
            assert spelled(cx.spaces[n], partial(spell_word, A)) \
                == list(want.blocks.items()), (m, n)
        if m % 2:
            assert cx.total_dim() == 0
        nonzero.update({(n, m): h for n, h in cx.homology_dims().items() if h})
    assert nonzero == {(1, 2): 1, (2, 4): 1, (3, 6): 1}


def test_complex_slice_rejects_a_differential_that_does_not_square_to_zero():
    # k -> k -> k with both maps the identity: d o d = 1
    base = BaseRing(('x',), RATIONALS)
    V = Bimodule(base, {('x', 'x'): ('v',)})
    d = identity_map(V)
    with pytest.raises(InvariantError, match='does not square to zero'):
        ComplexSlice('chain', 0, {0: V, 1: V, 2: V}, {1: d, 2: d})
    cx = ComplexSlice('chain', 0, {0: V, 1: V, 2: V},
                      {2: d, 1: zero_map(V, V)})
    assert cx.homology_dims() == {0: 1, 1: 0, 2: 0}


# -- clearing ------------------------------------------------------------------

def plain_rank_homology_dims(cx) -> dict:
    """Homology dimensions of a slice from the full rank of every block of
    every differential, by dense elimination in the oracle: the reference
    that ComplexSlice.homology_dims, which ranks with clearing, must meet."""
    field = next(iter(cx.spaces.values())).base.field
    p = None if field.kind == 'rationals' else field.p
    step = -1 if cx.direction == 'chain' else 1
    ranks = {}
    for n, d in cx.differentials.items():
        ranks[n] = 0
        for mat in d.blocks.values():
            dense = [[0] * mat.cols for _ in range(mat.rows)]
            for (i, j), v in mat.entries.items():
                dense[i][j] = v
            ranks[n] += oracle.rank(dense, p)
    return {n: sp.dim - ranks.get(n, 0) - ranks.get(n - step, 0)
            for n, sp in cx.spaces.items()}


def clears_columns(cx) -> bool:
    """Whether some block carries a nonzero differential into and out of
    one degree, so that clearing leaves columns out."""
    step = -1 if cx.direction == 'chain' else 1
    return any(key in cx.differentials.get(n - step, d).blocks
               for n, d in cx.differentials.items() if n - step in
               cx.differentials for key in d.blocks)


def truncated_polynomial_ring(k: int, field) -> GradedRing:
    'k[a]/(a^k) on one idempotent x: A^n is spanned by a^n for n < k.'
    base = BaseRing(('x',), field)
    comps = {0: unit_bimodule(base)}
    comps.update({n: Bimodule(base, {('x', 'x'): (f'a{n}',)})
                  for n in range(1, k)})
    maps = {(p, q): from_basis_action(
                tensor(comps[p], comps[q]), comps[p + q],
                lambda key, l, n=p + q: [(f'a{n}', 1)])
            for p in range(1, k) for q in range(1, k - p)}
    return GradedRing(base, comps, maps, k - 1)


def clearing_slices(A, C, weights: int):
    """The bar and cobar slices of A and C, and the left and right Koszul
    slices of their shriek pairs, for weights 0..weights."""
    left, right = make_pair_shriek_ring(A), make_pair_shriek_coring(C)
    for m in range(weights + 1):
        yield bar_complex_ring(A, m)
        yield cobar_complex_coring(C, m)
        yield koszul_complex_left(left, m)
        yield koszul_complex_right(right, m)


def assert_clearing_matches_plain_ranks(cases) -> int:
    'Compare every slice of the cases; the number of slices that clear.'
    clearing = 0
    for A, C, weights in cases:
        for cx in clearing_slices(A, C, weights):
            assert cx.homology_dims() == plain_rank_homology_dims(cx), cx
            clearing += clears_columns(cx)
    return clearing


@pytest.mark.parametrize('field', [RATIONALS, FieldSpec.prime_field(2),
                                   FieldSpec.prime_field(3)],
                         ids=['Q', 'F2', 'F3'])
def test_clearing_matches_plain_ranks_on_the_corpus(field):
    # no poset of the corpus is large enough for clearing in the wrong
    # degree to change a rank; B4 is
    posets = list(enumerate_corpus(5)) + [boolean_lattice(4)]
    cases = [(A, incidence_coring(P, field), 2 * A.top_degree)
             for P in posets for A in [incidence_ring(P, field)]]
    assert len(cases) == 87
    assert assert_clearing_matches_plain_ranks(cases) >= 40


def test_clearing_matches_plain_ranks_on_rp2_over_f2(rp2):
    F2 = FieldSpec.prime_field(2)
    A, C = incidence_ring(rp2, F2), incidence_coring(rp2, F2)
    # the Koszul slices of weight 4 are not exact over F_2
    assert plain_rank_homology_dims(koszul_complex_left(
        make_pair_shriek_ring(A), 4)) == {-1: 0, 0: 0, 1: 0, 2: 1, 3: 0, 4: 0}
    assert assert_clearing_matches_plain_ranks([(A, C, 8)]) >= 10


@pytest.mark.parametrize('field', [RATIONALS, FieldSpec.prime_field(2)],
                         ids=['Q', 'F2'])
def test_clearing_matches_plain_ranks_on_cyclic_rings(field):
    # k[a]/(a^2) has a cofree shriek partner, cut at its cap; in k[a]/(a^4)
    # words of letters a, a^2 and a^3 merge through consecutive degrees
    cases = []
    for k in (2, 3, 4):
        A = truncated_polynomial_ring(k, field)
        cases.append((A, graded_left_dual_of_ring(A), 8))
    assert assert_clearing_matches_plain_ranks(cases) > 5


def test_argument_checks_raise_value_errors():
    with pytest.raises(ValueError):
        partitions(-1, 2)
    with pytest.raises(ValueError):
        ComplexSlice('sideways', 0, {}, {})


# -- Betti tables --------------------------------------------------------------

def test_tor_table_diamond(diamond):
    table = tor_table(incidence_ring(diamond))
    assert table.kind == 'Tor'
    assert table.entries == {(0, 0): 4, (1, 1): 4, (2, 2): 1}
    assert all(n == m for n, m in table.entries)
    assert table.entries == oracle_tor_entries(oracle.DIAMOND, table.m_max)
    assert table.as_grid()[2][2] == 1


def test_tor_table_pbad(p_bad):
    table = tor_table(incidence_ring(p_bad))
    assert table.entries == {(0, 0): 6, (1, 1): 6, (2, 3): 1}
    assert not all(n == m for n, m in table.entries)
    assert table.off_diagonal() == {(2, 3): 1}
    assert table.entries == oracle_tor_entries(oracle.P_BAD, table.m_max)


def test_ext_table_pbad(p_bad):
    table = ext_table(incidence_coring(p_bad))
    assert table.entries == {(0, 0): 6, (1, 1): 6, (2, 3): 1}
    assert table.entries == oracle_ext_entries(oracle.P_BAD, table.m_max)


def test_tables_for_chains_and_antichains():
    for L in range(1, 5):
        table = tor_table(incidence_ring(chain_poset(L)))
        assert table.diagonal() == {0: L + 1, 1: L}
        assert not table.off_diagonal()
    for k in range(1, 5):
        table = tor_table(incidence_ring(antichain_poset(k)))
        assert table.entries == {(0, 0): k}


def test_diagonal_matches_shriek_both_paths(diamond, tail_diamond):
    # T_{n,n} is computed by rank-nullity in the bar slice; the shriek
    # coring computes the same dimensions as the graded dual of a quadratic
    # ring
    for P in (diamond, tail_diamond):
        A = incidence_ring(P)
        table = tor_table(A)
        shr = shriek_of_ring(A)
        for n in range(1, shr.top_degree + 1):
            assert table.entry(n, n) == shr.component(n).dim


def test_prime_field_tables_agree(diamond, p_bad):
    for P in (diamond, p_bad):
        assert tor_table(incidence_ring(P)).entries == \
            tor_table(incidence_ring(P, PRIME)).entries


# -- representatives and products ---------------------------------------------

def test_representatives_round_trip(diamond):
    A = incidence_ring(diamond)
    table = tor_table(A)
    reps = table.representatives[(2, 2)]
    assert reps.dim == 1
    key, cols = next(iter(reps.reps.items()))
    assert reps.classes(key, cols[0]) == {0: 1}
    # doubling the cycle doubles the coefficient
    doubled = {i: 2 * v for i, v in cols[0].items()}
    assert reps.classes(key, doubled) == {0: 2}


def test_classes_reject_a_non_cycle_and_drop_a_boundary():
    'On a degree with boundaries and a nonzero outgoing differential.'
    cx = bar_complex_ring(incidence_ring(grid_poset(2, 3)), 3)
    H = SliceHomology(cx, 2)
    key, d_in = next(iter(cx.differentials[3].blocks.items()))
    assert d_in.column(0) and H.classes(key, d_in.column(0)) == {}
    assert cx.differentials[2].block(*key).column(0)
    with pytest.raises(InvariantError):
        H.classes(key, {0: 1})


def spanning_order_reps(cx, n):
    """Class representatives chosen the plain way: a kernel column is kept
    when it is outside the span of the boundaries and the columns kept so
    far, with that span rebuilt after each choice."""
    step = -1 if cx.direction == 'chain' else 1
    d_out = cx.differentials.get(n)
    d_in = cx.differentials.get(n - step)
    ker = kernel_sub(d_out) if d_out is not None else None
    bnd = image_sub(d_in) if d_in is not None else None
    field = cx.spaces[n].base.field
    out = {}
    for key in cx.spaces[n].blocks:
        dim = cx.spaces[n].block_dim(*key)
        kcols = (ker.part(key).basis.columns() if ker is not None
                 else Subspace.full(dim, field).basis.columns())
        span = list(bnd.part(key).basis.columns()) if bnd is not None else []
        chosen = []
        for col in kcols:
            if from_spanning(span, dim, field).contains_vector(col):
                continue
            chosen.append(col)
            span.append(col)
        if chosen:
            out[key] = chosen
    return out


@pytest.mark.parametrize('field', [RATIONALS, PRIME])
def test_representatives_only_on_nonzero_cells(diamond, p_bad, field):
    for P in (diamond, p_bad, grid_poset(2, 3)):
        A, C = incidence_ring(P, field), incidence_coring(P, field)
        for table in (tor_table(A), ext_table(C)):
            assert set(table.representatives) == set(table.entries)
            for (n, m), H in table.representatives.items():
                assert H.dim == table.entry(n, m)
                assert H.reps == spanning_order_reps(table.slices[m], n)


def test_representatives_are_built_on_first_read(p_bad, monkeypatch):
    built = []
    original = SliceHomology.__init__

    def counted(self, cx, degree):
        built.append((degree, cx.weight))
        original(self, cx, degree)

    monkeypatch.setattr(SliceHomology, '__init__', counted)
    table = tor_table(incidence_ring(p_bad))
    assert built == []
    reps = table.representatives
    assert len(built) == len(table.entries) == 3
    assert table.representatives is reps and len(built) == 3


def test_ext_products_diamond(diamond):
    C = incidence_coring(diamond)
    table = ext_table(C)
    assert ext_diagonal_products_surjective(C, table) == (True, None)
    # without the degree-1 classes that start at the bottom, no product
    # reaches the one class of E^{2,2}, which runs from bottom to top
    H1 = table.representatives[(1, 1)]
    H1.reps = {key: v for key, v in H1.reps.items() if key[0] != '0'}
    assert ext_diagonal_products_surjective(C, table) == (False, 2)


def reference_products_surjective(table):
    """ext_diagonal_products_surjective by plain spans: for each nonzero
    cell (n+1, n+1), the sum over its blocks of dim span(B u P) - dim
    span(B), with B the coboundaries of the block and P the concatenations
    of the representatives of (1, 1) and (n, n) that land in it."""
    reps = table.representatives
    H1 = reps.get((1, 1))
    for n in range(1, table.m_max):
        H2, H3 = reps.get((n, n)), reps.get((n + 1, n + 1))
        if H3 is None:
            continue
        cx = table.slices[n + 1]
        space, d_in = cx.spaces[n + 1], cx.differentials.get(n)
        field = space.base.field
        products = {}
        for (s, t), avecs in H1.reps.items() if H1 and H2 else ():
            for (t2, u), bvecs in H2.reps.items():
                if t2 != t:
                    continue
                awords = H1.space.blocks[(s, t)]
                bwords = H2.space.blocks[(t, u)]
                for a in avecs:
                    for b in bvecs:
                        vec = {}
                        for i, ca in a.items():
                            for j, cb in b.items():
                                at = space.index_of((s, u),
                                                    awords[i] + bwords[j])
                                accumulate(vec, at, ca, cb, field)
                        products.setdefault((s, u), []).append(vec)
        gained = 0
        for key in space.blocks:
            dim = space.block_dim(*key)
            B = d_in.block(*key).columns() if d_in is not None else []
            P = products.get(key, [])
            gained += (from_spanning(B + P, dim, field).dim
                       - from_spanning(B, dim, field).dim)
        if gained != H3.dim:
            return False, n + 1
    return True, None


@pytest.mark.parametrize('field', [RATIONALS, FieldSpec.prime_field(2)])
def test_ext_products_match_plain_spans_on_thinned_generators(field, rp2):
    """On real input every product is onto, since the diagonal of Ext is
    the quadratic dual ring, generated in degree 1; only E^{1,1} thinned to
    the blocks starting at one element reaches the False branch.  In the
    7-element poset, whose middle ranks form K_{2,3}, blocks of E^{2,2} and
    E^{3,3} have two classes each, so a product with its factors swapped
    reads labels that are not there."""
    k23 = GradedPoset(['0', 'x', 'y', 'a', 'b', 'c', '1'],
                      [('0', 'x'), ('0', 'y')]
                      + [(m, t) for m in 'xy' for t in 'abc']
                      + [(t, '1') for t in 'abc'])
    posets = [*enumerate_corpus(5), k23] + ([rp2] if field.p == 2 else [])
    failed = 0
    for P in posets:
        C = incidence_coring(P, field)
        table = ext_table(C)
        assert ext_diagonal_products_surjective(C, table) == (True, None)
        assert reference_products_surjective(table) == (True, None)
        H1 = table.representatives.get((1, 1))
        for x in C.base.idempotents if H1 else ():
            thin = copy.copy(H1)
            thin.reps = {key: v for key, v in H1.reps.items() if key[0] == x}
            table.representatives[(1, 1)] = thin
            result = ext_diagonal_products_surjective(C, table)
            assert result == reference_products_surjective(table)
            failed += not result[0]
    assert failed


def test_ext_products_pbad_vacuous(p_bad):
    # E^{3,3} vanishes, so surjectivity holds vacuously; the decision
    # couples this criterion with diagonality, which fails
    C = incidence_coring(p_bad)
    table = ext_table(C)
    ok, witness = ext_diagonal_products_surjective(C, table)
    assert ok and witness is None
    assert table.off_diagonal()


def test_primitives(diamond, p_bad):
    A = incidence_ring(diamond)
    table = tor_table(A)
    prim = tor_primitive_dims(A, table)
    assert prim[(1, 1)] == 4
    assert all(d == 0 for (n, m), d in prim.items() if n >= 2)

    B = incidence_ring(p_bad)
    table_b = tor_table(B)
    prim_b = tor_primitive_dims(B, table_b)
    assert prim_b[(2, 3)] == 1, 'the off-diagonal class is primitive'


def test_primitives_rp2(rp2):
    # the 2-torsion of RP^2 gives Tor_{3,4} over F_2, a primitive class;
    # over Q no class of degree n >= 2 is primitive
    F2 = FieldSpec.prime_field(2)
    for field, expected in ((F2, {(3, 4): 1}), (RATIONALS, {})):
        A = incidence_ring(rp2, field)
        prim = tor_primitive_dims(A, tor_table(A))
        assert {k: d for k, d in prim.items() if k[0] >= 2 and d} == expected


def _apply_columns(columns: list, vec: dict, field) -> dict:
    'The matrix with these sparse columns times vec.'
    out = {}
    for k, v in vec.items():
        for i, c in columns[k].items():
            accumulate(out, i, v, c, field)
    return out


@pytest.mark.parametrize('case', ['B4 over Q', 'RP2 over F2', 'p_bad'])
def test_cut_word_complex(case, rp2, p_bad):
    # on the cut words of every slice of the Tor table: D after D is zero,
    # and the deconcatenation is a chain map, D (Delta_{n+1}) = Delta_n d_{n+1}
    P, field = {'B4 over Q': (boolean_lattice(4), RATIONALS),
                'RP2 over F2': (rp2, FieldSpec.prime_field(2)),
                'p_bad': (p_bad, RATIONALS)}[case]
    A = incidence_ring(P, field)
    table = tor_table(A)
    moved = 0
    for m, cx in table.slices.items():
        for n in range(1, m):
            d = cx.differentials.get(n + 1)
            for key, words in cx.spaces[n + 1].blocks.items():
                D = _cut_boundaries(A, cx, n, key)
                assert len(D) == len(words) * n
                for col in _cut_boundaries(A, cx, n + 1, key):
                    assert _apply_columns(D, col, field) == {}
                for i in range(len(words)):
                    image = _apply_columns(D, _deconcatenate({i: 1}, n + 1),
                                           field)
                    dw = {j: field.coerce(c) for j, c
                          in (d.block(*key).column(i) if d else {}).items()}
                    assert image == _deconcatenate(dw, n)
                    moved += bool(image)
    assert moved


# -- quadraticity --------------------------------------------------------------

def quadraticity_routes(X):
    'The evidence of both quadraticity routes that a decision recorded.'
    decide = (decide_koszul_ring if isinstance(X, GradedRing)
              else decide_koszul_coring)
    ok, evidence = decide(X).per_criterion['quadraticity_consistent']
    assert ok
    return evidence


def test_quadraticity_routes_fixtures(diamond, p_bad, tail_diamond):
    for P, expected in ((diamond, True), (p_bad, False),
                        (tail_diamond, True)):
        A = incidence_ring(P)
        C = incidence_coring(P)
        direct, witness = is_quadratic_direct(A)
        assert direct is expected
        assert quadraticity_routes(A)['via_tor'] is expected
        assert quadraticity_routes(C)['via_ext'] is expected
        cd, cw = is_quadratic_coring_direct(C)
        assert cd is expected
        if not expected:
            assert witness['degree'] == 3
            assert cw['degree'] == 3


def test_quadraticity_routes_corpus():
    for P in enumerate_corpus(4):
        A, C = incidence_ring(P), incidence_coring(P)
        assert quadraticity_routes(A)['via_tor'] == is_quadratic_direct(A)[0]
        assert (quadraticity_routes(C)['via_ext']
                == is_quadratic_coring_direct(C)[0])


def reference_quadratic_direct(A):
    'The direct ring test read off the quadratic ring built to top + 1.'
    V = A.component(1)
    Q = quadratic_ring_of(QuadraticData(V, kernel_sub(A.mu(1, 1))),
                          A.top_degree + 1)
    for n in range(2, A.top_degree + 2):
        Qn, An = Q.component(n), A.component(n)
        if Qn.dim != An.dim:
            return False, {'degree': n, 'quadratic_dim': Qn.dim,
                           'ring_dim': An.dim}
        incl = from_basis_action(Qn, tensor_power(V, n),
                                             lambda key, l: [(l, 1)])
        if An.dim and map_rank(iterated_mu(A, n).compose(incl)) != An.dim:
            return False, {'degree': n,
                           'reason': 'canonical map is not bijective'}
    return True, None


def reference_quadratic_coring_direct(C):
    """The direct coring test: the ring reference on the graded dual, since
    C = {C_1, Im Delta_{1,1}} exactly when its dual ring is
    <^*C_1, Ker mu^{1,1}>."""
    ok, witness = reference_quadratic_direct(graded_left_dual_of_coring(C))
    if witness and 'ring_dim' in witness:
        witness['coring_dim'] = witness.pop('ring_dim')
    return ok, witness


@pytest.mark.parametrize('field', [RATIONALS, FieldSpec.prime_field(2),
                                   FieldSpec.prime_field(3)],
                         ids=['Q', 'F2', 'F3'])
def test_direct_quadraticity_matches_the_built_quadratic_structures(
        field, p_bad):
    # the references still rank the canonical map, which the direct tests
    # skip; incidence structures are monomial, the quiver rings mix words
    pairs = [(incidence_ring(P, field), incidence_coring(P, field))
             for P in list(enumerate_corpus(5)) + [p_bad]]
    rng = random.Random(31)
    for _ in range(10):
        A = random_quiver_ring(rng, field)
        pairs.append((A, graded_left_dual_of_ring(A)))
    past_top = 0
    for A, C in pairs:
        # a truncation at m >= 3 keeps degree 1 and the (1, 1) structure
        # map, so its quadratic structure can outlive it at m = top + 1
        cases = [(X, is_quadratic_direct, reference_quadratic_direct)
                 for X in [A] + [truncate_ring(A, m)
                                 for m in range(2, A.top_degree + 1)]]
        cases += [(X, is_quadratic_coring_direct,
                   reference_quadratic_coring_direct)
                  for X in [C] + [truncate_coring(C, m)
                                  for m in range(2, C.top_degree + 1)]]
        for X, direct, reference in cases:
            ok, witness = direct(X)
            assert (ok, witness) == reference(X), X
            if witness is not None and witness['degree'] == X.top_degree + 1:
                past_top += 1
    assert past_top > 0
    assert is_quadratic_direct(incidence_ring(p_bad, field))[0] is False


def test_direct_quadraticity_builds_no_graded_ring(monkeypatch):
    A = incidence_ring(chain_poset(3))
    built = []
    original = GradedRing.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(GradedRing, '__init__', counting)
    assert is_quadratic_direct(A) == (True, None)
    assert is_quadratic_direct(truncate_ring(A, 3))[0] is False
    assert len(built) == 1   # the truncation, built by the test itself


def test_direct_coring_quadraticity_builds_no_graded_structure(monkeypatch):
    # every construction, a graded dual's included, runs _assemble
    C = incidence_coring(chain_poset(3))
    truncated = truncate_coring(C, 3)
    built = []
    original = _Graded._assemble

    def counting(self, *args):
        built.append(self)
        original(self, *args)

    monkeypatch.setattr(_Graded, '_assemble', counting)
    assert is_quadratic_coring_direct(C) == (True, None)
    assert is_quadratic_coring_direct(truncated)[0] is False
    assert built == []


def test_tor2_ext2_sequences(diamond, p_bad, tail_diamond):
    for P in (diamond, p_bad, tail_diamond):
        A = incidence_ring(P)
        C = incidence_coring(P)
        for m in range(2, 2 * A.top_degree + 1):
            assert degree2_sequence_holds(A, m)
            assert degree2_sequence_holds(C, m)

