"""Bar and cobar homology, Betti tables, primitives, and the quadraticity
routes, all cross-checked against the dense brute-force oracle."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from koszulity.exact_linalg import FieldSpec, RATIONALS, Subspace
from koszulity.bimodule import (BaseRing, Bimodule, BimoduleMap, tensor_many,
                                tensor_power, kernel_sub, image_sub,
                                unit_bimodule)
from koszulity.graded_structures import (GradedRing, shriek_of_ring,
                                         shriek_of_coring,
                                         ideal_component_span, QuadraticData,
                                         quadratic_ring_of,
                                         quadratic_coring_of, truncate_ring,
                                         truncate_coring)
from koszulity.homology import (partitions, bar_complex_ring,
                                cobar_complex_coring, tor_table, ext_table,
                                tor_primitive_dims,
                                homology_coring_components,
                                cohomology_ring_component,
                                ext_diagonal_products_surjective,
                                quadratic_via_tor, quadratic_via_ext,
                                is_quadratic_direct,
                                is_quadratic_coring_direct,
                                verify_tor2_sequence, verify_ext2_sequence,
                                alpha_map, ComplexSlice, SliceHomology,
                                _longest_word_weights)
from koszulity.poset import (GradedPoset, incidence_ring, incidence_coring,
                             enumerate_corpus)
from koszulity.errors import PreconditionError, InvariantError
from conftest import chain_poset, antichain_poset
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


def grid_poset(rows, cols):
    cells = [(i, j) for i in range(rows) for j in range(cols)]
    covers = [((i, j), (i + di, j + dj)) for i, j in cells
              for di, dj in ((1, 0), (0, 1))
              if i + di < rows and j + dj < cols]
    return GradedPoset([f'{i}_{j}' for i, j in cells],
                       [(f'{a}_{b}', f'{c}_{d}') for (a, b), (c, d) in covers])


def compositions_space(X, n, m):
    """The degree-n slice space built from every composition of m in
    partitions() order, skipping those with a zero component."""
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
                assert list(space.basis()) == list(want.basis()), (m, n)
                assert space.dim == len(chains[n]), (m, n)


def test_slice_spaces_keep_composition_order_corpus():
    for size in range(1, 6):
        for P in enumerate_corpus(size):
            assert_slice_spaces_match(P)


def test_slice_spaces_keep_composition_order_grid():
    assert_slice_spaces_match(grid_poset(3, 4))


def test_weight_above_reachable_gives_zero_spaces():
    A = incidence_ring(grid_poset(3, 4))
    C = incidence_coring(grid_poset(3, 4))
    L = A.top_degree
    assert max(_longest_word_weights(A).values()) == L == 5
    for m in range(L + 1, 2 * L + 1):
        for cx in (bar_complex_ring(A, m), cobar_complex_coring(C, m)):
            assert sorted(cx.spaces) == list(range(m + 1))
            assert cx.total_dim() == 0
            assert all(d == 0 for d in cx.homology_dims().values())


def test_cyclic_words_are_not_pruned():
    # one idempotent with a degree-1 loop: words of every weight exist
    base = BaseRing(('x',), RATIONALS)
    V = Bimodule(base, {('x', 'x'): ('a',)})
    A = GradedRing(base, {0: unit_bimodule(base), 1: V}, {}, 1)
    assert _longest_word_weights(A) is None
    cx = bar_complex_ring(A, 4)
    assert cx.spaces[4].block('x', 'x') == (((1, 1, 1, 1), ('a',) * 4),)
    assert all(cx.spaces[n].is_zero() for n in range(4))


def test_complex_slice_rejects_a_differential_that_does_not_square_to_zero():
    # k -> k -> k with both maps the identity: d o d = 1
    base = BaseRing(('x',), RATIONALS)
    V = Bimodule(base, {('x', 'x'): ('v',)})
    d = BimoduleMap.identity(V)
    with pytest.raises(InvariantError, match='does not square to zero'):
        ComplexSlice('chain', 0, {0: V, 1: V, 2: V}, {1: d, 2: d})
    cx = ComplexSlice('chain', 0, {0: V, 1: V, 2: V},
                      {2: d, 1: BimoduleMap.zero(V, V)})
    assert cx.homology_dims() == {0: 1, 1: 0, 2: 0}


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
    assert table.is_diagonal()
    assert table.entries == oracle_tor_entries(oracle.DIAMOND, table.m_max)
    assert table.as_grid()[2][2] == 1


def test_tor_table_pbad(p_bad):
    table = tor_table(incidence_ring(p_bad))
    assert table.entries == {(0, 0): 6, (1, 1): 6, (2, 3): 1}
    assert not table.is_diagonal()
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
    # coring computes the same dimensions by intersecting relation spans
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
    table = tor_table(A, with_representatives=True)
    reps = table.representatives[(2, 2)]
    assert reps.dim == 1
    key, cols = next(iter(reps.reps.items()))
    out = reps.express(key, cols[0])
    assert len(out) == 1
    label, coeff = out[0]
    assert label[0] == 'h' and coeff == Fraction(1)
    # doubling the cycle doubles the coefficient
    doubled = {i: 2 * v for i, v in cols[0].items()}
    assert reps.express(key, doubled)[0][1] == Fraction(2)


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
            if Subspace.from_spanning(span, dim, field).contains_vector(col):
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
        for table in (tor_table(A, with_representatives=True),
                      ext_table(C, with_representatives=True)):
            assert set(table.representatives) == set(table.entries)
            for (n, m), H in table.representatives.items():
                assert H.dim == table.entry(n, m)
                assert H.reps == spanning_order_reps(table.slices[m], n)


def test_product_into_zero_cell_goes_through_express(p_bad, monkeypatch):
    C = incidence_coring(p_bad)
    table = ext_table(C, with_representatives=True)
    assert table.entry(1, 1) and not table.entry(2, 2)
    assert table.slices[2].spaces[2].dim
    calls = []
    original = SliceHomology.express

    def counted(self, key, vec):
        calls.append(self.tag)
        return original(self, key, vec)

    monkeypatch.setattr(SliceHomology, 'express', counted)
    f = cohomology_ring_component(C, 1, 1, 1, 1, table)
    assert f.is_zero() and f.target.is_zero()
    assert calls and set(calls) == {('Ext', 2, 2)}
    assert (2, 2) not in table.representatives


def test_representative_cache_required(diamond):
    A = incidence_ring(diamond)
    table = tor_table(A)
    with pytest.raises(PreconditionError):
        tor_primitive_dims(A, table)


def test_ext_products_diamond(diamond):
    C = incidence_coring(diamond)
    table = ext_table(C, with_representatives=True)
    f = cohomology_ring_component(C, 1, 1, 1, 1, table)
    assert f.rank() == 1
    ok, witness = ext_diagonal_products_surjective(C, table)
    assert ok and witness is None


def test_ext_products_pbad_vacuous(p_bad):
    # E^{3,3} vanishes, so surjectivity holds vacuously; the decision
    # couples this criterion with diagonality, which fails
    C = incidence_coring(p_bad)
    table = ext_table(C, with_representatives=True)
    ok, witness = ext_diagonal_products_surjective(C, table)
    assert ok and witness is None
    assert table.off_diagonal()


def test_primitives(diamond, p_bad):
    A = incidence_ring(diamond)
    table = tor_table(A, with_representatives=True)
    prim = tor_primitive_dims(A, table)
    assert prim[(1, 1)] == 4
    assert all(d == 0 for (n, m), d in prim.items() if n >= 2)

    B = incidence_ring(p_bad)
    table_b = tor_table(B, with_representatives=True)
    prim_b = tor_primitive_dims(B, table_b)
    assert prim_b[(2, 3)] == 1, 'the off-diagonal class is primitive'


def test_homology_coring_components(diamond, p_bad):
    A = incidence_ring(diamond)
    table = tor_table(A, with_representatives=True)
    comps, prim = homology_coring_components(A, 2, 2, table)
    assert prim == 0
    assert set(comps) == {(1, 1)}
    assert comps[(1, 1)].rank() == 1

    B = incidence_ring(p_bad)
    table_b = tor_table(B, with_representatives=True)
    comps_b, prim_b = homology_coring_components(B, 2, 3, table_b)
    assert comps_b == {} and prim_b == 1


# -- quadraticity --------------------------------------------------------------

def test_quadraticity_routes_fixtures(diamond, p_bad, tail_diamond):
    for P, expected in ((diamond, True), (p_bad, False),
                        (tail_diamond, True)):
        A = incidence_ring(P)
        C = incidence_coring(P)
        direct, witness = is_quadratic_direct(A)
        assert direct is expected
        assert quadratic_via_tor(A) is expected
        assert quadratic_via_ext(C) is expected
        cd, cw = is_quadratic_coring_direct(C)
        assert cd is expected
        if not expected:
            assert witness['degree'] == 3
            assert cw['degree'] == 3


def test_quadraticity_routes_corpus():
    for size in range(1, 5):
        for P in enumerate_corpus(size):
            A = incidence_ring(P)
            assert quadratic_via_tor(A) == is_quadratic_direct(A)[0]


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
        incl = BimoduleMap.from_basis_action(Qn, tensor_power(V, n),
                                             lambda key, l: [(l, 1)])
        if An.dim and A.iterated_mu(n).compose(incl).rank() != An.dim:
            return False, {'degree': n,
                           'reason': 'canonical map is not bijective'}
    return True, None


def reference_quadratic_coring_direct(C):
    'The direct coring test read off the quadratic coring built to top + 1.'
    V = C.component(1)
    Q = quadratic_coring_of(QuadraticData(V, image_sub(C.delta(1, 1))),
                            C.top_degree + 1)
    for n in range(2, C.top_degree + 2):
        Qn, Cn = Q.component(n), C.component(n)
        if Qn.dim != Cn.dim:
            return False, {'degree': n, 'quadratic_dim': Qn.dim,
                           'coring_dim': Cn.dim}
        if Cn.dim and C.iterated_delta(n).rank() != Cn.dim:
            return False, {'degree': n,
                           'reason': 'canonical map is not bijective'}
    return True, None


@pytest.mark.parametrize('field', [RATIONALS, FieldSpec.prime_field(3)],
                         ids=['Q', 'F3'])
def test_direct_quadraticity_matches_the_built_quadratic_structures(
        field, p_bad):
    posets = [P for size in range(1, 6) for P in enumerate_corpus(size)]
    past_top = 0
    for P in posets + [p_bad]:
        A, C = incidence_ring(P, field), incidence_coring(P, field)
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
            assert (ok, witness) == reference(X), (P, X)
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


def test_tor2_ext2_sequences(diamond, p_bad, tail_diamond):
    for P in (diamond, p_bad, tail_diamond):
        A = incidence_ring(P)
        C = incidence_coring(P)
        for m in range(2, 2 * A.top_degree + 1):
            assert verify_tor2_sequence(A, m)
            assert verify_ext2_sequence(C, m)


# -- the alpha invariant --------------------------------------------------------

def test_alpha_cycle_and_boundary(tail_diamond):
    """On the degree-m piece of the relation ideal, alpha lands in the
    2-cycles for every m >= 2, and in the 2-boundaries for m >= 3 (at
    m = 2 there is nothing in degree 3 to bound anything)."""
    A = incidence_ring(tail_diamond)
    V = A.component(1)
    K = kernel_sub(A.mu(1, 1))
    assert K.dim == 1
    for m in (2, 3):
        cx = bar_complex_ring(A, m)
        alpha = alpha_map(A, m, cx)
        span = ideal_component_span(V, K, m)
        checked = 0
        for key, sub in span.items():
            for col in sub.basis.columns():
                vec = {(key, tensor_power(V, m).block(*key)[i]): v
                       for i, v in col.items()}
                image = alpha.apply_vector(vec)
                d2 = cx.differentials.get(2)
                if d2 is not None:
                    assert not d2.apply_vector(image), 'alpha must be a cycle'
                if m >= 3:
                    hom = cx.homology_dims()
                    # boundary check: the class of alpha(x) dies
                    from koszulity.homology import SliceHomology
                    sh = SliceHomology(cx, 2, 'a')
                    for bkey, bvec in _group(image).items():
                        assert sh._boundary_part(bkey).contains_vector(
                            _dense(cx.spaces[2], bkey, bvec))
                checked += 1
        assert checked > 0, 'the relation ideal must be nonzero here'


def _group(vec):
    out = {}
    for (key, label), v in vec.items():
        out.setdefault(key, {})[label] = v
    return out


def _dense(space, key, by_label):
    idx = {l: i for i, l in enumerate(space.block(*key))}
    return {idx[l]: v for l, v in by_label.items()}
