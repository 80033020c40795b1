"""Exact sparse linear algebra against the dense Fraction oracle."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from koszulity.exact_linalg import (FieldSpec, RATIONALS, SparseMatrix,
                                    Subspace, rank, kernel_basis,
                                    image_basis, intersect, quotient_dim,
                                    solve_columns, hstack, vstack,
                                    DimensionError)
import oracle


def dense_of(M):
    return [[Fraction(M.entries.get((i, j), 0)) for j in range(M.cols)]
            for i in range(M.rows)]


def test_field_spec_validation():
    with pytest.raises(ValueError):
        FieldSpec.prime_field(4)
    with pytest.raises(ValueError):
        FieldSpec.prime_field(1)
    fp5 = FieldSpec.prime_field(5)
    assert fp5.mul(3, 4) == 2
    assert fp5.invert(3) == 2
    assert RATIONALS.invert(Fraction(2, 3)) == Fraction(3, 2)


def test_sparse_matrix_basics():
    M = SparseMatrix.from_dense([[1, 0, 2], [0, 0, 0], [3, 4, 0]])
    assert M.nnz() == 4
    assert M.transpose().entries == {(0, 0): 1, (2, 0): 2, (0, 2): 3, (1, 2): 4}
    assert M.column(0) == {0: 1, 2: 3}
    assert M.column(1) == {2: 4} and M.column(2) == {0: 2}
    assert M.columns() == [M.column(j) for j in range(3)]
    assert SparseMatrix.zero(2, 2).column(1) == {}
    I = SparseMatrix.identity(3)
    assert M.matmul(I) == M
    assert I.matmul(M) == M
    assert M.add(M.scale(-1)).is_zero()


def test_matmul_shape_mismatch():
    A = SparseMatrix.zero(2, 3)
    B = SparseMatrix.zero(2, 3)
    with pytest.raises(DimensionError):
        A.matmul(B)


def test_rank_small_cases():
    assert rank(SparseMatrix.zero(4, 5)) == 0
    assert rank(SparseMatrix.identity(7)) == 7
    M = SparseMatrix.from_dense([[1, 2], [2, 4]])
    assert rank(M) == 1
    M = SparseMatrix.from_dense([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert rank(M) == 2


@st.composite
def small_matrix(draw):
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 6))
    triplets = []
    for i in range(rows):
        for j in range(cols):
            v = draw(st.integers(-4, 4))
            if v:
                triplets.append((i, j, Fraction(v)))
    return SparseMatrix(rows, cols, triplets)


@given(small_matrix())
@settings(max_examples=120, deadline=None)
def test_rank_matches_oracle(M):
    assert rank(M) == oracle.rank(dense_of(M))


@given(small_matrix())
@settings(max_examples=80, deadline=None)
def test_kernel_matches_oracle(M):
    ker = kernel_basis(M)
    okernel = oracle.kernel(dense_of(M))
    assert ker.dim == len(okernel)
    # every oracle kernel vector must lie in the computed kernel
    for vec in okernel:
        as_dict = {i: v for i, v in enumerate(vec) if v}
        assert ker.contains_vector(as_dict)


@given(small_matrix())
@settings(max_examples=60, deadline=None)
def test_rank_nullity(M):
    assert rank(M) + kernel_basis(M).dim == M.cols
    assert image_basis(M).dim == rank(M)


def test_rank_prime_field_differs_in_characteristic():
    M = SparseMatrix.from_dense([[2]])
    assert rank(M) == 1
    assert rank(M, FieldSpec.prime_field(2)) == 0


def test_subspace_operations():
    e = lambda i: {i: Fraction(1)}
    U = Subspace.from_spanning([e(0), e(1)], 3)
    W = Subspace.from_spanning([e(1), e(2)], 3)
    both = intersect([U, W])
    assert both.dim == 1
    assert both.contains_vector(e(1))
    assert not both.contains_vector(e(0))
    assert quotient_dim(3, U) == 1
    assert U.contains(both)
    assert not both.contains(U)
    assert Subspace.full(3).dim == 3


def test_subspace_reduce_vector():
    U = Subspace.from_spanning([{0: Fraction(1), 1: Fraction(1)}], 2)
    r = U.reduce_vector({0: Fraction(1)})
    assert r, 'vector outside the span must have nonzero residue'
    assert U.reduce_vector({0: Fraction(2), 1: Fraction(2)}) == {}


def test_solve_columns():
    cols = [{0: Fraction(1), 1: Fraction(1)}, {1: Fraction(1)}]
    sol = solve_columns(cols, {0: Fraction(2), 1: Fraction(5)}, 2)
    assert sol == [Fraction(2), Fraction(3)]
    assert solve_columns(cols, {}, 2) == [0, 0]
    assert solve_columns([cols[1]], {0: Fraction(1)}, 2) is None


def test_hstack_vstack():
    A = SparseMatrix.from_dense([[1, 2]])
    B = SparseMatrix.from_dense([[3]])
    H = hstack([A, B])
    assert (H.rows, H.cols) == (1, 3)
    assert H.entries == {(0, 0): 1, (0, 1): 2, (0, 2): 3}
    V = vstack([A, SparseMatrix.from_dense([[4, 5]])])
    assert (V.rows, V.cols) == (2, 2)
    assert V.entries[(1, 1)] == 5
    with pytest.raises(DimensionError):
        vstack([A, B])


@given(small_matrix())
@settings(max_examples=40, deadline=None)
def test_rank_transpose_invariant(M):
    assert rank(M) == rank(M.transpose())


# -- integral rationals are ints ----------------------------------------------

def _random_matrix(rng, rows, cols, entry, density=0.6):
    return SparseMatrix(rows, cols, [(i, j, entry(rng))
                                     for i in range(rows) for j in range(cols)
                                     if rng.random() < density])


def _low_rank(rng, rows, cols, inner, entry):
    'A dense product rows x inner times inner x cols: rank at most inner.'
    left = [[entry(rng) for _ in range(inner)] for _ in range(rows)]
    right = [[entry(rng) for _ in range(cols)] for _ in range(inner)]
    return SparseMatrix.from_dense([[sum(a * b for a, b in zip(row, col))
                                     for col in zip(*right)] for row in left])


def _int_entry(rng):
    return rng.randint(-3, 3)


def _fraction_entry(rng):
    return Fraction(rng.randint(-4, 4), rng.randint(1, 4))


def _seeded_matrices(entry):
    rng = random.Random(20150 + (entry is _fraction_entry))
    for _ in range(30):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        if rng.random() < 0.5:
            yield _random_matrix(rng, rows, cols, entry)
        else:
            yield _low_rank(rng, rows, cols, rng.randint(1, 3), entry)


def _no_integral_fraction(values):
    return all(not (isinstance(v, Fraction) and v.denominator == 1)
               for v in values)


def _span_dim(vectors, n):
    return oracle.rank([[v.get(i, 0) for i in range(n)] for v in vectors])


ENTRY_KINDS = pytest.mark.parametrize('entry', [_int_entry, _fraction_entry],
                                      ids=['int', 'fraction'])


@ENTRY_KINDS
def test_kernel_agrees_with_oracle_on_seeded_matrices(entry):
    for M in _seeded_matrices(entry):
        dense = dense_of(M)
        r = rank(M)
        assert type(r) is int and r == oracle.rank(dense)
        ker = kernel_basis(M)
        okernel = oracle.kernel(dense)
        assert ker.dim == len(okernel) == M.cols - r
        for vec in okernel:
            assert ker.contains_vector({i: v for i, v in enumerate(vec) if v})
        for col in ker.basis.columns():
            assert all(sum(dense[i][j] * v for j, v in col.items()) == 0
                       for i in range(M.rows))
        image = image_basis(M)
        pivots = [next(j for j, v in enumerate(row) if v)
                  for row in oracle.row_reduce(dense)[1]]
        assert image.basis.columns() == [M.column(j) for j in pivots]
        for S in (ker, image):
            assert _no_integral_fraction(S.basis.entries.values())


@ENTRY_KINDS
def test_solve_columns_agrees_with_oracle_on_seeded_matrices(entry):
    rng = random.Random(7)
    for M in _seeded_matrices(entry):
        cols = M.columns()
        dense_cols = [[col.get(i, 0) for i in range(M.rows)] for col in cols]
        inside = {}
        for col in cols:
            c = rng.randint(-2, 2)
            for i, v in col.items():
                inside[i] = inside.get(i, 0) + c * v
        targets = [{i: v for i, v in inside.items() if v},
                   {rng.randrange(M.rows): Fraction(1, 3)}]
        for target in targets:
            coords = solve_columns(cols, target, M.rows)
            expected = oracle.solve_in_span(
                dense_cols, [target.get(i, 0) for i in range(M.rows)])
            assert coords == expected
            if coords is not None:
                assert _no_integral_fraction(coords)
        assert solve_columns(cols, targets[0], M.rows) is not None


@ENTRY_KINDS
def test_intersect_agrees_with_oracle_on_seeded_matrices(entry):
    rng = random.Random(11)
    for M in _seeded_matrices(entry):
        N = _random_matrix(rng, M.rows, rng.randint(1, 4), entry)
        U, W = image_basis(M), image_basis(N)
        both = intersect([U, W])
        cu, cw = U.basis.columns(), W.basis.columns()
        expected = U.dim + W.dim - _span_dim(cu + cw, M.rows)
        assert both.dim == expected
        for col in both.basis.columns():
            vec = [col.get(i, 0) for i in range(M.rows)]
            for span in (cu, cw):
                dense = [[c.get(i, 0) for i in range(M.rows)] for c in span]
                assert oracle.solve_in_span(dense, vec) is not None
        assert _no_integral_fraction(both.basis.entries.values())


def test_matrix_operations_leave_no_integral_fraction():
    rng = random.Random(3)
    for _ in range(20):
        M = _random_matrix(rng, 4, 5, _fraction_entry)
        N = _random_matrix(rng, 5, 3, _fraction_entry)
        results = [M.matmul(N), M.add(M), M.scale(Fraction(4, 2)),
                   M.scale(Fraction(1, 2)), M.add(M.scale(-1))]
        for R in results:
            assert _no_integral_fraction(R.entries.values())
        assert M.add(M) == M.scale(2)
    assert RATIONALS.coerce(Fraction(6, 3)) == 2
    assert type(RATIONALS.coerce(Fraction(6, 3))) is int
    assert type(RATIONALS.invert(-1)) is int
    assert RATIONALS.invert(2) == Fraction(1, 2)
    assert type(RATIONALS.mul(Fraction(1, 2), 2)) is int
    assert (RATIONALS.zero, RATIONALS.one) == (0, 1)
    assert type(RATIONALS.zero) is int and type(RATIONALS.one) is int


def test_int_and_fraction_matrices_are_equal_and_hash_alike():
    ints = SparseMatrix(2, 3, [(0, 0, 2), (1, 2, -1)])
    fracs = SparseMatrix(2, 3, [(0, 0, Fraction(2)), (1, 2, Fraction(-1))])
    assert ints == fracs and hash(ints) == hash(fracs)
    assert len({ints, fracs}) == 1
    assert ints != SparseMatrix(2, 3, [(0, 0, Fraction(5, 2)), (1, 2, -1)])
    assert ints != SparseMatrix(3, 2, [(0, 0, 2), (2, 1, -1)])


def _rank_mod(dense, p):
    'Dense Gaussian elimination mod p.'
    rows = [[v % p for v in row] for row in dense]
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][col], -1, p)
        rows[r] = [v * inv % p for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                c = rows[i][col]
                rows[i] = [(a - c * b) % p for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


@pytest.mark.parametrize('p', [2, 3, 7])
def test_prime_field_results_with_negative_int_entries(p):
    F = FieldSpec.prime_field(p)
    rng = random.Random(p)
    for _ in range(25):
        M = _low_rank(rng, rng.randint(1, 6), rng.randint(1, 6),
                      rng.randint(1, 3), lambda r: r.randint(-9, 9))
        reduced = SparseMatrix(M.rows, M.cols,
                               [(i, j, v % p) for (i, j), v in M.entries.items()])
        dense = [[M.entries.get((i, j), 0) for j in range(M.cols)]
                 for i in range(M.rows)]
        assert rank(M, F) == rank(reduced, F) == _rank_mod(dense, p)
        ker = kernel_basis(M, F)
        assert ker.basis == kernel_basis(reduced, F).basis
        assert all(type(v) is int and 0 <= v < p
                   for v in ker.basis.entries.values())
        assert M.matmul(ker.basis, F).is_zero()
        assert M.matmul(ker.basis, F) == reduced.matmul(ker.basis, F)
        assert image_basis(M, F) == image_basis(reduced, F)
        assert M.scale(-1, F) == reduced.scale(p - 1, F)
        assert M.add(M, F) == reduced.scale(2, F)


def test_prime_field_values_are_frozen():
    'Values over F_7 of a fixed matrix with negative entries, frozen from the all-Fraction kernel.'
    F7 = FieldSpec.prime_field(7)
    rng = random.Random(7)
    M = SparseMatrix(4, 6, [(i, j, rng.randint(-9, 9)) for i in range(4)
                            for j in range(6) if rng.random() < 0.6])
    assert rank(M, F7) == 4
    assert kernel_basis(M, F7).basis.entries == {
        (0, 0): 4, (0, 1): 6, (1, 0): 1, (1, 1): 3, (2, 0): 2, (2, 1): 1,
        (3, 0): 6, (3, 1): 2, (4, 0): 1, (5, 1): 1}
    cols = M.columns()
    U = Subspace.from_spanning(cols[:3], 4, F7)
    W = Subspace.from_spanning(cols[2:], 4, F7)
    assert intersect([U, W], F7).basis.entries == {
        (0, 0): 1, (1, 1): 1, (2, 2): 1, (3, 0): 3, (3, 1): 5, (3, 2): 1}
    assert F7.coerce(-3) == 4 and F7.coerce(Fraction(1, 2)) == 4
