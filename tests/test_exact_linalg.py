"""Exact sparse linear algebra against the dense Fraction oracle."""

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
