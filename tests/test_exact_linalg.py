"""Exact sparse linear algebra against the dense Fraction oracle."""

import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from koszulity.homology import bar_complex_ring
from koszulity.poset import incidence_ring
from koszulity.exact_linalg import (FieldSpec, RATIONALS, SparseMatrix,
                                    Subspace, Echelon, rank, kernel_basis,
                                    image_basis, DimensionError)
import oracle
from oracle import rank_mod as _rank_mod
from conftest import from_dense, from_spanning, grid_poset, hstack, vstack


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
    for unit in (1, -1):
        inverse = RATIONALS.invert(unit)
        assert inverse == unit and type(inverse) is int
    assert RATIONALS.invert(2) == Fraction(1, 2)
    with pytest.raises(ZeroDivisionError):
        RATIONALS.invert(0)
    # a value: equal fields give equal, hash-equal specs, closed to assignment
    twin = FieldSpec('prime_field', 5)
    assert twin == fp5 and hash(twin) == hash(fp5) and twin is not fp5
    assert FieldSpec.rationals() == RATIONALS != fp5
    assert fp5 != FieldSpec.prime_field(3)
    assert repr(fp5) == "FieldSpec(kind='prime_field', p=5)"
    with pytest.raises(AttributeError):
        fp5.p = 7
    for field in (RATIONALS, FieldSpec.prime_field(3)):
        copy = pickle.loads(pickle.dumps(field))
        assert copy == field and hash(copy) == hash(field)


def test_sparse_matrix_basics():
    M = from_dense([[1, 0, 2], [0, 0, 0], [3, 4, 0]])
    assert M.nnz() == 4
    assert M.transpose().entries == {(0, 0): 1, (2, 0): 2, (0, 2): 3, (1, 2): 4}
    assert M.column(0) == {0: 1, 2: 3}
    assert M.column(1) == {2: 4} and M.column(2) == {0: 2}
    assert M.columns() == [M.column(j) for j in range(3)]
    assert SparseMatrix.zero(2, 2).column(1) == {}
    I = SparseMatrix.identity(3)
    assert M.matmul(I) == M
    assert I.matmul(M) == M


def test_matmul_shape_mismatch():
    A = SparseMatrix.zero(2, 3)
    B = SparseMatrix.zero(2, 3)
    with pytest.raises(DimensionError):
        A.matmul(B)


def test_rank_small_cases():
    assert rank(SparseMatrix.zero(4, 5)) == 0
    assert rank(SparseMatrix.identity(7)) == 7
    M = from_dense([[1, 2], [2, 4]])
    assert rank(M) == 1
    M = from_dense([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
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
    M = from_dense([[2]])
    assert rank(M) == 1
    assert rank(M, FieldSpec.prime_field(2)) == 0


def test_subspace_operations():
    e = lambda i: {i: Fraction(1)}
    U = from_spanning([e(0), e(1)], 3)
    both = from_spanning([e(1)], 3)
    assert both.dim == 1
    assert both.contains_vector(e(1))
    assert not both.contains_vector(e(0))
    assert U.contains(both)
    assert not both.contains(U)
    assert Subspace.full(3).dim == 3


def test_subspace_reduce_vector():
    U = from_spanning([{0: Fraction(1), 1: Fraction(1)}], 2)
    r = U.reduce_vector({0: Fraction(1)})
    assert r, 'vector outside the span must have nonzero residue'
    assert U.reduce_vector({0: Fraction(2), 1: Fraction(2)}) == {}


def _solve(columns, target, field=RATIONALS):
    """Coordinates of target in the span of the columns, or None: the
    columns are added tagged by position, so a dependent one gets 0."""
    echelon = Echelon(field)
    for j, col in enumerate(columns):
        echelon.add(col, j)
    residual, coords = echelon.reduce(target)
    if residual:
        return None
    return [coords.get(j, 0) for j in range(len(columns))]


def test_echelon_coordinates():
    cols = [{0: Fraction(1), 1: Fraction(1)}, {1: Fraction(1)}]
    sol = _solve(cols, {0: Fraction(2), 1: Fraction(5)})
    assert sol == [Fraction(2), Fraction(3)]
    assert _solve(cols, {}) == [0, 0]
    assert _solve([cols[1]], {0: Fraction(1)}) is None
    echelon = Echelon(RATIONALS, cols)
    assert len(echelon.rows) == 2 and not echelon.add({0: 3, 1: 4})


def test_hstack_vstack():
    A = from_dense([[1, 2]])
    B = from_dense([[3]])
    H = hstack([A, B])
    assert (H.rows, H.cols) == (1, 3)
    assert H.entries == {(0, 0): 1, (0, 1): 2, (0, 2): 3}
    V = vstack([A, from_dense([[4, 5]])])
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
    return from_dense([[sum(a * b for a, b in zip(row, col))
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
def test_echelon_coordinates_agree_with_oracle_on_seeded_matrices(entry):
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
            coords = _solve(cols, target)
            expected = oracle.solve_in_span(
                dense_cols, [target.get(i, 0) for i in range(M.rows)])
            assert coords == expected
            if coords is not None:
                assert _no_integral_fraction(coords)
        assert _solve(cols, targets[0]) is not None


def _as_dict(vec):
    return {i: v for i, v in enumerate(vec) if v}


@ENTRY_KINDS
def test_bases_are_pinned_to_the_oracle(entry):
    """The kernel basis is the oracle's free-column parametrization and the
    span basis is the oracle's reduced echelon basis, vector for vector."""
    for M in _seeded_matrices(entry):
        dense = dense_of(M)
        assert kernel_basis(M).basis.columns() == [
            _as_dict(vec) for vec in oracle.kernel(dense)]
        span = from_spanning(M.columns(), M.rows)
        transposed = [list(col) for col in zip(*dense)]
        assert span.basis.columns() == [
            _as_dict(row) for row in oracle.row_reduce(transposed)[1]]
        assert _no_integral_fraction(span.basis.entries.values())


@pytest.mark.parametrize('p', [2, 3])
def test_prime_field_span_basis_is_reduced_echelon(p):
    F = FieldSpec.prime_field(p)
    rng = random.Random(100 + p)
    for _ in range(40):
        M = _random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7),
                           lambda r: r.randint(-4, 4))
        span = from_spanning(M.columns(), M.rows, F)
        basis = span.basis.columns()
        leads = [min(col) for col in basis]
        assert leads == sorted(set(leads))
        for col, lead in zip(basis, leads):
            assert col[lead] == 1
            assert not any(other.get(lead) for other in basis if other is not col)
            assert all(type(v) is int and 0 < v < p for v in col.values())
        dense = [[M.entries.get((i, j), 0) for j in range(M.cols)]
                 for i in range(M.rows)]
        assert span.dim == _rank_mod(dense, p)
        assert all(span.contains_vector(col) for col in M.columns())


def test_matrix_operations_leave_no_integral_fraction():
    rng = random.Random(3)
    for _ in range(20):
        M = _random_matrix(rng, 4, 5, _fraction_entry)
        N = _random_matrix(rng, 5, 3, _fraction_entry)
        assert _no_integral_fraction(M.matmul(N).entries.values())
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
    assert F7.coerce(-3) == 4 and F7.coerce(Fraction(1, 2)) == 4


# -- rank at the sizes of real slices -----------------------------------------

def _sign_entry(rng):
    return rng.choice((1, -1))


def _sparse_sign_entry(rng):
    return rng.choice((1, -1, 0, 0, 0, 0))


def _large_seeded_matrices():
    'Sparse +-1 matrices and low-rank products of sparse +-1 factors, up to 40x60.'
    rng = random.Random(4060)
    for _ in range(16):
        rows, cols = rng.randint(20, 40), rng.randint(30, 60)
        if rng.random() < 0.5:
            yield _random_matrix(rng, rows, cols, _sign_entry,
                                 density=rng.choice((0.03, 0.06, 0.12)))
        else:
            yield _low_rank(rng, rows, cols, rng.randint(2, rows // 2),
                            _sparse_sign_entry)


@pytest.mark.parametrize('p', [None, 2, 3], ids=['Q', 'F2', 'F3'])
def test_rank_agrees_with_oracle_on_large_seeded_matrices(p):
    field = RATIONALS if p is None else FieldSpec.prime_field(p)
    full = []
    for M in _large_seeded_matrices():
        r = rank(M, field)
        assert r == oracle.rank(dense_of(M), p)
        full.append(r == min(M.rows, M.cols))
    assert any(full) and not all(full)


def test_rank_of_the_largest_grid_bar_block():
    # weight 7, degree 5 of the 4x5 grid's bar complex, on the one interval
    # of length 7; its rank is frozen from the oracle (python tests/oracle.py)
    A = incidence_ring(grid_poset(4, 5))
    M = bar_complex_ring(A, 7).differentials[5].block('0_0', '3_4')
    assert (M.rows, M.cols, M.nnz()) == (216, 255, 1020)
    assert rank(M) == 140
    F2 = FieldSpec.prime_field(2)
    assert rank(M, F2) == oracle.rank(dense_of(M), 2) == 140
