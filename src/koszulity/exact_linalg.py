"""Exact sparse linear algebra over the rationals and prime fields.

Everything downstream (homology dims, exactness, subspace calculus) reduces
to the handful of operations in this module.  No floating point anywhere.

Over the rationals an integral value is a plain int, and a Fraction appears
only where a value is not integral: the field operations and every result
turn an integral Fraction into its numerator.  The structure constants of
incidence rings and corings are 0 and +-1, so almost all rational work is
integer work; rank uses fraction-free updates on primitive integer rows and
never divides.  Prime-field work uses machine integers mod p.  Equal
numbers compare and hash equal across int and Fraction, so matrices with
integral Fraction entries equal their int counterparts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Optional, Union

Scalar = Union[int, Fraction]


class LinalgError(Exception):
    pass


class DimensionError(LinalgError):
    'Shape mismatch between operands.'


class ContainmentError(LinalgError):
    'Claimed subspace is not contained in the ambient space.'


class ReductionError(ArithmeticError):
    'Entry cannot be reduced over the requested field.'


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """The coefficient field: 'rationals' or 'prime_field' with modulus p."""

    kind: str
    p: Optional[int] = None

    def __post_init__(self):
        if self.kind == 'rationals':
            if self.p is not None:
                raise ValueError('rationals take no modulus')
        elif self.kind == 'prime_field':
            if self.p is None or not isinstance(self.p, int):
                raise ValueError('prime_field requires an integer modulus')
            if self.p >= 2 ** 63:
                raise ValueError('modulus must fit in a machine word')
            if not _is_prime(self.p):
                raise ValueError(f'{self.p} is not prime')
        else:
            raise ValueError(f'unknown field kind {self.kind!r}')

    @classmethod
    def rationals(cls) -> 'FieldSpec':
        return cls('rationals')

    @classmethod
    def prime_field(cls, p: int) -> 'FieldSpec':
        return cls('prime_field', p)

    # -- scalar arithmetic ------------------------------------------------

    def coerce(self, x: Scalar) -> Scalar:
        'x as a field element: an int or non-integral Fraction, or an int mod p.'
        if type(x) is int:
            return x if self.kind == 'rationals' else x % self.p
        f = Fraction(x)
        if self.kind == 'rationals':
            return _q_normal(f)
        if f.denominator % self.p == 0:
            raise ReductionError(f'denominator of {x} vanishes mod {self.p}')
        return f.numerator * pow(f.denominator, -1, self.p) % self.p

    def add(self, a, b):
        return _q_normal(a + b) if self.kind == 'rationals' else (a + b) % self.p

    def sub(self, a, b):
        return _q_normal(a - b) if self.kind == 'rationals' else (a - b) % self.p

    def mul(self, a, b):
        return _q_normal(a * b) if self.kind == 'rationals' else (a * b) % self.p

    def neg(self, a):
        return -a if self.kind == 'rationals' else (-a) % self.p

    def invert(self, a):
        if self.kind == 'rationals':
            if a == 0:
                raise ZeroDivisionError('inverting zero')
            return _q_normal(1 / Fraction(a))
        return pow(a, -1, self.p)

    def is_zero(self, a) -> bool:
        return a == 0

    zero = 0
    one = 1


def _q_normal(x):
    'x, with an integral Fraction replaced by its numerator.'
    if type(x) is Fraction and x.denominator == 1:
        return x.numerator
    return x


RATIONALS = FieldSpec.rationals()


def accumulate(vec: dict, key, a, b, field: FieldSpec) -> None:
    'vec[key] += a * b in place; an entry that cancels to zero is dropped.'
    if field.kind != 'rationals':
        a, b = field.coerce(a), field.coerce(b)
    nv = field.coerce(vec.get(key, 0) + a * b)
    if nv == 0:
        vec.pop(key, None)
    else:
        vec[key] = nv


def outer_vector(a: dict, b: dict, index, field: FieldSpec) -> dict:
    'The sparse vector with a[i] * b[j] added at index(i, j), for all i, j.'
    vec = {}
    for i, ca in a.items():
        for j, cb in b.items():
            accumulate(vec, index(i, j), ca, cb, field)
    return vec


class SparseMatrix:
    """Immutable sparse matrix in triplet form (no stored zeros)."""

    __slots__ = ('rows', 'cols', 'entries', '_by_col')

    def __init__(self, rows: int, cols: int,
                 triplets: Iterable[tuple] = ()):
        if rows < 0 or cols < 0:
            raise DimensionError('negative shape')
        entries = {}
        for i, j, v in triplets:
            if not (0 <= i < rows and 0 <= j < cols):
                raise DimensionError(f'entry ({i},{j}) outside {rows}x{cols}')
            if (i, j) in entries:
                raise ValueError(f'duplicate entry at ({i},{j})')
            if v != 0:
                entries[(i, j)] = v
        object.__setattr__(self, 'rows', rows)
        object.__setattr__(self, 'cols', cols)
        object.__setattr__(self, 'entries', entries)
        object.__setattr__(self, '_by_col', None)

    def __setattr__(self, *a):
        raise AttributeError('SparseMatrix is immutable')

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, rows: int, cols: int) -> 'SparseMatrix':
        return cls(rows, cols)

    @classmethod
    def identity(cls, n: int) -> 'SparseMatrix':
        return cls(n, n, [(i, i, 1) for i in range(n)])

    @classmethod
    def from_dense(cls, dense) -> 'SparseMatrix':
        rows = len(dense)
        cols = len(dense[0]) if rows else 0
        trips = [(i, j, v) for i, row in enumerate(dense)
                 for j, v in enumerate(row) if v != 0]
        return cls(rows, cols, trips)

    @classmethod
    def from_columns(cls, columns, nrows: int) -> 'SparseMatrix':
        'columns: list of {row_index: value} dicts'
        trips = []
        for j, col in enumerate(columns):
            for i, v in col.items():
                trips.append((i, j, v))
        return cls(nrows, len(columns), trips)

    # -- views --------------------------------------------------------------

    def column_entries(self, j: int) -> list:
        'The [(i, value)] of column j, in entry order; indexed on first use.'
        if self._by_col is None:
            by_col = {}
            for (i, jj), v in self.entries.items():
                by_col.setdefault(jj, []).append((i, v))
            object.__setattr__(self, '_by_col', by_col)
        return self._by_col.get(j, ())

    def column(self, j: int) -> dict:
        return dict(self.column_entries(j))

    def columns(self) -> list:
        out = [dict() for _ in range(self.cols)]
        for (i, j), v in self.entries.items():
            out[j][i] = v
        return out

    def is_zero(self) -> bool:
        return not self.entries

    def nnz(self) -> int:
        return len(self.entries)

    # -- algebra --------------------------------------------------------------

    def transpose(self) -> 'SparseMatrix':
        return SparseMatrix(self.cols, self.rows,
                            [(j, i, v) for (i, j), v in self.entries.items()])

    # Over Q the stored entries are multiplied and added as they are, and
    # only the results are coerced; over F_p each entry is reduced first.

    def _field_entries(self, field: FieldSpec) -> dict:
        if field.kind == 'rationals':
            return self.entries
        return {k: field.coerce(v) for k, v in self.entries.items()}

    @staticmethod
    def _from_sums(rows: int, cols: int, acc: dict, field: FieldSpec):
        trips = []
        for (i, j), v in acc.items():
            v = field.coerce(v)
            if v != 0:
                trips.append((i, j, v))
        return SparseMatrix(rows, cols, trips)

    def matmul(self, other: 'SparseMatrix', field: FieldSpec = RATIONALS) -> 'SparseMatrix':
        if self.cols != other.rows:
            raise DimensionError(f'{self.rows}x{self.cols} @ {other.rows}x{other.cols}')
        by_row = {}
        for (k, j), v in other._field_entries(field).items():
            by_row.setdefault(k, []).append((j, v))
        acc = {}
        for (i, k), u in self._field_entries(field).items():
            for j, v in by_row.get(k, ()):
                key = (i, j)
                acc[key] = acc.get(key, 0) + u * v
        return SparseMatrix._from_sums(self.rows, other.cols, acc, field)

    def add(self, other: 'SparseMatrix', field: FieldSpec = RATIONALS) -> 'SparseMatrix':
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError('shape mismatch in add')
        acc = dict(self._field_entries(field))
        for k, v in other._field_entries(field).items():
            acc[k] = acc.get(k, 0) + v
        return SparseMatrix._from_sums(self.rows, self.cols, acc, field)

    def scale(self, c, field: FieldSpec = RATIONALS) -> 'SparseMatrix':
        c = field.coerce(c)
        if c == 0:
            return SparseMatrix.zero(self.rows, self.cols)
        return SparseMatrix._from_sums(
            self.rows, self.cols,
            {k: v * c for k, v in self._field_entries(field).items()}, field)

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return ((self.rows, self.cols) == (other.rows, other.cols)
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, frozenset(self.entries.items())))

    def __repr__(self):
        return f'SparseMatrix({self.rows}x{self.cols}, nnz={self.nnz()})'


def hstack(mats: list) -> SparseMatrix:
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise DimensionError('hstack row mismatch')
    trips = []
    off = 0
    for m in mats:
        trips.extend((i, j + off, v) for (i, j), v in m.entries.items())
        off += m.cols
    return SparseMatrix(rows, off, trips)


def vstack(mats: list) -> SparseMatrix:
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise DimensionError('vstack col mismatch')
    trips = []
    off = 0
    for m in mats:
        trips.extend((i + off, j, v) for (i, j), v in m.entries.items())
        off += m.rows
    return SparseMatrix(off, cols, trips)


# ---------------------------------------------------------------------------
# elimination kernels
# ---------------------------------------------------------------------------

def _primitive_int_row(row: dict) -> None:
    'Scale a nonempty row of nonzero rationals in place to a primitive int row.'
    denom = 1
    for v in row.values():
        if type(v) is not int:
            denom = denom * v.denominator // gcd(denom, v.denominator)
    if denom != 1:
        for k, v in row.items():
            row[k] = v.numerator * (denom // v.denominator)
    g = gcd(*row.values())
    if g != 1:
        for k, v in row.items():
            row[k] = v // g


def rank(M: SparseMatrix, field: FieldSpec = RATIONALS) -> int:
    """Rank by sparse elimination with Markowitz-style min-fill pivoting.

    Over the rationals the update is fraction-free (cross-multiplication on
    primitive integer rows), so no rational division ever happens.
    """
    rows = {}
    for (i, j), v in M.entries.items():
        c = field.coerce(v)
        if not field.is_zero(c):
            rows.setdefault(i, {})[j] = c
    if field.kind == 'rationals':
        for r in rows.values():
            _primitive_int_row(r)
    col_rows = {}
    for i, r in rows.items():
        for j in r:
            col_rows.setdefault(j, set()).add(i)
    rk = 0
    while rows:
        best = None
        for i, r in rows.items():
            for j in r:
                cost = (len(r) - 1) * (len(col_rows[j]) - 1)
                key = (cost, j, i)
                if best is None or key < best:
                    best = key
        _, pj, pi = best
        prow = rows.pop(pi)
        pval = prow[pj]
        for j in prow:
            col_rows[j].discard(pi)
        for k in list(col_rows.get(pj, ())):
            krow = rows[k]
            kval = krow[pj]
            for j in list(krow):
                col_rows[j].discard(k)
            if field.kind == 'rationals':
                newrow = {}
                for j in set(krow) | set(prow):
                    val = pval * krow.get(j, 0) - kval * prow.get(j, 0)
                    if val != 0:
                        newrow[j] = val
                if newrow:
                    _primitive_int_row(newrow)
            else:
                factor = field.mul(kval, field.invert(pval))
                newrow = dict(krow)
                for j, v in prow.items():
                    nv = field.sub(newrow.get(j, 0), field.mul(factor, v))
                    if field.is_zero(nv):
                        newrow.pop(j, None)
                    else:
                        newrow[j] = nv
            if newrow:
                rows[k] = newrow
                for j in newrow:
                    col_rows.setdefault(j, set()).add(k)
            else:
                del rows[k]
        rk += 1
    return rk


def _rref(M: SparseMatrix, field: FieldSpec):
    'Reduced row echelon form with leftmost-column pivoting. Returns (pivot cols, rows).'
    work = []
    for i in range(M.rows):
        work.append({})
    for (i, j), v in M.entries.items():
        c = field.coerce(v)
        if not field.is_zero(c):
            work[i][j] = c
    work = [r for r in work if r]
    pivots = []
    done = []
    for col in range(M.cols):
        pivot_row = None
        for r in work:
            if col in r:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        work.remove(pivot_row)
        inv = field.invert(pivot_row[col])
        pivot_row = {j: field.mul(v, inv) for j, v in pivot_row.items()}
        for rows_ in (work, done):
            for r in rows_:
                if col in r:
                    c = r.pop(col)
                    for j, v in pivot_row.items():
                        if j == col:
                            continue
                        nv = field.sub(r.get(j, field.zero), field.mul(c, v))
                        if field.is_zero(nv):
                            r.pop(j, None)
                        else:
                            r[j] = nv
        work = [r for r in work if r]
        done.append(pivot_row)
        pivots.append(col)
    return pivots, done


def reduce_by_rows(rows: list, leads: list, vec: dict,
                   field: FieldSpec = RATIONALS) -> dict:
    """Residual of vec against echelon rows with distinct ascending leads.

    Each row is 1 at its lead and 0 left of it, so clearing the leads in
    ascending order never refills one already cleared; the residual is
    empty iff vec lies in the span of the rows.
    """
    f = field
    v = {}
    for i, c in vec.items():
        c = f.coerce(c)
        if c != 0:
            v[i] = c
    for lead, row in zip(leads, rows):
        c = v.get(lead)
        if c is None:
            continue
        for j, rv in row.items():
            nv = f.sub(v.get(j, f.zero), f.mul(c, rv))
            if f.is_zero(nv):
                v.pop(j, None)
            else:
                v[j] = nv
    return v


class Subspace:
    """A subspace of k^ambient_dim given by independent basis columns."""

    __slots__ = ('ambient_dim', 'basis', 'field', '_echelon')

    def __init__(self, ambient_dim: int, basis: SparseMatrix,
                 field: FieldSpec = RATIONALS, _skip_check: bool = False):
        if basis.rows != ambient_dim:
            raise DimensionError('basis rows must equal ambient dim')
        object.__setattr__(self, 'ambient_dim', ambient_dim)
        object.__setattr__(self, 'basis', basis)
        object.__setattr__(self, 'field', field)
        object.__setattr__(self, '_echelon', None)
        if not _skip_check and rank(basis, field) != basis.cols:
            raise LinalgError('basis columns are linearly dependent')

    def __setattr__(self, *a):
        raise AttributeError('Subspace is immutable')

    @classmethod
    def full(cls, ambient_dim: int, field: FieldSpec = RATIONALS) -> 'Subspace':
        return cls(ambient_dim, SparseMatrix.identity(ambient_dim), field,
                   _skip_check=True)

    @classmethod
    def from_spanning(cls, columns, ambient_dim: int,
                      field: FieldSpec = RATIONALS) -> 'Subspace':
        """Canonical subspace spanned by the given column dicts.

        The stored basis is the reduced echelon basis of the span, so equal
        spans produce equal Subspace values regardless of generator order.
        """
        span = SparseMatrix.from_columns(list(columns), ambient_dim)
        pivots, rows = _rref(span.transpose(), field)
        cols = [{j: v for j, v in r.items()} for r in rows]
        basis = SparseMatrix.from_columns(cols, ambient_dim)
        return cls(ambient_dim, basis, field, _skip_check=True)

    @property
    def dim(self) -> int:
        return self.basis.cols

    def _row_echelon(self):
        # cached echelon of the transposed basis, for membership tests
        if self._echelon is None:
            _, rows = _rref(self.basis.transpose(), self.field)
            object.__setattr__(self, '_echelon', rows)
        return self._echelon

    def reduce_vector(self, vec: dict) -> dict:
        'Residual of vec after reduction by the subspace (zero dict iff member).'
        rows = self._row_echelon()
        return reduce_by_rows(rows, [min(row) for row in rows], vec, self.field)

    def contains_vector(self, vec: dict) -> bool:
        return not self.reduce_vector(vec)

    def contains(self, other: 'Subspace') -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise DimensionError('ambient mismatch')
        return all(self.contains_vector(col) for col in other.basis.columns())

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.ambient_dim == other.ambient_dim
                and self.dim == other.dim and self.contains(other))

    def __repr__(self):
        return f'Subspace(dim={self.dim} of {self.ambient_dim})'


def kernel_basis(M: SparseMatrix, field: FieldSpec = RATIONALS) -> Subspace:
    'Canonical basis of the null space (free-column parametrization).'
    pivots, rows = _rref(M, field)
    pivot_set = set(pivots)
    free = [j for j in range(M.cols) if j not in pivot_set]
    cols = []
    for fcol in free:
        vec = {fcol: field.one}
        for p, row in zip(pivots, rows):
            if fcol in row:
                vec[p] = field.neg(row[fcol])
        cols.append(vec)
    basis = SparseMatrix.from_columns(cols, M.cols)
    return Subspace(M.cols, basis, field, _skip_check=True)


def image_basis(M: SparseMatrix, field: FieldSpec = RATIONALS) -> Subspace:
    'Span of the columns; basis = lexicographically first independent columns.'
    pivots, _ = _rref(M, field)
    cols = [{i: _q_normal(v) for i, v in M.column_entries(j)} for j in pivots]
    basis = SparseMatrix.from_columns(cols, M.rows)
    return Subspace(M.rows, basis, field, _skip_check=True)


def intersect(subspaces: list, field: FieldSpec = RATIONALS) -> Subspace:
    'Intersection of subspaces of a common ambient space.'
    if not subspaces:
        raise ValueError('need at least one subspace')
    ambient = subspaces[0].ambient_dim
    for s in subspaces:
        if s.ambient_dim != ambient:
            raise DimensionError('ambient mismatch in intersect')
    current = subspaces[0]
    for nxt in subspaces[1:]:
        if current.dim == 0 or nxt.dim == 0:
            return Subspace(ambient, SparseMatrix.zero(ambient, 0), field,
                            _skip_check=True)
        stacked = hstack([current.basis, nxt.basis.scale(-1, field)])
        ker = kernel_basis(stacked, field)
        cols = []
        for kv in ker.basis.columns():
            vec = {}
            for i, c in kv.items():
                if i >= current.dim:
                    continue
                for r, bv in current.basis.column(i).items():
                    accumulate(vec, r, c, bv, field)
            if vec:
                cols.append(vec)
        current = Subspace.from_spanning(cols, ambient, field)
    return current


def quotient_dim(ambient, sub: Subspace, field: FieldSpec = RATIONALS) -> int:
    'dim(ambient / sub); ambient is a Subspace or a full-space dimension.'
    if isinstance(ambient, int):
        ambient = Subspace.full(ambient, field)
    if sub.ambient_dim != ambient.ambient_dim:
        raise DimensionError('ambient mismatch in quotient')
    if not ambient.contains(sub):
        raise ContainmentError('sub is not contained in ambient')
    return ambient.dim - sub.dim


def solve_columns(columns: list, target: dict, ambient_dim: int,
                  field: FieldSpec = RATIONALS):
    """Coordinates of target in the span of the column dicts, or None.

    Deterministic: solves via RREF of the augmented matrix.
    """
    k = len(columns)
    aug = SparseMatrix.from_columns(list(columns) + [target], ambient_dim)
    pivots, rows = _rref(aug, field)
    if k in pivots:
        return None
    coords = [field.zero] * k
    for p, row in zip(pivots, rows):
        coords[p] = row.get(k, field.zero)
    return coords
