"""Exact sparse linear algebra over the rationals and prime fields.

Everything downstream (homology dims, exactness, subspace calculus) reduces
to the handful of operations in this module.  No floating point anywhere.

There is one elimination kernel, Echelon.  It keeps vectors added one at a
time as rows that are 1 at a lead of their own and 0 before it, each with
the combination of added vectors it equals; ranks, bases, membership and
coordinates are all read from it.  Bases follow three conventions, each
fixed by its input: a kernel basis is the free-column parametrization of
the reduced echelon form (a free column j gives e_j minus its coordinates
in the pivot columns); an image basis is the first independent columns; a
span basis is the reduced echelon basis of the span.

The homology of a complex needs the ranks of consecutive maps d_n and
d_{n+1} with d_n d_{n+1} = 0, and there the Echelon of the columns of
d_{n+1} saves work on d_n (clearing, the "twist" of Chen and Kerber,
Persistent homology computation with a twist, EuroCG 2011).  Its rows span
im d_{n+1}, which lies in ker d_n, and each row is 1 at its lead and 0
before it.  So the column of d_n at each lead is minus a combination of
its columns further right; taking the leads from the largest down, every
lead column lies in the span of the columns that are not leads, and rank
d_n is the rank of those columns alone.  ComplexSlice.homology_dims ranks
its slices this way.

Over the rationals an integral value is a plain int, and a Fraction appears
only where a value is not integral: the field operations and every result
turn an integral Fraction into its numerator.  The structure constants of
incidence rings and corings are 0 and +-1, so almost all rational work is
integer work, and a pivot of +-1 is its own inverse.  Prime-field work
uses machine integers mod p.  Equal numbers compare and hash equal across
int and Fraction, so matrices with integral Fraction entries equal their
int counterparts.  Echelon.reduce, the inner loop of every elimination,
does its arithmetic inline and reduces each result once, to the same
values as the FieldSpec methods.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Iterable, Optional, Union

Scalar = Union[int, Fraction]


class LinalgError(Exception):
    pass


class DimensionError(LinalgError):
    'Shape mismatch between operands.'


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


class Frozen:
    """A value over the attributes named in _fields, set once in __init__
    through __dict__: equal and hash-equal by class and values, shown as
    Class(name=value, ...), and closed to assignment.  Pickles by the
    default protocol, which restores __dict__ without assigning."""

    _fields = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return '{}({})'.format(type(self).__name__, ', '.join(
            f'{name}={getattr(self, name)!r}' for name in self._fields))

    def __setattr__(self, name, value):
        raise AttributeError(f'cannot assign to field {name!r}')

    def __delattr__(self, name):
        raise AttributeError(f'cannot delete field {name!r}')


class FieldSpec(Frozen):
    """The coefficient field: 'rationals' or 'prime_field' with modulus p."""

    _fields = ('kind', 'p')

    def __init__(self, kind: str, p: Optional[int] = None):
        if kind == 'rationals':
            if p is not None:
                raise ValueError('rationals take no modulus')
        elif kind == 'prime_field':
            if p is None or not isinstance(p, int):
                raise ValueError('prime_field requires an integer modulus')
            if p >= 2 ** 63:
                raise ValueError('modulus must fit in a machine word')
            if not _is_prime(p):
                raise ValueError(f'{p} is not prime')
        else:
            raise ValueError(f'unknown field kind {kind!r}')
        self.__dict__.update(kind=kind, p=p)

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

    def mul(self, a, b):
        return _q_normal(a * b) if self.kind == 'rationals' else (a * b) % self.p

    def neg(self, a):
        return -a if self.kind == 'rationals' else (-a) % self.p

    def invert(self, a):
        if self.kind == 'rationals':
            if a == 1 or a == -1:   # most pivots; no Fraction is made
                return a
            if a == 0:
                raise ZeroDivisionError('inverting zero')
            return _q_normal(1 / Fraction(a))
        return pow(a, -1, self.p)

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

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return ((self.rows, self.cols) == (other.rows, other.cols)
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, frozenset(self.entries.items())))

    def __repr__(self):
        return f'SparseMatrix({self.rows}x{self.cols}, nnz={self.nnz()})'


# ---------------------------------------------------------------------------
# elimination: one kernel, Echelon
# ---------------------------------------------------------------------------

def rank(M: SparseMatrix, field: FieldSpec = RATIONALS) -> int:
    'Rank: the number of rows an Echelon keeps of the columns of M.'
    return len(Echelon(field, M.columns()).rows)


class Echelon:
    """Vectors added one at a time, kept as echelon rows with coordinates.

    Each kept vector becomes a row that is 1 at a lead of its own and 0
    before it, tagged with the combination {tag: coefficient} of added
    vectors that it equals.  A vector added without a tag counts as zero in
    these combinations, so coordinates are read modulo the span of the
    untagged vectors.  Tags must be distinct.
    """

    __slots__ = ('field', 'rows')

    def __init__(self, field: FieldSpec = RATIONALS, vectors=()):
        self.field = field
        self.rows = {}   # lead -> (row, combination)
        for vec in vectors:
            self.add(vec)

    def reduce(self, vec: dict):
        """(residual, coordinates) of vec: the residual vanishes at every
        lead and is empty iff vec lies in the span, and vec equals the
        residual plus the combination that coordinates names.

        Leads are cleared in ascending order, which never refills one
        already cleared, so only the leads vec reaches are visited.  Each
        entry a is updated inline to a - c * rv and reduced once, mod p or,
        over Q, only when it is not an int.
        """
        f, rows = self.field, self.rows
        p = f.p
        v = {}
        for i, c in vec.items():
            c = f.coerce(c)
            if c != 0:
                v[i] = c
        coords = {}
        todo = [i for i in v if i in rows]
        heapify(todo)
        while todo:
            lead = heappop(todo)
            c = v.get(lead)
            if c is None:
                continue
            row, combo = rows[lead]
            for j, rv in row.items():
                nv = v.get(j, 0) - c * rv
                if p is not None:
                    nv %= p
                elif type(nv) is not int:
                    nv = _q_normal(nv)
                if nv == 0:
                    v.pop(j, None)
                else:
                    if j not in v and j in rows:
                        heappush(todo, j)
                    v[j] = nv
            for t, tc in combo.items():
                accumulate(coords, t, c, tc, f)
        return v, coords

    def add(self, vec: dict, tag=None) -> bool:
        'Keep vec, with its tag, if it lies outside the span; whether it was kept.'
        residual, coords = self.reduce(vec)
        if not residual:
            return False
        # the residual is vec minus coords; scaled to 1 at its lead
        f = self.field
        lead = min(residual)
        inv = f.invert(residual[lead])
        combo = {t: f.neg(f.mul(c, inv)) for t, c in coords.items()}
        if tag is not None:
            combo[tag] = inv
        if inv != 1:   # the residual's entries are field elements already
            residual = {j: f.mul(c, inv) for j, c in residual.items()}
        self.rows[lead] = (residual, combo)
        return True

    def reduced_rows(self) -> list:
        """Clear every lead from the other rows, in place, and return the
        rows by lead: the reduced echelon basis of the span."""
        f = self.field
        for lead in sorted(self.rows, reverse=True):
            row, combo = self.rows[lead]
            residual, coords = self.reduce(
                {j: c for j, c in row.items() if j != lead})
            for t, c in coords.items():
                accumulate(combo, t, -1, c, f)
            self.rows[lead] = ({lead: f.one, **residual}, combo)
        return [self.rows[lead][0] for lead in sorted(self.rows)]


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

    @property
    def dim(self) -> int:
        return self.basis.cols

    def reduce_vector(self, vec: dict) -> dict:
        'Residual of vec after reduction by the subspace (zero dict iff member).'
        if self._echelon is None:
            object.__setattr__(self, '_echelon',
                               Echelon(self.field, self.basis.columns()))
        return self._echelon.reduce(vec)[0]

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
    """Canonical basis of the null space (free-column parametrization): a
    free column j of the reduced echelon rows of M gives e_j minus the
    entries of column j, which are its coordinates in the pivot columns."""
    echelon = Echelon(field, M.transpose().columns())
    rows = echelon.reduced_rows()
    free = {j: {j: field.one} for j in range(M.cols) if j not in echelon.rows}
    for lead, row in zip(sorted(echelon.rows), rows):
        for j, v in row.items():
            if j != lead:
                free[j][lead] = field.neg(v)
    basis = SparseMatrix.from_columns(list(free.values()), M.cols)
    return Subspace(M.cols, basis, field, _skip_check=True)


def image_basis(M: SparseMatrix, field: FieldSpec = RATIONALS) -> Subspace:
    'Span of the columns; basis = lexicographically first independent columns.'
    echelon = Echelon(field)
    cols = [{i: _q_normal(v) for i, v in M.column_entries(j)}
            for j in range(M.cols) if echelon.add(M.column(j))]
    basis = SparseMatrix.from_columns(cols, M.rows)
    return Subspace(M.rows, basis, field, _skip_check=True)
