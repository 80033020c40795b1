"""Weight slices of normalized bar and cobar complexes, and what they carry.

Each weight m gives a finite complex whose degree-n space is the direct sum
of tensor words over the positive n-part compositions of m.  Homology of
the ring slices gives the bigraded Tor table, cohomology of the coring
slices the Ext table.  On top of the tables sit class representatives, the
induced concatenation product on Ext, the induced deconcatenation on Tor
(hence primitives), quadraticity tests, and the weight-m truncation
sequences in homological degree 2.
"""

from __future__ import annotations

from bisect import bisect_left

from .exact_linalg import (Subspace, SparseMatrix, solve_columns,
                           reduce_by_rows, accumulate, outer_vector)
from .bimodule import (Bimodule, BimoduleMap, tensor, tensor_many,
                       tensor_power, zero_bimodule, kernel_sub, image_sub,
                       _block_of)
from .graded_structures import (GradedRing, GradedCoring,
                                intersection_component, ideal_component_span,
                                truncate_ring, truncate_coring,
                                is_strongly_graded_ring,
                                is_strongly_graded_coring, _complement_words,
                                _as_word, _word_label)
from .errors import PreconditionError, InvariantError


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------

def partitions(n: int, m: int) -> tuple:
    'All positive n-part compositions of m, lexicographically ordered.'
    if n < 0 or m < 0:
        raise ValueError(f'partitions({n}, {m}): n and m must be nonnegative')
    if n == 0:
        return ((),) if m == 0 else ()
    out = []

    def grow(remaining, slots, prefix):
        if slots == 1:
            if remaining >= 1:
                out.append(tuple(prefix) + (remaining,))
            return
        for first in range(1, remaining - slots + 2):
            prefix.append(first)
            grow(remaining - first, slots - 1, prefix)
            prefix.pop()

    grow(m, n, [])
    return tuple(out)


# ---------------------------------------------------------------------------
# complexes
# ---------------------------------------------------------------------------

class ComplexSlice:
    """A finite complex of bimodules within one weight.

    For direction 'chain' the differential at degree n maps spaces[n] to
    spaces[n-1]; for 'cochain' to spaces[n+1].  d after d = 0 is checked
    at construction for every consecutive pair (InvariantError).
    """

    def __init__(self, direction: str, weight: int, spaces: dict,
                 differentials: dict):
        if direction not in ('chain', 'cochain'):
            raise ValueError(f'unknown direction {direction!r}')
        self.direction = direction
        self.weight = weight
        self.spaces = dict(spaces)
        self.differentials = {n: d for n, d in differentials.items()
                              if not d.is_zero()}
        step = -1 if direction == 'chain' else 1
        for n, d in self.differentials.items():
            if d.source != self.spaces[n]:
                raise InvariantError(f'differential at {n}: bad source')
            if d.target != self.spaces[n + step]:
                raise InvariantError(f'differential at {n}: bad target')
            nxt = self.differentials.get(n + step)
            if nxt is not None and not nxt.compose(d).is_zero():
                raise InvariantError(
                    f'differential does not square to zero at degree {n}')

    def degrees(self) -> list:
        return sorted(self.spaces)

    def homology_dims(self) -> dict:
        """Degree -> homology dimension by rank-nullity.

        The Euler characteristic of the spaces and of the homology are
        compared exactly as a bookkeeping check.
        """
        step = -1 if self.direction == 'chain' else 1
        ranks = {n: d.rank() for n, d in self.differentials.items()}
        out = {}
        for n, sp in self.spaces.items():
            h = sp.dim - ranks.get(n, 0) - ranks.get(n - step, 0)
            if h < 0:
                raise InvariantError(f'negative homology dimension at degree {n}')
            out[n] = h
        euler_spaces = sum((-1) ** n * sp.dim for n, sp in self.spaces.items())
        euler_h = sum((-1) ** n * h for n, h in out.items())
        if euler_spaces != euler_h:
            raise InvariantError('Euler characteristic mismatch')
        return out

    def total_dim(self) -> int:
        return sum(sp.dim for sp in self.spaces.values())

    def __repr__(self):
        dims = {n: self.spaces[n].dim for n in self.degrees() if self.spaces[n].dim}
        return (f'ComplexSlice({self.direction}, weight={self.weight}, '
                f'dims={dims})')


def _chain_of(components: list, word: tuple, start) -> list:
    'Recover the idempotent chain s_0 .. s_k of a tensor word from its start.'
    chain = [start]
    for comp, letter in zip(components, word):
        chain.append(_block_of(comp, letter, chain[-1])[1])
    return chain


def _longest_word_weights(X):
    """Idempotent s -> the largest weight of a nonzero word starting at s.

    Words are paths in the block digraph of the positive components of X.
    Returns None when that digraph has a cycle: words of every weight may
    then exist, so no weight can be ruled out.
    """
    edges = {}
    for p in range(1, X.top_degree + 1):
        for s, t in X.component(p).blocks:
            edges.setdefault(s, []).append((t, p))
    longest = {}
    active = set()

    def visit(s):
        if s not in longest:
            if s in active:
                return None
            active.add(s)
            best = 0
            for t, p in edges.get(s, ()):
                w = visit(t)
                if w is None:
                    return None
                best = max(best, p + w)
            active.discard(s)
            longest[s] = best
        return longest[s]

    for s in X.base.idempotents:
        if visit(s) is None:
            return None
    return longest


def _word_space_blocks(X, m: int) -> dict:
    """Degree n -> the degree-n space of the weight-m slice of X.

    Labels are (parts, word) pairs.  Compositions of m are walked depth
    first in the order of partitions(), carrying the idempotents where the
    words of the prefix can end; a prefix that can end nowhere, or that no
    word can complete to weight m, is dropped.  Weight 0 holds the empty
    word ((), ()) on the diagonal.
    """
    base = X.base
    blocks = [{} for _ in range(m + 1)]
    comps = {p: X.component(p) for p in range(1, m + 1)}
    longest = _longest_word_weights(X)
    parts = []

    def grow(remaining, ends):
        if longest is not None and remaining > max(longest[t] for t in ends):
            return
        for p in range(1, remaining + 1):
            nxt = {t for s in ends for (_, t), _ in comps[p].blocks_from(s)}
            if not nxt:
                continue
            parts.append(p)
            if p < remaining:
                grow(remaining - p, nxt)
            else:
                n = len(parts)
                word_parts = tuple(parts)
                T = tensor_many([comps[q] for q in parts])
                for key, labels in T.blocks.items():
                    blocks[n].setdefault(key, []).extend(
                        (word_parts, _as_word(l, n)) for l in labels)
            parts.pop()

    if m:
        grow(m, set(base.idempotents))
    else:
        blocks[0] = {(s, s): [((), ())] for s in base.idempotents}
    return {n: Bimodule(base, blocks[n]) for n in range(m + 1)}


def _word_complex(X, m: int, direction: str, letter_op) -> ComplexSlice:
    """The weight-m slice on the word spaces of X.

    The differential sums letter_op(X, parts, word, chain, j) over the
    positions j of a word, with sign (-1)^j.  A chain differential acts on
    the gaps between adjacent letters, a cochain one on the letters.
    """
    if m < 0:
        raise ValueError(f'negative weight {m}')
    spaces = _word_space_blocks(X, m)
    step = -1 if direction == 'chain' else 1
    diffs = {}
    for n in range(1, m + 1):
        src, tgt = spaces[n], spaces.get(n + step)
        if tgt is None or src.is_zero() or tgt.is_zero():
            continue
        positions = n - 1 if direction == 'chain' else n

        def action(key, label, positions=positions):
            parts, word = label
            chain = _chain_of([X.component(p) for p in parts], word, key[0])
            out = []
            sign = 1
            for j in range(positions):
                for nparts, nword, c in letter_op(X, parts, word, chain, j):
                    out.append(((nparts, nword), sign * c))
                sign = -sign
            return out

        diffs[n] = BimoduleMap.from_basis_action(src, tgt, action)
    return ComplexSlice(direction, m, spaces, diffs)


def _merge_letters(A: GradedRing, parts, word, chain, j):
    'Multiply letters j and j+1 into one.'
    muf = A.mu(parts[j], parts[j + 1])
    for tl, c in muf.apply_label((chain[j], chain[j + 2]),
                                 (word[j], word[j + 1])):
        yield (parts[:j] + (parts[j] + parts[j + 1],) + parts[j + 2:],
               word[:j] + (tl,) + word[j + 2:], c)


def _split_letter(C: GradedCoring, parts, word, chain, j):
    'Split letter j by every positive comultiplication component.'
    mj = parts[j]
    for p in range(1, mj):
        for (c1, c2), c in C.delta(p, mj - p).apply_label(
                (chain[j], chain[j + 1]), word[j]):
            yield (parts[:j] + (p, mj - p) + parts[j + 1:],
                   word[:j] + (c1, c2) + word[j + 1:], c)


def bar_complex_ring(A: GradedRing, m: int) -> ComplexSlice:
    """The weight-m slice of the normalized bar complex of A.

    Degree n holds the words over all positive n-part compositions of m
    (compositions touching a vanishing component drop out); d_n merges
    adjacent letters with alternating signs.
    """
    return _word_complex(A, m, 'chain', _merge_letters)


def cobar_complex_coring(C: GradedCoring, m: int) -> ComplexSlice:
    """The weight-m slice of the normalized cobar complex of C.

    d^n splits one letter by every positive comultiplication component,
    with the same alternating signs as the bar side.
    """
    return _word_complex(C, m, 'cochain', _split_letter)


# ---------------------------------------------------------------------------
# Betti tables
# ---------------------------------------------------------------------------

class BettiTable:
    """Bigraded dimensions (n, m) -> dim, with zero entries omitted.

    The window is 0 <= n <= m <= m_max; n_max equals m_max, since a weight-m
    slice has no homological degree above m.
    """

    def __init__(self, kind: str, entries: dict, m_max: int):
        if kind not in ('Tor', 'Ext'):
            raise ValueError(f'unknown table kind {kind!r}')
        self.kind = kind
        self.entries = {k: v for k, v in sorted(entries.items()) if v}
        self.n_max = self.m_max = m_max
        for (n, m), v in self.entries.items():
            if not (v > 0 and 0 <= n and 0 <= m <= m_max):
                raise InvariantError(f'cell {(n, m)} = {v} outside the table')
            if n > m:
                raise InvariantError(f'cell above the diagonal at {(n, m)}')

    def entry(self, n: int, m: int) -> int:
        return self.entries.get((n, m), 0)

    def is_diagonal(self) -> bool:
        return all(n == m for n, m in self.entries)

    def off_diagonal(self) -> dict:
        return {k: v for k, v in self.entries.items() if k[0] != k[1]}

    def diagonal(self) -> dict:
        return {n: v for (n, m), v in self.entries.items() if n == m}

    def as_grid(self) -> list:
        'Rows n = 0..n_max of the entries for m = 0..m_max.'
        return [[self.entry(n, m) for m in range(self.m_max + 1)]
                for n in range(self.n_max + 1)]

    def __eq__(self, other):
        if not isinstance(other, BettiTable):
            return NotImplemented
        return (self.kind == other.kind and self.entries == other.entries
                and self.m_max == other.m_max)

    def __repr__(self):
        return f'BettiTable({self.kind}, {self.entries})'


class SliceHomology:
    """Class representatives for one degree of one slice.

    reps[key] lists cycle vectors whose classes form a basis of the block;
    express() rewrites any cycle of the block in that basis modulo
    boundaries.  The classes also get an abstract Bimodule (labels
    ('h', kind, n, m, s, t, i)) so induced maps are ordinary BimoduleMaps.
    """

    def __init__(self, cx: ComplexSlice, degree: int, tag: tuple):
        step = -1 if cx.direction == 'chain' else 1
        space = cx.spaces[degree]
        field = space.base.field
        out_map = cx.differentials.get(degree)
        in_map = cx.differentials.get(degree - step)
        if out_map is None:
            ker = {key: Subspace.full(space.block_dim(*key), field)
                   for key in space.blocks}
        else:
            ker_sub = kernel_sub(out_map)
            ker = {key: ker_sub.part(key) for key in space.blocks}
        self.space = space
        self.boundaries = (image_sub(in_map) if in_map is not None
                           else None)
        self.tag = tag
        self.reps = {}
        abstract_blocks = {}
        for key in space.blocks:
            # echelon rows of boundaries + chosen cycles, sorted by lead
            rows = list(self._boundary_part(key)._row_echelon())
            leads = [min(row) for row in rows]
            chosen = []
            for col in ker[key].basis.columns():
                residual = reduce_by_rows(rows, leads, col, field)
                if not residual:
                    continue
                chosen.append(col)
                lead = min(residual)
                inv = field.invert(residual[lead])
                at = bisect_left(leads, lead)
                leads.insert(at, lead)
                rows.insert(at, {j: field.mul(v, inv)
                                 for j, v in residual.items()})
            if chosen:
                self.reps[key] = chosen
                abstract_blocks[key] = tuple(
                    ('h',) + tag + key + (i,) for i in range(len(chosen)))
        self.abstract = Bimodule(space.base, abstract_blocks)

    def _boundary_part(self, key) -> Subspace:
        if self.boundaries is not None:
            return self.boundaries.part(key)
        dim = self.space.block_dim(*key)
        return Subspace(dim, SparseMatrix.zero(dim, 0),
                        self.space.base.field, _skip_check=True)

    @property
    def dim(self) -> int:
        return sum(len(v) for v in self.reps.values())

    def express(self, key, vec: dict) -> list:
        'A cycle vector as [(abstract_label, coeff)] modulo boundaries.'
        field = self.space.base.field
        reps = self.reps.get(key, [])
        cols = reps + list(self._boundary_part(key).basis.columns())
        coords = solve_columns(cols, vec, self.space.block_dim(*key), field)
        if coords is None:
            raise InvariantError('vector is not a cycle of this block')
        labels = self.abstract.blocks.get(key, ())
        return [(labels[i], coords[i]) for i in range(len(reps))
                if not field.is_zero(coords[i])]


def _betti_table(X, kind: str, make_slice, m_max,
                 with_representatives: bool) -> BettiTable:
    'The Betti table of the slices make_slice(X, m); see tor_table.'
    if m_max is None:
        m_max = 2 * X.top_degree
    entries = {(0, 0): X.component(0).dim}
    slices = {}
    for m in range(m_max + 1):
        cx = make_slice(X, m)
        slices[m] = cx
        if m:
            for n, h in cx.homology_dims().items():
                if h:
                    entries[(n, m)] = h
    table = BettiTable(kind, entries, m_max)
    if with_representatives:
        _attach_representatives(table, slices)
    return table


def tor_table(A: GradedRing, m_max=None,
              with_representatives: bool = False) -> BettiTable:
    """The Tor Betti table of A up to weight m_max, by default 2 * top
    degree; homological degrees run up to m_max as well."""
    return _betti_table(A, 'Tor', bar_complex_ring, m_max,
                        with_representatives)


def ext_table(C: GradedCoring, m_max=None,
              with_representatives: bool = False) -> BettiTable:
    'The Ext Betti table of C over the same window.'
    return _betti_table(C, 'Ext', cobar_complex_coring, m_max,
                        with_representatives)


def _attach_representatives(table: BettiTable, slices: dict):
    """Build class representatives for the nonzero cells of the table.

    Zero cells get none; a caller that needs one builds it from the slices
    kept on the table.
    """
    reps = {}
    for (n, m), h in table.entries.items():
        H = SliceHomology(slices[m], n, (table.kind, n, m))
        if H.dim != h:
            raise InvariantError(f'{H.dim} representatives for a cell of '
                                 f'rank-nullity dimension {h}')
        reps[(n, m)] = H
    table.representatives = reps
    table.slices = slices


def _require_representatives(table: BettiTable):
    if not hasattr(table, 'representatives'):
        raise PreconditionError('representative cache missing: build the '
                                'table with with_representatives=True')


# ---------------------------------------------------------------------------
# induced product on Ext
# ---------------------------------------------------------------------------

def cohomology_ring_component(C: GradedCoring, n: int, m: int,
                              n2: int, m2: int, table: BettiTable) -> BimoduleMap:
    """The concatenation product E^{n,m} (x) E^{n2,m2} -> E^{n+n2,m+m2}
    as a map of abstract homology bimodules.

    Concatenation of cocycle representatives is again a cocycle; express()
    checks that, so ill-defined products cannot slip through.
    """
    _require_representatives(table)
    n3, m3 = n + n2, m + m2
    for spot in ((n, m), (n2, m2), (n3, m3)):
        if spot[1] > table.m_max:
            raise PreconditionError(
                f'table window too small for component {spot}')
    H1 = table.representatives.get((n, m))
    H2 = table.representatives.get((n2, m2))
    H3 = table.representatives.get((n3, m3))
    base = C.base
    if H1 is None or H2 is None:
        src = tensor(H1.abstract if H1 else zero_bimodule(base),
                     H2.abstract if H2 else zero_bimodule(base))
        tgt = H3.abstract if H3 else zero_bimodule(base)
        return BimoduleMap.zero(src, tgt)
    if H3 is None and table.slices[m3].spaces[n3].dim:
        # a zero cell: built here, so express() still checks that every
        # product landing in it is a coboundary
        H3 = SliceHomology(table.slices[m3], n3, (table.kind, n3, m3))
    if H3 is None:
        raise InvariantError('product lands in a missing degree')
    field = base.field

    def action(key, pair):
        la, lb = pair
        akey, ai = (la[4], la[5]), la[6]
        bkey, bi = (lb[4], lb[5]), lb[6]
        ra = H1.reps[akey][ai]
        rb = H2.reps[bkey][bi]
        alabels = H1.space.blocks[akey]
        blabels = H2.space.blocks[bkey]

        def concat(ii, jj):
            (pa, wa), (pb, wb) = alabels[ii], blabels[jj]
            return H3.space.index_of(key, (pa + pb, wa + wb))

        return H3.express(key, outer_vector(ra, rb, concat, field))

    return BimoduleMap.from_basis_action(tensor(H1.abstract, H2.abstract),
                                         H3.abstract, action)


def ext_diagonal_products_surjective(C: GradedCoring, table: BettiTable):
    """Whether every concatenation E^{1,1} (x) E^{n,n} -> E^{n+1,n+1} is
    surjective within the table window; (ok, witness degree or None).
    """
    _require_representatives(table)
    for n in range(1, table.n_max):
        tgt = table.representatives.get((n + 1, n + 1))
        if tgt is None:
            continue
        prod = cohomology_ring_component(C, 1, 1, n, n, table)
        if prod.rank() != tgt.dim:
            return False, n + 1
    return True, None


# ---------------------------------------------------------------------------
# induced coproduct on Tor: totals, deconcatenation, primitives
# ---------------------------------------------------------------------------

def _tor_total(A: GradedRing, slices: dict, n: int, m: int) -> Bimodule:
    'The (n, m) piece of the tensor square of the bar slices, p and q >= 1.'
    blocks = {}
    for p in range(1, n):
        for a in range(1, m):
            X = slices[a].spaces.get(p)
            Y = slices[m - a].spaces.get(n - p)
            if X is None or Y is None or X.is_zero() or Y.is_zero():
                continue
            for key, labels in tensor(X, Y).blocks.items():
                blocks.setdefault(key, []).extend(labels)
    return Bimodule(A.base, blocks)


def _total_differential(A: GradedRing, slices: dict, src: Bimodule,
                        tgt: Bimodule) -> BimoduleMap:
    'd (x) 1 + (-1)^p 1 (x) d on the tensor square, from degree n+1 to n.'

    def action(key, label):
        lp, lq = label
        p, a = len(lp[0]), sum(lp[0])
        q, b = len(lq[0]), sum(lq[0])
        out = []
        left_space = slices[a].spaces[p]
        lkey = _block_of(left_space, lp, key[0])
        d_left = slices[a].differentials.get(p)
        if d_left is not None:
            for tl, c in d_left.apply_label(lkey, lp):
                out.append(((tl, lq), c))
        d_right = slices[b].differentials.get(q)
        if d_right is not None:
            sign = -1 if p % 2 else 1
            rkey = (lkey[1], key[1])
            for tl, c in d_right.apply_label(rkey, lq):
                out.append(((lp, tl), sign * c))
        return out

    return BimoduleMap.from_basis_action(src, tgt, action)


def _deconcat_map(cx: ComplexSlice, n: int, total: Bimodule) -> BimoduleMap:
    'Cut every word at every interior position, landing in the tensor square.'
    src = cx.spaces[n]

    def action(key, label):
        parts, word = label
        return [(((parts[:c], word[:c]), (parts[c:], word[c:])), 1)
                for c in range(1, n)]

    return BimoduleMap.from_basis_action(src, total, action)


def _matvec(mat: SparseMatrix, col: dict, field) -> dict:
    out = {}
    for (i, j), v in mat.entries.items():
        c = col.get(j)
        if c is not None:
            accumulate(out, i, v, c, field)
    return out


def _tor_coproduct_data(A: GradedRing, table: BettiTable, n: int, m: int):
    'Assembles (total_n, image of the total differential, deconcat map).'
    slices = table.slices
    total_n = _tor_total(A, slices, n, m)
    total_n1 = _tor_total(A, slices, n + 1, m)
    if total_n1.is_zero() or total_n.is_zero():
        D = BimoduleMap.zero(total_n1, total_n)
    else:
        D = _total_differential(A, slices, total_n1, total_n)
    return total_n, image_sub(D), _deconcat_map(slices[m], n, total_n)


def _primitive_dim(A: GradedRing, table: BettiTable, n: int, m: int,
                   coproduct=None) -> int:
    """Dimension of the primitive classes in Tor_{n,m}, by membership.

    coproduct is the (total, boundaries, deconcatenation) triple of the
    cell, when the caller already has it.
    """
    H = table.representatives.get((n, m))
    if H is None:
        return 0
    if n == 1:
        return H.dim
    field = A.base.field
    total_n, imD, dbar = coproduct or _tor_coproduct_data(A, table, n, m)
    if total_n.is_zero():
        return H.dim
    prim = 0
    for key, cols in H.reps.items():
        impart = imD.part(key)
        mat = dbar.block(*key)
        residuals = [impart.reduce_vector(_matvec(mat, col, field))
                     for col in cols]
        rk = Subspace.from_spanning(residuals, total_n.block_dim(*key),
                                    field).dim
        prim += len(cols) - rk
    return prim


def tor_primitive_dims(A: GradedRing, table: BettiTable) -> dict:
    """(n, m) -> dimension of the primitive classes in Tor_{n,m}, over the
    nonzero cells with n >= 1.

    A class is primitive when its full deconcatenation is a boundary of the
    tensor-square total complex; in homological degree 1 there is nothing
    to cut, so everything is primitive.
    """
    _require_representatives(table)
    return {(n, m): _primitive_dim(A, table, n, m)
            for n, m in sorted(table.representatives) if n}


def homology_coring_components(A: GradedRing, n: int, m: int,
                               table: BettiTable):
    """The induced deconcatenation on Tor_{n,m}.

    Returns ({(p, a): BimoduleMap into H_{p,a} (x) H_{n-p,m-a}}, primitive
    dimension).  Coefficients are found by solving against the Kuenneth
    basis of the total homology plus total boundaries.
    """
    _require_representatives(table)
    H = table.representatives.get((n, m))
    if H is None:
        return {}, 0
    field = A.base.field
    coproduct = _tor_coproduct_data(A, table, n, m)
    total_n, imD, dbar = coproduct
    pieces = [(p, a) for p in range(1, n) for a in range(1, m)
              if (p, a) in table.representatives
              and (n - p, m - a) in table.representatives]
    components = {}
    for key, reps in H.reps.items():
        # the embedded Kuenneth columns of the block, each tagged by its
        # piece and its pair of abstract labels
        kcols, tags = [], []
        for (p, a) in pieces:
            HL = table.representatives[(p, a)]
            HR = table.representatives[(n - p, m - a)]
            for lkey, lreps in HL.reps.items():
                if lkey[0] != key[0]:
                    continue
                for rkey, rreps in HR.reps.items():
                    if rkey[0] != lkey[1] or rkey[1] != key[1]:
                        continue
                    llabels = HL.space.blocks[lkey]
                    rlabels = HR.space.blocks[rkey]

                    def pair_index(ii, jj):
                        return total_n.index_of(key, (llabels[ii],
                                                      rlabels[jj]))

                    for i, lv in enumerate(lreps):
                        for j, rv in enumerate(rreps):
                            kcols.append(outer_vector(lv, rv, pair_index,
                                                      field))
                            tags.append(((p, a),
                                         (HL.abstract.blocks[lkey][i],
                                          HR.abstract.blocks[rkey][j])))
        bcols = list(imD.part(key).basis.columns())
        mat = dbar.block(*key)
        for ci, col in enumerate(reps):
            w = _matvec(mat, col, field)
            coords = solve_columns(kcols + bcols, w,
                                   total_n.block_dim(*key), field)
            if coords is None:
                raise InvariantError('deconcatenation is not a total cycle')
            src_label = H.abstract.blocks[key][ci]
            for (piece, pair_label), c in zip(tags, coords):
                if not field.is_zero(c):
                    components.setdefault(piece, {}).setdefault(
                        (key, src_label), []).append((pair_label, c))
    maps = {}
    for (p, a), data in components.items():
        HL = table.representatives[(p, a)]
        HR = table.representatives[(n - p, m - a)]
        tgt = tensor(HL.abstract, HR.abstract)
        maps[(p, a)] = BimoduleMap.from_basis_action(
            H.abstract, tgt,
            lambda key, l, data=data: data.get((key, l), []))
    return maps, _primitive_dim(A, table, n, m, coproduct)


# ---------------------------------------------------------------------------
# quadraticity
# ---------------------------------------------------------------------------

def _require_strongly_graded(X):
    'Raise PreconditionError unless the ring or coring X is strongly graded.'
    if isinstance(X, GradedRing):
        what, (ok, witness) = 'ring', is_strongly_graded_ring(X)
    else:
        what, (ok, witness) = 'coring', is_strongly_graded_coring(X)
    if not ok:
        raise PreconditionError(f'{what} is not strongly graded: {witness}')


def _degree2_dim(make_slice, X, m: int) -> int:
    'Homology dimension of the weight-m slice make_slice(X, m) in degree 2.'
    return make_slice(X, m).homology_dims().get(2, 0)


def _quadratic_via(make_slice, X, m_max) -> bool:
    _require_strongly_graded(X)
    if m_max is None:
        m_max = 2 * X.top_degree
    return not any(_degree2_dim(make_slice, X, m)
                   for m in range(3, m_max + 1))


def quadratic_via_tor(A: GradedRing, m_max=None) -> bool:
    'True iff Tor_{2,m} vanishes for 3 <= m <= m_max (default: sound bound).'
    return _quadratic_via(bar_complex_ring, A, m_max)


def quadratic_via_ext(C: GradedCoring, m_max=None) -> bool:
    'True iff Ext^{2,m} vanishes for 3 <= m <= m_max (default: sound bound).'
    return _quadratic_via(cobar_complex_coring, C, m_max)


def is_quadratic_direct(A: GradedRing, *, _checked: bool = False):
    """Compare A against <A^1, Ker mu^{1,1}> through the canonical map.

    Degree n of the quadratic ring is read off as the complement words of
    the degree-n ideal component, for n up to one past the top degree of
    A; no quadratic ring is built.  Returns (bool, witness); the witness
    names the first degree where the dimensions or the map fail.  _checked
    skips the strong-grading precondition for a caller that has already
    established it.
    """
    if not _checked:
        _require_strongly_graded(A)
    V = A.component(1)
    W = kernel_sub(A.mu(1, 1))
    for n in range(2, A.top_degree + 2):
        Qn = _complement_words(V, ideal_component_span(V, W, n), n)
        An = A.component(n)
        if Qn.dim != An.dim:
            return False, {'degree': n, 'quadratic_dim': Qn.dim,
                           'ring_dim': An.dim}
        if An.dim == 0:
            continue
        incl = BimoduleMap.from_basis_action(
            Qn, tensor_power(V, n), lambda key, l: [(l, 1)])
        phi = A.iterated_mu(n).compose(incl)
        if phi.rank() != An.dim:
            return False, {'degree': n, 'reason': 'canonical map is not bijective'}
    return True, None


def is_quadratic_coring_direct(C: GradedCoring, *, _checked: bool = False):
    """Mirror comparison of C against {C_1, Im Delta_{1,1}}, reading its
    intersection components up to one past the top degree of C;
    (bool, witness)."""
    if not _checked:
        _require_strongly_graded(C)
    V = C.component(1)
    W = image_sub(C.delta(1, 1))
    for n in range(2, C.top_degree + 2):
        inter = intersection_component(V, W, n)
        Cn = C.component(n)
        if inter.dim != Cn.dim:
            return False, {'degree': n, 'quadratic_dim': inter.dim,
                           'coring_dim': Cn.dim}
        if Cn.dim == 0:
            continue
        dn = C.iterated_delta(n)
        for key, mat in dn.blocks.items():
            part = inter.part(key)
            for col in mat.columns():
                if not part.contains_vector(col):
                    raise InvariantError('iterated comultiplication left the '
                                         'intersection subcoring')
        if dn.rank() != Cn.dim:
            return False, {'degree': n, 'reason': 'canonical map is not bijective'}
    return True, None


# ---------------------------------------------------------------------------
# the weight-m truncation sequences in homological degree 2
# ---------------------------------------------------------------------------

def _degree2_sequence_holds(make_slice, truncate, X, m: int) -> bool:
    'Whether the weight-m slice of truncate(X, m) gains exactly X_m in degree 2.'
    if m < 2:
        raise ValueError(f'weight {m} < 2')
    full = _degree2_dim(make_slice, X, m)
    middle = _degree2_dim(make_slice, truncate(X, m), m)
    return middle == full + X.component(m).dim


def verify_tor2_sequence(A: GradedRing, m: int) -> bool:
    """Dimension identity of 0 -> Tor_{2,m}(A) -> Tor_{2,m}(A/A^{>=m}) ->
    A^m -> 0: the middle term must weigh exactly the sum of the ends.
    """
    return _degree2_sequence_holds(bar_complex_ring, truncate_ring, A, m)


def verify_ext2_sequence(C: GradedCoring, m: int) -> bool:
    'Mirror identity for 0 -> C_m -> Ext^{2,m}(C_{<m}) -> Ext^{2,m}(C) -> 0.'
    return _degree2_sequence_holds(cobar_complex_coring, truncate_coring, C, m)


# ---------------------------------------------------------------------------
# the degree-2 assembly map on words
# ---------------------------------------------------------------------------

def alpha_map(A: GradedRing, m: int, cx: ComplexSlice = None) -> BimoduleMap:
    """x -> (mu_{p} (x) mu_{q})(cut_p x) over all 2-part compositions,
    from (A^1)^(m) into degree 2 of the weight-m bar slice.

    On the degree-m piece of the relation ideal this lands in the 2-cycles
    (and, per the exact-sequence lemma, in the 2-boundaries).
    """
    if m < 2:
        raise ValueError(f'weight {m} < 2')
    if cx is None:
        cx = bar_complex_ring(A, m)
    V = A.component(1)
    src = tensor_power(V, m)
    tgt = cx.spaces[2]
    folds = {p: A.mu_partition((1,) * p) for p in range(1, m)}

    def action(key, w):
        chain = _chain_of([V] * m, w, key[0])
        out = []
        for p in range(1, m):
            q = m - p
            if A.component(p).is_zero() or A.component(q).is_zero():
                continue
            lv = folds[p].apply_label((chain[0], chain[p]),
                                      _word_label(w[:p], p))
            rv = folds[q].apply_label((chain[p], chain[m]),
                                      _word_label(w[p:], q))
            for al, ac in lv:
                for bl, bc in rv:
                    out.append((((p, q), (al, bl)), ac * bc))
        return out

    return BimoduleMap.from_basis_action(src, tgt, action)
