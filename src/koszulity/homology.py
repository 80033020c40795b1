"""Weight slices of normalized bar and cobar complexes, and what they carry.

Each weight m gives a finite complex whose degree-n space is the direct sum
of tensor words over the positive n-part compositions of m.  Homology of
the ring slices gives the bigraded Tor table, cohomology of the coring
slices the Ext table.  On top of the tables sit class representatives,
which read a cycle as coordinates in its classes, the rank of the induced
concatenation product on Ext, the induced deconcatenation on Tor (hence
primitives), and the direct quadraticity tests, which count dimensions of
a quadratic ring.  The deconcatenation lands in the tensor square of the
bar slices, whose (n, m) piece is the degree-n words of slice m cut
between two letters, so it reads one slice.

Slices are built on numbered bases (graded_structures._Numbering): a
basis word is a tuple of integer ids, and it is also the label of its
basis vector in the slice space.  The differential merges or splits
letters by looking them up in the structure-constant tables.  One
assembler serves every slice, bar and cobar here and the Koszul slices of
koszul: it takes the words of each degree and the action of the
differential on them.  An incidence structure is not a special case, its
table entries simply hold one term.  The cut words read the words of the
slice they cut.
"""

from __future__ import annotations

from functools import cached_property
from itertools import islice

from .exact_linalg import (SparseMatrix, Subspace, Echelon, accumulate,
                           kernel_basis, outer_vector)
from .bimodule import Bimodule, BimoduleMap, _sparse_map
from .graded_structures import (GradedRing, GradedCoring, _quadratic_dims,
                                is_strongly_graded_ring,
                                is_strongly_graded_coring)
from .errors import PreconditionError, InvariantError


# ---------------------------------------------------------------------------
# complexes
# ---------------------------------------------------------------------------

_STEP = {'chain': -1, 'cochain': 1}   # direction -> degree change of d


class ComplexSlice:
    """A finite complex of bimodules within one weight.

    The differential at degree n maps spaces[n] to spaces[n + step], where
    step is -1 for direction 'chain' and 1 for 'cochain'.  d after d = 0 is
    checked at construction for every consecutive pair (InvariantError).
    """

    def __init__(self, direction: str, weight: int, spaces: dict,
                 differentials: dict):
        if direction not in _STEP:
            raise ValueError(f'unknown direction {direction!r}')
        self.direction = direction
        self.step = step = _STEP[direction]
        self.weight = weight
        self.spaces = dict(spaces)
        self.differentials = {n: d for n, d in differentials.items()
                              if not d.is_zero()}
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

        Ranks are counted with clearing (Chen and Kerber, Persistent
        homology computation with a twist, EuroCG 2011), block by block:
        the map into a degree is ranked first, so chain slices go from the
        top degree down and cochain slices from degree 0 up, and the map
        out of it is ranked on the columns that are not leads of the first
        map's Echelon.  Its rows span an image inside the kernel of the
        second map (d after d = 0, checked at construction) and are 1 at
        their leads and 0 before, so each lead column is a combination of
        columns further right, and the rank is kept (see exact_linalg).

        The Euler characteristic of the spaces and of the homology are
        compared exactly as a bookkeeping check.
        """
        ranks, leads = {}, {}
        for n in sorted(self.differentials, reverse=self.step < 0):
            d = self.differentials[n]
            cleared = leads.pop(n - self.step, {})
            ranks[n], leads[n] = 0, {}
            for key, mat in d.blocks.items():
                skip = cleared.get(key, ())
                echelon = Echelon(d.field, [
                    col for j, col in enumerate(mat.columns())
                    if j not in skip])
                ranks[n] += len(echelon.rows)
                leads[n][key] = set(echelon.rows)
        out = {}
        for n, sp in self.spaces.items():
            h = sp.dim - ranks.get(n, 0) - ranks.get(n - self.step, 0)
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


def _slice_words(X, m: int) -> dict:
    """Degree n -> {block key: {word: index}}: the basis of the degree-n
    space of the weight-m slice of X, as words on the ids of
    X._numbering, in basis order.

    A word of degree n has n letters of positive degree summing to m.  In
    a block, words come by composition (the degrees of the letters) in
    lexicographic order, and within one composition in the lexicographic
    order of their ids, which is the label order of the tensor product of
    its components.  Compositions are walked depth first, extending every
    word of the prefix at once by the letters that start where it ends and
    end where a word of the remaining weight starts (reach), so every word
    entered completes, on cyclic block digraphs too.  Weight 0 holds the
    empty word on the diagonal.
    """
    num = X._numbering
    words = {n: {} for n in range(m + 1)}
    if m == 0:
        words[0] = {(s, s): {(): 0} for s in X.base.idempotents}
        return words
    reach = num.reach_to(m)
    if not reach[m]:
        return words
    starting, start, end = num.starting, num.start, num.end

    def grow(remaining, prefix):
        for p in range(1, min(remaining, X.top_degree) + 1):
            rest = reach[remaining - p]
            longer = [w + (x,) for w in prefix
                      for x in (starting.get((p, end[w[-1]]), ()) if w
                                else num.of_degree[p])
                      if end[x] in rest]
            if not longer:
                continue
            if p < remaining:
                grow(remaining - p, longer)
                continue
            blocks = words[len(longer[0])]
            for w in longer:
                block = blocks.setdefault((start[w[0]], end[w[-1]]), {})
                block[w] = len(block)

    grow(m, [()])
    return words


def _assemble(base, direction: str, m: int, words: dict,
              action) -> ComplexSlice:
    """The weight-m slice whose degree-n space has the words of words[n],
    {block key: {word: index}}, as its basis, each labelling its vector.

    The differential out of degree n sends the word w of block key to the
    sum of action(n)(key, w), an iterable of (word, coeff).  A map into or
    out of degree -1 is the augmentation, the identity of R.
    """
    if m < 0:
        raise ValueError(f'negative weight {m}')
    spaces = {n: Bimodule(base, blocks) if blocks else base.zero
              for n, blocks in words.items()}
    step = _STEP[direction]
    diffs = {}
    for n, src in spaces.items():
        tgt = spaces.get(n + step)
        if tgt is None or src.is_zero() or tgt.is_zero():
            continue
        if -1 in (n, n + step):   # the augmentation, nonzero in weight 0
            diffs[n] = BimoduleMap(src, tgt, {key: SparseMatrix.identity(1)
                                              for key in src.blocks})
        else:
            diffs[n] = _sparse_map(src, tgt, words[n], words[n + step],
                                   action(n))
    return ComplexSlice(direction, m, spaces, diffs)


def _word_complex(X, m: int, direction: str, letter_op) -> ComplexSlice:
    """The weight-m slice on the words of X (_slice_words).

    The differential sums letter_op(X._numbering, word, j) over the
    positions j of a word, with sign (-1)^j.  A chain differential acts on
    the gaps between adjacent letters, a cochain one on the letters.
    """
    num = X._numbering

    def action(n):
        positions = n - 1 if direction == 'chain' else n

        def terms(key, w):
            sign = 1
            for j in range(positions):
                for nw, c in letter_op(num, w, j):
                    yield nw, sign * c
                sign = -sign

        return terms

    return _assemble(X.base, direction, m, _slice_words(X, m), action)


def _merge(num, w: tuple, j: int) -> list:
    'Letters j and j+1 of w multiplied into one: [(word, coeff)].'
    terms = num.table.get(w[j:j + 2])
    if not terms:
        return ()
    head, tail = w[:j], w[j + 2:]
    return [(head + (c,) + tail, v) for c, v in terms]


def _split(num, w: tuple, j: int) -> list:
    'Letter j of w split by every positive comultiplication component.'
    terms = num.table.get(w[j])
    if not terms:
        return ()
    head, tail = w[:j], w[j + 1:]
    return [(head + ab + tail, v) for ab, v in terms]


def bar_complex_ring(A: GradedRing, m: int) -> ComplexSlice:
    """The weight-m slice of the normalized bar complex of A.

    Degree n holds the words over all positive n-part compositions of m
    (compositions touching a vanishing component drop out); d_n merges
    adjacent letters with alternating signs.
    """
    return _word_complex(A, m, 'chain', _merge)


def cobar_complex_coring(C: GradedCoring, m: int) -> ComplexSlice:
    """The weight-m slice of the normalized cobar complex of C.

    d^n splits one letter by every positive comultiplication component,
    with the same alternating signs as the bar side.
    """
    return _word_complex(C, m, 'cochain', _split)


# ---------------------------------------------------------------------------
# Betti tables
# ---------------------------------------------------------------------------

class BettiTable:
    """Bigraded dimensions (n, m) -> dim, with zero entries omitted.

    The window is 0 <= n <= m <= m_max: a weight-m slice has no
    homological degree above m, so m_max bounds n as well.  slices[m] is
    the weight-m complex the entries were read from.  The first read of
    representatives builds the SliceHomology of every nonzero cell from
    those slices and keeps them; zero cells get none.
    """

    def __init__(self, kind: str, entries: dict, m_max: int, slices: dict):
        if kind not in ('Tor', 'Ext'):
            raise ValueError(f'unknown table kind {kind!r}')
        self.kind = kind
        self.entries = {k: v for k, v in sorted(entries.items()) if v}
        self.m_max = m_max
        self.slices = slices
        for (n, m), v in self.entries.items():
            if not (v > 0 and 0 <= n and 0 <= m <= m_max):
                raise InvariantError(f'cell {(n, m)} = {v} outside the table')
            if n > m:
                raise InvariantError(f'cell above the diagonal at {(n, m)}')

    @cached_property
    def representatives(self) -> dict:
        '(n, m) -> the SliceHomology of each nonzero cell, built on first read.'
        reps = {}
        for (n, m), h in self.entries.items():
            H = SliceHomology(self.slices[m], n)
            if H.dim != h:
                raise InvariantError(f'{H.dim} representatives for a cell of '
                                     f'rank-nullity dimension {h}')
            reps[(n, m)] = H
        return reps

    def entry(self, n: int, m: int) -> int:
        return self.entries.get((n, m), 0)

    def off_diagonal(self) -> dict:
        return {k: v for k, v in self.entries.items() if k[0] != k[1]}

    def diagonal(self) -> dict:
        return {n: v for (n, m), v in self.entries.items() if n == m}

    def as_grid(self) -> list:
        'Rows n = 0..m_max of the entries for m = 0..m_max.'
        return [[self.entry(n, m) for m in range(self.m_max + 1)]
                for n in range(self.m_max + 1)]

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
    classes() rewrites any cycle of the block in that basis modulo
    boundaries.

    Each block keeps one Echelon: the columns of the incoming differential,
    untagged, then the kernel columns, each tagged by the index it gets as
    a representative; a kernel column is a representative iff it is kept.
    """

    def __init__(self, cx: ComplexSlice, degree: int):
        space = cx.spaces[degree]
        field = space.base.field
        out_map = cx.differentials.get(degree)
        in_map = cx.differentials.get(degree - cx.step)
        outs = out_map.blocks if out_map is not None else {}
        self.space = space
        self.reps = {}
        self._echelons = {}
        for key in space.blocks:
            out = outs.get(key)
            ker = (Subspace.full(space.block_dim(*key), field) if out is None
                   else kernel_basis(out, field))
            echelon = Echelon(field, in_map.block(*key).columns()
                              if in_map is not None else ())
            chosen = []
            for col in ker.basis.columns():
                if echelon.add(col, len(chosen)):
                    chosen.append(col)
            self._echelons[key] = echelon
            if chosen:
                self.reps[key] = chosen

    @property
    def dim(self) -> int:
        return sum(len(v) for v in self.reps.values())

    def classes(self, key, vec: dict) -> dict:
        """A cycle vector of block key as {representative index: coeff},
        modulo boundaries; a boundary gives {}."""
        residual, coords = self._echelons[key].reduce(vec)
        if residual:
            raise InvariantError('vector is not a cycle of this block')
        return coords


def _betti_table(X, kind: str, make_slice, m_max) -> BettiTable:
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
    return BettiTable(kind, entries, m_max, slices)


def tor_table(A: GradedRing, m_max=None) -> BettiTable:
    """The Tor Betti table of A up to weight m_max, by default 2 * top
    degree; homological degrees run up to m_max as well.  The table keeps
    its bar slices and builds class representatives on their first read."""
    return _betti_table(A, 'Tor', bar_complex_ring, m_max)


def ext_table(C: GradedCoring, m_max=None) -> BettiTable:
    'The Ext Betti table of C over the same window.'
    return _betti_table(C, 'Ext', cobar_complex_coring, m_max)


# ---------------------------------------------------------------------------
# induced product on Ext
# ---------------------------------------------------------------------------

def ext_diagonal_products_surjective(C: GradedCoring, table: BettiTable):
    """Whether every concatenation E^{1,1} (x) E^{n,n} -> E^{n+1,n+1} is
    surjective within the table window; (ok, witness degree or None).

    classes() rewrites each product of representatives in its target
    block, which checks that it is a cocycle; the product is onto iff the
    ranks of these coordinates, summed over the blocks, reach the target's
    dimension.  The diagonal of Ext is the quadratic dual ring, generated
    in degree 1, so this fails only through an implementation fault.
    """
    field = C.base.field
    for n in range(1, table.m_max):
        H3 = table.representatives.get((n + 1, n + 1))
        if H3 is None:
            continue
        H1 = table.representatives.get((1, 1))
        H2 = table.representatives.get((n, n))
        if H1 is None or H2 is None:
            return False, n + 1
        coords = {}
        for (s, t), avecs in H1.reps.items():
            for (t2, u), bvecs in H2.reps.items():
                if t2 != t:
                    continue
                key = (s, u)
                awords = H1.space.blocks[(s, t)]
                bwords = H2.space.blocks[(t, u)]

                def concat(i, j):
                    return H3.space.index_of(key, awords[i] + bwords[j])

                coords.setdefault(key, []).extend(
                    H3.classes(key, outer_vector(a, b, concat, field))
                    for a in avecs for b in bvecs)
        if sum(len(Echelon(field, vecs).rows)
               for vecs in coords.values()) != H3.dim:
            return False, n + 1
    return True, None


# ---------------------------------------------------------------------------
# induced coproduct on Tor: cut words, deconcatenation, primitives
# ---------------------------------------------------------------------------

# The (n, m) piece of the tensor square of the bar slices, both factors of
# positive degree, is the degree-n words of slice m, each cut after c
# letters, 1 <= c <= n-1: the pair (u, v) is the word uv cut after |u|.  In
# a block, the word at index i cut after c is coordinate i (n-1) + c-1.

def _cut(i: int, c: int, n: int) -> int:
    'The coordinate of the degree-n word at index i cut after c letters.'
    return i * (n - 1) + c - 1


def _cut_boundaries(A: GradedRing, cx: ComplexSlice, n: int, key) -> list:
    """The columns of the total differential d (x) 1 + (-1)^c 1 (x) d into
    the degree-n cut words of block key, one per degree-(n+1) cut word.

    On w cut after c it is the bar rule _merge at every gap j other than
    the cut, j = c-1, with sign (-1)^j, because (-1)^c (-1)^j' = (-1)^(c+j')
    for the gap j' of the right factor; a merge left of the cut moves it to
    c-1.  The words are those of block key of the bar slice cx.
    """
    field = A.base.field
    num = A._numbering
    index = {w: i for i, w in enumerate(cx.spaces[n].blocks.get(key, ()))}
    upper = cx.spaces.get(n + 1)
    columns = []
    for w in upper.blocks.get(key, ()) if upper is not None else ():
        merged = [[(index[nw], c) for nw, c in _merge(num, w, j)]
                  for j in range(n)]
        for cut in range(1, n + 1):
            col = {}
            for j, terms in enumerate(merged):
                if j != cut - 1:
                    at = cut - 1 if j < cut - 1 else cut
                    for i, c in terms:
                        accumulate(col, _cut(i, at, n), (-1) ** j, c, field)
            columns.append(col)
    return columns


def _deconcatenate(vec: dict, n: int) -> dict:
    'The deconcatenation w -> sum over c of (w, c) of a vector of degree-n words.'
    return {_cut(i, c, n): v for i, v in vec.items() for c in range(1, n)}


def _cut_blocks(A: GradedRing, table: BettiTable, n: int, m: int):
    """Per block of the representatives of Tor_{n,m}: (key, the total
    boundaries in its cut words, the deconcatenations of the
    representatives)."""
    cx = table.slices[m]
    for key, reps in table.representatives[(n, m)].reps.items():
        yield key, _cut_boundaries(A, cx, n, key), [
            _deconcatenate(col, n) for col in reps]


def _primitives(field, boundaries: list, images: list) -> int:
    """How many deconcatenations an echelon seeded with the boundaries does
    not keep: the dimension of the classes whose image is a boundary."""
    echelon = Echelon(field, boundaries)
    return sum(not echelon.add(vec) for vec in images)


def tor_primitive_dims(A: GradedRing, table: BettiTable) -> dict:
    """(n, m) -> dimension of the primitive classes in Tor_{n,m}, over the
    nonzero cells with n >= 1.

    A class is primitive when its full deconcatenation is a boundary of the
    tensor-square total complex; in homological degree 1 there is nothing
    to cut, so everything is primitive.
    """
    field = A.base.field
    return {(n, m): (H.dim if n == 1 else sum(
                _primitives(field, D, images)
                for _, D, images in _cut_blocks(A, table, n, m)))
            for (n, m), H in sorted(table.representatives.items()) if n}


# ---------------------------------------------------------------------------
# quadraticity
# ---------------------------------------------------------------------------

def _require_strongly_graded(X):
    """Raise PreconditionError unless the ring or coring X is strongly
    graded.  X does not change once built, so a structure that passed is
    not checked again: the shriek pair and the quadraticity route of one
    decision share one check."""
    if X._strongly_graded:
        return
    if isinstance(X, GradedRing):
        what, (ok, witness) = 'ring', is_strongly_graded_ring(X)
    else:
        what, (ok, witness) = 'coring', is_strongly_graded_coring(X)
    if not ok:
        raise PreconditionError(f'{what} is not strongly graded: {witness}')
    X._strongly_graded = True


def _quadratic_dims_agree(X, dim_key: str):
    """Compare the dimensions of the quadratic ring of X (_quadratic_dims)
    with dim X_n for 2 <= n <= top + 1, in one walk of the ideal recursion
    on words of ids; no quadratic ring is built.  It is generated in degree
    1, so once zero it stays zero, and degree top + 1 is the last to
    compare.  Returns (bool, witness); the witness names the first degree
    where the dimensions differ, with dim X_n under dim_key."""
    for n, quadratic in islice(_quadratic_dims(X), X.top_degree):
        actual = X.component(n).dim
        if quadratic != actual:
            return False, {'degree': n, 'quadratic_dim': quadratic,
                           dim_key: actual}
    return True, None


def is_quadratic_direct(A: GradedRing):
    """Whether A is the quadratic ring <A^1, Ker mu^{1,1}>: (bool, witness).

    Associativity puts the ideal in the kernel of the iterated product
    (A^1)^(n) -> A^n, and strong grading makes that product onto, so the
    canonical map <A^1, Ker mu^{1,1}> -> A is onto, and bijective iff the
    dimensions agree in every degree.  A must be strongly graded.
    """
    _require_strongly_graded(A)
    return _quadratic_dims_agree(A, 'ring_dim')


def is_quadratic_coring_direct(C: GradedCoring):
    """Whether C is the quadratic coring {C_1, Im Delta_{1,1}}: (bool,
    witness).

    Coassociativity puts the image of the iterated coproduct C_n ->
    (C_1)^(n) in {C_1, Im Delta_{1,1}}_n, and strong grading makes it
    injective, so the canonical map is injective, and bijective iff the
    dimensions agree.  {C_1, Im Delta_{1,1}} is the graded dual of
    <^*C_1, (Im Delta_{1,1})^perp>, whose relations are the words
    orthogonal to the coproducts Delta_{1,1}, so the dimensions of that
    ring are counted and no dual is built.  C must be strongly graded.
    """
    _require_strongly_graded(C)
    return _quadratic_dims_agree(C, 'coring_dim')
