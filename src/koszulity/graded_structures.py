"""Connected graded R-rings and R-corings with finite support.

Strong grading, the quadratic ring <V,W> (tensor ring modulo the ideal
generated by W), graded left duals, and shriek duals.  Components are
Bimodules, structure maps are BimoduleMaps, all validation is exact.

Rings and corings share one core, _Graded: the nonzero (p, q) structure
maps sit in one table, maps, and each side says only which end of its
maps is the tensor product.  A structure numbers its basis (_Numbering):
integer ids for the labels of degrees 0..top in block order, and its
stored structure maps as one table on those ids.  The bar, cobar and
Koszul slices read it, and so does the one (co)associativity check.

Every constructor checks the exact ends of the maps, then numbers the
basis and compares (Delta (x) 1) Delta z with (1 (x) Delta) Delta z for
every basis vector z, on the table in coproduct form, as sparse vectors
on id triples; no tensor-product map is built.  A coring's table is in
that form.  A ring's table is transposed into it: the coefficient of z in
(ab)c is that of a (x) b (x) c in (Delta (x) 1) Delta z for Delta the
transpose of mu, and likewise for a(bc), so associativity of mu is
coassociativity of its transpose.  A graded dual is not checked again:
it carries the check of its source, whose transpose it is.

The quadratic ring reads its ideal components off one walk of a
one-letter recursion: I_2 = W, given by its reduced echelon basis, and
I_n = I_{n-1} (x) V + V (x) I_{n-1} for n >= 3.  All components keep
reduced echelon bases, so the ring's word reductions are read at pivot
words.  The quadratic coring {V, W} is the graded dual of the quadratic
ring <^*V, W^perp> (Polishchuk-Positselski, Quadratic Algebras, ch. 1),
so both shriek partners come from this one construction, and W^perp is
read off the transposed (1, 1) structure map alone.
"""

from __future__ import annotations

from functools import cached_property
from itertools import count

from .exact_linalg import (Subspace, hstack, vstack, rank, accumulate,
                           image_basis, kernel_basis)
from .bimodule import (Bimodule, BimoduleMap, SubBimodule, BaseRing,
                       tensor, tensor_power, unit_bimodule, zero_bimodule,
                       image_sub, left_dual)
from .errors import StructureError


def _as_word(label, letters: int) -> tuple:
    'View a flat word label as a tuple of letters (single letters are bare).'
    return label if letters != 1 else (label,)


def _word_label(word: tuple, letters: int):
    return word if letters != 1 else word[0]


def _check_components(base, components, top_degree):
    for n, comp in components.items():
        if comp.base != base:
            raise StructureError(f'component in degree {n} lives over the wrong base')
        if (n < 0 or n > top_degree) and not comp.is_zero():
            raise StructureError(f'nonzero component in degree {n} outside 0..{top_degree}')


class _Graded:
    """The data a graded ring and a graded coring share: components[n] is
    X_n for 0 <= n <= top_degree (X_0 = R), and maps[(p, q)], p, q >= 1,
    is the nonzero (p, q) structure map between X_{p+q} and X_p (x) X_q.
    Zero maps are not stored in maps; each is built on first use and then
    kept.  There is no map against degree 0: R (x) X = X = X (x) R are
    identifications, which the Koszul complex applies in place.
    _numbering numbers the basis and holds the stored maps as one table on
    those numbers (_Numbering); the (co)associativity check and the slices
    read it.

    Each side gives _ends(tensored, whole) -> (source, target), the
    direction of its maps, _coproducts(table), its table in coproduct form
    (transposed for a ring, as it is for a coring), and the words of its
    error messages.  The constructor checks connectedness, the exact ends
    of every map and the (co)associativity, and so builds the numbering;
    _carried builds a structure whose checks carry over from another one,
    and numbers it on first use.
    """

    def __init__(self, base: BaseRing, components: dict, maps: dict,
                 top_degree: int):
        self._assemble(base, components, maps, top_degree)
        self._validate()

    def _assemble(self, base, components, maps, top_degree):
        'Everything the constructor does but _validate.'
        self.base = base
        self.top_degree = top_degree
        _check_components(base, components, top_degree)
        self.components = {n: components.get(n, zero_bimodule(base))
                           for n in range(top_degree + 1)}
        self.support_truncated = False
        self._strongly_graded = False   # set once a check has passed
        self._zero_maps = {}
        self.maps = {}
        for (p, q), f in maps.items():
            if p < 1 or q < 1 or p + q > top_degree:
                raise StructureError(
                    f'{self._maps_word} component ({p},{q}) out of range')
            if not f.is_zero():
                self.maps[(p, q)] = f

    @classmethod
    def _carried(cls, source, components: dict, maps: dict):
        """The structure on components and maps over the base and top
        degree of source, built without _validate: its checks are those of
        source, which passed them when it was built, carried over by the
        construction (the transpose of a graded dual; see
        _graded_left_dual).  The truncation flag and a strong grading that
        passed carry over too."""
        X = cls.__new__(cls)
        X._assemble(source.base, components, maps, source.top_degree)
        X.support_truncated = source.support_truncated
        X._strongly_graded = source._strongly_graded
        return X

    @cached_property
    def _numbering(self) -> '_Numbering':
        return _Numbering(self)

    def _ends_at(self, p: int, q: int) -> tuple:
        'Source and target of the (p, q) structure map.'
        return self._ends(tensor(self.component(p), self.component(q)),
                          self.component(p + q))

    def _map(self, p: int, q: int) -> BimoduleMap:
        """The (p, q) structure map, p, q >= 1: the stored map, else the
        zero map between its ends, kept once built."""
        if p < 1 or q < 1:
            raise ValueError(f'{self._symbol}({p},{q}): degrees must be >= 1')
        f = self.maps.get((p, q)) or self._zero_maps.get((p, q))
        if f is None:
            f = self._zero_maps[(p, q)] = BimoduleMap.zero(
                *self._ends_at(p, q))
        return f

    def _validate(self):
        """Connectedness, the exact ends of every stored map, and the
        (co)associativity on the numbered table, read in coproduct form
        z -> [((a, b), coeff)] (the side's _coproducts).

        For every z, (Delta (x) 1) Delta z and (1 (x) Delta) Delta z are
        summed on the id triples (a, b, c).  The degrees (p, q, r) of a
        triple fix the maps its terms went through, so this compares the
        two bracketings for every p + q + r <= top at once; the error names
        the least (p, q, r) of a differing entry.  The ends are checked
        first, since the numbering reads target blocks by source keys."""
        if self.component(0) != unit_bimodule(self.base):
            raise StructureError(self._unconnected)
        for (p, q), f in self.maps.items():
            source, target = self._ends_at(p, q)
            if f.source != source:
                raise StructureError(f'{self._symbol}({p},{q}) has wrong source')
            if f.target != target:
                raise StructureError(f'{self._symbol}({p},{q}) has wrong target')
        field, num = self.base.field, self._numbering
        delta = self._coproducts(num.table)
        failing = set()
        for halves in delta.values():
            lhs, rhs = {}, {}
            for (x, c), k in halves:
                for ab, m in delta.get(x, ()):
                    accumulate(lhs, ab + (c,), k, m, field)
            for (a, x), k in halves:
                for bc, m in delta.get(x, ()):
                    accumulate(rhs, (a,) + bc, k, m, field)
            if lhs != rhs:
                failing.update(w for w in lhs.keys() | rhs.keys()
                               if lhs.get(w) != rhs.get(w))
        if failing:
            p, q, r = min(tuple(num.degree[x] for x in w) for w in failing)
            raise StructureError(f'{self._law} fails at ({p},{q},{r})')

    def component(self, n: int) -> Bimodule:
        if 0 <= n <= self.top_degree:
            return self.components[n]
        return zero_bimodule(self.base)

    def dims(self) -> list:
        return [self.component(n).dim for n in range(self.top_degree + 1)]

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return (self.base == other.base and self.top_degree == other.top_degree
                and self.components == other.components and self.maps == other.maps)

    def __repr__(self):
        return f'{type(self).__name__}(top={self.top_degree}, dims={self.dims()})'


class _Numbering:
    """Integer ids for the basis of a ring or coring X, and its stored
    structure maps as one table on them.

    Ids run over the degrees 0..top in turn, within a degree over the blocks
    in block order, and within a block over its labels in order.  Degree 0
    has one id per idempotent, the unit of its diagonal block, so a ring and
    a coring on one degree-1 bimodule give its basis the same ids.  For an
    id x: labels[x], degree[x], and start[x] and end[x], the idempotents of
    its block.  of_degree[p] is the range of the ids of degree p, and
    starting[(p, s)] lists those whose block starts at s, in id order.  A
    word is a tuple of ids.  In a block of a tensor product the labels come
    in the lexicographic order of these words, since every block from s
    lists the ids starting at s in order.

    table holds the stored structure maps on these ids, keyed by source:
    for a ring (a, b) -> [(c, coeff)], the product of a (x) b, and for a
    coring c -> [((a, b), coeff)], every coproduct of c.  The ids fix the
    degrees, so the (p, q) map of a term is known: the product of a and b
    is the (degree a, degree b) one, and a coproduct term (a, b) of c is
    the (degree a, degree c - degree a) one.  Each list holds the nonzero
    entries of the columns of the stored maps in (p, q) order, each column
    in its stored order.  The ring's table, transposed, has the coring's
    form, and _Graded._validate reads both sides in that form.  The table
    is built from the blocks of the stored maps, reading each target block
    by its source key, so the ends of the maps are checked first.

    reach[r] holds the idempotents where a word of weight exactly r starts:
    every idempotent for r = 0, else the starts of the blocks (s, t) of some
    X_p, p <= r, with t in reach[r-p]; reach_to(m) extends it up to m.
    """

    def __init__(self, X):
        self.labels, self.degree, self.start, self.end = [], [], [], []
        self.starting, self.of_degree = {}, []
        ids = {}   # (degree, start, label) -> id
        for p in range(X.top_degree + 1):
            self.of_degree.append(range(len(self.labels), len(self.labels)
                                        + X.component(p).dim))
            for (s, t), block in X.component(p).blocks.items():
                run = self.starting.setdefault((p, s), [])
                for label in block:
                    ids[(p, s, label)] = len(self.labels)
                    run.append(len(self.labels))
                    self.labels.append(label)
                    self.degree.append(p)
                    self.start.append(s)
                    self.end.append(t)
        end = self.end

        def word(p, q, s, pair):
            a = ids[(p, s, pair[0])]
            return a, ids[(q, end[a], pair[1])]

        def whole(p, q, s, label):
            return ids[(p + q, s, label)]

        key_of, term_of = X._ends(word, whole)
        self.table = {}
        for (p, q), f in sorted(X.maps.items()):
            for (s, u), mat in f.blocks.items():
                src, tgt = f.source.blocks[(s, u)], f.target.blocks[(s, u)]
                for (i, j), v in mat.entries.items():
                    self.table.setdefault(key_of(p, q, s, src[j]), []).append(
                        (term_of(p, q, s, tgt[i]), v))
        self._arrows = {p: tuple(X.component(p).blocks)
                        for p in range(1, X.top_degree + 1)}
        self.reach = [set(X.base.idempotents)]

    def reach_to(self, m: int) -> list:
        'reach, extended up to weight m.'
        reach = self.reach
        for r in range(len(reach), m + 1):
            reach.append({s for p, arrows in self._arrows.items() if p <= r
                          for s, t in arrows if t in reach[r - p]})
        return reach


# ---------------------------------------------------------------------------
# graded rings
# ---------------------------------------------------------------------------

class GradedRing(_Graded):
    """A connected graded R-ring with finite support.

    components[n] is A^n (A^0 = R), maps[(p, q)] is mu^{p,q} : A^p (x) A^q
    -> A^{p+q} for p, q >= 1.
    """

    _unconnected = 'ring is not connected: A^0 != R'
    _maps_word, _symbol, _law = 'multiplication', 'mu', 'associativity'

    @staticmethod
    def _ends(tensored: Bimodule, whole: Bimodule) -> tuple:
        return tensored, whole

    def mu(self, p: int, q: int) -> BimoduleMap:
        return self._map(p, q)

    @staticmethod
    def _coproducts(table: dict) -> dict:
        """The products transposed, z -> [((a, b), coeff)]: associativity
        of mu is coassociativity of its transpose, as the coefficient of z
        in (ab)c is that of a (x) b (x) c in (Delta (x) 1) Delta z, and
        likewise for a(bc)."""
        delta = {}
        for ab, terms in table.items():
            for z, v in terms:
                delta.setdefault(z, []).append((ab, v))
        return delta


# ---------------------------------------------------------------------------
# graded corings
# ---------------------------------------------------------------------------

class GradedCoring(_Graded):
    """A connected graded R-coring with finite support.

    components[n] is C_n (C_0 = R), maps[(p, q)] is Delta_{p,q} : C_{p+q}
    -> C_p (x) C_q for p, q >= 1.
    """

    _unconnected = 'coring is not connected: C_0 != R'
    _maps_word, _symbol, _law = 'comultiplication', 'delta', 'coassociativity'

    @staticmethod
    def _ends(tensored: Bimodule, whole: Bimodule) -> tuple:
        return whole, tensored

    def delta(self, p: int, q: int) -> BimoduleMap:
        return self._map(p, q)

    @staticmethod
    def _coproducts(table: dict) -> dict:
        'The table as it is: it holds the coproducts.'
        return table


# ---------------------------------------------------------------------------
# strong grading
# ---------------------------------------------------------------------------

def _joint_blocks(X, n: int, stack):
    """Per block of X_n: (key, labels, the nonzero blocks of X.maps[(p,
    n-p)] over 1 <= p < n joined by stack, or None if they all vanish)."""
    for key, labels in X.component(n).blocks.items():
        mats = [X.maps[(p, n - p)].block(*key) for p in range(1, n)
                if (p, n - p) in X.maps]
        mats = [m for m in mats if not m.is_zero()]
        yield key, labels, stack(mats) if mats else None


def is_strongly_graded_ring(A: GradedRing):
    """True iff A^p A^q = A^{p+q} for all p, q >= 1: no indecomposables
    above degree 1, i.e. every iterated mu_n : (A^1)^(n) -> A^n is onto.

    Checked on the joint image of the stored mu^{p,n-p}, 1 <= p < n, block
    by block of A^n.  If every mu_k with k < n is onto, associativity makes
    that joint image the image of mu_n, so the first failing degree, block
    and label are those of the iterated maps.  Returns (bool, witness); the
    witness names a basis vector of A^n outside the image.
    """
    field = A.base.field
    for n in range(2, A.top_degree + 1):
        for key, labels, M in _joint_blocks(A, n, hstack):
            if M is not None and rank(M, field) == len(labels):
                continue
            image = None if M is None else image_basis(M, field)
            missing = next(l for i, l in enumerate(labels) if image is None
                           or not image.contains_vector({i: 1}))
            return False, {'degree': n, 'block': key,
                           'cokernel_label': missing}
    return True, None


def is_strongly_graded_coring(C: GradedCoring):
    """True iff C has no primitives above degree 1, i.e. every iterated
    Delta^n : C_n -> (C_1)^(n) is injective; the witness is a kernel vector.

    Checked on the joint kernel of the stored Delta_{p,n-p}, 1 <= p < n.
    If every Delta^k with k < n is injective, ker Delta^n = ker
    Delta_{1,n-1} (R is semisimple), which coassociativity puts inside
    every ker Delta_{p,q}: one subspace, so the same canonical witness.
    """
    field = C.base.field
    for n in range(2, C.top_degree + 1):
        for key, labels, M in _joint_blocks(C, n, vstack):
            if M is not None and rank(M, field) == len(labels):
                continue
            vec = ({0: field.one} if M is None
                   else kernel_basis(M, field).basis.column(0))
            return False, {'degree': n, 'block': key,
                           'kernel_vector': {repr(labels[i]): str(v)
                                             for i, v in sorted(vec.items())}}
    return True, None


# ---------------------------------------------------------------------------
# quadratic constructions
# ---------------------------------------------------------------------------

def _relation_step(V: Bimodule, W: SubBimodule, previous, n: int) -> dict:
    """Degree n of the ideal recursion: {block: Subspace of V^(n)} over
    the nonzero blocks, each with its reduced echelon basis.

    Degree 2 is W itself: its ambient V (x) V is V^(2), label for label.
    Degree n > 2 appends a letter to each degree n-1 basis vector, and
    prepends one; the two families span I_n = I_{n-1} (x) V + V (x) I_{n-1}.
    """
    field = V.base.field
    if n == 2:
        return {key: Subspace.from_spanning(sub.basis.columns(),
                                            sub.ambient_dim, field)
                for key, sub in W.parts.items()}
    amb, words = tensor_power(V, n), tensor_power(V, n - 1).blocks
    right, left = {}, {}
    for (s, t), sub in previous.items():
        cols = [[(words[(s, t)][i], c) for i, c in col.items()]
                for col in sub.basis.columns()]
        for (r, u), letters in V.blocks.items():
            if r == t:
                right.setdefault((s, u), []).extend(
                    {amb.index_of((s, u), w + (a,)): c for w, c in col}
                    for a in letters for col in cols)
            if u == s:
                left.setdefault((r, t), []).extend(
                    {amb.index_of((r, t), (a,) + w): c for w, c in col}
                    for a in letters for col in cols)
    out = {}
    for key, labels in amb.blocks.items():
        cols = right.get(key, []) + left.get(key, [])
        if cols:
            sub = Subspace.from_spanning(cols, len(labels), field)
            if sub.dim:
                out[key] = sub
    return out


def _relation_components(V: Bimodule, W: SubBimodule):
    'Yield (n, the degree-n ideal component) for n = 2, 3, ...'
    parts = None
    for n in count(2):
        parts = _relation_step(V, W, parts, n)
        yield n, parts


def _quadratic_dim(V: Bimodule, n: int, span: dict) -> int:
    'dim <V, W>_n: the words of V^(n) less the degree-n ideal component.'
    return tensor_power(V, n).dim - sum(sub.dim for sub in span.values())


def _complement_words(V: Bimodule, span: dict, n: int) -> Bimodule:
    """The words of V^(n) that are not pivots of the ideal span, block by
    block: a basis of V^(n) modulo the span, in flat word order.  The
    span's bases are reduced echelon, so each pivot is a column's first
    word."""
    blocks = {}
    for key, labels in tensor_power(V, n).blocks.items():
        sub = span.get(key)
        if sub is None or sub.dim == 0:
            blocks[key] = labels
            continue
        pivot_cols = {min(col) for col in sub.basis.columns()}
        kept = tuple(l for i, l in enumerate(labels) if i not in pivot_cols)
        if kept:
            blocks[key] = kept
    return Bimodule(V.base, blocks)


def _quadratic_ring(V: Bimodule, spans: dict, top: int) -> GradedRing:
    """The quadratic ring <V, W>, the tensor ring of V modulo the ideal on
    W, on the ideal components spans[n], 2 <= n <= top, of one walk of
    _relation_components.  Degree n is represented on the complement
    words of spans[n] (_complement_words), and multiplication
    concatenates words and reduces them modulo the ideal."""
    base = V.base
    field = base.field
    components = {0: unit_bimodule(base), 1: V}
    pivots = {}   # n -> block -> {pivot word index: its basis vector}
    for n in range(2, top + 1):
        components[n] = _complement_words(V, spans[n], n)
        pivots[n] = {key: {min(col): col for col in sub.basis.columns()}
                     for key, sub in spans[n].items()}

    def reduce_word(n, key, word):
        """Image of a degree-n word in the complement basis: [(label,
        coeff)].  The span's basis is reduced echelon, so a pivot word is
        minus the rest of its basis vector, and any other word is reduced."""
        amb = tensor_power(V, n)
        label = _word_label(word, n)
        i = amb.index_of(key, label)
        col = pivots[n].get(key, {}).get(i)
        if col is None:
            return [(label, 1)]
        return [(amb.blocks[key][j], field.neg(c))
                for j, c in col.items() if j != i]

    maps = {}
    for p in range(1, top):
        for q in range(1, top + 1 - p):
            Qp, Qq = components[p], components[q]
            if Qp.is_zero() or Qq.is_zero() or components[p + q].is_zero():
                continue

            def action(key, l, p=p, q=q):
                word = _as_word(l[0], p) + _as_word(l[1], q)
                return reduce_word(p + q, key, word)

            maps[(p, q)] = BimoduleMap.from_basis_action(
                tensor(Qp, Qq), components[p + q], action)

    return GradedRing(base, components, maps, top)


# ---------------------------------------------------------------------------
# graded duals and shriek duals
# ---------------------------------------------------------------------------

def _graded_left_dual(X, out_cls):
    """The out_cls on the duals ^*X_n whose (p, q) structure map is the
    blockwise transpose of X.maps[(p, q)].

    left_dual keeps block keys and label positions, so the dual basis of
    ^*(X_p (x) X_q) comes in the order of the pairs of ^*X_p (x) ^*X_q and
    the transposed blocks already sit between tensor(^*X_p, ^*X_q) and
    ^*X_{p+q}, in the direction out_cls._ends gives.

    The dual carries the checks of X (_Graded._carried).  Its ends are
    exact by construction, and ^*R = R.  Transposing reverses composition,
    so each bracketing of the dual is the transpose of one of X, and
    (co)associativity of X is that of the dual.  The iterated maps of the
    dual are the transposes of those of X, so the iterated products of one
    side are onto exactly when the iterated coproducts of the other are
    injective: a strong grading that passed carries over, and so does the
    truncation flag.
    """
    components = {n: left_dual(X.component(n))
                  for n in range(X.top_degree + 1)}
    dual_maps = {
        (p, q): BimoduleMap(
            *out_cls._ends(tensor(components[p], components[q]),
                           components[p + q]),
            {key: mat.transpose() for key, mat in f.blocks.items()})
        for (p, q), f in X.maps.items()}
    return out_cls._carried(X, components, dual_maps)


def _transposed_degree_one(X) -> tuple:
    """^*X_1 and the blockwise transpose of the (1, 1) structure map of X.
    Transposing reverses the map: it runs between ^*X_2 and ^*X_1 (x)
    ^*X_1, whose pairs of dual labels come in the order of the dual basis
    of ^*(X_1 (x) X_1), since left_dual keeps block keys and label
    positions.  Under the coordinate pairing its image is
    (Ker mu^{1,1})^perp for a ring, and its kernel is (Im Delta_{1,1})^perp
    for a coring."""
    dual_V = left_dual(X.component(1))
    ends = X._ends(tensor(dual_V, dual_V), left_dual(X.component(2)))
    return dual_V, BimoduleMap(
        *reversed(ends),
        {key: mat.transpose() for key, mat in X._map(1, 1).blocks.items()})


def _quadratic_partner(V: Bimodule, W: SubBimodule,
                       top_degree: int) -> GradedRing:
    """The quadratic ring <V, W> up to the degree where its components
    vanish, cut past cap = max(2 * top_degree, |S|, 2), from one walk of
    the ideal recursion.

    The quadratic ring is generated in degree 1, so it vanishes for good
    past its first zero degree, and stopping there is a complete answer.
    A non-nilpotent degree-1 part can keep every degree nonzero, so the
    walk also stops past the cap, and support_truncated records that
    degree cap + 1 was nonzero.  The cap is at least the number of
    idempotents, which keeps the flag for that case alone: when the block
    digraph of V is acyclic every path revisits no idempotent, so V^(n)
    dies by n = |S| and the walk ends at a genuine zero before the cap.
    """
    cap = max(2 * top_degree, len(V.base.idempotents), 2)
    spans = {}
    for n, span in _relation_components(V, W):
        dim = _quadratic_dim(V, n, span)
        if not dim or n > cap:
            break
        spans[n] = span
    ring = _quadratic_ring(V, spans, 0 if V.is_zero() else n - 1)
    ring.support_truncated = bool(dim)
    return ring


def shriek_of_ring(A: GradedRing) -> GradedCoring:
    """A^! = {A^1, Ker mu^{1,1}}, the quadratic-dual coring of A, as the
    graded left dual of the quadratic ring <^*A^1, (Ker mu^{1,1})^perp>.

    (Ker mu^{1,1})^perp is the image of the transposed mu^{1,1}, so that
    one map is transposed, not all of A.  dual_label is an involution, so
    the degree-1 part of A^! is A^1 label for label.
    """
    dual_V, transposed = _transposed_degree_one(A)
    return _graded_left_dual(
        _quadratic_partner(dual_V, image_sub(transposed), A.top_degree),
        GradedCoring)


def shriek_of_coring(C: GradedCoring) -> GradedRing:
    'C^! = <C_1, Im Delta_{1,1}>, the quadratic-dual ring of C.'
    return _quadratic_partner(C.component(1), image_sub(C.delta(1, 1)),
                              C.top_degree)
