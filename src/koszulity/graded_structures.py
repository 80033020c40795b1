"""Connected graded R-rings and R-corings with finite support.

Strong grading, the quadratic ring <V,W> (tensor ring modulo the ideal
generated by W), graded left duals, and shriek duals.  Components are
Bimodules and all validation is exact.

Rings and corings share one core, _Graded.  A structure numbers its basis
(_Numbering): integer ids for the labels of degrees 0..top in block order,
and its structure maps as one table on those ids.  The bar, cobar and
Koszul slices read that table, and so does the one (co)associativity
check.  The structures this package builds, the incidence structures of
a poset, the quadratic partners and the graded duals, are filled in as
tables on ids; the (p, q) structure maps are BimoduleMap views, each read
off the table when it is first asked for.  A structure can also be given
by its BimoduleMaps (the public constructor); it then checks their exact
ends and reads its table off their blocks.

Every structure that is not a graded dual is checked: the degree, start
and end of every table entry, then (Delta (x) 1) Delta z against (1 (x)
Delta) Delta z for every basis vector z, on the table in coproduct form,
as sparse vectors on id triples; no tensor-product map is built.  A
coring's table is in that form.  A ring's table is transposed into it:
the coefficient of z in (ab)c is that of a (x) b (x) c in (Delta (x) 1)
Delta z for Delta the transpose of mu, and likewise for a(bc), so
associativity of mu is coassociativity of its transpose.  A graded dual
is not checked again: it keeps the ids of its source and holds its
transposed table, so it carries the check of its source.

The quadratic ring reads its ideal components off one walk of a
one-letter recursion on words of ids: I_2 = W and I_n = I_{n-1} (x) V +
V (x) I_{n-1} for n >= 3, each kept as an echelon form whose leads are
the least words of its vectors.  The words that are no lead are a basis
of the ring, and with reduced echelon rows a lead is read as minus the
rest of its row.  The quadratic coring {V, W} is the graded dual of the
quadratic ring <^*V, W^perp> (Polishchuk-Positselski, Quadratic Algebras,
ch. 1), so both shriek partners come from this one construction, and
both relation spaces are read off the degree-2 coproducts of the table.
"""

from __future__ import annotations

from functools import cached_property
from itertools import count

from .exact_linalg import (SparseMatrix, Echelon, rank, accumulate,
                           image_basis, kernel_basis)
from .bimodule import (Bimodule, BimoduleMap, BaseRing, tensor,
                       unit_bimodule, zero_bimodule, left_dual)
from .errors import StructureError


def _check_components(base, components, top_degree):
    for n, comp in components.items():
        if comp.base != base:
            raise StructureError(f'component in degree {n} lives over the wrong base')
        if (n < 0 or n > top_degree) and not comp.is_zero():
            raise StructureError(f'nonzero component in degree {n} outside 0..{top_degree}')


def _transpose(table: dict) -> dict:
    """A table with its keys and terms swapped: a ring's products (a, b)
    -> [(c, coeff)] as coproducts c -> [((a, b), coeff)], and back."""
    out = {}
    for key, terms in table.items():
        for term, v in terms:
            out.setdefault(term, []).append((key, v))
    return out


def _entries(table: dict) -> dict:
    'The entries of a table, {(key, term): coeff}, whatever their order.'
    return {(key, term): v for key, terms in table.items() for term, v in terms}


class _Graded:
    """The data a graded ring and a graded coring share: components[n] is
    X_n for 0 <= n <= top_degree (X_0 = R), and _numbering holds the
    structure maps as one table on the ids of the basis (_Numbering).
    maps[(p, q)], p, q >= 1, is the nonzero (p, q) structure map between
    X_{p+q} and X_p (x) X_q: a view of the table, built on first use and
    then kept, as is each zero map.  There is no map against degree 0: R
    (x) X = X = X (x) R are identifications, which the Koszul complex
    applies in place.

    Each side gives _ends(tensored, whole) -> (source, target), the
    direction of its maps, _coproducts, its table in coproduct form
    (transposed for a ring, as it is for a coring), and the words of its
    error messages.  The constructor takes the maps, checks their exact
    ends and reads the table off them; _from_table fills the table on the
    ids of the components.  Both run _validate.  _carried builds a graded
    dual, whose checks carry over from its source.
    """

    def __init__(self, base: BaseRing, components: dict, maps: dict,
                 top_degree: int):
        self._assemble(base, components, top_degree)
        stored = {}
        for (p, q), f in maps.items():
            if p < 1 or q < 1 or p + q > top_degree:
                raise StructureError(
                    f'{self._maps_word} component ({p},{q}) out of range')
            if not f.is_zero():
                stored[(p, q)] = f
        self.maps = stored
        self._views.update(stored)
        self._validate()

    def _assemble(self, base, components, top_degree):
        'Everything every construction does first.'
        self.base = base
        self.top_degree = top_degree
        _check_components(base, components, top_degree)
        self.components = {n: components.get(n, zero_bimodule(base))
                           for n in range(top_degree + 1)}
        self.support_truncated = False
        self._strongly_graded = False   # set once a check has passed
        self._views = {}

    @classmethod
    def _from_table(cls, base: BaseRing, components: dict, top_degree: int,
                    fill):
        """The structure on components whose table is fill(numbering), for
        the numbering of the components; checked by _validate."""
        X = cls.__new__(cls)
        X._assemble(base, components, top_degree)
        X._numbering = _Numbering(X)
        X._numbering.table = fill(X._numbering)
        X._validate()
        return X

    @classmethod
    def _carried(cls, source, components: dict, labels: list, table: dict):
        """The structure on components, with the ids of source on labels,
        the labels of components in id order, and table on them, built
        without _validate: its checks are those of source, which passed
        them when it was built, carried over by the construction (the
        transpose of a graded dual; see _graded_left_dual).  The
        truncation flag and a strong grading that passed carry over too."""
        X = cls.__new__(cls)
        X._assemble(source.base, components, source.top_degree)
        X._numbering = source._numbering.relabeled(labels, table)
        X.support_truncated = source.support_truncated
        X._strongly_graded = source._strongly_graded
        return X

    @cached_property
    def _numbering(self) -> '_Numbering':
        """The numbering of a structure given by its maps, with the table
        read off their blocks: each target block by its source key, so the
        ends of every map are checked first."""
        for (p, q), f in self.maps.items():
            source, target = self._ends_at(p, q)
            if f.source != source:
                raise StructureError(f'{self._symbol}({p},{q}) has wrong source')
            if f.target != target:
                raise StructureError(f'{self._symbol}({p},{q}) has wrong target')
        num = _Numbering(self)
        ids = {(num.degree[x], num.start[x], label): x
               for x, label in enumerate(num.labels)}
        end = num.end

        def word(p, q, s, pair):
            a = ids[(p, s, pair[0])]
            return a, ids[(q, end[a], pair[1])]

        def whole(p, q, s, label):
            return ids[(p + q, s, label)]

        key_of, term_of = self._ends(word, whole)
        for (p, q), f in sorted(self.maps.items()):
            for (s, u), mat in f.blocks.items():
                src, tgt = f.source.blocks[(s, u)], f.target.blocks[(s, u)]
                for (i, j), v in mat.entries.items():
                    num.table.setdefault(key_of(p, q, s, src[j]), []).append(
                        (term_of(p, q, s, tgt[i]), v))
        return num

    @cached_property
    def _transposed(self) -> dict:
        'The table with its keys and terms swapped (_transpose).'
        return _transpose(self._numbering.table)

    @cached_property
    def maps(self) -> dict:
        'The nonzero (p, q) structure maps, read off the table.'
        top, maps = self.top_degree, {}
        for p in range(1, top):
            for q in range(1, top + 1 - p):
                f = self._map(p, q)
                if not f.is_zero():
                    maps[(p, q)] = f
        return maps

    def _ends_at(self, p: int, q: int) -> tuple:
        'Source and target of the (p, q) structure map.'
        return self._ends(tensor(self.component(p), self.component(q)),
                          self.component(p + q))

    def _map(self, p: int, q: int) -> BimoduleMap:
        """The (p, q) structure map, p, q >= 1, read off the table on first
        use and kept.  Its blocks hold the coproduct terms (a, b) of degree
        (p, q) of the ids c of degree p + q: a pair of ids is a basis vector
        of X_p (x) X_q (_pair_words), and an id is one of its block."""
        if p < 1 or q < 1:
            raise ValueError(f'{self._symbol}({p},{q}): degrees must be >= 1')
        f = self._views.get((p, q))
        if f is not None:
            return f
        num, trips = self._numbering, {}
        if p + q <= self.top_degree:
            pairs = _pair_words(num, num, self.base.idempotents, p, q)
            delta, degree, pos = self._coproducts, num.degree, num.pos
            for c in num.of_degree[p + q]:
                key = (num.start[c], num.end[c])
                for (a, b), v in delta.get(c, ()):
                    if degree[a] == p:
                        col, row = self._ends(pairs[key][(a, b)], pos[c])
                        trips.setdefault(key, []).append((row, col, v))
        source, target = self._ends_at(p, q)
        f = self._views[(p, q)] = BimoduleMap(source, target, {
            key: SparseMatrix(target.block_dim(*key), source.block_dim(*key),
                              t)
            for key, t in trips.items()})
        return f

    def _validate(self):
        """Connectedness, the degree, start and end of every table entry,
        and the (co)associativity on the table in coproduct form, z ->
        [((a, b), coeff)] (the side's _coproducts).

        An entry (a, b) of z must have a and b of positive degrees summing
        to that of z, a must start where z does, b where a ends, and z end
        where b does.  For every z, (Delta (x) 1) Delta z and (1 (x) Delta)
        Delta z are summed on the id triples (a, b, c).  The degrees (p, q,
        r) of a triple fix the maps its terms went through, so this compares
        the two bracketings for every p + q + r <= top at once; the error
        names the least (p, q, r) of a differing entry."""
        if self.component(0) != unit_bimodule(self.base):
            raise StructureError(self._unconnected)
        field, num = self.base.field, self._numbering
        degree, start, end = num.degree, num.start, num.end
        delta = self._coproducts
        for z, halves in delta.items():
            for (a, b), _ in halves:
                p, q = degree[a], degree[b]
                if not (p and q and p + q == degree[z] and start[a] == start[z]
                        and end[a] == start[b] and end[b] == end[z]):
                    raise StructureError(
                        f'{self._symbol}({p},{q}) has a term outside its ends')
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
            p, q, r = min(tuple(degree[x] for x in w) for w in failing)
            raise StructureError(f'{self._law} fails at ({p},{q},{r})')

    def component(self, n: int) -> Bimodule:
        if 0 <= n <= self.top_degree:
            return self.components[n]
        return zero_bimodule(self.base)

    def dims(self) -> list:
        return [self.component(n).dim for n in range(self.top_degree + 1)]

    def __eq__(self, other):
        """Equal components number their bases alike, so the tables
        compare; a double dual holds the very table of its source."""
        if not isinstance(other, type(self)):
            return NotImplemented
        mine, theirs = self._numbering.table, other._numbering.table
        return (self.base == other.base and self.top_degree == other.top_degree
                and self.components == other.components
                and (mine is theirs or _entries(mine) == _entries(theirs)))

    def __repr__(self):
        return f'{type(self).__name__}(top={self.top_degree}, dims={self.dims()})'


class _Numbering:
    """Integer ids for the basis of a ring or coring X, and its structure
    maps as one table on them.

    Ids run over the degrees 0..top in turn, within a degree over the blocks
    in block order, and within a block over its labels in order.  Degree 0
    has one id per idempotent, the unit of its diagonal block, so a ring and
    a coring on one degree-1 bimodule give its basis the same ids.  For an
    id x: labels[x], degree[x], start[x] and end[x], the idempotents of its
    block, and pos[x], its index in the block.  of_degree[p] is the range of
    the ids of degree p, and starting[(p, s)] lists those whose block starts
    at s, in id order.  A word is a tuple of ids.  In a block of a tensor
    product the labels come in the lexicographic order of these words,
    since every block from s lists the ids starting at s in order.

    table holds the structure maps on these ids, keyed by source: for a
    ring (a, b) -> [(c, coeff)], the product of a (x) b, and for a coring
    c -> [((a, b), coeff)], every coproduct of c, nonzero entries only.
    The ids fix the degrees, so the (p, q) map of a term is known: the
    product of a and b is the (degree a, degree b) one, and a coproduct
    term (a, b) of c is the (degree a, degree c - degree a) one.  The
    ring's table, transposed, has the coring's form, and _Graded._validate
    reads both sides in that form.  The numbering is made with an empty
    table, which its structure then fills.

    reach[r] holds the idempotents where a word of weight exactly r starts:
    every idempotent for r = 0, else the starts of the blocks (s, t) of some
    X_p, p <= r, with t in reach[r-p]; reach_to(m) extends it up to m.
    """

    def __init__(self, X):
        labels, degree, start, end, pos = [], [], [], [], []
        self.starting, self.of_degree = {}, []
        for p in range(X.top_degree + 1):
            first = len(labels)
            for (s, t), block in X.component(p).blocks.items():
                run = self.starting.setdefault((p, s), [])
                for i, label in enumerate(block):
                    run.append(len(labels))
                    labels.append(label)
                    degree.append(p)
                    start.append(s)
                    end.append(t)
                    pos.append(i)
            self.of_degree.append(range(first, len(labels)))
        self.labels, self.degree, self.start, self.end, self.pos = (
            labels, degree, start, end, pos)
        self.table = {}
        self._arrows = {p: tuple(X.component(p).blocks)
                        for p in range(1, X.top_degree + 1)}
        self.reach = [set(X.base.idempotents)]

    def relabeled(self, labels: list, table: dict) -> '_Numbering':
        """The same ids on other labels at the same places, holding table;
        what does not depend on the labels is shared."""
        other = _Numbering.__new__(_Numbering)
        other.__dict__.update(self.__dict__, labels=labels, table=table)
        return other

    def reach_to(self, m: int) -> list:
        'reach, extended up to weight m.'
        reach = self.reach
        for r in range(len(reach), m + 1):
            reach.append({s for p, arrows in self._arrows.items() if p <= r
                          for s, t in arrows if t in reach[r - p]})
        return reach


def _pair_words(left: _Numbering, right: _Numbering, idempotents, p: int,
                q: int) -> dict:
    """{block key: {(x, z): index}}: the basis of X_p (x) Y_q as pairs of
    ids of the numberings left of X and right of Y, in the label order of
    tensor."""
    words = {}
    for s in idempotents:
        for x in left.starting.get((p, s), ()):
            for z in right.starting.get((q, left.end[x]), ()):
                block = words.setdefault((s, right.end[z]), {})
                block[(x, z)] = len(block)
    return words


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
    def _ends(tensored, whole) -> tuple:
        return tensored, whole

    def mu(self, p: int, q: int) -> BimoduleMap:
        return self._map(p, q)

    @property
    def _coproducts(self) -> dict:
        """The products transposed, z -> [((a, b), coeff)]: associativity
        of mu is coassociativity of its transpose, as the coefficient of z
        in (ab)c is that of a (x) b (x) c in (Delta (x) 1) Delta z, and
        likewise for a(bc)."""
        return self._transposed


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
    def _ends(tensored, whole) -> tuple:
        return whole, tensored

    def delta(self, p: int, q: int) -> BimoduleMap:
        return self._map(p, q)

    @property
    def _coproducts(self) -> dict:
        'The table as it is: it holds the coproducts.'
        return self._numbering.table


# ---------------------------------------------------------------------------
# strong grading
# ---------------------------------------------------------------------------

def _joint_blocks(X, n: int):
    """Per block of X_n: (key, labels, the matrix of the coproducts of its
    basis vectors, or None if they all vanish).  A column per basis vector,
    a row per pair of ids (a, b) that one of them reaches, a in X_p and b
    in X_{n-p} for some 1 <= p < n: the Delta_{p,n-p} of a coring stacked,
    and the mu^{p,n-p} of a ring side by side, transposed.  The order of
    the rows plays no part in its rank, row space or kernel."""
    num, delta = X._numbering, X._coproducts
    blocks = {}
    for c in num.of_degree[n]:
        rows, trips = blocks.setdefault((num.start[c], num.end[c]), ({}, []))
        for ab, v in delta.get(c, ()):
            trips.append((rows.setdefault(ab, len(rows)), num.pos[c], v))
    for key, labels in X.component(n).blocks.items():
        rows, trips = blocks[key]
        yield key, labels, (SparseMatrix(len(rows), len(labels), trips)
                            if trips else None)


def is_strongly_graded_ring(A: GradedRing):
    """True iff A^p A^q = A^{p+q} for all p, q >= 1: no indecomposables
    above degree 1, i.e. every iterated mu_n : (A^1)^(n) -> A^n is onto.

    Checked on the joint image of the mu^{p,n-p}, 1 <= p < n, block by
    block of A^n.  If every mu_k with k < n is onto, associativity makes
    that joint image the image of mu_n, so the first failing degree, block
    and label are those of the iterated maps.  Returns (bool, witness); the
    witness names a basis vector of A^n outside the image.
    """
    field = A.base.field
    for n in range(2, A.top_degree + 1):
        for key, labels, M in _joint_blocks(A, n):
            if M is not None and rank(M, field) == len(labels):
                continue
            image = None if M is None else image_basis(M.transpose(), field)
            missing = next(l for i, l in enumerate(labels) if image is None
                           or not image.contains_vector({i: 1}))
            return False, {'degree': n, 'block': key,
                           'cokernel_label': missing}
    return True, None


def is_strongly_graded_coring(C: GradedCoring):
    """True iff C has no primitives above degree 1, i.e. every iterated
    Delta^n : C_n -> (C_1)^(n) is injective; the witness is a kernel vector.

    Checked on the joint kernel of the Delta_{p,n-p}, 1 <= p < n.
    If every Delta^k with k < n is injective, ker Delta^n = ker
    Delta_{1,n-1} (R is semisimple), which coassociativity puts inside
    every ker Delta_{p,q}: one subspace, so the same canonical witness.
    """
    field = C.base.field
    for n in range(2, C.top_degree + 1):
        for key, labels, M in _joint_blocks(C, n):
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

class _Words:
    """Words in the degree-1 ids of a structure X, as ints.

    The d letters are the ids of degree 1, numbered 0..d-1 in id order, and
    the word l_1 ... l_n of n letters is sum l_k d^(n-k).  In a block of
    V^(n), V = X_1, the ints of its words come in the lexicographic order of
    their ids, which is their label order (_Numbering); the first letter of
    a word is w // d^(n-1) and the last w % d.  after[t] and before[s] list
    the letters that start at t and that end at s.
    """

    def __init__(self, X):
        num = X._numbering
        letters = num.of_degree[1] if X.top_degree else range(0)
        self.first, self.d = letters.start, len(letters)
        self.field = X.base.field
        self.start = num.start[letters.start:letters.stop]
        self.end = num.end[letters.start:letters.stop]
        self.after, self.before = {}, {}
        for l in range(self.d):
            self.after.setdefault(self.start[l], []).append(l)
            self.before.setdefault(self.end[l], []).append(l)

    def longer(self, words: list) -> list:
        'The words of one letter more that begin with one of words, in order.'
        d, after, end = self.d, self.after, self.end
        return [w * d + l for w in words for l in after.get(end[w % d], ())]

    def degree_two(self, X) -> list:
        """The degree-2 coproducts of X, one row {two-letter word: coeff}
        per basis vector of X_2: Delta_{1,1} of a coring, and the transposed
        mu^{1,1} of a ring."""
        num, first, d = X._numbering, self.first, self.d
        ids = num.of_degree[2] if X.top_degree >= 2 else ()
        return [{(a - first) * d + b - first: v
                 for (a, b), v in X._coproducts.get(z, ())} for z in ids]


def _relation_step(words: _Words, relations: list, walk: dict, n: int,
                   reduced: bool) -> Echelon:
    """Degree n of the ideal recursion: the Echelon of I_n, whose leads
    are the least words of its vectors, rows reduced when reduced is set.
    walk[m] holds the Echelon of I_m and the words of m letters that are
    no lead of it, for 2 <= m < n, and walk[1] the letters.

    Degree 2 is W, spanned by the relation rows.  For n > 2, I_n = I_{n-1}
    (x) V + N_{n-2} (x) W, for N_{n-2} the span of the words that are no
    lead of I_{n-2}: I_n is the sum of V^i (x) W (x) V^(n-2-i) over i, the
    first term holds those with i < n-2, and V^(n-2) (x) W lies in N_{n-2}
    (x) W + I_{n-2} (x) V (x) V.  So each row of I_{n-1} gets a letter
    appended, and each row of W one of those words prepended.  A row's
    words share one block, read off any of them.
    """
    if n == 2:
        spanning = relations
    else:
        d, after, end = words.d, words.after, words.end
        spanning = [{v * d + l: c for v, c in row.items()}
                    for row, _ in walk[n - 1][0].rows.values()
                    for l in after.get(end[next(iter(row)) % d], ())]
        place = d * d   # u shifted past the two letters of a row of W
        ending = {}
        for row, _ in walk[2][0].rows.values():
            ending.setdefault(words.start[next(iter(row)) // d], []).append(row)
        spanning += [{u * place + v: c for v, c in row.items()}
                     for u in walk[n - 2][1]
                     for row in ending.get(end[u % d], ())]
    echelon = Echelon(words.field, spanning)
    if reduced:
        echelon.reduced_rows()
    return echelon


def _relation_components(words: _Words, relations: list, reduced: bool):
    """Yield (n, the Echelon of I_n, the words of n letters that are no
    lead of it) for n = 2, 3, ..., from the relation rows.

    The words that are no lead are a basis of V^(n) modulo I_n, in
    increasing order.  They grow letter by letter: a lead times a letter,
    on either side, is the lead of its row times that letter, which lies
    in the next ideal, so every prefix of a word that is no lead is no
    lead either.
    """
    walk = {1: (None, list(range(words.d)))}
    for n in count(2):
        echelon = _relation_step(words, relations, walk, n, reduced)
        normal = [w for w in words.longer(walk[n - 1][1])
                  if w not in echelon.rows]
        walk[n] = (echelon, normal)
        yield n, echelon, normal


def _quadratic_dims(X):
    """Yield (n, dim of degree n) for n = 2, 3, ... of the quadratic ring
    whose relations are the two-letter words orthogonal to the degree-2
    coproducts of X under the coordinate pairing: <A^1, Ker mu^{1,1}> for
    a ring A, and <^*C_1, (Im Delta_{1,1})^perp> for a coring C, the graded
    dual of {C_1, Im Delta_{1,1}}.  Only ranks are read, so no row is
    reduced past the degree-2 kernel."""
    words = _Words(X)
    field = words.field
    echelon = Echelon(field, words.degree_two(X))
    echelon.reduced_rows()
    # the kernel of the rows: one vector per word that is no lead, that
    # word minus its coordinates in the leads (exact_linalg.kernel_basis)
    kernel = {w: {w: field.one} for w in words.longer(range(words.d))
              if w not in echelon.rows}
    for lead, (row, _) in echelon.rows.items():
        for w, v in row.items():
            if w != lead:
                kernel[w][lead] = field.neg(v)
    for n, _, normal in _relation_components(words, list(kernel.values()),
                                             reduced=False):
        yield n, len(normal)


def _quadratic_partner(X, V: Bimodule) -> GradedRing:
    """The quadratic ring on V, the degree-1 part of X or its dual, whose
    relations are spanned by the degree-2 coproducts of X: <C_1, Im
    Delta_{1,1}> for a coring, <^*A^1, (Ker mu^{1,1})^perp> for a ring.
    V has the blocks and label places of X_1, so the ring numbers it with
    the ids of X.

    The ring is built up to the degree where it vanishes, cut past cap =
    max(2 * top degree of X, |S|, 2), from one walk of the ideal recursion.
    It is generated in degree 1, so it vanishes for good past its first
    zero degree, and stopping there is a complete answer.  A non-nilpotent
    degree-1 part can keep every degree nonzero, so the walk also stops
    past the cap, and support_truncated records that degree cap + 1 was
    nonzero.  The cap is at least the number of idempotents, which keeps
    the flag for that case alone: when the block digraph of V is acyclic
    every path revisits no idempotent, so V^(n) dies by n = |S| and the
    walk ends at a genuine zero before the cap.

    Degree n holds the words that are no lead of I_n, by block, and the
    product of two of them is their concatenation, read as itself if no
    lead, else as minus the rest of its reduced row.
    """
    base, field = V.base, V.base.field
    cap = max(2 * X.top_degree, len(base.idempotents), 2)
    words = _Words(X)
    d = words.d
    normal, leads = {1: list(range(d))}, {}
    for n, echelon, kept in _relation_components(
            words, words.degree_two(X), reduced=True):
        if not kept or n > cap:
            break
        normal[n], leads[n] = kept, echelon.rows
    top = n - 1 if d else 0
    letters = [l for labels in V.blocks.values() for l in labels]
    blocks = {m: {} for m in range(1, top + 1)}   # its words by block key
    for m, by_key in blocks.items():
        head = d ** (m - 1)
        for w in normal[m]:
            by_key.setdefault((words.start[w // head], words.end[w % d]),
                              []).append(w)
    components = {0: unit_bimodule(base), 1: V}
    for m in range(2, top + 1):
        components[m] = Bimodule(base, {
            key: [_spelled(w, m, d, letters) for w in ws]
            for key, ws in blocks[m].items()})

    def fill(num):
        id_of, word_of = {}, {}
        for m in range(1, top + 1):
            x = num.of_degree[m].start
            for key in components[m].blocks:
                for w in blocks[m][key]:
                    id_of[(m, w)], word_of[x] = x, w
                    x += 1
        table, degree, end = {}, num.degree, num.end
        for a, wa in word_of.items():
            p = degree[a]
            for q in range(1, top + 1 - p):
                place = d ** q
                for b in num.starting.get((q, end[a]), ()):
                    w = wa * place + word_of[b]
                    c = id_of.get((p + q, w))
                    if c is not None:
                        table[(a, b)] = [(c, 1)]
                        continue
                    terms = [(id_of[(p + q, v)], field.neg(k))
                             for v, k in leads[p + q][w][0].items() if v != w]
                    if terms:
                        table[(a, b)] = terms
        return table

    ring = GradedRing._from_table(base, components, top, fill)
    ring.support_truncated = bool(kept)
    return ring


def _spelled(w: int, n: int, d: int, letters: list) -> tuple:
    'The labels of the n letters of the word w, as a tuple.'
    spelled = []
    for _ in range(n):
        w, l = divmod(w, d)
        spelled.append(letters[l])
    return tuple(reversed(spelled))


# ---------------------------------------------------------------------------
# graded duals and shriek duals
# ---------------------------------------------------------------------------

def _graded_left_dual(X, out_cls):
    """The out_cls on the duals ^*X_n whose (p, q) structure map is the
    blockwise transpose of that of X.

    left_dual keeps block keys and label positions, so the dual numbers its
    basis with the ids of X, and the dual basis of ^*(X_p (x) X_q) comes in
    the order of the pairs of ^*X_p (x) ^*X_q.  The transposed table of X
    is then the table of the dual, in the direction out_cls._ends gives:
    X's coproduct form for the dual of a ring, X's products for the dual
    of a coring.  The transpose of the dual's table is X's table.

    The dual carries the checks of X (_Graded._carried).  Its entries keep
    their degrees, starts and ends, and ^*R = R.  Transposing reverses
    composition, so each bracketing of the dual is the transpose of one of
    X, and (co)associativity of X is that of the dual.  The iterated maps
    of the dual are the transposes of those of X, so the iterated products
    of one side are onto exactly when the iterated coproducts of the other
    are injective: a strong grading that passed carries over, and so does
    the truncation flag.
    """
    components = {n: left_dual(X.component(n))
                  for n in range(X.top_degree + 1)}
    labels = [l for n in range(X.top_degree + 1)
              for block in components[n].blocks.values() for l in block]
    D = out_cls._carried(X, components, labels, X._transposed)
    D._transposed = X._numbering.table
    return D


def shriek_of_ring(A: GradedRing) -> GradedCoring:
    """A^! = {A^1, Ker mu^{1,1}}, the quadratic-dual coring of A, as the
    graded left dual of the quadratic ring <^*A^1, (Ker mu^{1,1})^perp>.

    (Ker mu^{1,1})^perp is the image of the transposed mu^{1,1}, spanned by
    the degree-2 coproducts of A's transposed table.  dual_label is an
    involution, so the degree-1 part of A^! is A^1 label for label.
    """
    return _graded_left_dual(
        _quadratic_partner(A, left_dual(A.component(1))), GradedCoring)


def shriek_of_coring(C: GradedCoring) -> GradedRing:
    'C^! = <C_1, Im Delta_{1,1}>, the quadratic-dual ring of C.'
    return _quadratic_partner(C, C.component(1))
