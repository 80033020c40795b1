"""Finite graded posets and their incidence structures.

A poset is given by its Hasse diagram (elements plus cover pairs).  The
order is the reflexive-transitive closure; gradedness means every interval
has all its maximal chains of equal length, which is what makes interval
length a grading.  On top of that sit the incidence ring and coring, the
quadratic ring on the zeta relations, and a small-scale enumerator of all
graded posets up to isomorphism.  The incidence ring and coring are filled
in as tables on the ids of their bases (graded_structures._Numbering),
straight from the composable intervals: no structure map is built to make
them.  Their builders import the algebra modules when they run, so
parsing, canonical forms and the corpus walk load none of them.
"""

from __future__ import annotations

from .exact_linalg import RATIONALS
from .errors import InputError


class GradedPoset:
    """A finite poset, validated to be graded.

    Covers are deduplicated; cycles and intervals with maximal chains of two
    different lengths are rejected at construction.
    """

    def __init__(self, elements, covers):
        elements = list(elements)
        if not elements:
            raise InputError('poset needs at least one element')
        seen_el = set()
        for e in elements:
            if e in seen_el:
                raise InputError(f'duplicate element label {e!r}')
            seen_el.add(e)
        clean = []
        seen_cov = set()
        for lo, hi in covers:
            if lo not in seen_el:
                raise InputError(f'cover uses unknown element {lo!r}')
            if hi not in seen_el:
                raise InputError(f'cover uses unknown element {hi!r}')
            if lo == hi:
                raise InputError(f'cycle detected: {lo!r} covers itself')
            if (lo, hi) not in seen_cov:
                seen_cov.add((lo, hi))
                clean.append((lo, hi))
        self.elements = tuple(elements)
        self.covers = tuple(clean)
        self._up = {x: [] for x in self.elements}
        indeg = {x: 0 for x in self.elements}
        for lo, hi in self.covers:
            self._up[lo].append(hi)
            indeg[hi] += 1
        order = [x for x in self.elements if indeg[x] == 0]
        pos = 0
        while pos < len(order):
            for w in self._up[order[pos]]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    order.append(w)
            pos += 1
        if len(order) != len(self.elements):
            stuck = sorted((repr(x) for x, d in indeg.items() if d > 0))
            raise InputError(f'cycle detected among {", ".join(stuck)}')
        # the interval [x, y] is graded iff the shortest and longest cover
        # paths x -> y agree; a maximal chain in an interval is exactly a
        # cover path of the whole poset
        self._length = {}
        for x in self.elements:
            dmin, dmax = {x: 0}, {x: 0}
            for z in order:
                if z not in dmin:
                    continue
                for w in self._up[z]:
                    nd = dmin[z] + 1
                    if w not in dmin or nd < dmin[w]:
                        dmin[w] = nd
                    nd = dmax[z] + 1
                    if w not in dmax or nd > dmax[w]:
                        dmax[w] = nd
            for y, short in dmin.items():
                if y == x:
                    continue
                if short != dmax[y]:
                    raise InputError(
                        f'not graded: interval [{x!r}, {y!r}] has maximal '
                        f'chains of lengths {short} and {dmax[y]}')
                self._length[(x, y)] = short
        self.max_length = max(self._length.values(), default=0)
        self._by_length = {}
        for x in self.elements:
            for y in self.elements:
                p = self._length.get((x, y))
                if p is not None:
                    self._by_length.setdefault(p, []).append((x, y))

    def length(self, x, y):
        'Common length of the maximal chains in [x, y]; None if incomparable.'
        if x == y:
            return 0 if x in self._up else None
        return self._length.get((x, y))

    def intervals(self, p: int) -> list:
        'All intervals [x, y] of length p, in element order.'
        if p == 0:
            return [(x, x) for x in self.elements]
        return list(self._by_length.get(p, ()))

    def middles(self, x, y, p: int) -> list:
        'Elements z with x <= z <= y, l(x,z) = p, in element order.'
        total = self.length(x, y)
        if total is None or not 0 <= p <= total:
            raise ValueError(f'no elements at length {p} in [{x!r}, {y!r}]')
        if p == 0:
            return [x]
        if p == total:
            return [y]
        return [z for z in self.elements
                if self._length.get((x, z)) == p
                and self._length.get((z, y)) == total - p]

    def to_document(self) -> dict:
        return {'elements': list(self.elements),
                'covers': [list(c) for c in self.covers]}

    def canonical_key(self) -> tuple:
        return canonical_form(self.elements, self.covers)

    def __repr__(self):
        return (f'GradedPoset({len(self.elements)} elements, '
                f'{len(self.covers)} covers, max length {self.max_length})')


def parse_poset(document) -> GradedPoset:
    'Validate a {"elements": [...], "covers": [[lo, hi], ...]} document.'
    if not isinstance(document, dict):
        raise InputError('poset document must be a JSON object')
    for field_name in ('elements', 'covers'):
        if field_name not in document:
            raise InputError(f'poset document lacks the {field_name!r} list')
        if not isinstance(document[field_name], list):
            raise InputError(f'{field_name!r} must be a list')
    for e in document['elements']:
        if not isinstance(e, str):
            raise InputError(f'element label {e!r} is not a string')
    covers = []
    for pair in document['covers']:
        if (not isinstance(pair, (list, tuple)) or len(pair) != 2
                or not all(isinstance(z, str) for z in pair)):
            raise InputError(f'malformed cover {pair!r}; expected [lower, upper]')
        covers.append((pair[0], pair[1]))
    return GradedPoset(document['elements'], covers)


# ---------------------------------------------------------------------------
# incidence structures
# ---------------------------------------------------------------------------

def _incidence(P: GradedPoset, field, cls, fill):
    """The incidence ring or coring cls of P, graded by length: X_p holds
    e_{x,y} for each interval [x, y] of length p, one per block, and the
    table is fill(numbering).

    It and the builders below import the algebra (bimodule,
    graded_structures) when they run, not when this module loads."""
    from .bimodule import BaseRing, Bimodule, unit_bimodule
    base = BaseRing(P.elements, field)
    top = P.max_length
    comps = {0: unit_bimodule(base)}
    for p in range(1, top + 1):
        comps[p] = Bimodule(base, {(x, y): (('e', x, y),)
                                   for x, y in P.intervals(p)})
    return cls._from_table(base, comps, top, fill)


def _products(num) -> dict:
    """The incidence products on the ids of num, (a, b) -> [(c, 1)] for
    a = e_{x,y}, b = e_{y,z} and c = e_{x,z}, by degrees (p, q): every id of
    positive degree is the one basis vector of its block."""
    interval = {(num.start[c], num.end[c]): c
                for c in range(num.of_degree[0].stop, len(num.labels))}
    top = len(num.of_degree) - 1
    table = {}
    for p in range(1, top):
        for q in range(1, top + 1 - p):
            for a in num.of_degree[p]:
                x = num.start[a]
                for b in num.starting.get((q, num.end[a]), ()):
                    table[(a, b)] = [(interval[(x, num.end[b])], 1)]
    return table


def incidence_ring(P: GradedPoset, field=RATIONALS) -> GradedRing:
    'The incidence ring: e_{x,y} e_{z,u} = [y = z] e_{x,u}, graded by length.'
    from .graded_structures import GradedRing
    return _incidence(P, field, GradedRing, _products)


def incidence_coring(P: GradedPoset, field=RATIONALS) -> GradedCoring:
    """The incidence coring: Delta(e_{x,y}) sums e_{x,z} (x) e_{z,y} over z
    in [x,y], one term per middle element: the incidence products
    transposed."""
    from .graded_structures import GradedCoring, _transpose
    return _incidence(P, field, GradedCoring,
                      lambda num: _transpose(_products(num)))


def zeta_ring(P: GradedPoset, field=RATIONALS) -> GradedRing:
    """T(V)/I_P: the tensor ring on the covers modulo the zeta relations
    zeta_{x,y} = sum of e_{x,z} (x) e_{z,y} over the interior of [x,y].

    That is the shriek of the incidence coring: zeta_{x,y} is Delta_{1,1}
    e_{x,y} label for label, so a ring built from the zeta relations would
    run the same ideal walk as the shriek and could never differ from it.
    """
    from .graded_structures import shriek_of_coring
    return shriek_of_coring(incidence_coring(P, field))


def incidence_duality_check(A: GradedRing, C: GradedCoring) -> bool:
    """Whether the incidence ring A equals the graded left dual of the
    incidence coring C under the literal relabeling e_{x,y} -> f_{x,y}.

    A and C are the incidence ring and coring of one poset, over one field,
    as incidence_ring and incidence_coring return them.  The relabeling is
    left_dual on every component and keeps every label position, so it is
    the identity on coordinates: the components of A must be those of C
    (left_dual is injective), which then number their bases alike, and the
    products of A must be the coproducts of C transposed, which is what the
    graded dual would hold: A's table, transposed by its own check, holds
    the coproducts of C.  No dual is built.
    """
    from .graded_structures import _entries
    if A.top_degree != C.top_degree:
        return False
    if any(A.component(n) != C.component(n)
           for n in range(A.top_degree + 1)):
        return False
    return _entries(A._transposed) == _entries(C._numbering.table)


# ---------------------------------------------------------------------------
# corpus enumeration
# ---------------------------------------------------------------------------

def canonical_form(elements, covers) -> tuple:
    """A relabeling-invariant key (n, sorted edge tuple) for a cover DAG.

    Color refinement on (own color, lower colors, upper colors) with
    individualization backtracking on the first ambiguous cell; the key is
    the least sorted edge tuple over all leaves, so it is exact.

    Twins are tried once: a vertex of the target cell is skipped when its
    lower and upper covers, as sorted tuples, equal those of a vertex
    already tried there.  Swapping two such twins is an automorphism of
    the cover digraph that fixes the current coloring (they share a cell);
    refinement is equivariant under it and a leaf's sorted edge tuple is
    invariant under it, so both branches return the same key and the
    minimum is unchanged.  This is the simplest case of automorphism
    pruning (McKay-Piperno, J. Symb. Comput. 60 (2014)); it turns the n!
    leaves of an n-antichain into one.
    """
    n = len(elements)
    idx = {e: i for i, e in enumerate(elements)}
    up = [[] for _ in range(n)]
    down = [[] for _ in range(n)]
    for lo, hi in covers:
        up[idx[lo]].append(idx[hi])
        down[idx[hi]].append(idx[lo])
    nbhd = [(tuple(sorted(down[v])), tuple(sorted(up[v]))) for v in range(n)]

    def refine(colors):
        while True:
            sig = [(colors[v],
                    tuple(sorted(colors[w] for w in down[v])),
                    tuple(sorted(colors[w] for w in up[v])))
                   for v in range(n)]
            ranks = {s: i for i, s in enumerate(sorted(set(sig)))}
            new = [ranks[s] for s in sig]
            if new == colors:
                return colors
            colors = new

    def search(colors):
        colors = refine(colors)
        cells = {}
        for v, c in enumerate(colors):
            cells.setdefault(c, []).append(v)
        target = None
        for c in sorted(cells):
            if len(cells[c]) > 1:
                target = cells[c]
                break
        if target is None:
            pos = {v: i for i, v in enumerate(
                sorted(range(n), key=lambda v: colors[v]))}
            return tuple(sorted((pos[a], pos[b])
                                for a in range(n) for b in up[a]))
        best = None
        tried = set()
        for v in target:
            if nbhd[v] in tried:
                continue
            tried.add(nbhd[v])
            trial = list(colors)
            trial[v] = n
            cand = search(trial)
            if best is None or cand < best:
                best = cand
        return best

    return (n, search([0] * n))


def _poset_from_key(key) -> GradedPoset:
    n, edges = key
    return GradedPoset([str(i) for i in range(n)],
                       [(str(a), str(b)) for a, b in edges])


def _cover_choices(key) -> list:
    """The antichains of the poset with this key, empty one included: the
    possible lower covers of a new maximal element."""
    k, _ = key
    leq_pairs = {(int(a), int(b)) for a, b in _poset_from_key(key)._length}
    out = []

    def grow(start, chosen):
        out.append(tuple(chosen))
        for v in range(start, k):
            if any((u, v) in leq_pairs or (v, u) in leq_pairs for u in chosen):
                continue
            chosen.append(v)
            grow(v + 1, chosen)
            chosen.pop()

    grow(0, [])
    return out


MAX_CORPUS_ELEMENTS = 8   # largest corpus size enumerated


def enumerate_corpus(max_elements: int):
    """Yield every graded poset with at most max_elements elements, one
    per isomorphism class: by size, and within a size by canonical key.

    One walk grows the sizes in turn, each by adding a new maximal element
    over an antichain of lower covers of a poset one size smaller; a poset
    that fails gradedness never recovers by adding more maximal elements,
    so such branches are dropped.  Deduplication is by canonical form at
    every size, and each size is yielded as soon as it is complete, before
    the next one is grown.
    """
    if max_elements < 1:
        raise InputError('corpus size must be at least 1')
    if max_elements > MAX_CORPUS_ELEMENTS:
        raise InputError(f'corpus enumeration above {MAX_CORPUS_ELEMENTS} '
                         'elements is not supported')
    level = [(1, ())]
    yield _poset_from_key(level[0])
    for size in range(1, max_elements):
        nxt = set()
        for key in level:
            k, edges = key
            for cover_set in _cover_choices(key):
                try:
                    Q = _poset_from_key(
                        (k + 1, edges + tuple((v, k) for v in cover_set)))
                except InputError:
                    continue
                nxt.add(Q.canonical_key())
        level = sorted(nxt)
        for key in level:
            yield _poset_from_key(key)
