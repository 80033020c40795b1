"""Finite graded posets and their incidence structures.

A poset is given by its Hasse diagram (elements plus cover pairs).  The
order is the reflexive-transitive closure; gradedness means every interval
has all its maximal chains of equal length, which is what makes interval
length a grading.  On top of that sit the incidence ring and coring, the
quadratic ring on the zeta relations, disjoint unions, and a small-scale
enumerator of all graded posets up to isomorphism.
"""

from __future__ import annotations

from .exact_linalg import RATIONALS, Subspace
from .bimodule import (BaseRing, Bimodule, BimoduleMap, SubBimodule,
                       tensor, tensor_map, unit_bimodule, dual_label)
from .graded_structures import (GradedRing, GradedCoring, QuadraticData,
                                quadratic_ring_of, shriek_of_coring,
                                direct_product)
from .errors import InputError, InvariantError


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

    def leq(self, x, y) -> bool:
        return x == y or (x, y) in self._length

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

def _interval_components(P: GradedPoset, base: BaseRing) -> dict:
    comps = {0: unit_bimodule(base)}
    for p in range(1, P.max_length + 1):
        comps[p] = Bimodule(base, {(x, y): (('e', x, y),)
                                   for x, y in P.intervals(p)})
    return comps


def incidence_ring(P: GradedPoset, field=RATIONALS) -> GradedRing:
    'The incidence ring: e_{x,y} e_{z,u} = [y = z] e_{x,u}, graded by length.'
    base = BaseRing(P.elements, field)
    comps = _interval_components(P, base)
    top = P.max_length
    mult = {}
    for p in range(1, top):
        for q in range(1, top + 1 - p):
            src = tensor(comps[p], comps[q])
            if src.is_zero() or comps[p + q].is_zero():
                continue
            mult[(p, q)] = BimoduleMap.from_basis_action(
                src, comps[p + q],
                lambda key, l: [(('e', l[0][1], l[1][2]), 1)])
    return GradedRing(base, comps, mult, top)


def incidence_coring(P: GradedPoset, field=RATIONALS) -> GradedCoring:
    'The incidence coring: Delta(e_{x,y}) sums e_{x,z} (x) e_{z,y} over z in [x,y].'
    base = BaseRing(P.elements, field)
    comps = _interval_components(P, base)
    top = P.max_length
    comult = {}
    for p in range(1, top):
        for q in range(1, top + 1 - p):
            src = comps[p + q]
            if src.is_zero():
                continue

            def action(key, l, p=p):
                x, y = l[1], l[2]
                return [((('e', x, z), ('e', z, y)), 1)
                        for z in P.middles(x, y, p)]

            comult[(p, q)] = BimoduleMap.from_basis_action(
                src, tensor(comps[p], comps[q]), action)
    return GradedCoring(base, comps, comult, top)


def zeta_ring(P: GradedPoset, field=RATIONALS) -> GradedRing:
    """T(V)/I_P: the tensor ring on the covers modulo the zeta relations
    zeta_{x,y} = sum of e_{x,z} (x) e_{z,y} over the interior of [x,y].

    Built directly from the relation spans and checked against the shriek
    of the incidence coring, which it must equal.
    """
    C = incidence_coring(P, field)
    dual = shriek_of_coring(C)
    V = C.component(1)
    VV = tensor(V, V)
    gens = {}
    for x, y in P.intervals(2):
        vec = {VV.index_of((x, y), (('e', x, z), ('e', z, y))): 1
               for z in P.middles(x, y, 1)}
        gens.setdefault((x, y), []).append(vec)
    parts = {key: Subspace.from_spanning(vecs, VV.block_dim(*key), field)
             for key, vecs in gens.items()}
    ring = quadratic_ring_of(QuadraticData(V, SubBimodule(VV, parts)),
                             dual.top_degree)
    if ring != dual:
        raise InvariantError(
            'zeta presentation disagrees with the coring shriek')
    ring.support_truncated = dual.support_truncated
    return ring


def incidence_duality_check(A: GradedRing, C: GradedCoring) -> bool:
    """Whether the incidence ring A is isomorphic to the graded left dual of
    the incidence coring C under the literal relabeling e_{x,y} -> f_{x,y}.

    A and C are the incidence ring and coring of one poset, over one field,
    as incidence_ring and incidence_coring return them.
    """
    from .duality import graded_left_dual_of_coring
    D = graded_left_dual_of_coring(C)
    if A.top_degree != D.top_degree:
        return False
    chi = {}
    for n in range(A.top_degree + 1):
        src, tgt = A.component(n), D.component(n)
        relabeled = Bimodule(A.base, {key: tuple(dual_label(l) for l in labels)
                                      for key, labels in src.blocks.items()})
        if relabeled != tgt:
            return False
        chi[n] = BimoduleMap.relabeling(src, tgt, dual_label)
    for p in range(1, A.top_degree):
        for q in range(1, A.top_degree + 1 - p):
            lhs = chi[p + q].compose(A.mu(p, q))
            rhs = D.mu(p, q).compose(tensor_map(chi[p], chi[q]))
            if lhs != rhs:
                return False
    return True


# ---------------------------------------------------------------------------
# disjoint unions
# ---------------------------------------------------------------------------

def _relabeled(P: GradedPoset, tag: str) -> GradedPoset:
    return GradedPoset([f'{e}@{tag}' for e in P.elements],
                       [(f'{a}@{tag}', f'{b}@{tag}') for a, b in P.covers])


def disjoint_union(P: GradedPoset, Q: GradedPoset) -> GradedPoset:
    """Side-by-side union; label collisions are resolved by tagging.

    The incidence ring of the union is the direct product of the incidence
    rings, which is checked on the spot.
    """
    if set(P.elements) & set(Q.elements):
        P, Q = _relabeled(P, '0'), _relabeled(Q, '1')
    union = GradedPoset(P.elements + Q.elements, P.covers + Q.covers)
    if incidence_ring(union) != direct_product(incidence_ring(P),
                                               incidence_ring(Q)):
        raise InvariantError(
            'incidence ring of the union is not the direct product')
    return union


# ---------------------------------------------------------------------------
# corpus enumeration
# ---------------------------------------------------------------------------

def canonical_form(elements, covers) -> tuple:
    """A relabeling-invariant key (n, sorted edge tuple) for a cover DAG.

    Color refinement on (own color, lower colors, upper colors) with
    individualization backtracking on the first ambiguous cell; exact for
    the small sizes used here.
    """
    n = len(elements)
    idx = {e: i for i, e in enumerate(elements)}
    up = [[] for _ in range(n)]
    down = [[] for _ in range(n)]
    for lo, hi in covers:
        up[idx[lo]].append(idx[hi])
        down[idx[hi]].append(idx[lo])

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
        for v in target:
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


def enumerate_corpus(max_elements: int, max_length=None, allow_large=False):
    """Yield all graded posets with exactly max_elements elements (and
    maximum interval length at most max_length, if given), one per
    isomorphism class, in a deterministic order.

    Grown by repeatedly adding a new maximal element over an antichain of
    lower covers; a poset that fails gradedness or the length bound never
    recovers by adding more maximal elements, so such branches are dropped.
    Deduplication is by canonical form at every size.
    """
    if max_elements < 1:
        raise InputError('corpus size must be at least 1')
    if max_elements > 7 and not allow_large:
        raise InputError('corpus enumeration above 7 elements must be '
                         'explicitly allowed (allow_large=True)')
    level = {(1, ())}
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
                if max_length is not None and Q.max_length > max_length:
                    continue
                nxt.add(Q.canonical_key())
        level = nxt
    for key in sorted(level):
        yield _poset_from_key(key)


def random_graded_poset(n_elements: int, rng) -> GradedPoset:
    """A random graded poset on n_elements elements.

    Grown by the same move as enumerate_corpus (each new maximal element
    covers a random antichain), so every graded poset is reachable, though
    not uniformly over isomorphism classes.  A growth step that would break
    gradedness restarts the whole build; the empty antichain always
    succeeds, so this terminates with probability one.
    """
    if n_elements < 1:
        raise InputError('poset needs at least one element')
    while True:
        edges = ()
        for k in range(1, n_elements):
            cover_set = rng.choice(_cover_choices((k, edges)))
            new_edges = edges + tuple((v, k) for v in cover_set)
            try:
                _poset_from_key((k + 1, new_edges))
            except InputError:
                break
            edges = new_edges
        else:
            return _poset_from_key((n_elements, edges))
