import contextlib
import signal
import sys
from functools import partial
from itertools import count, islice
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from koszulity.bimodule import (BaseRing, Bimodule, BimoduleMap, UNIT_LABEL,
                                left_dual, tensor, unit_bimodule,
                                zero_bimodule, _sparse_map)
from koszulity.errors import InputError, InvariantError, StructureError
from koszulity.exact_linalg import (RATIONALS, DimensionError, Echelon,
                                    SparseMatrix, Subspace, accumulate,
                                    image_basis, kernel_basis, rank)
from koszulity.graded_structures import GradedRing, GradedCoring
from koszulity.homology import (ComplexSlice, _STEP, bar_complex_ring,
                                cobar_complex_coring)
from koszulity.poset import (GradedPoset, _cover_choices, _poset_from_key,
                             incidence_ring)
import oracle

# label-walking helpers that no command uses: tensor words, maps from a
# basis action, sub-bimodules, kernels, images and spans, kept here for
# the tests and for the reference builders below

_POWERS = {}   # id(V) -> (V, {n: V^(n)}), for the bimodules used lately


def tensor_many(factors: list) -> Bimodule:
    """Iterated tensor with flat tuple labels.

    A single factor is returned as is (bare labels, not 1-tuples), so
    V^(1) is V itself.
    """
    if not factors:
        raise ValueError('tensor_many needs at least one factor; use unit_bimodule for n=0')
    base = factors[0].base
    for f in factors:
        if f.base != base:
            raise ValueError('mixed bases in tensor_many')
    if len(factors) == 1:
        return factors[0]
    blocks = {}

    def grow(i, s0, t_prev, prefix):
        if i == len(factors):
            blocks.setdefault((s0, t_prev), []).append(tuple(prefix))
            return
        for (_, t), labels in factors[i].blocks_from(t_prev):
            for l in labels:
                prefix.append(l)
                grow(i + 1, s0, t, prefix)
                prefix.pop()

    for (s, t), labels in factors[0].blocks.items():
        for l in labels:
            grow(1, s, t, [l])
    return Bimodule(base, blocks)


def tensor_power(V: Bimodule, n: int) -> Bimodule:
    'V^(n), built once per recently used V and then served from a cache.'
    if n < 0:
        raise ValueError('negative tensor power')
    if id(V) not in _POWERS and len(_POWERS) >= 64:
        _POWERS.clear()
    _, powers = _POWERS.setdefault(id(V), (V, {}))
    power = powers.get(n)
    if power is None:
        power = powers[n] = (unit_bimodule(V.base) if n == 0
                             else tensor_many([V] * n))
    return power


def from_basis_action(source: Bimodule, target: Bimodule,
                      action) -> BimoduleMap:
    """The map from action(block_key, label) -> iterable of (target_label,
    coeff), summed; a sum that is 0 mod p is dropped."""
    return _sparse_map(source, target, source.blocks, target.indices(), action)


def zero_map(source: Bimodule, target: Bimodule) -> BimoduleMap:
    return BimoduleMap(source, target, {})


class SubBimodule:
    'A sub-bimodule of an ambient Bimodule: one Subspace per block.'

    __slots__ = ('ambient', 'parts')

    def __init__(self, ambient: Bimodule, parts: dict):
        clean = {}
        for key, sub in parts.items():
            if sub.ambient_dim != ambient.block_dim(*key):
                raise DimensionError(f'subspace ambient mismatch at block {key!r}')
            if sub.dim:
                clean[key] = sub
        object.__setattr__(self, 'ambient', ambient)
        object.__setattr__(self, 'parts', ambient.base.sorted_blocks(clean))

    def __setattr__(self, *a):
        raise AttributeError('SubBimodule is immutable')

    def part(self, key) -> Subspace:
        sub = self.parts.get(key)
        if sub is not None:
            return sub
        return Subspace(self.ambient.block_dim(*key),
                        SparseMatrix.zero(self.ambient.block_dim(*key), 0),
                        self.ambient.base.field, _skip_check=True)


def kernel_sub(f: BimoduleMap) -> SubBimodule:
    'Kernel of a bimodule map as a SubBimodule of the source.'
    parts = {}
    for key in f.source.blocks:
        mat = f.blocks.get(key)
        if mat is None:
            parts[key] = Subspace.full(f.source.block_dim(*key), f.field)
        else:
            parts[key] = kernel_basis(mat, f.field)
    return SubBimodule(f.source, parts)


def image_sub(f: BimoduleMap) -> SubBimodule:
    'Image of a bimodule map as a SubBimodule of the target.'
    return SubBimodule(f.target, {key: image_basis(mat, f.field)
                                  for key, mat in f.blocks.items()})


def from_spanning(columns, ambient_dim: int, field=RATIONALS) -> Subspace:
    """The subspace spanned by the column dicts, on its reduced echelon
    basis, so equal spans give equal bases whatever the generators."""
    rows = Echelon(field, columns).reduced_rows()
    return Subspace(ambient_dim, SparseMatrix.from_columns(rows, ambient_dim),
                    field, _skip_check=True)


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


def _as_word(label, letters: int) -> tuple:
    'View a flat word label as a tuple of letters (single letters are bare).'
    return label if letters != 1 else (label,)


# the running examples: the diamond is Koszul, p_bad is the smallest
# incidence ring here that is not even quadratic (Ker mu_3 is nonzero but
# no quadratic relations exist to generate it)
DIAMOND_COVERS = [('0', 'a'), ('0', 'b'), ('a', '1'), ('b', '1')]
P_BAD_COVERS = [('0', 'a'), ('0', 'b'), ('a', 'c'), ('b', 'd'),
                ('c', '1'), ('d', '1')]
TAIL_COVERS = DIAMOND_COVERS + [('1', '2')]
# Q10, the smallest poset known here whose incidence ring is quadratic and
# not Koszul: rank 4 with middle levels of sizes 2, 4 and 2
Q10_ELEMENTS = ['0', 'a0', 'a1', 'b0', 'b1', 'b2', 'b3', 'c0', 'c1', '1']
Q10_COVERS = [('0', 'a0'), ('0', 'a1'),
              ('a0', 'b0'), ('a0', 'b1'), ('a0', 'b3'),
              ('a1', 'b0'), ('a1', 'b1'), ('a1', 'b2'),
              ('b0', 'c1'), ('b1', 'c0'), ('b2', 'c0'), ('b2', 'c1'),
              ('b3', 'c0'), ('b3', 'c1'), ('c0', '1'), ('c1', '1')]


@pytest.fixture
def diamond():
    return GradedPoset(['0', 'a', 'b', '1'], DIAMOND_COVERS)


@pytest.fixture
def p_bad():
    return GradedPoset(['0', 'a', 'b', 'c', 'd', '1'], P_BAD_COVERS)


@pytest.fixture
def tail_diamond():
    'Diamond with an extra top cover; length 3, nonzero Ker mu^{1,1}.'
    return GradedPoset(['0', 'a', 'b', '1', '2'], TAIL_COVERS)


@pytest.fixture
def q10():
    return GradedPoset(Q10_ELEMENTS, Q10_COVERS)


@pytest.fixture
def rp2():
    'Face poset of RP^2 with bottom and top; 2-torsion in its homology.'
    return GradedPoset(oracle.RP2.elements, oracle.RP2.covers)


@pytest.fixture
def octahedron():
    'Face poset of the octahedron (S^2) with bottom and top.'
    return GradedPoset(oracle.OCTAHEDRON.elements, oracle.OCTAHEDRON.covers)


def chain_poset(n):
    els = [f'x{i}' for i in range(n + 1)]
    return GradedPoset(els, [(els[i], els[i + 1]) for i in range(n)])


def antichain_poset(n):
    return GradedPoset([f'u{i}' for i in range(n)], [])


def boolean_lattice(n):
    'B_n as the subsets of range(n), named by their sorted digits.'
    name = {s: ''.join(str(i) for i in range(n) if s >> i & 1) or 'e'
            for s in range(2 ** n)}
    return GradedPoset(list(name.values()),
                       [(name[s], name[s | 1 << i]) for s in range(2 ** n)
                        for i in range(n) if not s >> i & 1])


def grid_poset(rows, cols):
    'The product of a rows-chain and a cols-chain; cell (i, j) is named i_j.'
    cells = [(i, j) for i in range(rows) for j in range(cols)]
    covers = [((i, j), (i + di, j + dj)) for i, j in cells
              for di, dj in ((1, 0), (0, 1))
              if i + di < rows and j + dj < cols]
    return GradedPoset([f'{i}_{j}' for i, j in cells],
                       [(f'{a}_{b}', f'{c}_{d}') for (a, b), (c, d) in covers])


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


class QuadraticData:
    'A degree-1 bimodule V together with a sub-bimodule W of V (x) V.'

    def __init__(self, V: Bimodule, W: SubBimodule):
        if W.ambient != tensor(V, V):
            raise StructureError('W must be a sub-bimodule of V (x) V')
        self.V = V
        self.W = W


def _walk(V: Bimodule, W: SubBimodule, top: int) -> dict:
    'The ideal components of degrees 2..top: {n: parts}.'
    return dict(islice(_relation_components(V, W), max(top - 1, 0)))


def quadratic_ring_of(data: QuadraticData, top: int) -> GradedRing:
    'The quadratic ring <V, W> up to degree top, from one walk of the ideal.'
    return _quadratic_ring(data.V, _walk(data.V, data.W, top), top)


def map_rank(f: BimoduleMap) -> int:
    'The rank of a bimodule map: the sum of the ranks of its blocks.'
    return sum(rank(m, f.field) for m in f.blocks.values())


def random_quiver_ring(rng, field) -> GradedRing:
    """A seeded quadratic ring, in general not monomial: the path quiver
    0 -> 1 -> 2 -> 3 -> 4 with two arrows a_i, b_i per step, modulo a
    random relation subspace of each block of V (x) V (0 to 4 vectors with
    entries in -2..2), cut at degree 4, where the paths end."""
    base = BaseRing(tuple('01234'), field)
    V = Bimodule(base, {(str(i), str(i + 1)): (f'a{i}', f'b{i}')
                        for i in range(4)})
    VV = tensor(V, V)
    parts = {}
    for key, words in VV.blocks.items():
        vecs = [{i: c for i in range(len(words))
                 if (c := field.coerce(rng.randint(-2, 2)))}
                for _ in range(rng.randint(0, len(words)))]
        parts[key] = from_spanning(vecs, len(words), field)
    return quadratic_ring_of(QuadraticData(V, SubBimodule(VV, parts)), 4)


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


def from_dense(dense) -> SparseMatrix:
    'The SparseMatrix of a list of rows.'
    rows = len(dense)
    cols = len(dense[0]) if rows else 0
    trips = [(i, j, v) for i, row in enumerate(dense)
             for j, v in enumerate(row) if v != 0]
    return SparseMatrix(rows, cols, trips)


def relabeling(source, target, label_map) -> BimoduleMap:
    'The iso sending each source basis vector to label_map(label), blockwise.'
    return from_basis_action(source, target,
                                         lambda key, l: [(label_map(l), 1)])


def identity_map(V: Bimodule) -> BimoduleMap:
    'The identity of V, block by block.'
    return BimoduleMap(V, V, {k: SparseMatrix.identity(len(v))
                              for k, v in V.blocks.items()})


def sub_dim(W) -> int:
    'The dimension of a SubBimodule: the sum over its parts.'
    return sum(sub.dim for sub in W.parts.values())


def scaled_map(f: BimoduleMap, c) -> BimoduleMap:
    'The map c f, block by block.'
    field = f.field
    return BimoduleMap(f.source, f.target, {
        k: SparseMatrix(m.rows, m.cols, [(i, j, field.mul(c, v))
                                         for (i, j), v in m.entries.items()])
        for k, m in f.blocks.items()})


def degree2_sequence_holds(X, m: int) -> bool:
    """The dimension identity of the weight-m truncation sequence in
    homological degree 2: the middle term weighs exactly the sum of the ends.

    For a ring A it is 0 -> Tor_{2,m}(A) -> Tor_{2,m}(A/A^{>=m}) -> A^m -> 0,
    for a coring C it is 0 -> C_m -> Ext^{2,m}(C_{<m}) -> Ext^{2,m}(C) -> 0.
    """
    if m < 2:
        raise ValueError(f'weight {m} < 2')
    make_slice, truncate = ((bar_complex_ring, truncate_ring)
                            if isinstance(X, GradedRing)
                            else (cobar_complex_coring, truncate_coring))
    full = make_slice(X, m).homology_dims().get(2, 0)
    middle = make_slice(truncate(X, m), m).homology_dims().get(2, 0)
    return middle == full + X.component(m).dim


@contextlib.contextmanager
def deadline(seconds: int):
    'Fail, rather than hang, when the block runs longer than seconds.'
    def expire(signum, frame):
        raise TimeoutError(f'still running after {seconds} s')

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def apply_label(f: BimoduleMap, key, label) -> list:
    'Image under f of a source basis vector of block key: [(label, coeff)].'
    j = f.source.index_of(key, label)
    mat = f.blocks.get(key)
    if mat is None:
        return []
    labels = f.target.blocks[key]
    return [(labels[i], v) for i, v in mat.column_entries(j)]


def block_of(V: Bimodule, label, s):
    'The block of V starting at s that holds label; KeyError if none.'
    for key, _ in V.blocks_from(s):
        if label in V.indices()[key]:
            return key
    raise KeyError(f'label {label!r} not found from idempotent {s!r}')


def tensor_map(f: BimoduleMap, g: BimoduleMap) -> BimoduleMap:
    'f (x) g on the pair-labeled tensor products of sources and targets.'
    src = tensor(f.source, g.source)
    tgt = tensor(f.target, g.target)

    def action(key, label):
        fl, gl = label
        fkey = block_of(f.source, fl, key[0])
        out = []
        for tl1, c1 in apply_label(f, fkey, fl):
            gkey = (fkey[1], key[1])
            for tl2, c2 in apply_label(g, gkey, gl):
                out.append(((tl1, tl2), c1 * c2))
        return out

    return from_basis_action(src, tgt, action)


def dual_map(f: BimoduleMap) -> BimoduleMap:
    'The dual ^*f : ^*target -> ^*source; blockwise transpose, same keys.'
    return BimoduleMap(left_dual(f.target), left_dual(f.source),
                       {key: mat.transpose() for key, mat in f.blocks.items()})


def iterated_mu(A: GradedRing, n: int) -> BimoduleMap:
    """mu_n : (A^1)^(n) -> A^n, the fully iterated multiplication: each
    word goes to its product folded left with the stored maps[(k, 1)]."""
    if n < 1:
        raise ValueError(f'word length {n} < 1')
    field = A.base.field
    V = A.component(1)

    def word_product(key, label):
        word = _as_word(label, n)
        s = key[0]
        t = block_of(V, word[0], s)[1]
        terms = {word[0]: field.one}
        for k, letter in enumerate(word[1:], 1):
            mu = A.maps.get((k, 1))
            if mu is None:
                return []
            u = block_of(V, letter, t)[1]
            product_terms = {}
            for x, c in terms.items():
                for y, m in apply_label(mu, (s, u), (x, letter)):
                    accumulate(product_terms, y, c, m, field)
            if not product_terms:
                return []
            terms, t = product_terms, u
        return list(terms.items())

    return from_basis_action(
        tensor_power(V, n), A.component(n), word_product)


# truncations and products of graded rings and corings

def _below(X, m: int):
    'X cut below degree m: its components and structure maps of lower degree.'
    if m < 1:
        raise ValueError(f'truncation degree {m} < 1')
    top = min(m - 1, X.top_degree)
    return type(X)(X.base, {n: X.component(n) for n in range(top + 1)},
                   {(p, q): f for (p, q), f in X.maps.items() if p + q <= top},
                   top)


def truncate_ring(A: GradedRing, m: int) -> GradedRing:
    'A / A^{>= m}: keep degrees below m, higher products become zero.'
    return _below(A, m)


def truncate_coring(C: GradedCoring, m: int) -> GradedCoring:
    'C_{< m}: the subcoring of components in degrees below m.'
    return _below(C, m)


def _merged_base(b1: BaseRing, b2: BaseRing) -> BaseRing:
    if b1.field != b2.field:
        raise StructureError('direct product factors use different fields')
    overlap = set(b1.idempotents) & set(b2.idempotents)
    if overlap:
        raise StructureError(
            f'idempotent label collision: {sorted(map(repr, overlap))}')
    return BaseRing(b1.idempotents + b2.idempotents, b1.field)


def _merged_component(base, X: Bimodule, Y: Bimodule) -> Bimodule:
    blocks = dict(X.blocks)
    blocks.update(Y.blocks)
    return Bimodule(base, blocks)


def _block_merge(X, Y):
    """Two rings, or two corings, side by side over the merged base.

    Block matrices carry over unchanged because tensor blocks between
    idempotents of one factor never pick up middle terms from the other.
    """
    base = _merged_base(X.base, Y.base)
    top = max(X.top_degree, Y.top_degree)
    comps = {n: _merged_component(base, X.component(n), Y.component(n))
             for n in range(top + 1)}
    maps = {}
    for p in range(1, top):
        for q in range(1, top + 1 - p):
            blocks = {}
            for f in (X.maps.get((p, q)), Y.maps.get((p, q))):
                if f is not None:
                    blocks.update(f.blocks)
            if blocks:
                maps[(p, q)] = BimoduleMap(
                    *X._ends(tensor(comps[p], comps[q]), comps[p + q]), blocks)
    return type(X)(base, comps, maps, top)


def direct_product(A: GradedRing, B: GradedRing) -> GradedRing:
    """A x B over k^{S + S'}: componentwise sums, no cross terms."""
    return _block_merge(A, B)


def direct_sum_corings(C: GradedCoring, D: GradedCoring) -> GradedCoring:
    'C + D over the merged base: blockwise comultiplication, no cross terms.'
    return _block_merge(C, D)


# the words of the slices spelled as the label-walking references below
# label their basis vectors, so the two compare vector for vector

def spell_word(X, w: tuple) -> tuple:
    'An id word of a bar or cobar slice of X as (letter degrees, labels).'
    num = X._numbering
    return tuple(num.degree[x] for x in w), tuple(num.labels[x] for x in w)


def spell_pair(pair, w):
    """A basis word of a Koszul slice of pair: an id pair as (ring label,
    coring label), and the unit of the augmentation term as it is."""
    if w == UNIT_LABEL:
        return w
    x, z = w
    return pair.ring._numbering.labels[x], pair.coring._numbering.labels[z]


def spelled(space: Bimodule, spell) -> list:
    'The (key, labels) blocks of a slice space, each word spelled by spell.'
    return [(key, tuple(map(spell, words)))
            for key, words in space.blocks.items()]


def spelled_map_equals(got: BimoduleMap, want: BimoduleMap, spell) -> bool:
    'Whether got equals want once the words of its ends are spelled.'
    return (spelled(got.source, spell) == list(want.source.blocks.items())
            and spelled(got.target, spell) == list(want.target.blocks.items())
            and got.blocks == want.blocks)


# the slice builder that walks labels, kept as a reference for the one on
# numbered bases: words from tensor_many per composition, and differentials
# from BimoduleMap.from_basis_action over (parts, word) labels

def _chain_of(components: list, word: tuple, start) -> list:
    'Recover the idempotent chain s_0 .. s_k of a tensor word from its start.'
    chain = [start]
    for comp, letter in zip(components, word):
        chain.append(block_of(comp, letter, chain[-1])[1])
    return chain


def reference_word_spaces(X, m: int) -> dict:
    """Degree n -> the degree-n space of the weight-m slice of X, labels
    (parts, word): compositions of m walked depth first in lexicographic
    order, pruned by the idempotents where a word of each weight starts,
    and the words of each composition listed by tensor_many."""
    base = X.base
    comps = {p: X.component(p) for p in range(1, m + 1)}
    reach = [set(base.idempotents)]
    for r in range(1, m + 1):
        reach.append({s for p in range(1, r + 1) for s, t in comps[p].blocks
                      if t in reach[r - p]})
    if not reach[m]:
        return dict.fromkeys(range(m + 1), base.zero)
    blocks = [{} for _ in range(m + 1)]
    parts = []

    def grow(remaining, ends):
        for p in range(1, remaining + 1):
            nxt = {t for s in ends for (_, t), _ in comps[p].blocks_from(s)
                   if t in reach[remaining - p]}
            if not nxt:
                continue
            parts.append(p)
            if p < remaining:
                grow(remaining - p, nxt)
            else:
                n = len(parts)
                T = tensor_many([comps[q] for q in parts])
                for key, labels in T.blocks.items():
                    blocks[n].setdefault(key, []).extend(
                        (tuple(parts), _as_word(l, n)) for l in labels)
            parts.pop()

    if m:
        grow(m, set(base.idempotents))
    else:
        blocks[0] = {(s, s): [((), ())] for s in base.idempotents}
    return {n: Bimodule(base, blocks[n]) if blocks[n] else base.zero
            for n in range(m + 1)}


def _merge_letters(A, parts, word, chain, j):
    'Multiply letters j and j+1 into one.'
    for tl, c in apply_label(A.mu(parts[j], parts[j + 1]),
                             (chain[j], chain[j + 2]), (word[j], word[j + 1])):
        yield (parts[:j] + (parts[j] + parts[j + 1],) + parts[j + 2:],
               word[:j] + (tl,) + word[j + 2:], c)


def _split_letter(C, parts, word, chain, j):
    'Split letter j by every positive comultiplication component.'
    mj = parts[j]
    for p in range(1, mj):
        for (c1, c2), c in apply_label(C.delta(p, mj - p),
                                       (chain[j], chain[j + 1]), word[j]):
            yield (parts[:j] + (p, mj - p) + parts[j + 1:],
                   word[:j] + (c1, c2) + word[j + 1:], c)


def _reference_word_complex(X, m: int, direction: str, letter_op):
    spaces = reference_word_spaces(X, m)
    step = _STEP[direction]
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
            for j in range(positions):
                for nparts, nword, c in letter_op(X, parts, word, chain, j):
                    out.append(((nparts, nword), (-1) ** j * c))
            return out

        diffs[n] = from_basis_action(src, tgt, action)
    return ComplexSlice(direction, m, spaces, diffs)


def reference_bar(A: GradedRing, m: int) -> ComplexSlice:
    return _reference_word_complex(A, m, 'chain', _merge_letters)


def reference_cobar(C: GradedCoring, m: int) -> ComplexSlice:
    return _reference_word_complex(C, m, 'cochain', _split_letter)


def _koszul_action(pair, a_degree: int, c_degree: int):
    """a (x) c -> sum a c_{1,1} (x) c_{2,c_degree-1} on labels, with the
    unit of R applied in place in the a = 0 and c = 1 cells."""
    A, C = pair.ring, pair.coring
    Asrc, C1 = A.component(a_degree), C.component(1)
    cut = (partial(apply_label, C.delta(1, c_degree - 1)) if c_degree > 1
           else lambda key, c: [((c, UNIT_LABEL), 1)])
    mul = (partial(apply_label, A.mu(a_degree, 1)) if a_degree
           else lambda key, ac: [(ac[1], 1)])

    def action(key, label):
        al, cl = label
        mid = block_of(Asrc, al, key[0])[1]
        out = []
        for (c1, c2), cd in cut((mid, key[1]), cl):
            after = block_of(C1, c1, mid)[1]
            for a2, cm in mul((key[0], after), (al, c1)):
                out.append(((a2, c2), cd * cm))
        return out

    return action


def _reference_koszul_slice(pair, m: int, direction: str, degrees):
    A, C = pair.ring, pair.coring
    base = A.base
    spaces = {-1: unit_bimodule(base) if m == 0 else zero_bimodule(base)}
    for n in range(m + 1):
        An, Cn = (X.component(d) for X, d in zip((A, C), degrees(n)))
        spaces[n] = (zero_bimodule(base) if An.is_zero() or Cn.is_zero()
                     else tensor(An, Cn))
    diffs = {}
    step = _STEP[direction]
    unit = UNIT_LABEL if direction == 'chain' else (UNIT_LABEL, UNIT_LABEL)
    for n in range(-1, m + 1):
        src, tgt = spaces[n], spaces.get(n + step)
        if tgt is None or src.is_zero() or tgt.is_zero():
            continue
        if -1 in (n, n + step):
            action = lambda key, label: [(unit, 1)]
        else:
            action = _koszul_action(pair, *degrees(n))
        diffs[n] = from_basis_action(src, tgt, action)
    return ComplexSlice(direction, m, spaces, diffs)


def reference_koszul_left(pair, m: int) -> ComplexSlice:
    return _reference_koszul_slice(pair, m, 'chain', lambda n: (m - n, n))


def reference_koszul_right(pair, m: int) -> ComplexSlice:
    return _reference_koszul_slice(pair, m, 'cochain', lambda n: (n, m - n))


# the builders that walk labels, kept as references for the ones that fill
# numbered tables: the incidence structures from a basis action, the ideal
# walk and the quadratic ring on tensor_power labels, and the graded dual
# through transposed BimoduleMaps

def reference_incidence(P: GradedPoset, field, cls) -> GradedRing:
    """The incidence ring or coring cls of P, each (p, q) map between
    nonzero ends built from its action on basis labels."""
    base = BaseRing(P.elements, field)
    top = P.max_length
    comps = {0: unit_bimodule(base)}
    for p in range(1, top + 1):
        comps[p] = Bimodule(base, {(x, y): (('e', x, y),)
                                   for x, y in P.intervals(p)})
    if cls is GradedRing:
        def action(p, l):
            return [(('e', l[0][1], l[1][2]), 1)]
    else:
        def action(p, l):
            return [((('e', l[1], z), ('e', z, l[2])), 1)
                    for z in P.middles(l[1], l[2], p)]
    maps = {}
    for p in range(1, top):
        for q in range(1, top + 1 - p):
            ends = cls._ends(tensor(comps[p], comps[q]), comps[p + q])
            if not any(end.is_zero() for end in ends):
                maps[(p, q)] = from_basis_action(
                    *ends, lambda key, l, p=p: action(p, l))
    return cls(base, comps, maps, top)


def _relation_step(V: Bimodule, W: SubBimodule, previous, n: int) -> dict:
    """Degree n of the ideal recursion: {block: Subspace of V^(n)} over
    the nonzero blocks, each with its reduced echelon basis.  Degree 2 is
    W; degree n > 2 appends a letter to each degree n-1 basis vector, and
    prepends one."""
    field = V.base.field
    if n == 2:
        return {key: from_spanning(sub.basis.columns(), sub.ambient_dim,
                                   field)
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
            sub = from_spanning(cols, len(labels), field)
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
    block, in flat word order."""
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
    """The quadratic ring <V, W> on the ideal components spans[n], 2 <= n
    <= top: degree n on the complement words of spans[n], and words
    multiplied by concatenation and reduction modulo the ideal."""
    base = V.base
    field = base.field
    components = {0: unit_bimodule(base), 1: V}
    pivots = {}   # n -> block -> {pivot word index: its basis vector}
    for n in range(2, top + 1):
        components[n] = _complement_words(V, spans[n], n)
        pivots[n] = {key: {min(col): col for col in sub.basis.columns()}
                     for key, sub in spans[n].items()}

    def reduce_word(n, key, word):
        amb = tensor_power(V, n)
        label = word if n != 1 else word[0]
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

            maps[(p, q)] = from_basis_action(tensor(Qp, Qq), components[p + q],
                                             action)
    return GradedRing(base, components, maps, top)


def reference_quadratic_partner(V: Bimodule, W: SubBimodule,
                                top_degree: int) -> GradedRing:
    """<V, W> up to the degree where it vanishes, cut past cap = max(2 *
    top_degree, |S|, 2), with support_truncated set when it was cut."""
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


def transposed_degree_one(X) -> tuple:
    """^*X_1 and the blockwise transpose of the (1, 1) structure map of X,
    between ^*X_2 and ^*X_1 (x) ^*X_1: its image is (Ker mu^{1,1})^perp
    for a ring, its kernel (Im Delta_{1,1})^perp for a coring."""
    dual_V = left_dual(X.component(1))
    ends = X._ends(tensor(dual_V, dual_V), left_dual(X.component(2)))
    return dual_V, BimoduleMap(
        *reversed(ends),
        {key: mat.transpose() for key, mat in X._map(1, 1).blocks.items()})


def reference_graded_left_dual(X, out_cls):
    """The out_cls on the duals ^*X_n, each (p, q) structure map the
    blockwise transpose of that of X between the tensor products of the
    duals, built and checked by the constructor."""
    components = {n: left_dual(X.component(n))
                  for n in range(X.top_degree + 1)}
    maps = {(p, q): BimoduleMap(
                *out_cls._ends(tensor(components[p], components[q]),
                               components[p + q]),
                {key: mat.transpose() for key, mat in f.blocks.items()})
            for (p, q), f in X.maps.items()}
    D = out_cls(X.base, components, maps, X.top_degree)
    D.support_truncated = X.support_truncated
    return D


def reference_shriek_of_ring(A: GradedRing) -> GradedCoring:
    dual_V, transposed = transposed_degree_one(A)
    return reference_graded_left_dual(
        reference_quadratic_partner(dual_V, image_sub(transposed),
                                    A.top_degree), GradedCoring)


def reference_shriek_of_coring(C: GradedCoring) -> GradedRing:
    return reference_quadratic_partner(C.component(1),
                                       image_sub(C.delta(1, 1)), C.top_degree)
