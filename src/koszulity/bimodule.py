"""Bimodules over a split semisimple base R = k^S.

A bimodule is an S x S family of based spaces: block (s, t) collects the
basis vectors v with e_s v e_t = v.  Tensor products over R then reduce to
matching middle idempotents, and every bimodule map is a family of sparse
blocks between blocks with the same (s, t), which is exactly R-bilinearity.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact_linalg import (FieldSpec, SparseMatrix, Subspace, DimensionError,
                           kernel_basis, image_basis, accumulate)
from .errors import InvariantError

UNIT_LABEL = '1'


@dataclass(frozen=True)
class BaseRing:
    'The base R = k^S: an ordered idempotent set and the coefficient field.'

    idempotents: tuple
    field: FieldSpec

    def __post_init__(self):
        if not self.idempotents:
            raise ValueError('idempotent set must be nonempty')
        if len(set(self.idempotents)) != len(self.idempotents):
            raise ValueError('idempotent labels must be distinct')
        object.__setattr__(self, 'idempotents', tuple(self.idempotents))


def _block_sort_key(key):
    s, t = key
    return (repr(s), repr(t))


class Bimodule:
    """A finite-dimensional R-bimodule with named basis vectors per block."""

    __slots__ = ('base', 'blocks', '_index', '_by_start', '_powers')

    def __init__(self, base: BaseRing, blocks: dict):
        idem = set(base.idempotents)
        clean = {}
        seen_from = {}
        for (s, t), labels in blocks.items():
            labels = tuple(labels)
            if not labels:
                continue
            if s not in idem or t not in idem:
                raise ValueError(f'block ({s!r},{t!r}) uses unknown idempotents')
            if len(set(labels)) != len(labels):
                raise ValueError(f'duplicate basis labels in block ({s!r},{t!r})')
            # labels must be unique across all blocks sharing a start
            # idempotent, so a (start, label) pair pins down the block
            fr = seen_from.setdefault(s, set())
            for l in labels:
                if l in fr:
                    raise ValueError(f'label {l!r} reused across blocks from {s!r}')
                fr.add(l)
            clean[(s, t)] = labels
        object.__setattr__(self, 'base', base)
        object.__setattr__(self, 'blocks',
                           {k: clean[k] for k in sorted(clean, key=_block_sort_key)})
        object.__setattr__(self, '_index',
                           {k: {l: i for i, l in enumerate(v)}
                            for k, v in self.blocks.items()})
        # start idempotent -> (((s, t), labels), ...), in block order
        by_start = {}
        for key, labels in self.blocks.items():
            by_start.setdefault(key[0], []).append((key, labels))
        object.__setattr__(self, '_by_start',
                           {s: tuple(v) for s, v in by_start.items()})
        object.__setattr__(self, '_powers', {})

    def __setattr__(self, *a):
        raise AttributeError('Bimodule is immutable')

    def block(self, s, t) -> tuple:
        return self.blocks.get((s, t), ())

    def block_dim(self, s, t) -> int:
        return len(self.blocks.get((s, t), ()))

    @property
    def dim(self) -> int:
        return sum(len(v) for v in self.blocks.values())

    def is_zero(self) -> bool:
        return not self.blocks

    def basis(self):
        'Yield (block_key, label) over all basis vectors, deterministic order.'
        for key, labels in self.blocks.items():
            for l in labels:
                yield key, l

    def index_of(self, key, label) -> int:
        return self._index[key][label]

    def blocks_from(self, s) -> tuple:
        'The ((s, t), labels) pairs of the blocks starting at s, in block order.'
        return self._by_start.get(s, ())

    def __eq__(self, other):
        if not isinstance(other, Bimodule):
            return NotImplemented
        return self.base == other.base and self.blocks == other.blocks

    def __repr__(self):
        return f'Bimodule(dim={self.dim}, blocks={len(self.blocks)})'


def zero_bimodule(base: BaseRing) -> Bimodule:
    return Bimodule(base, {})


def unit_bimodule(base: BaseRing) -> Bimodule:
    'The regular bimodule R itself: one basis vector per diagonal block.'
    return Bimodule(base, {(s, s): (UNIT_LABEL,) for s in base.idempotents})


def tensor(V: Bimodule, W: Bimodule) -> Bimodule:
    'V (x)_R W: block (s,u) = sum over t of V_{s,t} (x) W_{t,u}; labels are pairs.'
    if V.base != W.base:
        raise ValueError('tensor factors live over different bases')
    blocks = {}
    for (s, t), vlabels in V.blocks.items():
        for (_, u), wlabels in W.blocks_from(t):
            target = blocks.setdefault((s, u), [])
            for vl in vlabels:
                for wl in wlabels:
                    target.append((vl, wl))
    return Bimodule(V.base, blocks)


def tensor_many(factors: list) -> Bimodule:
    """Iterated tensor with flat tuple labels.

    A single factor is returned as is (bare labels, not 1-tuples), so word
    spaces over one part agree with the part itself.
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
    'V^(n), built once per immutable V and then served from its cache.'
    if n < 0:
        raise ValueError('negative tensor power')
    power = V._powers.get(n)
    if power is None:
        power = unit_bimodule(V.base) if n == 0 else tensor_many([V] * n)
        V._powers[n] = power
    return power


class BimoduleMap:
    """An R-bimodule morphism: a sparse matrix per (s, t) block.

    Absent blocks are zero.  Matrices are target_dim x source_dim.
    """

    __slots__ = ('source', 'target', 'blocks')

    def __init__(self, source: Bimodule, target: Bimodule, blocks: dict):
        if source.base != target.base:
            raise ValueError('source and target over different bases')
        clean = {}
        for key, mat in blocks.items():
            sdim = source.block_dim(*key)
            tdim = target.block_dim(*key)
            if (mat.rows, mat.cols) != (tdim, sdim):
                raise DimensionError(
                    f'block {key!r}: matrix {mat.rows}x{mat.cols}, expected {tdim}x{sdim}')
            if not mat.is_zero():
                clean[key] = mat
        object.__setattr__(self, 'source', source)
        object.__setattr__(self, 'target', target)
        object.__setattr__(self, 'blocks',
                           {k: clean[k] for k in sorted(clean, key=_block_sort_key)})

    def __setattr__(self, *a):
        raise AttributeError('BimoduleMap is immutable')

    @property
    def field(self) -> FieldSpec:
        return self.source.base.field

    @classmethod
    def zero(cls, source: Bimodule, target: Bimodule) -> 'BimoduleMap':
        return cls(source, target, {})

    @classmethod
    def identity(cls, V: Bimodule) -> 'BimoduleMap':
        return cls(V, V, {k: SparseMatrix.identity(len(v))
                          for k, v in V.blocks.items()})

    @classmethod
    def from_basis_action(cls, source: Bimodule, target: Bimodule, action) -> 'BimoduleMap':
        """Build from action(block_key, label) -> iterable of (target_label, coeff)."""
        trips = {}
        for key, labels in source.blocks.items():
            for j, l in enumerate(labels):
                for tl, c in action(key, l):
                    if c == 0:
                        continue
                    i = target.index_of(key, tl)
                    trips.setdefault(key, {})
                    trips[key][(i, j)] = trips[key].get((i, j), 0) + c
        blocks = {}
        for key, entries in trips.items():
            mats = [(i, j, v) for (i, j), v in entries.items() if v != 0]
            blocks[key] = SparseMatrix(target.block_dim(*key),
                                       source.block_dim(*key), mats)
        return cls(source, target, blocks)

    @classmethod
    def relabeling(cls, source: Bimodule, target: Bimodule, label_map) -> 'BimoduleMap':
        'The iso sending each source basis vector to label_map(label) in the same block.'
        return cls.from_basis_action(source, target,
                                     lambda key, l: [(label_map(l), 1)])

    def block(self, s, t) -> SparseMatrix:
        key = (s, t)
        if key in self.blocks:
            return self.blocks[key]
        return SparseMatrix.zero(self.target.block_dim(s, t),
                                 self.source.block_dim(s, t))

    def apply_label(self, key, label) -> list:
        'Image of a source basis vector as [(target_label, coeff)].'
        j = self.source.index_of(key, label)
        mat = self.blocks.get(key)
        if mat is None:
            return []
        tlabels = self.target.blocks.get(key, ())
        return [(tlabels[i], v) for i, v in mat.column_entries(j)]

    def apply_vector(self, vec: dict) -> dict:
        'Apply to {(block_key, label): coeff}; returns same encoding on the target.'
        out = {}
        for (key, label), c in vec.items():
            for tl, v in self.apply_label(key, label):
                accumulate(out, (key, tl), c, v, self.field)
        return out

    def compose(self, other: 'BimoduleMap') -> 'BimoduleMap':
        'self after other.'
        if other.target is not self.source and other.target != self.source:
            raise DimensionError('compose: middle bimodules differ')
        blocks = {}
        for key, mat in self.blocks.items():
            omat = other.blocks.get(key)
            if omat is None:
                continue
            prod = mat.matmul(omat, self.field)
            if not prod.is_zero():
                blocks[key] = prod
        return BimoduleMap(other.source, self.target, blocks)

    def add(self, other: 'BimoduleMap') -> 'BimoduleMap':
        if self.source != other.source or self.target != other.target:
            raise DimensionError('add: shape mismatch')
        keys = set(self.blocks) | set(other.blocks)
        blocks = {}
        for key in keys:
            m = self.block(*key).add(other.block(*key), self.field)
            if not m.is_zero():
                blocks[key] = m
        return BimoduleMap(self.source, self.target, blocks)

    def scale(self, c) -> 'BimoduleMap':
        return BimoduleMap(self.source, self.target,
                           {k: m.scale(c, self.field) for k, m in self.blocks.items()})

    def is_zero(self) -> bool:
        return not self.blocks

    def rank(self) -> int:
        from .exact_linalg import rank as _rank
        return sum(_rank(m, self.field) for m in self.blocks.values())

    def __eq__(self, other):
        if not isinstance(other, BimoduleMap):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.blocks == other.blocks)

    def __repr__(self):
        return f'BimoduleMap({self.source!r} -> {self.target!r})'


def tensor_map(f: BimoduleMap, g: BimoduleMap) -> BimoduleMap:
    'f (x) g on the pair-labeled tensor products of sources and targets.'
    src = tensor(f.source, g.source)
    tgt = tensor(f.target, g.target)

    def action(key, label):
        fl, gl = label
        fkey = _block_of(f.source, fl, key[0])
        out = []
        for tl1, c1 in f.apply_label(fkey, fl):
            gkey = (fkey[1], key[1])
            for tl2, c2 in g.apply_label(gkey, gl):
                out.append(((tl1, tl2), c1 * c2))
        return out

    return BimoduleMap.from_basis_action(src, tgt, action)


def _block_of(V: Bimodule, label, s_hint):
    'Find the unique block of V starting at s_hint that contains the label.'
    for key, _ in V.blocks_from(s_hint):
        if label in V._index[key]:
            return key
    raise KeyError(f'label {label!r} not found from idempotent {s_hint!r}')


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
        object.__setattr__(self, 'parts',
                           {k: clean[k] for k in sorted(clean, key=_block_sort_key)})

    def __setattr__(self, *a):
        raise AttributeError('SubBimodule is immutable')

    @property
    def dim(self) -> int:
        return sum(s.dim for s in self.parts.values())

    def part(self, key) -> Subspace:
        sub = self.parts.get(key)
        if sub is not None:
            return sub
        return Subspace(self.ambient.block_dim(*key),
                        SparseMatrix.zero(self.ambient.block_dim(*key), 0),
                        self.ambient.base.field, _skip_check=True)

    def contains_vector(self, key, vec: dict) -> bool:
        return self.part(key).contains_vector(vec)


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
    parts = {}
    for key, mat in f.blocks.items():
        parts[key] = image_basis(mat, f.field)
    return SubBimodule(f.target, parts)


# ---------------------------------------------------------------------------
# graded left duals at the bimodule level
# ---------------------------------------------------------------------------

def dual_label(l):
    """Label of the dual basis vector.

    Incidence symbols ('e', x, y) dualize to ('f', x, y) and back, the unit
    stays the unit, anything else gets a '*' wrapper (removed on re-dualizing),
    so double duals are label-identical to the original.
    """
    if l == UNIT_LABEL:
        return UNIT_LABEL
    if isinstance(l, tuple) and l:
        if l[0] == 'e':
            return ('f',) + l[1:]
        if l[0] == 'f':
            return ('e',) + l[1:]
        if l[0] == '*' and len(l) == 2:
            return l[1]
    return ('*', l)


def left_dual(V: Bimodule) -> Bimodule:
    """The left graded dual ^*V = Hom(V, R) over the left structure.

    Over the commutative base k^S the functional dual to a basis vector in
    block (s, t) again lies in block (s, t): both actions computed from
    (r.a)(v) = a(v) r and (a.r)(v) = a(v r) go through the same coordinates.
    """
    return Bimodule(V.base, {key: tuple(dual_label(l) for l in labels)
                             for key, labels in V.blocks.items()})


def evaluate_dual(V: Bimodule, dual_vec: dict, vec: dict) -> dict:
    'Pairing of ^*V with V; returns an element of R as {idempotent: scalar}.'
    out = {}
    for (key, dl), a in dual_vec.items():
        c = vec.get((key, _undual_lookup(V, key, dl)), None)
        if c is None:
            continue
        accumulate(out, key[0], a, c, V.base.field)
    return out


def _undual_lookup(V, key, dl):
    primal = dual_label(dl)
    if primal in V._index.get(key, {}):
        return primal
    raise KeyError(f'no primal label for {dl!r} in block {key!r}')


def dual_tensor_iso(V: Bimodule, W: Bimodule):
    """The canonical pair (phi, psi) between ^*V (x) ^*W and ^*(V (x) W).

    phi(a (x) b)(v (x) w) = a(v b(w)); on dual bases phi matches the dual of
    each tensor monomial, and psi is its inverse via finite dual bases.
    """
    src = tensor(left_dual(V), left_dual(W))
    tgt = left_dual(tensor(V, W))

    def phi_action(key, label):
        dv, dw = label
        return [(dual_label((dual_label(dv), dual_label(dw))), 1)]

    phi = BimoduleMap.from_basis_action(src, tgt, phi_action)

    def psi_action(key, label):
        pair = dual_label(label)
        v, w = pair
        return [((dual_label(v), dual_label(w)), 1)]

    psi = BimoduleMap.from_basis_action(tgt, src, psi_action)
    if phi.compose(psi) != BimoduleMap.identity(tgt):
        raise InvariantError('phi . psi != id')
    if psi.compose(phi) != BimoduleMap.identity(src):
        raise InvariantError('psi . phi != id')
    return phi, psi
