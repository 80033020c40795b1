"""Bimodules over a split semisimple base R = k^S.

A bimodule is an S x S family of based spaces: block (s, t) collects the
basis vectors v with e_s v e_t = v.  Tensor products over R then reduce to
matching middle idempotents, and every bimodule map is a family of sparse
blocks between blocks with the same (s, t), which is exactly R-bilinearity.

Bimodules are immutable, so what is derived from one is built once.  The
constructor checks the blocks and sets the blocks in order and dim; the
label indices and the blocks by start idempotent are built on first use.
Each bimodule keeps its tensor products with each right factor, and each
base keeps its zero and unit bimodules and the repr keys that order
blocks.
"""

from __future__ import annotations

from functools import cached_property

from .exact_linalg import FieldSpec, Frozen, SparseMatrix, DimensionError

UNIT_LABEL = '1'


class BaseRing(Frozen):
    'The base R = k^S: an ordered idempotent set and the coefficient field.'

    _fields = ('idempotents', 'field')

    def __init__(self, idempotents, field: FieldSpec):
        idempotents = tuple(idempotents)
        if not idempotents:
            raise ValueError('idempotent set must be nonempty')
        if len(set(idempotents)) != len(idempotents):
            raise ValueError('idempotent labels must be distinct')
        self.__dict__.update(idempotents=idempotents, field=field)

    def __reduce__(self):
        # the cached bimodules below stay behind: they cannot be pickled
        return BaseRing, (self.idempotents, self.field)

    # built on first use and kept on the base, so every caller shares one
    # immutable object and none outlives its base
    @cached_property
    def zero(self) -> 'Bimodule':
        return Bimodule(self, {})

    @cached_property
    def unit(self) -> 'Bimodule':
        return Bimodule(self, {(s, s): (UNIT_LABEL,) for s in self.idempotents})

    @cached_property
    def _reprs(self) -> dict:
        'Idempotent -> its repr; blocks are ordered by the reprs of (s, t).'
        return {s: repr(s) for s in self.idempotents}

    def sorted_blocks(self, blocks: dict) -> dict:
        'blocks with its (s, t) keys in block order.'
        if len(blocks) < 2:
            return blocks
        reprs = self._reprs
        return {k: blocks[k]
                for k in sorted(blocks, key=lambda k: (reprs[k[0]], reprs[k[1]]))}


class Bimodule:
    """A finite-dimensional R-bimodule with named basis vectors per block."""

    __slots__ = ('base', 'blocks', 'dim', '_index', '_by_start', '_tensors')

    def __init__(self, base: BaseRing, blocks: dict):
        clean, from_start, dim = {}, {}, 0
        for key, labels in blocks.items():
            labels = tuple(labels)
            if labels:
                clean[key] = labels
                dim += len(labels)
                from_start.setdefault(key[0], set()).update(labels)
        # labels must be unique across all blocks sharing a start
        # idempotent, so a (start, label) pair pins down the block
        if (not base._reprs.keys() >= {k for key in clean for k in key}
                or sum(map(len, from_start.values())) != dim):
            _reject(base, clean)
        set_ = object.__setattr__
        set_(self, 'base', base)
        set_(self, 'blocks', base.sorted_blocks(clean))
        set_(self, 'dim', dim)
        for name in ('_index', '_by_start'):
            set_(self, name, None)
        set_(self, '_tensors', {})

    def __setattr__(self, *a):
        raise AttributeError('Bimodule is immutable')

    def block_dim(self, s, t) -> int:
        return len(self.blocks.get((s, t), ()))

    def is_zero(self) -> bool:
        return not self.blocks

    def indices(self) -> dict:
        'Block key -> {label: index in the block}; built on first use.'
        if self._index is None:
            object.__setattr__(self, '_index', {
                k: {l: i for i, l in enumerate(v)}
                for k, v in self.blocks.items()})
        return self._index

    def index_of(self, key, label) -> int:
        return self.indices()[key][label]

    def blocks_from(self, s) -> tuple:
        'The ((s, t), labels) pairs of the blocks starting at s, in block order.'
        if self._by_start is None:
            by_start = {}
            for key, labels in self.blocks.items():
                by_start.setdefault(key[0], []).append((key, labels))
            object.__setattr__(self, '_by_start',
                               {s: tuple(v) for s, v in by_start.items()})
        return self._by_start.get(s, ())

    def __eq__(self, other):
        if other is self:
            return True
        if not isinstance(other, Bimodule):
            return NotImplemented
        return self.base == other.base and self.blocks == other.blocks

    def __repr__(self):
        return f'Bimodule(dim={self.dim}, blocks={len(self.blocks)})'


def _reject(base: BaseRing, blocks: dict):
    'Raise the error of the first block, in input order, that is not valid.'
    seen_from = {}
    for (s, t), labels in blocks.items():
        if s not in base._reprs or t not in base._reprs:
            raise ValueError(f'block ({s!r},{t!r}) uses unknown idempotents')
        if len(set(labels)) != len(labels):
            raise ValueError(f'duplicate basis labels in block ({s!r},{t!r})')
        fr = seen_from.setdefault(s, set())
        for l in labels:
            if l in fr:
                raise ValueError(f'label {l!r} reused across blocks from {s!r}')
            fr.add(l)


def zero_bimodule(base: BaseRing) -> Bimodule:
    'The zero bimodule over base; one object per base.'
    return base.zero


def unit_bimodule(base: BaseRing) -> Bimodule:
    """The regular bimodule R itself: one basis vector per diagonal block;
    one object per base."""
    return base.unit


def tensor(V: Bimodule, W: Bimodule) -> Bimodule:
    """V (x)_R W: block (s,u) = sum over t of V_{s,t} (x) W_{t,u}; labels
    are pairs.  Built once per immutable V and W, then served from V's
    cache; an empty product is the base's zero bimodule."""
    hit = V._tensors.get(id(W))
    if hit is not None:
        return hit[1]
    if V.base != W.base:
        raise ValueError('tensor factors live over different bases')
    if V.is_zero() or W.is_zero():
        return V.base.zero
    blocks = {}
    for (s, t), vlabels in V.blocks.items():
        for (_, u), wlabels in W.blocks_from(t):
            target = blocks.setdefault((s, u), [])
            for vl in vlabels:
                for wl in wlabels:
                    target.append((vl, wl))
    T = Bimodule(V.base, blocks) if blocks else V.base.zero
    # W is kept beside its product, so its id is not reused while cached
    V._tensors[id(W)] = (None if W is V else W, T)
    return T


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
            sdim = len(source.blocks.get(key, ()))
            tdim = len(target.blocks.get(key, ()))
            if (mat.rows, mat.cols) != (tdim, sdim):
                raise DimensionError(
                    f'block {key!r}: matrix {mat.rows}x{mat.cols}, expected {tdim}x{sdim}')
            if not mat.is_zero():
                clean[key] = mat
        object.__setattr__(self, 'source', source)
        object.__setattr__(self, 'target', target)
        object.__setattr__(self, 'blocks', source.base.sorted_blocks(clean))

    def __setattr__(self, *a):
        raise AttributeError('BimoduleMap is immutable')

    @property
    def field(self) -> FieldSpec:
        return self.source.base.field

    def block(self, s, t) -> SparseMatrix:
        key = (s, t)
        if key in self.blocks:
            return self.blocks[key]
        return SparseMatrix.zero(self.target.block_dim(s, t),
                                 self.source.block_dim(s, t))

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

    def is_zero(self) -> bool:
        return not self.blocks

    def __eq__(self, other):
        if not isinstance(other, BimoduleMap):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.blocks == other.blocks)

    def __repr__(self):
        return f'BimoduleMap({self.source!r} -> {self.target!r})'


def _sparse_map(source: Bimodule, target: Bimodule, source_keys: dict,
                target_index: dict, action) -> BimoduleMap:
    """The map from source to target whose column at the j-th basis vector
    of block key is action(key, source_keys[key][j]), an iterable of
    (target key, coeff), summed.

    source_keys[key] lists a key per basis vector of block key of source,
    in basis order, and target_index[key] maps each key of block key of
    target to its index.  Zero coefficients are skipped, and each sum is
    stored as a field element, so over F_p a sum that is 0 mod p is
    dropped."""
    coerce = source.base.field.coerce
    blocks = {}
    for key, keys in source_keys.items():
        index = target_index.get(key, {})
        acc = {}
        for j, k in enumerate(keys):
            for tk, c in action(key, k):
                if c != 0:
                    ij = (index[tk], j)
                    acc[ij] = acc.get(ij, 0) + c
        if acc:
            blocks[key] = SparseMatrix(
                len(index), len(keys),
                [(i, j, coerce(v)) for (i, j), v in acc.items()])
    return BimoduleMap(source, target, blocks)


# ---------------------------------------------------------------------------
# graded left duals at the bimodule level
# ---------------------------------------------------------------------------

def dual_label(l):
    """Label of the dual basis vector; an involution, so double duals are
    label-identical to the original.

    Incidence symbols ('e', x, y) dualize to ('f', x, y) and back, and the
    unit stays the unit.  Otherwise the label is read as k nested ('*', .)
    wrappers around a core: around the unit or an 'e'/'f' symbol an odd k
    wraps once more and an even k unwraps; around any other core an even k
    wraps and an odd k unwraps.
    """
    k, core = 0, l
    while isinstance(core, tuple) and len(core) == 2 and core[0] == '*':
        k, core = k + 1, core[1]
    paired = core == UNIT_LABEL or (isinstance(core, tuple) and bool(core)
                                    and core[0] in ('e', 'f'))
    if k == 0 and paired:
        return core if core == UNIT_LABEL else (
            ('f' if core[0] == 'e' else 'e'),) + core[1:]
    return ('*', l) if (k % 2 == 1) == paired else l[1]


def left_dual(V: Bimodule) -> Bimodule:
    """The left graded dual ^*V = Hom(V, R) over the left structure.

    Over the commutative base k^S the functional dual to a basis vector in
    block (s, t) again lies in block (s, t): both actions computed from
    (r.a)(v) = a(v) r and (a.r)(v) = a(v r) go through the same coordinates.
    """
    return Bimodule(V.base, {key: tuple(dual_label(l) for l in labels)
                             for key, labels in V.blocks.items()})
