"""Deterministic poset builders for the benchmark workloads.

Every builder returns a poset document {"elements": [...], "covers": [...]}
in the format the koszulity CLI reads.  The seed only renames elements:
labels get a seed-derived prefix, which keeps their relative sort order and
hence the amount of work, so runs with different seeds measure the same
problem.  The one exception is relabel(), which applies a seeded
permutation on purpose: it makes an isomorphic copy under different labels.
"""

from __future__ import annotations

import itertools
import random

# facets of the 6-vertex triangulation of the real projective plane
RP2_FACETS = ('123', '134', '145', '156', '126',
              '235', '346', '245', '356', '246')


def label_prefix(seed: int) -> str:
    'A short seed-derived label prefix, made of lowercase letters.'
    rng = random.Random(seed)
    return ''.join(rng.choice('abcdefghijklmnopqrstuvwxyz') for _ in range(3))


def _document(elements, covers, prefix: str) -> dict:
    return {'elements': [prefix + e for e in elements],
            'covers': [[prefix + lo, prefix + hi] for lo, hi in covers]}


def grid(rows: int, cols: int, prefix: str) -> dict:
    'The product of a rows-chain and a cols-chain.'
    cells = [(i, j) for i in range(rows) for j in range(cols)]
    name = {c: f'{c[0]}_{c[1]}' for c in cells}
    covers = [(name[(i, j)], name[(i + di, j + dj)])
              for i, j in cells for di, dj in ((1, 0), (0, 1))
              if i + di < rows and j + dj < cols]
    return _document([name[c] for c in cells], covers, prefix)


def boolean_lattice(n: int, prefix: str) -> dict:
    'B_n: the subsets of an n-set under inclusion, named by bit strings.'
    subsets = sorted(range(2 ** n), key=lambda s: (bin(s).count('1'), s))
    name = {s: format(s, f'0{n}b') for s in subsets}
    covers = [(name[s], name[s | (1 << k)])
              for s in subsets for k in range(n) if not s & (1 << k)]
    return _document([name[s] for s in subsets], covers, prefix)


def face_poset(facets, prefix: str) -> dict:
    """Faces of a simplicial complex given by its facets, with a bottom
    (the empty face) and a top added."""
    faces = set()
    for facet in facets:
        for k in range(1, len(facet) + 1):
            faces.update(''.join(c) for c in itertools.combinations(facet, k))
    ordered = sorted(faces, key=lambda f: (len(f), f))
    covers = [('bot', f) for f in ordered if len(f) == 1]
    covers += [(f[:i] + f[i + 1:], f) for f in ordered if len(f) > 1
               for i in range(len(f))]
    top_dim = max(len(f) for f in ordered)
    covers += [(f, 'top') for f in ordered if len(f) == top_dim]
    return _document(['bot'] + ordered + ['top'], covers, prefix)


def rp2(prefix: str) -> dict:
    'The face poset of RP^2 with bottom and top: 33 elements.'
    return face_poset(RP2_FACETS, prefix)


def diamonds(copies: int, prefix: str) -> dict:
    'Disjoint union of copies of the diamond 0 < a, b < 1.'
    elements, covers = [], []
    for k in range(copies):
        lo, a, b, hi = (f'{x}@{k}' for x in '0ab1')
        elements += [lo, a, b, hi]
        covers += [(lo, a), (lo, b), (a, hi), (b, hi)]
    return _document(elements, covers, prefix)


def antichain(size: int, prefix: str) -> dict:
    return _document([str(i) for i in range(size)], [], prefix)


def relabel(document: dict, seed: int) -> dict:
    'An isomorphic copy: elements permuted and renamed, covers shuffled.'
    rng = random.Random(seed)
    old = list(document['elements'])
    order = old[:]
    rng.shuffle(order)
    new_name = {e: f'r{i}' for i, e in enumerate(order)}
    covers = [[new_name[lo], new_name[hi]] for lo, hi in document['covers']]
    rng.shuffle(covers)
    return {'elements': [new_name[e] for e in order], 'covers': covers}
