import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from koszulity.poset import GradedPoset
import oracle

# the running examples: the diamond is Koszul, p_bad is the smallest
# incidence ring here that is not even quadratic (Ker mu_3 is nonzero but
# no quadratic relations exist to generate it)
DIAMOND_COVERS = [('0', 'a'), ('0', 'b'), ('a', '1'), ('b', '1')]
P_BAD_COVERS = [('0', 'a'), ('0', 'b'), ('a', 'c'), ('b', 'd'),
                ('c', '1'), ('d', '1')]
TAIL_COVERS = DIAMOND_COVERS + [('1', '2')]


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
