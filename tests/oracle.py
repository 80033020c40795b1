"""Brute-force reference computations for the test suite.

Everything here is deliberately naive: dense Fraction matrices, plain
Gaussian elimination, explicit chain enumeration.  Nothing is imported
from the package under test; expected values in the test files are
frozen from these routines (run this file as a script to print them).
"""

from fractions import Fraction
import itertools
import json


# ---------------------------------------------------------------- compositions

def partitions(n: int, m: int) -> tuple:
    'All positive n-part compositions of m, lexicographically ordered.'
    if n < 0 or m < 0:
        raise ValueError(f'partitions({n}, {m}): n and m must be nonnegative')
    if n == 0:
        return ((),) if m == 0 else ()
    out = []

    def grow(remaining, slots, prefix):
        if slots == 1:
            if remaining >= 1:
                out.append(tuple(prefix) + (remaining,))
            return
        for first in range(1, remaining - slots + 2):
            prefix.append(first)
            grow(remaining - first, slots - 1, prefix)
            prefix.pop()

    grow(m, n, [])
    return tuple(out)


# ---------------------------------------------------------------- dense linear algebra

def row_reduce(rows):
    'Return (rank, echelon rows) of a dense list-of-lists over Fraction.'
    mat = [[Fraction(v) for v in row] for row in rows]
    if not mat:
        return 0, []
    ncols = len(mat[0])
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, len(mat)):
            if mat[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = Fraction(1) / mat[rank][col]
        mat[rank] = [v * inv for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                c = mat[r][col]
                mat[r] = [a - c * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank, mat[:rank]


def rank_mod(rows, p):
    """Rank over F_p of an integer matrix (ints or integral Fractions), by
    dense Gaussian elimination mod p."""
    mat = [[int(v) % p for v in row] for row in rows]
    r = 0
    for col in range(len(mat[0]) if mat else 0):
        piv = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = pow(mat[r][col], -1, p)
        mat[r] = [v * inv % p for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                c = mat[i][col]
                mat[i] = [(a - c * b) % p for a, b in zip(mat[i], mat[r])]
        r += 1
    return r


def rank(rows, p=None):
    'Rank over Q, or over F_p when a prime p is given.'
    return row_reduce(rows)[0] if p is None else rank_mod(rows, p)


def kernel(rows, ncols=None):
    'Basis of the null space of the matrix (rows act on column vectors).'
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    r, ech = row_reduce(rows)
    pivots = []
    for row in ech:
        for j, v in enumerate(row):
            if v != 0:
                pivots.append(j)
                break
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for i, p in enumerate(pivots):
            vec[p] = -ech[i][f]
        basis.append(vec)
    return basis


def solve_in_span(basis_vectors, target):
    'Coordinates of target in span(basis_vectors), or None.  Dense and slow.'
    if not basis_vectors:
        return [] if all(v == 0 for v in target) else None
    n = len(target)
    k = len(basis_vectors)
    aug = [[basis_vectors[j][i] for j in range(k)] + [target[i]] for i in range(n)]
    r, ech = row_reduce(aug)
    coords = [Fraction(0)] * k
    for row in ech:
        piv = next(j for j, v in enumerate(row) if v != 0)
        if piv == k:
            return None
        coords[piv] = row[k] - sum(row[j] * coords[j] for j in range(piv + 1, k))
    # echelon is fully reduced, so back substitution above is exact
    for i, vi in enumerate(target):
        if sum(basis_vectors[j][i] * coords[j] for j in range(k)) != vi:
            return None
    return coords


# ---------------------------------------------------------------- posets

class RefPoset:
    'Finite graded poset given by elements and cover pairs.'

    def __init__(self, elements, covers):
        self.elements = list(elements)
        self.covers = [tuple(c) for c in covers]
        self.up = {x: [] for x in self.elements}
        for lo, hi in self.covers:
            self.up[lo].append(hi)
        self.length = {}
        for x in self.elements:
            self._walk(x)

    def _walk(self, x):
        # min/max cover-path lengths from x; graded means they agree
        lo = {x: 0}
        hi = {x: 0}
        frontier = [x]
        while frontier:
            nxt = []
            for u in frontier:
                for v in self.up[u]:
                    if v not in lo:
                        lo[v] = lo[u] + 1
                        hi[v] = hi[u] + 1
                        nxt.append(v)
                    else:
                        lo[v] = min(lo[v], lo[u] + 1)
                        hi[v] = max(hi[v], hi[u] + 1)
            # re-relax until stable (tiny posets, no need to be clever)
            frontier = nxt
        stable = False
        while not stable:
            stable = True
            for u in list(lo):
                for v in self.up[u]:
                    if lo[u] + 1 < lo.get(v, 10 ** 9):
                        lo[v] = lo[u] + 1
                        stable = False
                    if hi[u] + 1 > hi.get(v, -1):
                        hi[v] = hi[u] + 1
                        stable = False
        for y in lo:
            if lo[y] != hi[y]:
                raise ValueError(f'not graded between {x!r} and {y!r}')
            self.length[(x, y)] = lo[y]

    def interval_length(self, x, y):
        return self.length.get((x, y))

    def intervals(self, p):
        return sorted(k for k, v in self.length.items() if v == p)

    @property
    def top(self):
        return max(self.length.values())


DIAMOND = RefPoset(['0', 'a', 'b', '1'],
                   [('0', 'a'), ('0', 'b'), ('a', '1'), ('b', '1')])

P_BAD = RefPoset(['0', 'a', 'b', 'c', 'd', '1'],
                 [('0', 'a'), ('0', 'b'), ('a', 'c'), ('b', 'd'),
                  ('c', '1'), ('d', '1')])


def face_poset(facets):
    """Faces of the simplicial complex with these facets (strings of vertex
    names), with a bottom (the empty face) and a top added."""
    faces = sorted({''.join(c) for facet in facets
                    for k in range(1, len(facet) + 1)
                    for c in itertools.combinations(facet, k)},
                   key=lambda f: (len(f), f))
    top_dim = max(len(f) for f in faces)
    covers = [('bot', f) for f in faces if len(f) == 1]
    covers += [(f[:i] + f[i + 1:], f) for f in faces
               for i in range(len(f)) if len(f) > 1]
    covers += [(f, 'top') for f in faces if len(f) == top_dim]
    return RefPoset(['bot'] + faces + ['top'], covers)


# the 6-vertex triangulation of the real projective plane: its homology
# has 2-torsion, so Koszulity of its face poset depends on the field
RP2 = face_poset(['123', '134', '145', '156', '126',
                  '235', '346', '245', '356', '246'])
# the boundary of the octahedron, a 2-sphere: Cohen-Macaulay over any field
OCTAHEDRON = face_poset([a + b + c for a in '12' for b in '34' for c in '56'])


def chain_poset(n):
    els = [str(i) for i in range(n + 1)]
    return RefPoset(els, [(str(i), str(i + 1)) for i in range(n)])


def antichain_poset(n):
    return RefPoset([str(i) for i in range(n)], [])


def grid_poset(rows, cols):
    'The product of a rows-chain and a cols-chain; cell (i, j) is named i_j.'
    cells = [(i, j) for i in range(rows) for j in range(cols)]
    return RefPoset([f'{i}_{j}' for i, j in cells],
                    [(f'{i}_{j}', f'{i + di}_{j + dj}') for i, j in cells
                     for di, dj in ((1, 0), (0, 1))
                     if i + di < rows and j + dj < cols])


def crown(k, tag):
    """The crown on 2k elements: minima a0..a(k-1), maxima b0..b(k-1), with
    ai < bi and ai < b(i+1 mod k); its Hasse diagram is one 2k-cycle."""
    return RefPoset([f'{tag}a{i}' for i in range(k)]
                    + [f'{tag}b{i}' for i in range(k)],
                    [(f'{tag}a{i}', f'{tag}b{j}') for i in range(k)
                     for j in (i, (i + 1) % k)])


def canonical_form_reference(elements, covers):
    """The key (n, sorted edge tuple) of a cover DAG by an unpruned search.

    Color refinement on (own color, lower colors, upper colors), then every
    vertex of the first non-singleton cell is individualized in turn, with
    no pruning; the key is the least sorted edge tuple over all leaves.  It
    walks n! leaves on an n-antichain, so keep inputs small.
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
        target = next((cells[c] for c in sorted(cells) if len(cells[c]) > 1),
                      None)
        if target is None:
            pos = {v: i for i, v in enumerate(
                sorted(range(n), key=lambda v: colors[v]))}
            return tuple(sorted((pos[a], pos[b])
                                for a in range(n) for b in up[a]))
        return min(search([n if w == v else c for w, c in enumerate(colors)])
                   for v in target)

    return (n, search([0] * n))


# ---------------------------------------------------------------- bar / cobar slices

def _sequences(P, m, n):
    'Strictly increasing (n+1)-point chains with step lengths summing to m.'
    out = []

    def grow(seq, total, steps):
        if steps == n:
            if total == m:
                out.append(tuple(seq))
            return
        for y in P.elements:
            d = P.interval_length(seq[-1], y)
            if d is None or d < 1:
                continue
            if total + d <= m:
                grow(seq + [y], total + d, steps + 1)

    if n == 0:
        return [(x,) for x in P.elements] if m == 0 else []
    for x in P.elements:
        grow([x], 0, 0)
    return sorted(out)


def bar_basis(P, m):
    'degree n -> list of chains (x_0 .. x_n), total interval length m'
    top = max(m, 1)
    return {n: _sequences(P, m, n) for n in range(0, top + 1)}


def bar_matrix(basis, n):
    'Matrix of d_n : degree n -> degree n-1 (drop an interior point).'
    src = basis[n]
    tgt = basis.get(n - 1, [])
    idx = {c: i for i, c in enumerate(tgt)}
    rows = [[Fraction(0)] * len(src) for _ in tgt]
    for j, chain in enumerate(src):
        for i in range(1, n):
            merged = chain[:i] + chain[i + 1:]
            sign = Fraction(-1) ** (i - 1)
            rows[idx[merged]][j] += sign
    return rows


def bar_homology(P, m, p=None):
    """dims of H_n of the weight-m normalized bar slice of the incidence
    ring, over Q or, when a prime p is given, over F_p"""
    if m == 0:
        return {0: len(P.elements)}
    basis = bar_basis(P, m)
    dims = {}
    for n in range(1, m + 1):
        dn = len(basis[n])
        r_in = rank(bar_matrix(basis, n), p) if n >= 2 else 0
        r_out = rank(bar_matrix(basis, n + 1), p) if n + 1 <= m else 0
        dims[n] = dn - r_in - r_out
    return dims


def tor_entries(P, m_top, p=None):
    'The nonzero Tor_{n,m} for m <= m_top, keyed "n,m", over Q or F_p.'
    return {f'{n},{m}': d for m in range(m_top + 1)
            for n, d in bar_homology(P, m, p).items() if d}


def cobar_matrix(P, basis, n):
    'Matrix of d^n : degree n -> degree n+1 (insert an interior point).'
    src = basis[n]
    tgt = basis.get(n + 1, [])
    idx = {c: i for i, c in enumerate(tgt)}
    rows = [[Fraction(0)] * len(src) for _ in tgt]
    for j, chain in enumerate(src):
        for i in range(1, n + 1):
            x, y = chain[i - 1], chain[i]
            for z in P.elements:
                a = P.interval_length(x, z)
                b = P.interval_length(z, y)
                if a is None or b is None or a < 1 or b < 1:
                    continue
                inserted = chain[:i] + (z,) + chain[i:]
                rows[idx[inserted]][j] += Fraction(-1) ** (i - 1)
    return rows


def cobar_homology(P, m):
    'dims of H^n of the weight-m cobar slice of the incidence coring'
    if m == 0:
        return {0: len(P.elements)}
    basis = bar_basis(P, m)
    dims = {}
    for n in range(1, m + 1):
        dn = len(basis[n])
        r_out = rank(cobar_matrix(P, basis, n)) if n + 1 <= m else 0
        r_in = rank(cobar_matrix(P, basis, n - 1)) if n >= 2 else 0
        dims[n] = dn - r_in - r_out
    return dims


# ---------------------------------------------------------------- shriek structures

def unit_paths(P, n):
    'Chains of n covers-only steps (every step has interval length 1).'
    if n == 0:
        return [(x,) for x in P.elements]
    out = []

    def grow(seq):
        if len(seq) == n + 1:
            out.append(tuple(seq))
            return
        for y in P.up[seq[-1]]:
            grow(seq + [y])

    for x in P.elements:
        grow([x])
    return sorted(out)


def shriek_coring_basis(P, n):
    'Basis of A^!_n = intersection of the kernels of all interior merges.'
    paths = unit_paths(P, n)
    if n <= 1:
        return paths, [[Fraction(i == j) for j in range(len(paths))]
                       for i in range(len(paths))]
    rows = []
    merged_index = {}
    stacked = []
    for i in range(1, n):
        for j, p in enumerate(paths):
            merged = p[:i] + p[i + 1:]
            key = (i, merged)
            if key not in merged_index:
                merged_index[key] = len(stacked)
                stacked.append([Fraction(0)] * len(paths))
            stacked[merged_index[key]][j] += 1
    return paths, kernel(stacked, len(paths))


def shriek_ring_dim(P, n):
    'dim of C^!_n = (unit paths of n steps) modulo the zeta ideal.'
    paths = unit_paths(P, n)
    if n <= 1:
        return len(paths)
    index = {p: i for i, p in enumerate(paths)}
    gens = []
    for i in range(1, n):
        for pre in unit_paths(P, i - 1):
            for x, y in P.intervals(2):
                if pre[-1] != x:
                    continue
                for suf in unit_paths(P, n - i - 1):
                    if suf[0] != y:
                        continue
                    vec = [Fraction(0)] * len(paths)
                    hit = False
                    for z in P.elements:
                        if P.interval_length(x, z) == 1 and P.interval_length(z, y) == 1:
                            whole = pre + (z,) + suf
                            vec[index[whole]] += 1
                            hit = True
                    if hit:
                        gens.append(vec)
    return len(paths) - rank(gens)


# ---------------------------------------------------------------- Koszul complex of (A, A^!)

def koszul_left_homology(P, m):
    """Homology dims of the weight-m left Koszul slice for the pair (A, A^!)
    of the incidence ring, K_n = A^{m-n} (x) A^!_n, brute force."""
    L = P.top
    levels = {}
    for n in range(0, m + 1):
        if n > L or m - n > L:
            levels[n] = ([], ([], []))
            continue
        paths, kvecs = shriek_coring_basis(P, n)
        pairs = []
        vecs = []
        for (x, y) in (P.intervals(m - n) if m - n > 0 else [(e, e) for e in P.elements]):
            for k, kv in enumerate(kvecs):
                start = next(paths[j][0] for j in range(len(paths)) if kv[j] != 0)
                if start == y:
                    pairs.append(((x, y), k))
                    vecs.append(kv)
        levels[n] = (pairs, (paths, kvecs))
    dims = {}
    mats = {}
    for n in range(1, m + 1):
        src_pairs, (src_paths, src_kvecs) = levels[n]
        tgt_pairs, (tgt_paths, tgt_kvecs) = levels[n - 1]
        tgt_index = {p: i for i, p in enumerate(tgt_pairs)}
        rows = [[Fraction(0)] * len(src_pairs) for _ in tgt_pairs]
        for col, ((x, y), k) in enumerate(src_pairs):
            kv = src_kvecs[k]
            by_first = {}
            for j, p in enumerate(src_paths):
                if kv[j] == 0:
                    continue
                z1 = p[1]
                tail = p[1:]
                by_first.setdefault(z1, {})[tail] = by_first.get(z1, {}).get(tail, Fraction(0)) + kv[j]
            for z1, tails in by_first.items():
                # express the tail in the kernel basis one level down
                tgt_path_list = tgt_paths
                tvec = [tails.get(p, Fraction(0)) for p in tgt_path_list]
                coords = solve_in_span([list(v) for v in tgt_kvecs], tvec)
                assert coords is not None, 'deconcatenated tail left the shriek coring'
                for kk, cc in enumerate(coords):
                    if cc == 0:
                        continue
                    key = ((x, z1), kk)
                    if key in tgt_index:
                        rows[tgt_index[key]][col] += cc
        mats[n] = rows
    for n in range(0, m + 1):
        dn = len(levels[n][0])
        r_in = rank(mats[n]) if n in mats and mats[n] else 0
        r_out = rank(mats[n + 1]) if (n + 1) in mats and mats[n + 1] else 0
        dims[n] = dn - r_in - r_out
    # degree -1 term is R in weight 0 only; for m >= 1 H_{-1} = 0 automatically
    return dims


# ---------------------------------------------------------------- script entry

def main():
    report = {}
    for name, P in [('diamond', DIAMOND), ('p_bad', P_BAD),
                    ('chain3', chain_poset(3)), ('chain5', chain_poset(5)),
                    ('antichain3', antichain_poset(3))]:
        entry = {'top': P.top if P.length else 0}
        entry['component_dims'] = [len(P.intervals(p)) for p in range(0, (P.top if P.length else 0) + 1)]
        entry['tor'] = tor_entries(P, 2 * max(entry['top'], 1))
        ext = {}
        for m in range(0, 2 * max(entry['top'], 1) + 1):
            for n, d in cobar_homology(P, m).items():
                if d:
                    ext[f'{n},{m}'] = d
        entry['ext'] = ext
        entry['shriek_coring_dims'] = [len(shriek_coring_basis(P, n)[1]) for n in range(0, entry['top'] + 2)]
        entry['shriek_ring_dims'] = [shriek_ring_dim(P, n) for n in range(0, entry['top'] + 2)]
        kos = {}
        for m in range(1, 2 * max(entry['top'], 1) + 1):
            dims = koszul_left_homology(P, m)
            kos[str(m)] = {str(n): d for n, d in dims.items() if d}
        entry['koszul_left_nonzero'] = kos
        report[name] = entry
    # Tor tables whose off-diagonal part depends on the characteristic
    for name, P in [('rp2', RP2), ('octahedron', OCTAHEDRON)]:
        report[name] = {f'tor_{field}': tor_entries(P, 2 * P.top, p)
                        for field, p in [('Q', None), ('F2', 2), ('F3', 3)]}
    # the largest bar block of the 4x5 grid: weight 7, degree 5
    block = bar_matrix(bar_basis(grid_poset(4, 5), 7), 5)
    report['grid4x5_bar_block'] = {
        'shape': [len(block), len(block[0])],
        'rank_Q': rank(block), 'rank_F2': rank(block, 2)}
    print(json.dumps(report, indent=2, sort_keys=True))


if __name__ == '__main__':
    main()
