"""Almost-Koszul pairs, their Koszul complexes, and the Koszulity decision.

A pair is a ring and a coring joined by an invertible degree-1 map theta
whose square multiplies to zero against the comultiplication.  The pair is
Koszul when every weight slice of its Koszul complex is exact; for finitely
supported factors the slices vanish beyond the sum of the two top degrees,
so a finite sweep is a complete decision.  The decision procedure computes
several criteria that are equivalent by theory and raises
CriteriaDisagreement if the implementations ever split.
"""

from __future__ import annotations

from .bimodule import (BimoduleMap, tensor, unit_bimodule, zero_bimodule,
                       tensor_map, _block_of, UNIT_LABEL)
from .exact_linalg import Subspace
from .graded_structures import (GradedRing, GradedCoring, shriek_of_ring,
                                shriek_of_coring, direct_product,
                                direct_sum_corings)
from .homology import (ComplexSlice, SliceHomology, bar_complex_ring,
                       cobar_complex_coring, tor_table, ext_table,
                       tor_primitive_dims, ext_diagonal_products_surjective,
                       is_quadratic_direct, is_quadratic_coring_direct,
                       _matvec, _require_strongly_graded)
from .errors import CriteriaDisagreement, StructureError, InvariantError


class AlmostKoszulPair:
    """A graded ring and coring over one base, tied by theta: C_1 -> A^1.

    theta must be a blockwise isomorphism, and multiplying its square
    against the (1,1) comultiplication must give zero.
    """

    def __init__(self, ring: GradedRing, coring: GradedCoring,
                 theta: BimoduleMap):
        if ring.base != coring.base:
            raise StructureError('pair factors live over different bases')
        C1, A1 = coring.component(1), ring.component(1)
        if theta.source != C1 or theta.target != A1:
            raise StructureError('theta must map C_1 to A^1')
        for key in set(C1.blocks) | set(A1.blocks):
            sd = C1.block_dim(*key)
            td = A1.block_dim(*key)
            rk = Subspace.from_spanning(theta.block(*key).columns(), td,
                                        ring.base.field).dim
            if sd != td or rk != sd:
                raise StructureError(
                    f'theta is not invertible on block {key!r}')
        square = ring.mu(1, 1).compose(tensor_map(theta, theta)) \
                              .compose(coring.delta(1, 1))
        if not square.is_zero():
            raise StructureError('theta squared does not multiply to zero')
        self.ring = ring
        self.coring = coring
        self.theta = theta

    def __repr__(self):
        return (f'AlmostKoszulPair(ring top {self.ring.top_degree}, '
                f'coring top {self.coring.top_degree})')


def _pair_with_shriek(X, shriek) -> AlmostKoszulPair:
    _require_strongly_graded(X)
    partner = shriek(X)
    ring, coring = (X, partner) if isinstance(X, GradedRing) else (partner, X)
    return AlmostKoszulPair(ring, coring, BimoduleMap.identity(X.component(1)))


def make_pair_shriek_ring(A: GradedRing) -> AlmostKoszulPair:
    'The pair of A with its quadratic-dual coring; theta is the identity.'
    return _pair_with_shriek(A, shriek_of_ring)


def make_pair_shriek_coring(C: GradedCoring) -> AlmostKoszulPair:
    'The pair of the quadratic-dual ring with C; theta is the identity.'
    return _pair_with_shriek(C, shriek_of_coring)


def _koszul_action(pair: AlmostKoszulPair, a_degree: int, c_degree: int):
    """The differential cell on tensor(A^{a_degree}, C_{c_degree}):
    a (x) c -> sum a theta(c_{1,1}) (x) c_{2,c_degree-1}.
    """
    A, C, theta = pair.ring, pair.coring, pair.theta
    Asrc = A.component(a_degree)
    C1 = C.component(1)
    cut = C.delta(1, c_degree - 1)
    mu = A.mu(a_degree, 1)

    def action(key, label):
        al, cl = label
        mid = _block_of(Asrc, al, key[0])[1]
        out = []
        for (c1, c2), cd in cut.apply_label((mid, key[1]), cl):
            c1_key = (mid, _block_of(C1, c1, mid)[1])
            for t1, ct in theta.apply_label(c1_key, c1):
                for a2, cm in mu.apply_label((key[0], c1_key[1]), (al, t1)):
                    out.append(((a2, c2), cd * ct * cm))
        return out

    return action


def _koszul_slice(pair: AlmostKoszulPair, m: int, direction: str,
                  degrees) -> ComplexSlice:
    """The weight-m Koszul slice whose degree n space is A^a (x) C_c for
    (a, c) = degrees(n), with differentials running in direction.

    The degree -1 augmentation term is R in weight 0 and zero otherwise;
    spaces beyond either factor's support are checked to vanish.
    """
    if m < 0:
        raise ValueError(f'negative weight {m}')
    A, C = pair.ring, pair.coring
    base = A.base
    spaces = {-1: unit_bimodule(base) if m == 0 else zero_bimodule(base)}
    for n in range(m + 1):
        a, c = degrees(n)
        An, Cn = A.component(a), C.component(c)
        sp = zero_bimodule(base) if An.is_zero() or Cn.is_zero() \
            else tensor(An, Cn)
        if (a > A.top_degree or c > C.top_degree) and not sp.is_zero():
            raise InvariantError(f'slice cell ({m}, {n}) outside the support')
        spaces[n] = sp
    diffs = {}
    step = -1 if direction == 'chain' else 1
    unit = UNIT_LABEL if direction == 'chain' else (UNIT_LABEL, UNIT_LABEL)
    for n in range(-1, m + 1):
        src, tgt = spaces[n], spaces.get(n + step)
        if tgt is None or src.is_zero() or tgt.is_zero():
            continue
        if -1 in (n, n + step):   # the augmentation, nonzero in weight 0
            action = lambda key, label: [(unit, 1)]
        else:
            action = _koszul_action(pair, *degrees(n))
        diffs[n] = BimoduleMap.from_basis_action(src, tgt, action)
    return ComplexSlice(direction, m, spaces, diffs)


def koszul_complex_left(pair: AlmostKoszulPair, m: int) -> ComplexSlice:
    'The weight-m left Koszul slice, degree n space A^{m-n} (x) C_n.'
    return _koszul_slice(pair, m, 'chain', lambda n: (m - n, n))


def koszul_complex_right(pair: AlmostKoszulPair, m: int) -> ComplexSlice:
    'The weight-m right Koszul slice, degree n space A^n (x) C_{m-n}.'
    return _koszul_slice(pair, m, 'cochain', lambda n: (n, m - n))


def is_exact(cx: ComplexSlice):
    'Whether every homology dimension of the slice vanishes; (bool, dims).'
    dims = cx.homology_dims()
    return all(d == 0 for d in dims.values()), dims


# ---------------------------------------------------------------------------
# the decision procedure
# ---------------------------------------------------------------------------

class KoszulVerdict:
    """The decision plus every criterion that went into cross-checking it.

    per_criterion maps a criterion id to (passed, evidence).  Criteria of
    kind 'equivalence' must all equal the verdict; 'assertion' criteria
    must simply hold.  sound is False when a truncated shriek partner or a
    user-supplied weight cap makes the sweep a bounded check rather than a
    complete decision.  pair is the almost-Koszul pair the decision swept,
    kept for callers that go on with it; it is not part of the JSON.
    """

    def __init__(self, verdict: bool, per_criterion: dict,
                 m_bound_used: int, sound: bool = True):
        self.verdict = verdict
        self.per_criterion = dict(per_criterion)
        self.m_bound_used = m_bound_used
        self.sound = sound
        self.pair = None

    def to_json(self) -> dict:
        return {
            'verdict': self.verdict,
            'm_bound_used': self.m_bound_used,
            'sound': self.sound,
            'criteria': [{'id': cid, 'pass': ok, 'evidence': ev}
                         for cid, (ok, ev) in sorted(self.per_criterion.items())],
        }

    def __repr__(self):
        flags = {cid: ok for cid, (ok, ev) in sorted(self.per_criterion.items())}
        return (f'KoszulVerdict({self.verdict}, m_bound={self.m_bound_used}, '
                f'criteria={flags})')


RING_CRITERION_KINDS = {
    'pair_exactness': 'equivalence',
    'tor_diagonal': 'equivalence',
    'primitives_degree_one': 'equivalence',
    'shriek_isomorphism': 'equivalence',
    'quadraticity_consistent': 'assertion',
}

CORING_CRITERION_KINDS = {
    'pair_exactness': 'equivalence',
    'ext_diagonal': 'equivalence',
    'ext_strongly_graded': 'equivalence',
    'shriek_isomorphism': 'equivalence',
    'quadraticity_consistent': 'assertion',
}


def _check_agreement(verdict: bool, per_criterion: dict, kinds: dict):
    bad = []
    for cid, (ok, evidence) in sorted(per_criterion.items()):
        if kinds[cid] == 'assertion':
            if not ok:
                bad.append(f'{cid} failed ({evidence})')
        elif ok != verdict:
            bad.append(f'{cid}={ok} against verdict={verdict} ({evidence})')
    if bad:
        raise CriteriaDisagreement('; '.join(bad))


def _exactness_sweep(builder, pair, m_bound):
    failures = {}
    for m in range(1, m_bound + 1):
        ok, dims = is_exact(builder(pair, m))
        if not ok:
            failures[m] = {n: d for n, d in dims.items() if d}
    return failures


def _decide(X, m_max, make_pair, make_slice, make_table, quad_direct,
            kinds, extra_criterion) -> KoszulVerdict:
    'The decision of decide_koszul_ring or _coring, given the side hooks.'
    pair = make_pair(X)   # checks strong grading, once
    partner = pair.coring if X is pair.ring else pair.ring
    vanish_bound = pair.ring.top_degree + pair.coring.top_degree
    m_bound = max(2 * X.top_degree, vanish_bound) if m_max is None else m_max
    sound = not partner.support_truncated and m_bound >= vanish_bound
    if sound:
        beyond = make_slice(pair, m_bound + 1)
        if beyond.total_dim() != 0:
            raise InvariantError('slice persists past the sweep bound')

    failures = _exactness_sweep(make_slice, pair, m_bound)
    verdict = not failures
    pair_ev = {'failing_weights': {str(m): {str(n): d for n, d in nz.items()}
                                   for m, nz in failures.items()}}

    # the table and the comparisons share the exactness window: for
    # structures whose shriek partner outlives them (2L < vanish bound) the
    # smaller classical window would miss diagonal cells above weight 2L
    table = make_table(X, m_max=m_bound, with_representatives=True)
    offd = sorted([n, m, v] for (n, m), v in table.off_diagonal().items())
    diag = table.diagonal()
    mismatches = []
    for n in range(1, min(partner.top_degree, m_bound) + 1):
        want = partner.component(n).dim
        got = diag.get(n, 0)
        if want != got:
            mismatches.append([n, got, want])

    via_table = all(table.entry(2, m) == 0 for m in range(3, m_bound + 1))
    direct, direct_witness = quad_direct(X, _checked=True)

    side = table.kind.lower()
    per_criterion = {
        'pair_exactness': (verdict, pair_ev),
        f'{side}_diagonal': (not offd, {'off_diagonal': offd}),
        'shriek_isomorphism': (not mismatches and not offd,
                               {'diagonal_mismatches': mismatches,
                                'off_diagonal': offd}),
        'quadraticity_consistent': (via_table == direct,
                                    {f'via_{side}': via_table,
                                     'direct': direct,
                                     'witness': direct_witness}),
        **extra_criterion(X, table, offd),
    }
    if sound:
        _check_agreement(verdict, per_criterion, kinds)
    result = KoszulVerdict(verdict, per_criterion, m_bound, sound)
    result.pair = pair
    return result


def _primitives_criterion(A: GradedRing, table, offd) -> dict:
    prim = tor_primitive_dims(A, table)
    prim_bad = sorted([n, m, d] for (n, m), d in prim.items()
                      if n >= 2 and d)
    return {'primitives_degree_one': (not prim_bad, {'nonzero': prim_bad})}


def _products_criterion(C: GradedCoring, table, offd) -> dict:
    surjective, sur_witness = ext_diagonal_products_surjective(C, table)
    return {'ext_strongly_graded': (not offd and surjective,
                                    {'off_diagonal': offd,
                                     'non_surjective_degree': sur_witness})}


def decide_koszul_ring(A: GradedRing, m_max: int = None) -> KoszulVerdict:
    """Decide Koszulity of A through the pair (A, A^!).

    The verdict is exactness of every left Koszul slice up to the sound
    weight bound; Tor diagonality, primitives, the shriek comparison and
    the two quadraticity routes are computed alongside and must agree.
    """
    return _decide(A, m_max, make_pair_shriek_ring, koszul_complex_left,
                   tor_table, is_quadratic_direct, RING_CRITERION_KINDS,
                   _primitives_criterion)


def decide_koszul_coring(C: GradedCoring, m_max: int = None) -> KoszulVerdict:
    'Mirror decision for a coring through the pair (C^!, C).'
    return _decide(C, m_max, make_pair_shriek_coring, koszul_complex_right,
                   ext_table, is_quadratic_coring_direct,
                   CORING_CRITERION_KINDS, _products_criterion)


# ---------------------------------------------------------------------------
# the canonical degree-n comparison maps
# ---------------------------------------------------------------------------

def phi_shriek_ring_check(A: GradedRing, n: int) -> bool:
    """Whether the embedded basis of the dual coring in weight n gives a
    basis of the diagonal homology of the bar slice.

    The degree-n space of the weight-n slice is the pure word space, and
    the boundary space there is zero, so the check is: embedded vectors
    are cycles, stay independent, and count out the homology dimension.
    """
    if n < 1:
        raise ValueError(f'degree {n} < 1')
    shr = shriek_of_ring(A)
    cx = bar_complex_ring(A, n)
    space = cx.spaces[n]
    field = A.base.field
    d_out = cx.differentials.get(n)
    hdim = cx.homology_dims()[n]
    if n > shr.top_degree or shr.component(n).is_zero():
        return hdim == 0
    emb = shr.embeddings[n]
    count = 0
    for key, mat in emb.blocks.items():
        cols = mat.columns()
        count += len(cols)
        if d_out is not None and any(_matvec(d_out.block(*key), col, field)
                                     for col in cols):
            return False
        rk = Subspace.from_spanning(cols, space.block_dim(*key), field).dim
        if rk != len(cols):
            return False
    return count == hdim


def phi_shriek_coring_check(C: GradedCoring, n: int) -> bool:
    """Whether projecting cocycle representatives letterwise onto the dual
    ring in weight n is a bijection onto its degree-n component.
    """
    if n < 1:
        raise ValueError(f'degree {n} < 1')
    shr = shriek_of_coring(C)
    cx = cobar_complex_coring(C, n)
    H = SliceHomology(cx, n, ('Ext', n, n)) if cx.spaces[n].dim else None
    sdim = shr.component(n).dim if n <= shr.top_degree else 0
    hdim = H.dim if H is not None else 0
    if hdim != sdim:
        return False
    if hdim == 0:
        return True
    proj = shr.projections[n]
    field = C.base.field
    # boundaries must die under the projection, else classes are ambiguous
    for key in cx.spaces[n].blocks:
        pmat = proj.block(*key)
        for col in H._boundary_part(key).basis.columns():
            if _matvec(pmat, col, field):
                raise InvariantError(
                    'projection does not kill the coboundaries')
    for key, cols in H.reps.items():
        pmat = proj.block(*key)
        images = [_matvec(pmat, col, field) for col in cols]
        rk = Subspace.from_spanning(images, shr.component(n).block_dim(*key),
                                    field).dim
        if rk != len(cols):
            return False
    return True


def pair_product(p1: AlmostKoszulPair, p2: AlmostKoszulPair) -> AlmostKoszulPair:
    'The pair of the product ring with the direct-sum coring.'
    ring = direct_product(p1.ring, p2.ring)
    coring = direct_sum_corings(p1.coring, p2.coring)
    theta = BimoduleMap(coring.component(1), ring.component(1),
                        {**p1.theta.blocks, **p2.theta.blocks})
    return AlmostKoszulPair(ring, coring, theta)
