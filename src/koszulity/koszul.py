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
                                shriek_of_coring, is_strongly_graded_ring,
                                is_strongly_graded_coring, direct_product,
                                direct_sum_corings)
from .homology import (ComplexSlice, SliceHomology, bar_complex_ring,
                       cobar_complex_coring, tor_table, ext_table,
                       tor_primitive_dims, ext_diagonal_products_surjective,
                       is_quadratic_direct, is_quadratic_coring_direct,
                       _matvec)
from .errors import PreconditionError, CriteriaDisagreement, StructureError


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
            mat = theta.block(*key)
            rk = 0 if mat is None else Subspace.from_spanning(
                mat.columns(), td, ring.base.field).dim
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


def make_pair_shriek_ring(A: GradedRing) -> AlmostKoszulPair:
    'The pair of A with its quadratic-dual coring; theta is the identity.'
    ok, witness = is_strongly_graded_ring(A)
    if not ok:
        raise PreconditionError(f'ring is not strongly graded: {witness}')
    coring = shriek_of_ring(A)
    return AlmostKoszulPair(A, coring, BimoduleMap.identity(A.component(1)))


def make_pair_shriek_coring(C: GradedCoring) -> AlmostKoszulPair:
    'The pair of the quadratic-dual ring with C; theta is the identity.'
    ok, witness = is_strongly_graded_coring(C)
    if not ok:
        raise PreconditionError(f'coring is not strongly graded: {witness}')
    ring = shriek_of_coring(C)
    return AlmostKoszulPair(ring, C, BimoduleMap.identity(C.component(1)))


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


def koszul_complex_left(pair: AlmostKoszulPair, m: int) -> ComplexSlice:
    """The weight-m left Koszul slice, degree n space A^{m-n} (x) C_n.

    The degree -1 augmentation term is R in weight 0 and zero otherwise;
    spaces beyond either factor's support are asserted to vanish.
    """
    assert m >= 0
    A, C = pair.ring, pair.coring
    base = A.base
    spaces = {-1: unit_bimodule(base) if m == 0 else zero_bimodule(base)}
    for n in range(m + 1):
        An, Cn = A.component(m - n), C.component(n)
        sp = zero_bimodule(base) if An.is_zero() or Cn.is_zero() \
            else tensor(An, Cn)
        if m - n > A.top_degree or n > C.top_degree:
            assert sp.is_zero(), f'slice cell ({m}, {n}) outside the support'
        spaces[n] = sp
    diffs = {}
    if m == 0 and not spaces[0].is_zero():
        diffs[0] = BimoduleMap.from_basis_action(
            spaces[0], spaces[-1], lambda key, label: [(UNIT_LABEL, 1)])
    for n in range(1, m + 1):
        src, tgt = spaces[n], spaces[n - 1]
        if src.is_zero() or tgt.is_zero():
            continue
        diffs[n] = BimoduleMap.from_basis_action(
            src, tgt, _koszul_action(pair, m - n, n))
    return ComplexSlice('chain', m, spaces, diffs)


def koszul_complex_right(pair: AlmostKoszulPair, m: int) -> ComplexSlice:
    'The weight-m right Koszul slice, degree n space A^n (x) C_{m-n}.'
    assert m >= 0
    A, C = pair.ring, pair.coring
    base = A.base
    spaces = {-1: unit_bimodule(base) if m == 0 else zero_bimodule(base)}
    for n in range(m + 1):
        An, Cn = A.component(n), C.component(m - n)
        sp = zero_bimodule(base) if An.is_zero() or Cn.is_zero() \
            else tensor(An, Cn)
        if n > A.top_degree or m - n > C.top_degree:
            assert sp.is_zero(), f'slice cell ({m}, {n}) outside the support'
        spaces[n] = sp
    diffs = {}
    if m == 0 and not spaces[0].is_zero():
        diffs[-1] = BimoduleMap.from_basis_action(
            spaces[-1], spaces[0],
            lambda key, label: [((UNIT_LABEL, UNIT_LABEL), 1)])
    for n in range(m):
        src, tgt = spaces[n], spaces[n + 1]
        if src.is_zero() or tgt.is_zero():
            continue
        diffs[n] = BimoduleMap.from_basis_action(
            src, tgt, _koszul_action(pair, n, m - n))
    return ComplexSlice('cochain', m, spaces, diffs)


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
    complete decision.
    """

    def __init__(self, verdict: bool, per_criterion: dict,
                 m_bound_used: int, sound: bool = True):
        self.verdict = verdict
        self.per_criterion = dict(per_criterion)
        self.m_bound_used = m_bound_used
        self.sound = sound

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


def decide_koszul_ring(A: GradedRing, m_max: int = None) -> KoszulVerdict:
    """Decide Koszulity of A through the pair (A, A^!).

    The verdict is exactness of every left Koszul slice up to the sound
    weight bound; Tor diagonality, primitives, the shriek comparison and
    the two quadraticity routes are computed alongside and must agree.
    """
    pair = make_pair_shriek_ring(A)   # checks strong grading, once
    L = A.top_degree
    vanish_bound = A.top_degree + pair.coring.top_degree
    m_bound = max(2 * L, vanish_bound) if m_max is None else m_max
    truncated = getattr(pair.coring, 'support_truncated', False)
    sound = not truncated and m_bound >= vanish_bound
    if sound:
        beyond = koszul_complex_left(pair, m_bound + 1)
        assert beyond.total_dim() == 0, 'slice persists past the sweep bound'

    failures = _exactness_sweep(koszul_complex_left, pair, m_bound)
    verdict = not failures
    pair_ev = {'failing_weights': {str(m): {str(n): d for n, d in nz.items()}
                                   for m, nz in failures.items()}}

    # the table and the comparisons share the exactness window: for rings
    # whose shriek partner outlives them (2L < vanish bound) the smaller
    # classical window would miss diagonal cells above weight 2L
    table = tor_table(A, m_max=m_bound, with_representatives=True)
    offd = sorted([n, m, v] for (n, m), v in table.off_diagonal().items())
    prim = tor_primitive_dims(A, table)
    prim_bad = sorted([n, m, d] for (n, m), d in prim.items()
                      if n >= 2 and d)
    diag = table.diagonal()
    mismatches = []
    for n in range(1, min(pair.coring.top_degree, m_bound) + 1):
        want = pair.coring.component(n).dim
        got = diag.get(n, 0)
        if want != got:
            mismatches.append([n, got, want])

    via_table = all(table.entry(2, m) == 0 for m in range(3, m_bound + 1))
    direct, direct_witness = is_quadratic_direct(A, _checked=True)

    per_criterion = {
        'pair_exactness': (verdict, pair_ev),
        'tor_diagonal': (not offd, {'off_diagonal': offd}),
        'primitives_degree_one': (not prim_bad, {'nonzero': prim_bad}),
        'shriek_isomorphism': (not mismatches and not offd,
                               {'diagonal_mismatches': mismatches,
                                'off_diagonal': offd}),
        'quadraticity_consistent': (via_table == direct,
                                    {'via_tor': via_table, 'direct': direct,
                                     'witness': direct_witness}),
    }
    if sound:
        _check_agreement(verdict, per_criterion, RING_CRITERION_KINDS)
    return KoszulVerdict(verdict, per_criterion, m_bound, sound)


def decide_koszul_coring(C: GradedCoring, m_max: int = None) -> KoszulVerdict:
    'Mirror decision for a coring through the pair (C^!, C).'
    pair = make_pair_shriek_coring(C)   # checks strong grading, once
    L = C.top_degree
    vanish_bound = pair.ring.top_degree + C.top_degree
    m_bound = max(2 * L, vanish_bound) if m_max is None else m_max
    truncated = getattr(pair.ring, 'support_truncated', False)
    sound = not truncated and m_bound >= vanish_bound
    if sound:
        beyond = koszul_complex_right(pair, m_bound + 1)
        assert beyond.total_dim() == 0, 'slice persists past the sweep bound'

    failures = _exactness_sweep(koszul_complex_right, pair, m_bound)
    verdict = not failures
    pair_ev = {'failing_weights': {str(m): {str(n): d for n, d in nz.items()}
                                   for m, nz in failures.items()}}

    # same window as the exactness sweep; see decide_koszul_ring
    table = ext_table(C, m_max=m_bound, with_representatives=True)
    offd = sorted([n, m, v] for (n, m), v in table.off_diagonal().items())
    diag = table.diagonal()
    mismatches = []
    for n in range(1, min(pair.ring.top_degree, m_bound) + 1):
        want = pair.ring.component(n).dim
        got = diag.get(n, 0)
        if want != got:
            mismatches.append([n, got, want])
    surjective, sur_witness = ext_diagonal_products_surjective(C, table)

    via_table = all(table.entry(2, m) == 0 for m in range(3, m_bound + 1))
    direct, direct_witness = is_quadratic_coring_direct(C, _checked=True)

    per_criterion = {
        'pair_exactness': (verdict, pair_ev),
        'ext_diagonal': (not offd, {'off_diagonal': offd}),
        'ext_strongly_graded': (not offd and surjective,
                                {'off_diagonal': offd,
                                 'non_surjective_degree': sur_witness}),
        'shriek_isomorphism': (not mismatches and not offd,
                               {'diagonal_mismatches': mismatches,
                                'off_diagonal': offd}),
        'quadraticity_consistent': (via_table == direct,
                                    {'via_ext': via_table, 'direct': direct,
                                     'witness': direct_witness}),
    }
    if sound:
        _check_agreement(verdict, per_criterion, CORING_CRITERION_KINDS)
    return KoszulVerdict(verdict, per_criterion, m_bound, sound)


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
    assert n >= 1
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
        if d_out is not None:
            dmat = d_out.block(*key)
            if dmat is not None:
                for col in cols:
                    if _matvec(dmat, col, field):
                        return False
        rk = Subspace.from_spanning(cols, space.block_dim(*key), field).dim
        if rk != len(cols):
            return False
    return count == hdim


def phi_shriek_coring_check(C: GradedCoring, n: int, table=None) -> bool:
    """Whether projecting cocycle representatives letterwise onto the dual
    ring in weight n is a bijection onto its degree-n component.
    """
    assert n >= 1
    shr = shriek_of_coring(C)
    if table is not None:
        if not hasattr(table, 'representatives'):
            raise PreconditionError('representative cache missing: build the '
                                    'table with with_representatives=True')
        H = table.representatives.get((n, n))
        cx = table.slices[n]
    else:
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
        bpart = H._boundary_part(key)
        pmat = proj.block(*key)
        for col in bpart.basis.columns():
            if pmat is not None:
                assert not _matvec(pmat, col, field), \
                    'projection does not kill the coboundaries'
    for key, cols in H.reps.items():
        pmat = proj.block(*key)
        if pmat is None:
            return False
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
