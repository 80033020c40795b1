"""Almost-Koszul pairs, their Koszul complexes, and the Koszulity decision.

A pair is a ring A and a coring C that share their degree-1 bimodule,
A^1 = C_1, with mu(1, 1) Delta(1, 1) = 0; AlmostKoszulPair says why this
loses no generality.

The pair is Koszul when every weight slice of its Koszul complex is exact;
for finitely supported factors the slices vanish beyond the sum of the two
top degrees, so a finite sweep is a complete decision.  The slices are
built on the numbered bases of the two factors, which share the ids of
A^1 = C_1: a basis vector of A^a (x) C_c is a pair of ids, and the
differential reads the (1, c-1) coproducts and the (a, 1) products off
the tables of C and A.  The decision
procedure computes several criteria that are equivalent by theory and
raises CriteriaDisagreement if the implementations ever split.
"""

from __future__ import annotations

from .bimodule import UNIT_LABEL
from .graded_structures import (GradedRing, GradedCoring, shriek_of_ring,
                                shriek_of_coring, _pair_words)
from .homology import (ComplexSlice, tor_table, ext_table,
                       tor_primitive_dims, ext_diagonal_products_surjective,
                       is_quadratic_direct, is_quadratic_coring_direct,
                       _require_strongly_graded, _assemble)
from .errors import CriteriaDisagreement, StructureError, InvariantError


class AlmostKoszulPair:
    """A graded ring and coring over one base that share their degree-1
    bimodule, A^1 = C_1, with mu(1, 1) Delta(1, 1) = 0.

    A pair (A, C, theta) of arXiv:1011.4243, with theta: C_1 -> A^1
    invertible and mu(theta x theta)Delta(1, 1) = 0, is isomorphic to
    (A, C'), where C' is C carried along theta in every tensor factor of
    degree 1; so this pair is the general one with theta the identity.
    """

    def __init__(self, ring: GradedRing, coring: GradedCoring):
        if ring.base != coring.base:
            raise StructureError('pair factors live over different bases')
        if ring.component(1) != coring.component(1):
            raise StructureError('pair factors have different degree-1 parts')
        if not ring.mu(1, 1).compose(coring.delta(1, 1)).is_zero():
            raise StructureError('mu(1, 1) Delta(1, 1) is not zero')
        self.ring = ring
        self.coring = coring

    def __repr__(self):
        return (f'AlmostKoszulPair(ring top {self.ring.top_degree}, '
                f'coring top {self.coring.top_degree})')


def _pair_with_shriek(X, shriek) -> AlmostKoszulPair:
    _require_strongly_graded(X)
    partner = shriek(X)
    ring, coring = (X, partner) if isinstance(X, GradedRing) else (partner, X)
    return AlmostKoszulPair(ring, coring)


def make_pair_shriek_ring(A: GradedRing) -> AlmostKoszulPair:
    'The pair of A with its quadratic-dual coring.'
    return _pair_with_shriek(A, shriek_of_ring)


def make_pair_shriek_coring(C: GradedCoring) -> AlmostKoszulPair:
    'The pair of the quadratic-dual ring with C.'
    return _pair_with_shriek(C, shriek_of_coring)


def _koszul_terms(pair: AlmostKoszulPair, a: int, c: int):
    """The differential cell on A^a (x) C_c, on pairs of ids: x (x) z ->
    sum x z_{1,1} (x) z_{2,c-1}, the first letter z_{1,1} read in A^1 =
    C_1, whose ids the two numberings share.

    Degree 0 enters only through R (x) V = V = V (x) R, applied in place:
    in the a = 0 cell the product of the unit with z_1 is z_1, and the
    c = 1 cell cuts z into z (x) the unit where z ends.
    """
    ring, coring = pair.ring._numbering, pair.coring._numbering
    degree = coring.degree

    def terms(key, word):
        x, z = word
        halves = ([h for h in coring.table.get(z, ()) if degree[h[0][0]] == 1]
                  if c > 1
                  else [((z, coring.starting[(0, coring.end[z])][0]), 1)])
        for (z1, z2), cd in halves:
            for y, cm in (ring.table.get((x, z1), ()) if a else [(z1, 1)]):
                yield (y, z2), cd * cm

    return terms


def _koszul_slice(pair: AlmostKoszulPair, m: int, direction: str,
                  degrees) -> ComplexSlice:
    """The weight-m Koszul slice whose degree n space is A^a (x) C_c for
    (a, c) = degrees(n), with differentials running in direction.

    The degree -1 augmentation term is R in weight 0 and zero otherwise,
    and the augmentation is the identity of R (x) R = R; the degree-n basis
    is the pairs of ids of _pair_words, and spaces beyond either factor's
    support are checked to vanish.
    """
    A, C = pair.ring, pair.coring
    idempotents = A.base.idempotents
    words = {-1: {(s, s): {UNIT_LABEL: 0} for s in idempotents}
             if m == 0 else {}}
    for n in range(m + 1):
        a, c = degrees(n)
        words[n] = _pair_words(A._numbering, C._numbering, idempotents, a, c)
        if (a > A.top_degree or c > C.top_degree) and words[n]:
            raise InvariantError(f'slice cell ({m}, {n}) outside the support')
    return _assemble(A.base, direction, m, words,
                     lambda n: _koszul_terms(pair, *degrees(n)))


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
    must simply hold.  sound is False when a truncated shriek partner
    makes the sweep a bounded check rather than a complete decision.
    verdict is None when the partner was truncated and every weight up to
    the cut is exact: no finite window decides that.
    pair is the almost-Koszul pair the decision swept, kept for callers
    that go on with it; it is not part of the JSON.
    """

    def __init__(self, verdict: bool | None, per_criterion: dict,
                 m_bound_used: int, sound: bool, pair: AlmostKoszulPair):
        self.verdict = verdict
        self.per_criterion = dict(per_criterion)
        self.m_bound_used = m_bound_used
        self.sound = sound
        self.pair = pair

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


def _decide(X, make_pair, make_slice, make_table, quad_direct, kinds,
            extra_criterion) -> KoszulVerdict:
    'The decision of decide_koszul_ring or _coring, given the side hooks.'
    pair = make_pair(X)   # checks strong grading
    partner = pair.coring if X is pair.ring else pair.ring
    sound = not partner.support_truncated
    # the weight-m slice reads partner degrees up to m, so past the cut of
    # a truncated partner it reads a wrong partner and proves nothing
    m_bound = (max(2 * X.top_degree,
                   pair.ring.top_degree + pair.coring.top_degree)
               if sound else partner.top_degree)
    if sound:
        beyond = make_slice(pair, m_bound + 1)
        if beyond.total_dim() != 0:
            raise InvariantError('slice persists past the sweep bound')

    failures = {}
    for m in range(1, m_bound + 1):
        ok, dims = is_exact(make_slice(pair, m))
        if not ok:
            failures[m] = {n: d for n, d in dims.items() if d}
    verdict = not failures
    if verdict and partner.support_truncated:
        verdict = None   # a failing weight is certain, exactness to a cut is not
    pair_ev = {'failing_weights': {str(m): {str(n): d for n, d in nz.items()}
                                   for m, nz in failures.items()}}

    # the table and the comparisons share the exactness window: for
    # structures whose shriek partner outlives them (2L < vanish bound) the
    # smaller classical window would miss diagonal cells above weight 2L
    table = make_table(X, m_max=m_bound)
    offd = sorted([n, m, v] for (n, m), v in table.off_diagonal().items())
    diag = table.diagonal()
    mismatches = []
    for n in range(1, min(partner.top_degree, m_bound) + 1):
        want = partner.component(n).dim
        got = diag.get(n, 0)
        if want != got:
            mismatches.append([n, got, want])

    via_table = all(table.entry(2, m) == 0 for m in range(3, m_bound + 1))
    direct, direct_witness = quad_direct(X)

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
    return KoszulVerdict(verdict, per_criterion, m_bound, sound, pair)


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


def decide_koszul_ring(A: GradedRing) -> KoszulVerdict:
    """Decide Koszulity of A through the pair (A, A^!).

    The verdict is exactness of every left Koszul slice up to the sound
    weight bound, max(2 * top degree, the sum of the two top degrees),
    past which every slice vanishes; the window is always that bound, or
    the cut of a truncated partner.  Tor diagonality, primitives, the
    shriek comparison and the two quadraticity routes are computed
    alongside and must agree.
    """
    return _decide(A, make_pair_shriek_ring, koszul_complex_left, tor_table,
                   is_quadratic_direct, RING_CRITERION_KINDS,
                   _primitives_criterion)


def decide_koszul_coring(C: GradedCoring) -> KoszulVerdict:
    """Mirror decision for a coring through the pair (C^!, C), over the
    same window: the sound bound, or the cut of a truncated partner."""
    return _decide(C, make_pair_shriek_coring, koszul_complex_right,
                   ext_table, is_quadratic_coring_direct,
                   CORING_CRITERION_KINDS, _products_criterion)

