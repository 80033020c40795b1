"""Koszulity that depends on the characteristic of the field.

The incidence ring of a graded poset is Koszul over k exactly when its
intervals are Cohen-Macaulay over k (Polo 1995; Woodcock 1998), so torsion
in interval homology is the only way the verdict can change with the field.
The face poset of RP^2 has 2-torsion: it is Koszul over Q and F_3 but not
over F_2, where Tor_{3,4} = 1.  The octahedron is a 2-sphere, Cohen-Macaulay
over every field.  The Tor tables are frozen from tests/oracle.py (run it as
a script to print them).  Posets with at most 5 elements have no torsion in
their intervals, so their verdicts are the same over every field.
"""

import functools

import pytest

from koszulity.exact_linalg import RATIONALS, FieldSpec
from koszulity.homology import tor_table
from koszulity.koszul import decide_koszul_ring, decide_koszul_coring
from koszulity.poset import incidence_ring, incidence_coring, enumerate_corpus

FIELDS = {'Q': RATIONALS, 'F2': FieldSpec.prime_field(2),
          'F3': FieldSpec.prime_field(3)}

RP2_DIAGONAL = {(0, 0): 33, (1, 1): 76, (2, 2): 60, (3, 3): 16}
OCTAHEDRON_TOR = {(0, 0): 28, (1, 1): 62, (2, 2): 48, (3, 3): 14, (4, 4): 1}

# (poset, field) -> (nonzero Tor entries, Koszul, witness weights)
EXPECTED = {
    ('rp2', 'Q'): (RP2_DIAGONAL, True, []),
    ('rp2', 'F2'): ({**RP2_DIAGONAL, (3, 4): 1, (4, 4): 1}, False, [4]),
    ('rp2', 'F3'): (RP2_DIAGONAL, True, []),
    ('octahedron', 'Q'): (OCTAHEDRON_TOR, True, []),
    ('octahedron', 'F2'): (OCTAHEDRON_TOR, True, []),
    ('octahedron', 'F3'): (OCTAHEDRON_TOR, True, []),
}


@pytest.mark.parametrize('name,field', sorted(EXPECTED))
def test_verdict_and_tor_table_per_field(request, name, field):
    P = request.getfixturevalue(name)
    tor, koszul, witness = EXPECTED[(name, field)]
    A = incidence_ring(P, FIELDS[field])
    table = tor_table(A)
    assert {cell: d for cell, d in table.entries.items() if d} == tor
    ring = decide_koszul_ring(A)
    coring = decide_koszul_coring(incidence_coring(P, FIELDS[field]))
    assert ring.sound and coring.sound
    assert ring.verdict is coring.verdict is koszul
    failing = ring.per_criterion['pair_exactness'][1]['failing_weights']
    assert sorted(int(m) for m in failing) == witness


@functools.lru_cache(maxsize=None)
def _small_corpus():
    'Every graded poset with at most 5 elements, with its verdict over Q.'
    corpus = [(P, decide_koszul_ring(incidence_ring(P)).verdict)
              for P in enumerate_corpus(5)]
    assert len(corpus) == 86
    return corpus


@pytest.mark.parametrize('field', ['F2', 'F3'])
def test_criteria_agree_over_prime_fields_on_small_corpus(field):
    bad = []
    for P, rational in _small_corpus():
        ring = decide_koszul_ring(incidence_ring(P, FIELDS[field]))
        coring = decide_koszul_coring(incidence_coring(P, FIELDS[field]))
        if not (ring.sound and coring.sound):
            bad.append((P.covers, 'unsound'))
        elif not (ring.verdict is coring.verdict is rational):
            bad.append((P.covers, ring.verdict, coring.verdict, rational))
    assert not bad, bad[:3]
