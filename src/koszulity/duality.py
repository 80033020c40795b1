"""Graded duals of rings and corings over a split semisimple base.

Over the commutative base k^S the functional dual of a block (s, t) sits in
the block (s, t) again, with the dual basis vector of v normalized to send
v to the idempotent at s.  Under that normalization the pairing is the
coordinate pairing, the dual of a structure map is its blockwise
transpose, and the canonical isomorphism ^*V (x) ^*W = ^*(V (x) W) is a
relabeling that keeps every label position.  So a dual numbers its basis
with the ids of its source and holds the source's table transposed, and
no isomorphism is built.  A dual carries the checks of the structure it
transposes, which passed them when it was built, so its
(co)associativity is not checked again.  The right duals
agree with the left ones coordinatewise (with right-module normalization
the dual vector of v sends v to the idempotent at the end of its block
instead of the start, and the k-valued structure constants are
unchanged), so only the left duals are built.

The construction itself, _graded_left_dual, lives in graded_structures,
where the shriek coring of a ring is built as the graded dual of a
quadratic ring; this module names its two sides and checks pairs and
double duals.
"""

from __future__ import annotations

from .graded_structures import GradedRing, GradedCoring, _graded_left_dual
from .koszul import AlmostKoszulPair


def graded_left_dual_of_ring(A: GradedRing) -> GradedCoring:
    'The coring on the duals ^*A^n, comultiplication dual to the product.'
    return _graded_left_dual(A, GradedCoring)


def graded_left_dual_of_coring(C: GradedCoring) -> GradedRing:
    'The ring on the duals ^*C_n under the convolution product.'
    return _graded_left_dual(C, GradedRing)


def dual_pair(pair: AlmostKoszulPair) -> AlmostKoszulPair:
    """The dual of an almost-Koszul pair: (dual of the coring, dual of the
    ring), with both pair conditions re-checked exactly.  The two degree-1
    parts are equal, since both are ^*V for the shared V = A^1 = C_1.
    """
    return AlmostKoszulPair(graded_left_dual_of_coring(pair.coring),
                            graded_left_dual_of_ring(pair.ring))


def double_dual_check(obj) -> bool:
    """Whether the dual of the dual equals the original exactly.

    The dual-label involution makes double-dual labels identical to the
    primal ones, so the comparison is a structure-constant equality, not
    an isomorphism search.
    """
    if isinstance(obj, GradedRing):
        return graded_left_dual_of_coring(graded_left_dual_of_ring(obj)) == obj
    if isinstance(obj, GradedCoring):
        return graded_left_dual_of_ring(graded_left_dual_of_coring(obj)) == obj
    raise TypeError('expected a GradedRing or GradedCoring')
