"""Graded duals of rings and corings over a split semisimple base.

Over the commutative base k^S the functional dual of a block (s, t) sits in
the block (s, t) again, with the dual basis vector of v normalized to send
v to the idempotent at s.  Under that normalization the pairing is the
coordinate pairing, the dual of a structure map is its blockwise
transpose, and the canonical isomorphism ^*V (x) ^*W = ^*(V (x) W) is a
relabeling.  The right duals agree with the left ones coordinatewise (with
right-module normalization the dual vector of v sends v to the idempotent
at the end of its block instead of the start, and the k-valued structure
constants are unchanged), so only the left duals are built.
"""

from __future__ import annotations

from .bimodule import (Bimodule, BimoduleMap, left_dual, dual_tensor_iso,
                       tensor)
from .graded_structures import GradedRing, GradedCoring
from .koszul import AlmostKoszulPair
from .errors import InvariantError


def dual_map(f: BimoduleMap) -> BimoduleMap:
    'The dual ^*f : ^*target -> ^*source; blockwise transpose, same keys.'
    return BimoduleMap(left_dual(f.target), left_dual(f.source),
                       {key: mat.transpose() for key, mat in f.blocks.items()})


def _graded_left_dual(X, structure_map, out_cls):
    """The structure of class out_cls on the duals ^*X_n whose (p, q)
    structure map is dual to structure_map(p, q) of X.

    The dual of a product is psi composed with its transpose, the dual of
    a comultiplication its transpose composed with phi; the coherence of
    that factorization is checked blockwise.
    """
    components = {n: left_dual(X.component(n))
                  for n in range(X.top_degree + 1)}
    maps = {}
    for p in range(1, X.top_degree):
        for q in range(1, X.top_degree - p + 1):
            if components[p].is_zero() or components[q].is_zero():
                continue
            transposed = dual_map(structure_map(p, q))
            phi, psi = dual_tensor_iso(X.component(p), X.component(q))
            if out_cls is GradedCoring:
                f = psi.compose(transposed)
                coherent = phi.compose(f) == transposed
            else:
                f = transposed.compose(phi)
                coherent = f.compose(psi) == transposed
            if not coherent:
                raise InvariantError(
                    f'dual structure map ({p},{q}) is incoherent')
            if not f.is_zero():
                maps[(p, q)] = f
    D = out_cls(X.base, components, maps, X.top_degree)
    D.support_truncated = X.support_truncated
    return D


def graded_left_dual_of_ring(A: GradedRing) -> GradedCoring:
    'The coring on the duals ^*A^n, comultiplication dual to the product.'
    return _graded_left_dual(A, A.mu, GradedCoring)


def graded_left_dual_of_coring(C: GradedCoring) -> GradedRing:
    'The ring on the duals ^*C_n under the convolution product.'
    return _graded_left_dual(C, C.delta, GradedRing)


def dual_pair(pair: AlmostKoszulPair) -> AlmostKoszulPair:
    """The dual of an almost-Koszul pair: (dual of the coring, dual of the
    ring, transposed theta), with compatibility re-asserted exactly.
    """
    ring = graded_left_dual_of_coring(pair.coring)
    coring = graded_left_dual_of_ring(pair.ring)
    return AlmostKoszulPair(ring, coring, dual_map(pair.theta))


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
