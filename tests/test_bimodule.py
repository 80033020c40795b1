"""Bimodules over k^S, tensor products, maps, and the dual machinery."""

from fractions import Fraction

import pytest

from koszulity.exact_linalg import RATIONALS, Subspace, DimensionError
from koszulity.bimodule import (BaseRing, Bimodule, BimoduleMap, SubBimodule,
                                UNIT_LABEL, tensor, tensor_many, tensor_power,
                                tensor_map, unit_bimodule, zero_bimodule,
                                kernel_sub, image_sub, left_dual, dual_label,
                                evaluate_dual, dual_tensor_iso, _block_of)


@pytest.fixture
def base():
    return BaseRing(('x', 'y', 'z'), RATIONALS)


@pytest.fixture
def V(base):
    return Bimodule(base, {('x', 'y'): ('u', 'v'), ('y', 'z'): ('w',)})


def test_base_ring_validation():
    with pytest.raises(ValueError):
        BaseRing((), RATIONALS)
    with pytest.raises(ValueError):
        BaseRing(('x', 'x'), RATIONALS)


def test_bimodule_validation(base):
    with pytest.raises(ValueError):
        Bimodule(base, {('x', 'q'): ('u',)})
    with pytest.raises(ValueError):
        Bimodule(base, {('x', 'y'): ('u', 'u')})
    # same label from the same start idempotent, different targets
    with pytest.raises(ValueError):
        Bimodule(base, {('x', 'y'): ('u',), ('x', 'z'): ('u',)})
    # empty blocks are dropped silently
    W = Bimodule(base, {('x', 'y'): ()})
    assert W.is_zero() and W.dim == 0


def test_bimodule_dims(V):
    assert V.dim == 3
    assert V.block_dim('x', 'y') == 2
    assert V.block_dim('z', 'x') == 0
    assert V.index_of(('x', 'y'), 'v') == 1


def test_unit_bimodule(base):
    R = unit_bimodule(base)
    assert R.dim == 3
    assert R.block('x', 'x') == (UNIT_LABEL,)
    assert zero_bimodule(base).dim == 0


def test_tensor_follows_composable_blocks(base, V):
    VV = tensor(V, V)
    # only (x,y)(y,z) composes
    assert set(VV.blocks) == {('x', 'z')}
    assert VV.block('x', 'z') == (('u', 'w'), ('v', 'w'))
    assert tensor(V, zero_bimodule(base)).is_zero()


def test_tensor_unit_both_sides(base, V):
    R = unit_bimodule(base)
    left = tensor(R, V)
    right = tensor(V, R)
    assert left.dim == V.dim == right.dim
    assert left.block('x', 'y') == ((UNIT_LABEL, 'u'), (UNIT_LABEL, 'v'))


def test_tensor_many_and_power(base, V):
    assert tensor_many([V]) is V
    assert tensor_many([V, V]) == tensor(V, V)
    with pytest.raises(ValueError):
        tensor_many([])
    P3 = tensor_power(V, 3)
    # u/v then w then nothing composable: x->y->z ends; dim 0
    assert P3.is_zero()
    assert tensor_power(V, 0) == unit_bimodule(base)
    assert tensor_power(V, 1) is V


def test_tensor_power_is_cached(base, V):
    W = Bimodule(base, {('x', 'x'): ('a',), ('x', 'y'): ('b',)})
    for n in range(4):
        assert tensor_power(W, n) is tensor_power(W, n)
    assert tensor_power(W, 2) == tensor_many([W, W])
    assert tensor_power(W, 3).block('x', 'y') == (
        ('a', 'a', 'b'),)
    assert tensor_power(V, 3) is tensor_power(V, 3)


def test_blocks_from_start(base, V):
    assert V.blocks_from('x') == ((('x', 'y'), ('u', 'v')),)
    assert V.blocks_from('z') == ()


def test_block_of_unknown_label(V):
    assert _block_of(V, 'v', 'x') == ('x', 'y')
    assert _block_of(V, 'w', 'y') == ('y', 'z')
    with pytest.raises(KeyError):
        _block_of(V, 'w', 'x')      # w lives in a block starting at y
    with pytest.raises(KeyError):
        _block_of(V, 'missing', 'y')
    with pytest.raises(KeyError):
        _block_of(V, 'u', 'z')      # no block starts at z


def test_map_validation_and_action(base, V):
    f = BimoduleMap.from_basis_action(
        V, V, lambda key, l: [(l, 2)])
    assert f.rank() == 3
    assert f.apply_label(('x', 'y'), 'u') == [('u', Fraction(2))]
    g = BimoduleMap.identity(V)
    assert f.compose(g) == f
    assert g.add(g).scale(Fraction(1, 2)) == g
    assert BimoduleMap.zero(V, V).is_zero()


def test_map_block_escape_rejected(base, V):
    # an action sending a block outside the target's block must fail
    with pytest.raises(KeyError):
        BimoduleMap.from_basis_action(
            V, V, lambda key, l: [('w', 1)] if l == 'u' else [(l, 1)])


def test_compose_shape_mismatch(base, V):
    W = Bimodule(base, {('x', 'y'): ('a',)})
    f = BimoduleMap.zero(V, V)
    g = BimoduleMap.zero(W, W)
    with pytest.raises(DimensionError):
        f.compose(g)


def test_apply_vector(base, V):
    f = BimoduleMap.from_basis_action(V, V, lambda key, l: [(l, 3)])
    out = f.apply_vector({(('x', 'y'), 'u'): Fraction(1),
                          (('y', 'z'), 'w'): Fraction(2)})
    assert out == {(('x', 'y'), 'u'): Fraction(3),
                   (('y', 'z'), 'w'): Fraction(6)}


def test_kernel_image_sub(base, V):
    # collapse u and v to u
    f = BimoduleMap.from_basis_action(
        V, V, lambda key, l: [('u', 1)] if l in ('u', 'v') else [(l, 1)])
    ker = kernel_sub(f)
    img = image_sub(f)
    assert ker.dim == 1
    assert img.dim == 2
    assert ker.contains_vector(('x', 'y'), {0: Fraction(1), 1: Fraction(-1)})


def test_tensor_map_acts_factorwise(base, V):
    f = BimoduleMap.from_basis_action(V, V, lambda key, l: [(l, 2)])
    ff = tensor_map(f, f)
    VV = tensor(V, V)
    assert ff.source == VV and ff.target == VV
    assert ff.apply_label(('x', 'z'), ('u', 'w')) == [(('u', 'w'), Fraction(4))]


# -- duals ------------------------------------------------------------------

def test_dual_label_involution():
    for l in (UNIT_LABEL, ('e', 'x', 'y'), ('f', 'p', 'q'), 'plain',
              (('e', 'x', 'y'), ('e', 'y', 'z'))):
        assert dual_label(dual_label(l)) == l
    assert dual_label(('e', 'x', 'y')) == ('f', 'x', 'y')
    assert dual_label(('f', 'x', 'y')) == ('e', 'x', 'y')
    assert dual_label(UNIT_LABEL) == UNIT_LABEL


def test_left_dual_blocks(base, V):
    D = left_dual(V)
    assert set(D.blocks) == set(V.blocks)
    assert D.dim == V.dim
    assert left_dual(D) == V


def test_evaluate_dual_normalization(base, V):
    # the dual basis vector of v eats v and returns the start idempotent
    dv = {(('x', 'y'), dual_label('v')): Fraction(1)}
    hit = evaluate_dual(V, dv, {(('x', 'y'), 'v'): Fraction(1)})
    assert hit == {'x': Fraction(1)}
    miss = evaluate_dual(V, dv, {(('x', 'y'), 'u'): Fraction(1)})
    assert not miss


def test_dual_tensor_iso_roundtrip(base, V):
    W = Bimodule(base, {('y', 'z'): ('s', 't')})
    phi, psi = dual_tensor_iso(V, W)
    assert phi.source == tensor(left_dual(V), left_dual(W))
    assert phi.target == left_dual(tensor(V, W))
    assert phi.compose(psi) == BimoduleMap.identity(phi.target)
    assert psi.compose(phi) == BimoduleMap.identity(phi.source)


def test_sub_bimodule(base, V):
    VV = tensor(V, V)
    sub = SubBimodule(VV, {('x', 'z'): Subspace.from_spanning(
        [{0: Fraction(1), 1: Fraction(1)}], 2)})
    assert sub.dim == 1
    assert sub.contains_vector(('x', 'z'), {0: Fraction(2), 1: Fraction(2)})
    assert not sub.contains_vector(('x', 'z'), {0: Fraction(1)})
