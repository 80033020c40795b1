"""Bimodules over k^S, tensor products, maps, and the dual machinery."""

from fractions import Fraction

import pytest

from koszulity.exact_linalg import FieldSpec, RATIONALS, DimensionError
from koszulity.homology import bar_complex_ring
from koszulity.poset import incidence_ring
from koszulity.bimodule import (BaseRing, Bimodule, UNIT_LABEL, tensor,
                                unit_bimodule, zero_bimodule, left_dual,
                                dual_label)
from conftest import (SubBimodule, apply_label, from_basis_action,
                      from_spanning, identity_map, image_sub, kernel_sub,
                      map_rank, sub_dim, tensor_many, tensor_map,
                      tensor_power, zero_map)


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
    with pytest.raises(ValueError, match='unknown idempotents'):
        Bimodule(base, {('x', 'y'): ('u',), ('x', 'q'): ('v',)})
    with pytest.raises(ValueError, match='duplicate basis labels'):
        Bimodule(base, {('x', 'y'): ('u', 'v', 'u')})
    # same label from the same start idempotent, different targets
    with pytest.raises(ValueError, match="label 'u' reused across blocks"):
        Bimodule(base, {('x', 'y'): ('u', 'v'), ('x', 'z'): ('w', 'u')})
    # the first block in input order that is not valid names the error
    with pytest.raises(ValueError, match='duplicate basis labels'):
        Bimodule(base, {('y', 'z'): ('u', 'u'), ('x', 'q'): ('v',)})
    # a label may recur from another start, and empty blocks are dropped
    # silently, whatever their idempotents
    assert Bimodule(base, {('x', 'y'): ('u',), ('y', 'y'): ('u',)}).dim == 2
    W = Bimodule(base, {('x', 'y'): (), ('q', 'q'): ()})
    assert W.is_zero() and W.dim == 0


def test_bimodule_dims(V):
    assert V.dim == 3 == sum(len(labels) for labels in V.blocks.values())
    assert V.block_dim('x', 'y') == 2
    assert V.block_dim('z', 'x') == 0
    assert V.index_of(('x', 'y'), 'v') == 1
    # blocks are kept in the order of the reprs of their idempotents
    U = Bimodule(V.base, {('y', 'z'): ('a',), ('x', 'z'): ('b', 'c'),
                          ('x', 'y'): ('d',)})
    assert list(U.blocks) == [('x', 'y'), ('x', 'z'), ('y', 'z')]
    assert U.dim == 4 == sum(map(len, U.blocks.values()))


def test_unit_bimodule(base):
    R = unit_bimodule(base)
    assert R.dim == 3
    assert R.blocks[('x', 'x')] == (UNIT_LABEL,)
    assert zero_bimodule(base).dim == 0


def test_tensor_follows_composable_blocks(base, V):
    VV = tensor(V, V)
    # only (x,y)(y,z) composes
    assert set(VV.blocks) == {('x', 'z')}
    assert VV.blocks[('x', 'z')] == (('u', 'w'), ('v', 'w'))
    assert tensor(V, zero_bimodule(base)).is_zero()


def test_tensor_is_built_once_per_pair_of_factors(base, V):
    W = Bimodule(base, {('y', 'y'): ('a',), ('y', 'z'): ('b', 'c'),
                        ('z', 'x'): ('d',)})
    VW = tensor(V, W)
    assert tensor(V, W) is VW and tensor(V, V) is tensor(V, V)
    # the same product built label by label
    blocks = {}
    for (s, t), vlabels in V.blocks.items():
        for (t2, u), wlabels in W.blocks.items():
            if t2 == t:
                blocks.setdefault((s, u), []).extend(
                    (vl, wl) for vl in vlabels for wl in wlabels)
    assert VW == Bimodule(base, blocks)
    assert VW.blocks[('x', 'z')] == (('u', 'b'), ('u', 'c'), ('v', 'b'),
                                  ('v', 'c'))
    # an equal but distinct right factor gets a product of its own, equal
    W2 = Bimodule(base, dict(W.blocks))
    assert tensor(V, W2) is not VW and tensor(V, W2) == VW


def test_empty_tensor_product_is_the_zero_bimodule(base, V):
    U = Bimodule(base, {('x', 'x'): ('a',)})
    assert tensor(V, U) is base.zero      # no block of V ends at x
    assert tensor(U, V) == Bimodule(base, {('x', 'y'): [('a', 'u'),
                                                         ('a', 'v')]})
    assert tensor(V, zero_bimodule(base)) is base.zero
    assert tensor(zero_bimodule(base), V) is base.zero
    other = BaseRing(('x', 'y', 'z'), FieldSpec.prime_field(2))
    with pytest.raises(ValueError, match='different bases'):
        tensor(V, other.zero)


def test_tensor_unit_both_sides(base, V):
    R = unit_bimodule(base)
    left = tensor(R, V)
    right = tensor(V, R)
    assert left.dim == V.dim == right.dim
    assert left.blocks[('x', 'y')] == ((UNIT_LABEL, 'u'), (UNIT_LABEL, 'v'))


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
    assert tensor_power(W, 3).blocks[('x', 'y')] == (
        ('a', 'a', 'b'),)
    assert tensor_power(V, 3) is tensor_power(V, 3)


def test_blocks_from_start(base, V):
    assert V.blocks_from('x') == ((('x', 'y'), ('u', 'v')),)
    assert V.blocks_from('z') == ()


def test_map_validation_and_action(base, V):
    f = from_basis_action(
        V, V, lambda key, l: [(l, 2)])
    assert map_rank(f) == 3
    assert apply_label(f, ('x', 'y'), 'u') == [('u', Fraction(2))]
    g = identity_map(V)
    assert f.compose(g) == f
    assert zero_map(V, V).is_zero()


def test_prime_field_maps_store_residues(rp2):
    # maps built from a basis action over F_p store residues mod p, so
    # is_zero and == are statements over the field
    F2 = FieldSpec.prime_field(2)
    U = Bimodule(BaseRing(('x', 'y'), F2), {('x', 'y'): ('u',)})
    assert from_basis_action(U, U, lambda key, l: [(l, 2)]).is_zero()
    assert (from_basis_action(U, U, lambda key, l: [(l, -1)])
            == identity_map(U))
    A = incidence_ring(rp2, F2)
    stored = {v for m in range(2, A.top_degree + 1)
              for d in bar_complex_ring(A, m).differentials.values()
              for block in d.blocks.values() for v in block.entries.values()}
    assert stored == {1}


def test_map_block_escape_rejected(base, V):
    # an action sending a block outside the target's block must fail
    with pytest.raises(KeyError):
        from_basis_action(
            V, V, lambda key, l: [('w', 1)] if l == 'u' else [(l, 1)])
    # a block the target lacks holds no label at all
    U = Bimodule(base, {('x', 'y'): ('u', 'v')})
    with pytest.raises(KeyError):
        from_basis_action(V, U, lambda key, l: [(l, 1)])


def test_compose_shape_mismatch(base, V):
    W = Bimodule(base, {('x', 'y'): ('a',)})
    f = zero_map(V, V)
    g = zero_map(W, W)
    with pytest.raises(DimensionError):
        f.compose(g)


def test_kernel_image_sub(base, V):
    # collapse u and v to u
    f = from_basis_action(
        V, V, lambda key, l: [('u', 1)] if l in ('u', 'v') else [(l, 1)])
    ker = kernel_sub(f)
    img = image_sub(f)
    assert sub_dim(ker) == 1
    assert sub_dim(img) == 2
    assert ker.part(('x', 'y')).contains_vector(
        {0: Fraction(1), 1: Fraction(-1)})


def test_tensor_map_acts_factorwise(base, V):
    f = from_basis_action(V, V, lambda key, l: [(l, 2)])
    ff = tensor_map(f, f)
    VV = tensor(V, V)
    assert ff.source == VV and ff.target == VV
    assert apply_label(ff, ('x', 'z'), ('u', 'w')) == [(('u', 'w'), Fraction(4))]


# -- duals ------------------------------------------------------------------

def test_dual_label_involution():
    labels = (UNIT_LABEL, ('e', 'x', 'y'), ('f', 'p', 'q'), 'plain',
              (('e', 'x', 'y'), ('e', 'y', 'z')), ('*', 'plain'),
              ('*', ('e', 'x', 'y')), ('*', UNIT_LABEL), ('*', ('*', 'a')),
              ('*', ('*', ('e', 'x', 'y'))), ('*', ('*', UNIT_LABEL)),
              ('w', 2, 'x', 'y', 0))
    for l in labels:
        assert dual_label(dual_label(l)) == l
    assert len({dual_label(l) for l in labels}) == len(labels)
    assert dual_label(('e', 'x', 'y')) == ('f', 'x', 'y')
    assert dual_label(('f', 'x', 'y')) == ('e', 'x', 'y')
    assert dual_label(UNIT_LABEL) == UNIT_LABEL


def test_left_dual_blocks(base, V):
    D = left_dual(V)
    assert set(D.blocks) == set(V.blocks)
    assert D.dim == V.dim
    assert left_dual(D) == V


def test_sub_bimodule(base, V):
    VV = tensor(V, V)
    sub = SubBimodule(VV, {('x', 'z'): from_spanning(
        [{0: Fraction(1), 1: Fraction(1)}], 2)})
    assert sub_dim(sub) == 1
    part = sub.part(('x', 'z'))
    assert part.contains_vector({0: Fraction(2), 1: Fraction(2)})
    assert not part.contains_vector({0: Fraction(1)})
