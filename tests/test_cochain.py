"""Cell enumeration: tensor/wedge ranking, block layouts, flat indexing, and
the table codec."""

from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poiscoh.algebra import StructuralError
from poiscoh.cochain import (
    CochainSpace,
    THEORIES,
    decode,
    encode,
    space_layout,
    tensor_rank,
    wedge_normalize,
    wedge_rank,
)

import oracles


# ---------------------------------------------------------------------------
# ranking bijections


def test_tensor_rank_roundtrip():
    """Every word's rank is its position among all words of its length, so
    the rank is a bijection onto range(dim ** length)."""
    for dim in range(1, 7):
        for length in range(5):
            words = product(range(dim), repeat=length)
            assert [tensor_rank(w, dim) for w in words] == list(range(dim ** length))


def test_tensor_rank_is_big_endian():
    # first slot varies slowest
    assert tensor_rank((0, 0), 3) == 0
    assert tensor_rank((0, 1), 3) == 1
    assert tensor_rank((1, 0), 3) == 3
    assert tensor_rank((2, 2), 3) == 8


@given(st.integers(1, 8), st.integers(0, 5))
def test_wedge_rank_matches_combinations_order(dim, length):
    if length > dim:
        return
    for pos, combo in enumerate(combinations(range(dim), length)):
        assert wedge_rank(combo, dim) == pos


def test_wedge_normalize_sign_matches_permutation_parity():
    combo = (0, 2, 5)
    for perm in permutations(combo):
        sign, ordered = wedge_normalize(perm)
        assert ordered == combo
        # the sign of the sorting permutation
        assert sign == oracles.permutation_sign(perm)


def test_wedge_normalize_kills_repeats():
    sign, ordered = wedge_normalize((1, 3, 1))
    assert sign == 0 and ordered is None
    assert wedge_normalize(()) == (1, ())


# ---------------------------------------------------------------------------
# block layouts


def test_poisson_layout_skips_width_one():
    assert space_layout("poisson", 0, 3) == ((0, 0),)
    assert space_layout("poisson", 1, 3) == ((0, 1),)
    assert space_layout("poisson", 2, 3) == ((0, 2), (2, 0))
    assert space_layout("poisson", 3, 3) == ((0, 3), (2, 1), (3, 0))


def test_quasi_layout_keeps_every_split():
    assert space_layout("quasi", 2, 3) == ((0, 2), (1, 1), (2, 0))


def test_omega_layout_shifts_by_two():
    assert space_layout("omega", 0, 3) == ((2, 0),)
    assert space_layout("omega", 1, 3) == ((2, 1), (3, 0))


def test_single_row_layouts():
    assert space_layout("hochschild", 3, 2) == ((3, 0),)
    assert space_layout("ce", 3, 5) == ((0, 3),)


def test_layout_keeps_zero_width_blocks():
    # wedge width beyond dim contributes a zero-size block but stays listed
    layout = space_layout("poisson", 3, 2)
    assert (0, 3) in layout
    space = CochainSpace.build("poisson", 3, 2, 2)
    assert space.block_size(0, 3) == 0


def test_unknown_theory_rejected():
    with pytest.raises(StructuralError):
        space_layout("nope", 1, 2)
    with pytest.raises(StructuralError):
        space_layout("poisson", -1, 2)


@pytest.mark.parametrize("theory", THEORIES)
@pytest.mark.parametrize("degree", range(4))
def test_space_dim_is_sum_of_block_sizes(theory, degree):
    d, m = 3, 2
    space = CochainSpace.build(theory, degree, d, m)
    total = 0
    for i, j in space.blocks:
        size = m * d**i * comb(d, j)
        assert space.block_size(i, j) == size
        total += size
    assert space.dim == total


# ---------------------------------------------------------------------------
# flat indexing


@pytest.mark.parametrize("theory,degree", [
    ("poisson", 3), ("quasi", 2), ("omega", 1), ("hochschild", 2), ("ce", 2),
])
def test_index_unindex_roundtrip(theory, degree):
    """Blocks, then cells, then components, in order, are the flat positions
    in order: index hits every position once."""
    space = CochainSpace.build(theory, degree, 3, 2)
    flat = [space.index(i, j, tens, wedge, comp)
            for i, j in space.blocks
            for tens, wedge in space.cells(i, j)
            for comp in range(space.mod_dim)]
    assert flat == list(range(space.dim))


def test_index_rejects_out_of_block_cells():
    space = CochainSpace.build("poisson", 2, 3, 2)
    with pytest.raises(StructuralError):
        space.index(1, 1, (0,), (0,), 0)


# ---------------------------------------------------------------------------
# the table codec


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(THEORIES), st.integers(0, 3), st.integers(1, 3),
       st.integers(1, 2), st.randoms(use_true_random=False))
def test_decode_encode_roundtrip(theory, degree, d, m, rng):
    space = CochainSpace.build(theory, degree, d, m)
    coeffs = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                   for _ in range(space.dim))
    tables = decode(space, coeffs)
    assert sorted(tables) == sorted(space.blocks)
    for i, j in space.blocks:
        for tens, wedge in space.cells(i, j):
            pos = space.index(i, j, tens, wedge, 0)
            entry = tables[i, j]
            for a in tens + wedge:
                entry = entry[a]
            assert entry == coeffs[pos:pos + m]
    assert encode(space, tables) == coeffs
    assert decode(space, encode(space, tables)) == tables
    assert encode(space, {}) == (0,) * space.dim


def test_decode_signs_unsorted_wedges_and_kills_repeats():
    space = CochainSpace.build("poisson", 3, 3, 1)
    coeffs = [0] * space.dim
    coeffs[space.index(0, 3, (), (0, 1, 2), 0)] = 5
    coeffs[space.index(2, 1, (2, 0), (1,), 0)] = 7
    tables = decode(space, coeffs)
    f3 = tables[0, 3]
    for perm in permutations((0, 1, 2)):
        assert f3[perm[0]][perm[1]][perm[2]] == (5 * oracles.permutation_sign(perm),)
    assert f3[1][1][0] == f3[2][0][2] == (0,)
    assert tables[2, 1][2][0][1] == (7,) and tables[2, 1][0][2][1] == (0,)


def test_encode_rejects_tables_that_are_not_alternating():
    space = CochainSpace.build("ce", 2, 2, 1)
    with pytest.raises(StructuralError):
        encode(space, {(0, 2): (((0,), (1,)), ((1,), (0,)))})  # symmetric
    with pytest.raises(StructuralError):
        encode(space, {(0, 2): (((1,), (0,)), ((0,), (0,)))})  # repeated argument
    with pytest.raises(StructuralError):
        encode(space, {(1, 1): (((0,), (0,)), ((0,), (0,)))})  # not a ce block
    assert encode(space, {(0, 2): (((0,), (1,)), ((-1,), (0,)))}) == (1,)


def test_decode_checks_the_length():
    space = CochainSpace.build("ce", 1, 2, 1)
    with pytest.raises(StructuralError):
        decode(space, (1,) * (space.dim + 1))
    with pytest.raises(StructuralError):
        decode(space, (1,) * (space.dim - 1))
