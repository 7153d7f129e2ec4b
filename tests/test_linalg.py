"""Exact sparse elimination against a dense Fraction oracle."""

import operator
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import poiscoh
from poiscoh import linalg
from poiscoh.algebra import builtin, regular_module
from poiscoh.complexes import delta_H, delta_V, delta_v, differential
from poiscoh.linalg import (
    Echelon,
    RowReducer,
    SparseMatrix,
    _eliminate,
    _integer_rows,
    _normalize_exact_vec,
    kernel_basis,
    rank,
    solve,
    verify_kernel,
)

import oracles


scalars = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
)


@st.composite
def sparse_matrices(draw, max_rows=7, max_cols=7):
    nrows = draw(st.integers(0, max_rows))
    ncols = draw(st.integers(0, max_cols))
    entries = []
    if nrows and ncols:
        count = draw(st.integers(0, nrows * ncols))
        for _ in range(count):
            r = draw(st.integers(0, nrows - 1))
            c = draw(st.integers(0, ncols - 1))
            entries.append(((r, c), draw(scalars)))
    return SparseMatrix(nrows, ncols, entries)


# ---------------------------------------------------------------------------
# container behaviour


def test_entries_getitem_and_nnz():
    mat = SparseMatrix(2, 3, {(0, 1): Fraction(1, 2), (1, 2): -3, (1, 0): 0})
    assert mat.nnz == 2  # an explicit zero is not stored
    assert mat[0, 1] == Fraction(1, 2)
    assert mat[1, 0] == 0
    assert mat[1, 2] == -3


def test_repeated_entries_accumulate_and_cancel():
    mat = SparseMatrix(1, 1, [((0, 0), Fraction(2, 3)), ((0, 0), Fraction(-2, 3))])
    assert mat.is_zero and mat.denominator == 1
    mat = SparseMatrix(1, 2, [((0, 1), 2), ((0, 0), 1), ((0, 1), Fraction(1, 2))])
    assert mat.to_dense() == [[1, Fraction(5, 2)]]


def test_from_dense_roundtrip():
    rows = [[0, Fraction(1, 3)], [2, 0]]
    mat = SparseMatrix.from_dense(rows)
    assert mat.to_dense() == [[0, Fraction(1, 3)], [2, 0]]


def test_index_bounds_checked():
    with pytest.raises(IndexError):
        SparseMatrix(2, 2, [((2, 0), 1)])
    with pytest.raises(IndexError):
        SparseMatrix(2, 2, {(0, -1): 1})
    with pytest.raises(IndexError):
        SparseMatrix(2, 2)[0, -3]


def test_float_entries_rejected():
    for bad in (0.5, True):
        with pytest.raises(TypeError):
            SparseMatrix(1, 1, [((0, 0), bad)])


def test_cached_blocks_reject_item_assignment():
    """The elementary blocks are cached and shared by every differential
    built from them, so a matrix cannot be written once it is built."""
    alg = builtin("ut2")
    mod = regular_module(alg)
    before = differential(alg, mod, "poisson", 1).dump_text()
    block = delta_H(alg, mod, 0, 1)
    with pytest.raises(TypeError):
        block[0, 0] = block[0, 0] + 7
    assert differential(alg, mod, "poisson", 1).dump_text() == before


def test_cached_blocks_hand_out_no_live_rows_and_no_writable_shape():
    """No accessor of a cached (i, 0) block or corner map returns its live
    rows or lets its shape be written: editing what ``entries`` and
    ``numerator_rows()`` return leaves every later differential as it was,
    while the same edit on the stored rows would show."""
    alg = builtin("ut2")
    mod = regular_module(alg)

    def cached():
        return [delta_H(alg, mod, 0, 0), delta_V(alg, mod, 2, 0), delta_H(alg, mod, 2, 0),
                delta_v(alg, mod, 1)]

    blocks = cached()
    before = [differential(alg, mod, "poisson", n).dump_text() for n in range(3)]
    assert all(map(operator.is_, cached(), blocks))
    for block in blocks:
        assert not block.is_zero
        with pytest.raises(AttributeError):
            block.numerators
        for name in ("nrows", "ncols"):
            with pytest.raises(AttributeError):
                setattr(block, name, 1)
        entries = block.entries
        for key in entries:
            entries[key] += 7
        rows = block.numerator_rows()
        for row in rows.values():
            for c in row:
                row[c] += 7
        rows.clear()
    assert [differential(alg, mod, "poisson", n).dump_text() for n in range(3)] == before
    try:
        for block in blocks:
            for row in block._rows.values():
                for c in row:
                    row[c] += 7
        assert [differential(alg, mod, "poisson", n).dump_text() for n in range(3)] != before
    finally:
        for cache in (delta_H, delta_V, delta_v):
            cache.cache_clear()


def test_matvec_matches_dense():
    mat = SparseMatrix.from_dense([[1, 2], [Fraction(1, 2), -1], [0, 3]])
    assert mat.matvec((2, Fraction(1, 3))) == (
        Fraction(8, 3), Fraction(2, 3), 1)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_matmul_matches_dense(data):
    n, k, m = (data.draw(st.integers(1, 5)) for _ in range(3))
    a = data.draw(sparse_matrices(max_rows=n, max_cols=k))
    a = SparseMatrix(n, k, dict(a.entries))
    b = data.draw(sparse_matrices(max_rows=k, max_cols=m))
    b = SparseMatrix(k, m, dict(b.entries))
    prod = a.matmul(b)
    ad, bd = a.to_dense(), b.to_dense()
    for r in range(n):
        for c in range(m):
            expect = sum((Fraction(ad[r][j]) * Fraction(bd[j][c])
                          for j in range(k)), Fraction(0))
            assert prod[r, c] == expect


def test_matmul_stores_nothing_when_every_sum_cancels():
    """Like d o d: every column of b lies in the kernel of a, so every entry
    of the product has nonzero partial sums and a zero total."""
    a = SparseMatrix.from_dense([[1, 2, 1], [Fraction(1, 2), 0, Fraction(-1, 2)]])
    b = SparseMatrix.from_dense([[2, Fraction(-1, 3)], [-2, Fraction(1, 3)],
                                 [2, Fraction(-1, 3)]])
    prod = a.matmul(b)
    assert (prod.nrows, prod.ncols) == (2, 2)
    assert prod.entries == {} and prod.is_zero


def test_matmul_rows_start_from_the_first_row_they_reach():
    """Each row's sums start as the first row of b it reaches, scaled: a
    row whose sums all cancel is followed by one that reaches the same rows
    of b, one row reaches only an empty row of b, and one cancels in one
    column only.  The product is stored in canonical form."""
    b = SparseMatrix.from_dense([[2, -1, 0], [4, -2, 0], [0, 0, 0], [0, 5, 3]])
    a = SparseMatrix.from_dense([
        [Fraction(3, 2), 0, 0, 2],  # 3/2 b0 + 2 b3
        [2, -1, 0, 0],  # 2 b0 - b1 = 0
        [5, 3, 0, 0],  # the same rows of b again
        [0, 0, 7, 0],  # only the empty row of b
        [-2, 1, 0, -1],  # column 0 cancels
    ])
    prod = a.matmul(b)
    assert prod == SparseMatrix.from_dense(
        [[3, Fraction(17, 2), 6], [0, 0, 0], [22, -11, 0], [0, 0, 0], [0, -5, -3]])
    assert sorted(prod.numerator_rows()) == [0, 2, 4]


def test_dump_text_format():
    mat = SparseMatrix.from_dense([[Fraction(1, 2), 0], [0, -2]])
    lines = mat.dump_text().splitlines()
    assert lines[0] == "2 2 2"
    assert lines[1:] == ["0 0 1/2", "1 1 -2"]


# ---------------------------------------------------------------------------
# integer numerators over one denominator, against a plain dict reference


@st.composite
def add_sequences(draw, nrows, ncols):
    """Random ``(row, col, value)`` entries, positions repeating, mixing
    ints and Fractions."""
    return draw(st.lists(st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1),
                                   scalars), max_size=20))


def built(nrows, ncols, ops):
    ref = {}
    for r, c, v in ops:
        oracles.dict_add(ref, r, c, v)
    return SparseMatrix(nrows, ncols, [((r, c), v) for r, c, v in ops]), ref


def flat_numerators(mat):
    return {(r, c): v for r, row in mat.numerator_rows().items() for c, v in row.items()}


def assert_canonical(mat, ref):
    """The denominator is the smallest that makes every entry an integer,
    and the numerators are the entries times it."""
    den = 1
    for v in ref.values():
        den = lcm(den, Fraction(v).denominator)
    assert mat.denominator == den
    assert flat_numerators(mat) == {key: int(v * den) for key, v in ref.items()}
    assert all(type(v) is int and v for v in flat_numerators(mat).values())
    assert all(mat.numerator_rows().values())  # no empty rows


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_storage_matches_dict_reference(data):
    n, k, m = (data.draw(st.integers(1, 4)) for _ in range(3))
    a, ref_a = built(n, k, data.draw(add_sequences(n, k)))
    b, ref_b = built(k, m, data.draw(add_sequences(k, m)))
    for mat, ref, shape in ((a, ref_a, (n, k)), (b, ref_b, (k, m))):
        assert mat.entries == ref
        assert_canonical(mat, ref)
        assert mat.dump_text() == oracles.dict_dump_text(ref, *shape)
        assert mat == SparseMatrix(*shape, ref)
        scaled = mat.scaled_integer_copy()
        assert scaled.denominator == 1
        assert scaled.entries == {key: v * mat.denominator for key, v in ref.items()}
    prod = a.matmul(b)
    ref_prod = oracles.dict_matmul(ref_a, ref_b)
    assert prod.entries == ref_prod
    assert_canonical(prod, ref_prod)
    assert prod == SparseMatrix(n, m, ref_prod)
    assert prod.dump_text() == oracles.dict_dump_text(ref_prod, n, m)
    vec = [data.draw(scalars) for _ in range(k)]
    assert a.matvec(vec) == oracles.dict_matvec(ref_a, vec, n)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_storage_is_canonical_in_any_insertion_order(data):
    n, k = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    mat, ref = built(n, k, data.draw(add_sequences(n, k)))
    items = data.draw(st.permutations(sorted(ref.items())))
    again = SparseMatrix(n, k, items)
    assert again == mat and again.denominator == mat.denominator
    assert again.dump_text() == mat.dump_text()
    # cancelling every fractional entry leaves an integer matrix
    cancelled = SparseMatrix(n, k, items + [(key, -v) for key, v in items
                                            if Fraction(v).denominator > 1])
    assert cancelled.denominator == 1
    assert cancelled.entries == {key: v for key, v in ref.items()
                                 if Fraction(v).denominator == 1}


def test_cancelling_the_only_half_restores_denominator_one():
    entries = [((0, 0), 3), ((1, 2), Fraction(1, 2))]
    mat = SparseMatrix(2, 3, entries)
    assert (mat.denominator, mat.numerator_rows()) == (2, {0: {0: 6}, 1: {2: 1}})
    mat = SparseMatrix(2, 3, entries + [((1, 2), Fraction(-1, 2))])
    assert (mat.denominator, mat.numerator_rows()) == (1, {0: {0: 3}})
    assert mat == SparseMatrix.from_dense([[3, 0, 0], [0, 0, 0]])
    # thirds that add up to an integer also leave denominator one
    mat = SparseMatrix(2, 3, [((1, 1), Fraction(2, 3)), ((1, 1), Fraction(13, 3))])
    assert (mat.denominator, mat[1, 1]) == (1, 5)


# ---------------------------------------------------------------------------
# rank / kernel / solve vs oracle


@settings(max_examples=80, deadline=None)
@given(sparse_matrices())
def test_rank_matches_dense_oracle(mat):
    assert rank(mat) == oracles.dense_rank(mat.to_dense())


@settings(max_examples=80, deadline=None)
@given(sparse_matrices())
def test_kernel_matches_dense_oracle(mat):
    basis = kernel_basis(mat)
    expected = oracles.dense_kernel(mat.to_dense(), mat.ncols)
    assert len(basis) == len(expected)
    for vec in basis:
        assert not any(mat.matvec(vec))
        assert oracles.in_span(expected, vec) or not expected
    # kernel vectors are linearly independent
    assert oracles.dense_rank([list(v) for v in basis]) == len(basis)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_solve_finds_exact_preimages(data):
    mat = data.draw(sparse_matrices())
    x = [data.draw(scalars) for _ in range(mat.ncols)]
    rhs = mat.matvec(x)
    sol = solve(mat, rhs)
    assert sol is not None
    assert mat.matvec(sol) == tuple(rhs)


def test_solve_with_no_columns():
    mat = SparseMatrix(2, 0)
    assert solve(mat, (0, 0)) == ()
    assert solve(mat, (1, 0)) is None


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_solve_detects_inconsistency(data):
    mat = data.draw(sparse_matrices(max_rows=6, max_cols=4))
    rhs = [data.draw(scalars) for _ in range(mat.nrows)]
    sol = solve(mat, rhs)
    dense = mat.to_dense()
    augmented = [row + [r] for row, r in zip(dense, rhs)]
    solvable = oracles.dense_rank(dense) == oracles.dense_rank(augmented)
    assert (sol is not None) == solvable
    if sol is not None:
        assert mat.matvec(sol) == tuple(rhs)


def test_scaled_integer_copy_preserves_rank():
    mat = SparseMatrix.from_dense([
        [Fraction(1, 2), Fraction(1, 3)],
        [Fraction(1, 4), Fraction(1, 6)],
        [Fraction(3, 2), 2],
    ])
    scaled = mat.scaled_integer_copy()
    for _, _, v in scaled.triples():
        assert isinstance(v, int)
    assert rank(scaled) == rank(mat) == 2


def test_echelon_pivots_and_free_cols_partition():
    mat = SparseMatrix.from_dense([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    ech = Echelon(mat)
    assert ech.rank == 2
    assert sorted(ech.pivot_cols + ech.free_cols) == [0, 1, 2]
    # a kernel vector is asked for one free column at a time, and only for one
    assert ech.kernel_basis() == [ech.kernel_vector(c) for c in ech.free_cols]
    for col in ech.pivot_cols + (-1, 3):
        with pytest.raises(ValueError, match="not a free column"):
            ech.kernel_vector(col)


def test_kernel_of_zero_matrix_is_identity_basis():
    mat = SparseMatrix(3, 4)
    basis = kernel_basis(mat)
    assert len(basis) == 4
    assert oracles.dense_rank([list(v) for v in basis]) == 4


def test_verify_kernel_takes_fractional_dense_and_sparse_vectors():
    mat = SparseMatrix.from_dense([[1, Fraction(1, 2), 0], [0, 0, 3]])
    verify_kernel(mat, [(Fraction(-1, 2), 1, 0), {0: Fraction(1, 3), 1: Fraction(-2, 3)}])
    verify_kernel(mat, [])
    with pytest.raises(ArithmeticError):
        verify_kernel(mat, [(Fraction(1, 2), 1, 0)])
    with pytest.raises(ValueError):
        verify_kernel(mat, [(1, 2)])


@pytest.mark.parametrize("vec", [{7: 1}, {2: 1}, {-1: 1}, {0: 0, 5: 1}])
def test_verify_kernel_refuses_out_of_range_sparse_indices(vec):
    """A sparse index outside the columns is refused, as a dense vector of
    the wrong length is, rather than dropped by the product."""
    with pytest.raises(ValueError, match="out of range"):
        verify_kernel(SparseMatrix(1, 2, {(0, 0): 1}), [vec])


@pytest.mark.parametrize("bad", [True, 1.0, 0.0])
def test_every_vector_intake_rejects_non_exact_entries(bad):
    """Dense or sparse, kernel check, product or right-hand side: a bool or
    float entry is refused, zero or not, rather than computed with."""
    mat = SparseMatrix.from_dense([[1, -1]])
    for vec in ((bad, 1), {0: 1, 1: bad}):
        with pytest.raises(TypeError):
            verify_kernel(mat, [vec])
        with pytest.raises(TypeError):
            mat.matvec(vec)
    for rhs in ((bad,), {0: bad}):
        with pytest.raises(TypeError):
            solve(mat, rhs)


def test_every_vector_intake_refuses_non_integer_indices():
    mat = SparseMatrix.from_dense([[1, 1]])
    for call in (lambda: verify_kernel(mat, [{0.5: 1}]), lambda: mat.matvec({0.5: 1}),
                 lambda: solve(SparseMatrix.from_dense([[1], [1]]), {0.5: 1})):
        with pytest.raises(ValueError, match="out of range"):
            call()


def test_float_vectors_are_not_verified():
    """A float vector that the matrix kills up to rounding, or a float index
    that a range check lets through, is not reported as a kernel vector."""
    with pytest.raises(TypeError):
        verify_kernel(SparseMatrix.from_dense([[1, -1]]), [(0.5, 0.5)])
    with pytest.raises(TypeError):
        SparseMatrix.from_dense([[1, -1]]).matvec((0.5, 0.5))
    with pytest.raises(ValueError):
        verify_kernel(SparseMatrix.from_dense([[1, 1]]), [{0.5: 1}])


def test_matvec_takes_sparse_vectors():
    mat = SparseMatrix.from_dense([[1, 2], [Fraction(1, 2), -1], [0, 3]])
    assert mat.matvec({1: Fraction(1, 3)}) == mat.matvec((0, Fraction(1, 3)))
    assert mat.matvec({}) == (0, 0, 0)


# ---------------------------------------------------------------------------
# elimination per connected component


def single_elimination_kernel(mat):
    """Kernel basis from one elimination over all rows, back-substituting
    every free column through every pivot: the reference the per-component
    split must reproduce exactly (sparse normalized integer vectors, as
    ``Echelon.kernel_basis`` returns them)."""
    pivots, _ = _eliminate(_integer_rows(mat))
    taken = {c for c, _ in pivots}
    basis = []
    for free in (c for c in range(mat.ncols) if c not in taken):
        assign = {free: 1}
        for pivot_col, row in reversed(pivots):
            s = sum(v * assign.get(c, 0) for c, v in row.items() if c != pivot_col)
            if s:
                assign[pivot_col] = Fraction(-s, row[pivot_col])
        basis.append(_normalize_exact_vec(assign))
    return basis


def single_elimination_solve(mat, rhs):
    """Solution from one elimination over all augmented rows, the rhs column
    barred from pivoting, then back-substitution at t = 1: the reference the
    per-component solve must reproduce exactly."""
    sentinel = mat.ncols
    augmented = SparseMatrix(mat.nrows, mat.ncols + 1, [
        *mat.entries.items(), *(((r, sentinel), -b) for r, b in enumerate(rhs))])
    pivots, leftovers = _eliminate(_integer_rows(augmented), skip_col=sentinel)
    if leftovers:
        return None
    assign = {sentinel: 1}
    for pivot_col, row in reversed(pivots):
        s = sum(v * assign.get(c, 0) for c, v in row.items() if c != pivot_col)
        if s:
            assign[pivot_col] = Fraction(-s, row[pivot_col])
    solution = (Fraction(assign.get(c, 0)) for c in range(mat.ncols))
    return tuple(v.numerator if v.denominator == 1 else v for v in solution)


@st.composite
def shuffled_block_diagonal(draw):
    """Random rational blocks placed on the diagonal, plus empty columns,
    with rows and columns shuffled so no component is contiguous."""
    blocks = draw(st.lists(sparse_matrices(max_rows=4, max_cols=4),
                           min_size=1, max_size=4))
    empty = draw(st.integers(0, 3))
    nrows = sum(b.nrows for b in blocks)
    ncols = sum(b.ncols for b in blocks) + empty
    row_perm = draw(st.permutations(range(nrows)))
    col_perm = draw(st.permutations(range(ncols)))
    entries = []
    r0 = c0 = 0
    for b in blocks:
        entries += [((row_perm[r0 + r], col_perm[c0 + c]), v) for (r, c), v in b.entries.items()]
        r0 += b.nrows
        c0 += b.ncols
    return SparseMatrix(nrows, ncols, entries)


@settings(max_examples=80, deadline=None)
@given(shuffled_block_diagonal())
@example(SparseMatrix.from_dense([[1, 2], [2, 4]]))  # a row cancels to zero
@example(SparseMatrix.from_dense([[1, 0], [1, 1]]))  # the last active row pivots
def test_component_split_matches_oracle_and_single_elimination(mat):
    dense = mat.to_dense()
    # ``rank`` pivots by the row-first rule, ``Echelon`` by the column-first one
    assert rank(mat) == Echelon(mat).rank == oracles.dense_rank(dense)
    basis = kernel_basis(mat)
    expected = oracles.dense_kernel(dense, mat.ncols)
    assert len(basis) == len(expected)
    assert oracles.dense_rank([list(v) for v in basis] + expected) == len(expected)
    assert Echelon(mat).kernel_basis() == single_elimination_kernel(mat)


def same_solution(got, expected):
    """Equal tuples with equal entry types (``3`` is not ``Fraction(3)``)."""
    return got == expected and list(map(type, got or ())) == list(map(type, expected or ()))


def pattern_components(mat):
    """``(rows, cols)`` of each connected component of the nonzero pattern,
    found by a breadth-first search over rows, not by ``linalg``."""
    cols_of, rows_of = {}, {}
    for r, c in mat.entries:
        cols_of.setdefault(r, set()).add(c)
        rows_of.setdefault(c, set()).add(r)
    components, seen = [], set()
    for start in sorted(cols_of):
        if start in seen:
            continue
        rows, frontier = {start}, [start]
        while frontier:
            for c in cols_of[frontier.pop()]:
                for r in rows_of[c] - rows:
                    rows.add(r)
                    frontier.append(r)
        seen |= rows
        components.append((rows, set().union(*(cols_of[r] for r in rows))))
    return components


@settings(max_examples=80, deadline=None)
@given(shuffled_block_diagonal(), st.data())
def test_solve_matches_single_elimination(mat, data):
    components = pattern_components(mat)
    x = [data.draw(scalars) for _ in range(mat.ncols)]
    # a right-hand side that is zero on a random subset of the components
    silent = data.draw(st.sets(st.sampled_from(range(len(components))))) if components else ()
    for i in silent:
        for c in components[i][1]:
            x[c] = 0
    rhs = mat.matvec(x)
    assert solve(mat, rhs) is not None
    assert same_solution(solve(mat, rhs), single_elimination_solve(mat, rhs))
    zero = (0,) * mat.nrows
    assert same_solution(solve(mat, zero), single_elimination_solve(mat, zero))
    noise = [data.draw(scalars) for _ in range(mat.nrows)]
    assert same_solution(solve(mat, noise), single_elimination_solve(mat, noise))
    # an extra all-zero row with a nonzero right-hand side entry
    padded = SparseMatrix(mat.nrows + 1, mat.ncols, dict(mat.entries))
    bad = rhs + (data.draw(scalars.filter(bool)),)
    assert solve(padded, bad) is None
    assert single_elimination_solve(padded, bad) is None
    if components:
        # infeasible inside one component only: a copy of one of its rows
        # asks for another value, and every other row asks for zero
        rows, _ = components[data.draw(st.integers(0, len(components) - 1))]
        r = data.draw(st.sampled_from(sorted(rows)))
        copied = SparseMatrix(mat.nrows + 1, mat.ncols, [
            *mat.entries.items(),
            *(((mat.nrows, c), v) for (q, c), v in mat.entries.items() if q == r)])
        confined = tuple(b if q in rows else 0 for q, b in enumerate(rhs))
        confined += (rhs[r] + data.draw(scalars.filter(bool)),)
        assert solve(copied, confined) is None
        assert single_elimination_solve(copied, confined) is None


def test_solve_copies_only_the_components_it_eliminates(monkeypatch):
    """The stored rows are read, never written, and a fractional right-hand
    side touching one component hands ``_eliminate`` that component alone,
    scaled to integers and given its sentinel entries."""
    mat = SparseMatrix(3, 4, {(0, 0): 2, (0, 1): 3, (1, 1): 1, (2, 2): 1, (2, 3): -1})
    before = mat.numerator_rows()
    # no copy of every row either
    monkeypatch.setattr(SparseMatrix, "numerator_rows", lambda self: pytest.fail("copied"))
    seen = []
    real = linalg._eliminate
    monkeypatch.setattr(linalg, "_eliminate",
                        lambda rows, skip: seen.append({r: dict(row) for r, row in rows.items()})
                        or real(rows, skip))
    sol = solve(mat, (0, Fraction(1, 2), 0))
    assert mat.matvec(sol) == (0, Fraction(1, 2), 0)
    assert mat._rows == before
    assert seen == [{0: {0: 2, 1: 3}, 1: {1: 2, 4: -1}}]
    seen.clear()
    assert solve(mat, (0, 0, 0)) == (0, 0, 0, 0)
    assert seen == [] and mat._rows == before


def test_zero_right_hand_side_eliminates_nothing(monkeypatch):
    alg = builtin("m2")
    mat = differential(alg, regular_module(alg), "poisson", 2)
    calls = []
    real = linalg._eliminate
    monkeypatch.setattr(linalg, "_eliminate",
                        lambda *args: calls.append(args) or real(*args))
    assert solve(mat, (0,) * mat.nrows) == (0,) * mat.ncols
    assert calls == []
    # a right-hand side in one component eliminates that component alone
    x = [0] * mat.ncols
    x[next(c for r, c in sorted(mat.entries))] = 1
    assert mat.matvec(solve(mat, mat.matvec(x))) == mat.matvec(x)
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["m2", "sl2std"])
def test_component_split_matches_single_elimination_on_differentials(name):
    alg = builtin(name)
    mat = differential(alg, regular_module(alg), "poisson", 3)
    ech = Echelon(mat)
    reference = single_elimination_kernel(mat)
    assert ech.rank == mat.ncols - len(reference)
    assert ech.kernel_basis() == reference


def test_wrong_kernel_basis_raises_under_optimize():
    """The kernel check is an explicit raise, so it holds under ``-O``."""
    script = textwrap.dedent("""
        from poiscoh import linalg
        linalg.Echelon.kernel_basis = lambda self: [(1,) * self.ncols]
        try:
            linalg.kernel_basis(linalg.SparseMatrix.from_dense([[1, 0], [0, 1]]))
        except ArithmeticError:
            raise SystemExit(0)
        raise SystemExit(3)
    """)
    src = str(Path(poiscoh.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()


# ---------------------------------------------------------------------------
# incremental reduction


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(scalars, min_size=5, max_size=5), max_size=8),
       st.lists(scalars, min_size=5, max_size=5))
def test_row_reducer_membership_matches_span_oracle(rows, probe):
    red = RowReducer(5)
    for row in rows:
        red.add(row)
    assert red.rank == oracles.dense_rank(rows)
    assert red.contains(probe) == oracles.in_span(rows, probe)


def test_row_reducer_add_reports_novelty():
    red = RowReducer(3)
    assert red.add([1, 0, 0])
    assert red.add([0, Fraction(1, 2), 0])
    assert not red.add([2, 3, 0])
    assert red.rank == 2


@pytest.mark.parametrize("vec", [{5: 1}, {2: 1}, {-1: 1}, {0: 1, 9: 0}])
def test_row_reducer_refuses_out_of_range_sparse_indices(vec):
    red = RowReducer(2)
    with pytest.raises(ValueError, match="out of range"):
        red.add(vec)
    with pytest.raises(ValueError, match="out of range"):
        red.contains(vec)
    assert red.rank == 0


@pytest.mark.parametrize("bad", [True, 1.0, 0.0])
def test_row_reducer_rejects_non_exact_entries(bad):
    red = RowReducer(2)
    with pytest.raises(TypeError):
        red.add([bad, 1])
    with pytest.raises(TypeError):
        red.add({0: 1, 1: bad})
    with pytest.raises(TypeError):
        red.contains([1, bad])
    # a float index passes a range check, but is no index
    with pytest.raises(ValueError, match="out of range"):
        red.add({0.5: 1})
    with pytest.raises(ValueError, match="out of range"):
        red.contains({0.5: 1})
    assert red.rank == 0
