"""Cohomology dimensions of the builtin algebras, pinned and cross-checked.

The dimension tables below were computed once with this package and verified
against a dense Gauss-Jordan re-elimination (`oracles.dense_rank`) plus the
published values for the triangular-matrix and 2x2-matrix examples; they are
frozen here so any regression in indexing, assembly, or elimination shows up
as a changed number, not a silent drift.
"""

import itertools
import json
from dataclasses import replace
from fractions import Fraction

import pytest

from poiscoh.algebra import (
    BUILTINS,
    StructuralError,
    builtin,
    regular_module,
    trivial_bracket,
)
from poiscoh.cochain import THEORIES, CochainSpace, decode
from poiscoh import cohomology, linalg
from poiscoh.cohomology import (
    _weight_zero_rows,
    cohomology_dims,
    cohomology_of,
    les_feasibility,
    lp_cohomology,
    trivial_bracket_decomposition,
    type_cohomology,
)
from poiscoh.complexes import (
    SIGN_CONVENTION,
    build_complex,
    cartan_weights,
    coordinate_weights,
    delta_H,
    delta_V,
    delta_v,
    differential,
    edge_maps,
)
from poiscoh.deformation import transport
from poiscoh.linalg import (
    Echelon,
    RowReducer,
    SparseMatrix,
    dense_vector,
    kernel_basis,
    rank,
    solve,
)

import oracles
from test_deformation import CHARACTERS, _character_module

# (builtin, theory, expected dims from degree 0 up)
FROZEN_DIMS = [
    ("ut2", "poisson", (1, 0, 1, 5, 3)),
    ("m2", "poisson", (1, 0, 1, 3)),
    ("trivial2", "poisson", (2, 1, 1, 7, 7)),
    ("kxk", "poisson", (2, 0, 0, 6, 4)),
    ("nil3", "poisson", (1, 0, 1, 7, 10)),
    ("sl2std", "poisson", (1, 0, 1, 5, 7)),
    ("ut2", "quasi", (1, 2, 1, 0)),
    ("m2", "quasi", (1, 1, 0, 1)),
    ("trivial2", "quasi", (2, 5, 5, 4, 4)),
    ("kxk", "quasi", (2, 4, 2, 0, 0)),
    ("nil3", "quasi", (1, 3, 4, 5)),
    ("sl2std", "quasi", (1, 2, 2, 4)),
    ("ut2", "omega", (3, 6, 3, 0)),
    ("m2", "omega", (2, 2, 0)),
    ("nil3", "omega", (3, 8, 10)),
    ("sl2std", "omega", (2, 4, 7)),
    ("ut2", "hochschild", (1, 0, 0, 0, 0)),
    ("m2", "hochschild", (1, 0, 0, 0)),
    ("trivial2", "hochschild", (2, 1, 1, 1, 1)),
    ("kxk", "hochschild", (2, 0, 0, 0, 0)),
    ("nil3", "hochschild", (3, 4, 6, 12)),
    ("sl2std", "hochschild", (4, 9, 24, 72)),
    ("ut2", "ce", (1, 2, 1, 0)),
    ("m2", "ce", (1, 1, 0, 1)),
    ("nil3", "ce", (1, 2, 1, 0)),
    ("sl2std", "ce", (1, 1, 0, 1)),
    ("trivial2", "ce", (2, 4, 2)),
    ("kxk", "ce", (2, 4, 2)),
]


@pytest.mark.parametrize("name,theory,expected", FROZEN_DIMS)
def test_frozen_dims(name, theory, expected):
    alg = builtin(name)
    report = cohomology_dims(alg, theory=theory, max_degree=len(expected) - 1)
    assert report.dims == expected


def test_zero_bracket_ce_is_the_whole_space():
    # with no bracket every wedge cochain is a cocycle and none is a coboundary
    for name in ("trivial2", "kxk"):
        alg = builtin(name)
        report = cohomology_dims(alg, theory="ce", max_degree=2)
        assert report.dims == report.space_dims == (2, 4, 2)
        assert report.ranks == (0, 0, 0)


def test_report_carries_the_sign_convention():
    report = cohomology_dims(builtin("kxk"), max_degree=1)
    assert report.sign_convention == SIGN_CONVENTION
    assert report.to_dict()["sign_convention"] == SIGN_CONVENTION


@pytest.mark.parametrize("name,theory,top", [
    ("trivial2", "poisson", 3),
    ("trivial2", "quasi", 3),
    ("kxk", "omega", 2),
    ("kxk", "hochschild", 3),
    ("ut2", "poisson", 3),
])
def test_dims_agree_with_dense_elimination(name, theory, top):
    """Recompute every rank with the dense oracle and rebuild the dims."""
    alg = builtin(name)
    mod = regular_module(alg)
    report = cohomology_dims(alg, theory=theory, max_degree=top)
    mats = [differential(alg, mod, theory, n) for n in range(top + 1)]
    dense_ranks = tuple(oracles.dense_rank(oracles.dense_rows(m)) for m in mats)
    assert dense_ranks == report.ranks
    dims = tuple(
        report.space_dims[n] - dense_ranks[n] - (dense_ranks[n - 1] if n else 0)
        for n in range(top + 1)
    )
    assert dims == report.dims


# ---------------------------------------------------------------------------
# Low degrees have direct descriptions


CENTER_AND_DERIVS = [
    # (builtin, dim of bracket center, number of poisson derivations)
    ("trivial2", 2, 1),
    ("kxk", 2, 0),
    ("ut2", 1, 2),
    ("nil3", 1, 2),
    ("sl2std", 1, 3),
    ("m2", 1, 3),
]


@pytest.mark.parametrize("name,center_dim,deriv_count", CENTER_AND_DERIVS)
def test_degree_zero_is_the_bracket_center(name, center_dim, deriv_count):
    alg = builtin(name)
    center = kernel_basis(differential(alg, regular_module(alg), "ce", 0))
    assert len(center) == center_dim
    # every member really commutes with the whole basis
    zero = (0,) * alg.dim
    for vec in center:
        for x in range(alg.dim):
            assert alg.bracket_of(alg.basis_vector(x), vec) == zero
    # and the count matches a dense kernel of the raw action matrix
    rows = []
    for x in range(alg.dim):
        for k in range(alg.dim):
            rows.append([alg.bracket[x][p][k] for p in range(alg.dim)])
    assert len(oracles.dense_kernel(rows, alg.dim)) == center_dim
    report = cohomology_dims(alg, max_degree=1)
    assert report.dims[0] == center_dim
    # degree 1 = simultaneous derivations modulo images of degree 0
    derivs = kernel_basis(differential(alg, regular_module(alg), "poisson", 1))
    assert len(derivs) == deriv_count
    assert report.dims[1] == deriv_count - report.ranks[0]


@pytest.mark.parametrize("name", ("ut2", "nil3", "m2"))
def test_degree_one_cocycles_satisfy_both_leibniz_rules(name):
    """The degree-1 poisson cocycles of the regular module are the maps that
    are derivations of the product and of the bracket at once."""
    alg = builtin(name)
    d = alg.dim
    for fvec in kernel_basis(differential(alg, regular_module(alg), "poisson", 1)):
        def f(vec):
            return tuple(
                sum(vec[p] * fvec[p * d + k] for p in range(d)) for k in range(d)
            )

        for i in range(d):
            bi = alg.basis_vector(i)
            for j in range(d):
                bj = alg.basis_vector(j)
                prod_rule = tuple(
                    x + y for x, y in zip(alg.product(bi, f(bj)),
                                          alg.product(f(bi), bj)))
                assert f(alg.product(bi, bj)) == prod_rule
                bracket_rule = tuple(
                    x + y for x, y in zip(alg.bracket_of(bi, f(bj)),
                                          alg.bracket_of(f(bi), bj)))
                assert f(alg.bracket_of(bi, bj)) == bracket_rule


# ---------------------------------------------------------------------------
# Representatives


@pytest.mark.parametrize("name,theory,top", [
    ("ut2", "poisson", 3),
    ("m2", "poisson", 2),
    ("trivial2", "quasi", 2),
])
def test_representatives_are_independent_cocycles(name, theory, top):
    alg = builtin(name)
    mod = regular_module(alg)
    report = cohomology_dims(alg, theory=theory, max_degree=top,
                             representatives=True)
    mats = [differential(alg, mod, theory, n) for n in range(top + 1)]
    for n in range(top + 1):
        reps = report.representatives[n]
        assert len(reps) == report.dims[n]
        zero = (0,) * mats[n].nrows
        # columns of the previous differential, as dense vectors
        image_cols = []
        if n:
            prev = oracles.dense_rows(mats[n - 1])
            for c in range(mats[n - 1].ncols):
                image_cols.append([prev[r][c] for r in range(len(prev))])
        base_rank = oracles.dense_rank(list(image_cols))
        for vec in reps:
            assert mats[n].matvec(vec) == zero
        stacked = list(image_cols) + [list(v) for v in reps]
        assert oracles.dense_rank(stacked) == base_rank + len(reps)


def test_report_to_dict_is_deterministic():
    first = cohomology_dims(builtin("ut2"), max_degree=2,
                            representatives=True).to_dict()
    second = cohomology_dims(builtin("ut2"), max_degree=2,
                             representatives=True).to_dict()
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


# ---------------------------------------------------------------------------
# Only weight zero carries cohomology

CARTAN_THEORIES = ("poisson", "quasi", "omega", "ce")
# the basis element whose weights split the complex, per builtin with a bracket
WEIGHT_ELEMENT = {"ut2": "e11", "m2": "h", "sl2std": "h", "nil3": "y"}
# top degrees as in FROZEN_DIMS; omega of the zero-bracket builtins stops at 2
TIER1_TOP = {(name, theory): len(expected) - 1 for name, theory, expected in FROZEN_DIMS}


def _tier1_top(name, theory):
    return TIER1_TOP.get((name, theory), 2)


def _rescaled_m2():
    """m2 in the basis (3/2, -2/3 e, 3/2 f, 2/3 h): ad_h has weights 0, 4/3, -4/3, 0."""
    factors = (Fraction(3, 2), Fraction(-2, 3), Fraction(3, 2), Fraction(2, 3))
    return transport(builtin("m2"), [[factors[r] if r == c else 0 for c in range(4)]
                                     for r in range(4)])


def _clear_block_caches():
    for block in (delta_H, delta_V, delta_v):
        block.cache_clear()


@pytest.mark.parametrize("name,theory", itertools.product(sorted(WEIGHT_ELEMENT),
                                                          CARTAN_THEORIES))
def test_cartan_formula_holds_on_the_assembled_complex(name, theory):
    """``d iota_x + iota_x d = L_x`` exactly, sign included, on C^0 .. C^top
    for every basis x, with iota_x and L_x from the oracle and d the
    assembled differential."""
    alg = builtin(name)
    mod = regular_module(alg)
    d, m, top = alg.dim, mod.dim, _tier1_top(name, theory)
    blocks = [CochainSpace.build(theory, n, d, m).blocks for n in range(top + 2)]
    mats = [differential(alg, mod, theory, n) for n in range(top + 1)]
    moved = False
    for x in range(d):
        iota = {n: SparseMatrix(*oracles.insertion(blocks[n], blocks[n - 1], d, m, x))
                for n in range(1, top + 2)}
        for n in range(top + 1):
            dim, lie = oracles.lie_derivative(blocks[n], alg.bracket, mod.lie, m, x)
            products = [iota[n + 1].matmul(mats[n])] + ([mats[n - 1].matmul(iota[n])] if n else [])
            total = SparseMatrix(dim, dim, [e for p in products for e in p.entries.items()])
            assert total == SparseMatrix(dim, dim, lie)
            moved = moved or bool(lie)
    assert moved


def test_weight_route_is_chosen_from_the_input():
    """The first basis element with a diagonal action and a nonzero weight
    picks the route; hochschild, which has no wedge slot, and the
    zero-bracket builtins stay on the direct path."""
    for name in sorted(BUILTINS):
        alg = builtin(name)
        mod = regular_module(alg)
        assert cartan_weights(alg, mod, "hochschild") is None
        for theory in CARTAN_THEORIES:
            chosen = cartan_weights(alg, mod, theory)
            if name in WEIGHT_ELEMENT:
                assert alg.basis[chosen[0]] == WEIGHT_ELEMENT[name]
            else:
                assert chosen is None
    rescaled = _rescaled_m2()
    assert cartan_weights(rescaled, regular_module(rescaled), "poisson") == (
        3, (0, 4, -4, 0), (0, 4, -4, 0))


def _route_inputs():
    inputs = [("regular", name) for name in sorted(BUILTINS)]
    inputs += [("character", name) for name in sorted(CHARACTERS)]
    return inputs + [("rescaled", "m2")]


def _route_input(kind, name):
    """The algebra and module of one ``_route_inputs()`` case."""
    if kind == "rescaled":
        alg = _rescaled_m2()
        return alg, regular_module(alg)
    alg = builtin(name)
    return alg, _character_module(name) if kind == "character" else regular_module(alg)


def _cochain_weights(alg, mod, theory, top):
    """The coordinate weights of ``C^0`` .. ``C^(top + 1)``, all zero when
    no weight element exists."""
    cartan = cartan_weights(alg, mod, theory)
    alg_weights, mod_weights = cartan[1:] if cartan else ((0,) * alg.dim, (0,) * mod.dim)
    return [coordinate_weights(CochainSpace.build(theory, n, alg.dim, mod.dim),
                               alg_weights, mod_weights) for n in range(top + 2)]


def _weight_zero_restrictions(alg, mod, theory, top):
    """Each ``d^n`` up to ``top`` cut to its weight-zero rows, as
    ``cohomology_dims`` eliminates it."""
    weights = _cochain_weights(alg, mod, theory, top)
    return [_weight_zero_rows(mat, weights[n + 1], weights[n])
            for n, mat in enumerate(build_complex(alg, mod, theory, top))]


def _direct_representatives(mats, echelons):
    """Representatives from eliminating every row: each full kernel vector
    that a RowReducer holding every image column accepts."""
    reps = {}
    for n, (mat, echelon) in enumerate(zip(mats, echelons)):
        reducer = RowReducer(mat.ncols)
        image: dict[int, dict[int, int]] = {}
        for r, row in (mats[n - 1].numerator_rows().items() if n else ()):
            for c, v in row.items():
                image.setdefault(c, {})[r] = v
        for c in sorted(image):
            reducer.add(image[c])
        reps[n] = [dense_vector(vec, mat.ncols) for vec in echelon.kernel_basis()
                   if reducer.add(vec)]
    return reps


@pytest.mark.parametrize("kind,name,theory", [
    (kind, name, theory) for kind, name in _route_inputs() for theory in CARTAN_THEORIES])
def test_weight_zero_route_agrees_with_direct_elimination(kind, name, theory):
    """Dims, ranks and representatives are those of eliminating every row
    of the full differentials."""
    alg, mod = _route_input(kind, name)
    top = _tier1_top(name, theory)
    assert (cartan_weights(alg, mod, theory) is None) == alg.has_zero_bracket
    mats = build_complex(alg, mod, theory, top)
    echelons = [Echelon(mat) for mat in mats]
    ranks = tuple(e.rank for e in echelons)
    space_dims = tuple(mat.ncols for mat in mats)
    report = cohomology_dims(alg, mod, theory, top, representatives=True)
    assert report.space_dims == space_dims
    assert report.ranks == ranks
    assert report.dims == tuple(space_dims[n] - ranks[n] - (ranks[n - 1] if n else 0)
                                for n in range(top + 1))
    assert report.representatives == _direct_representatives(mats, echelons)
    assert cohomology_dims(alg, mod, theory, top) == replace(report, representatives=None)


@pytest.mark.parametrize("kind,name,theory", [
    (kind, name, theory) for kind, name in _route_inputs() for theory in CARTAN_THEORIES])
def test_representatives_reduce_one_image_row_per_free_column(monkeypatch, kind, name,
                                                              theory):
    """For each n >= 1, one ``RowReducer`` takes row ``f`` of ``d^(n-1)``
    for each weight-zero free column ``f`` of ``d^n``, in decreasing ``f``,
    and nothing else: no image column and no kernel vector."""
    alg, mod = _route_input(kind, name)
    top = _tier1_top(name, theory)
    calls: dict[RowReducer, list] = {}
    add = RowReducer.add

    def counted(reducer, vec):
        calls.setdefault(reducer, []).append(vec)
        return add(reducer, vec)

    monkeypatch.setattr(RowReducer, "add", counted)
    cohomology_dims(alg, mod, theory, top, representatives=True)
    monkeypatch.undo()
    weights = _cochain_weights(alg, mod, theory, top)
    mats = build_complex(alg, mod, theory, top)
    expected = []
    for n, kept in enumerate(_weight_zero_restrictions(alg, mod, theory, top)[1:], 1):
        free = [f for f in Echelon(kept).free_cols if not weights[n][f]]
        image = mats[n - 1].numerator_rows()
        expected.append([image.get(f, {}) for f in reversed(free)])
    assert list(calls.values()) == [rows for rows in expected if rows]
    assert sum(map(len, expected)) > 0


@pytest.mark.parametrize("kind,name,theory", [
    (kind, name, theory) for kind, name in _route_inputs() for theory in CARTAN_THEORIES])
def test_representatives_back_substitute_only_weight_zero_free_columns(monkeypatch, kind,
                                                                      name, theory):
    """``cohomology_dims`` back-substitutes one kernel vector per
    weight-zero free column of each restricted ``d^n``, and none for the
    free columns of other weights, which it would only drop."""
    alg, mod = _route_input(kind, name)
    top = _tier1_top(name, theory)
    calls = []
    back_substitute = linalg._back_substitute

    def counted(pivots, assign):
        calls.append(dict(assign))
        return back_substitute(pivots, assign)

    monkeypatch.setattr(linalg, "_back_substitute", counted)
    cohomology_dims(alg, mod, theory, top, representatives=True)
    monkeypatch.undo()
    weights = _cochain_weights(alg, mod, theory, top)
    expected = [{f: 1} for n, kept in enumerate(_weight_zero_restrictions(alg, mod, theory, top))
                for f in Echelon(kept).free_cols if not weights[n][f]]
    assert calls == expected


def test_weight_zero_route_leaves_the_differentials_as_built():
    """Neither the cached blocks nor an assembled matrix the restriction
    reads are written by the weight-zero route."""
    alg = _rescaled_m2()
    mod = regular_module(alg)
    _clear_block_caches()
    cohomology_dims(alg, mod, "poisson", 3)
    cached = [differential(alg, mod, "poisson", n) for n in range(4)]
    _clear_block_caches()
    fresh = [differential(alg, mod, "poisson", n) for n in range(4)]
    assert cached == fresh
    assert any(mat.denominator > 1 for mat in fresh)
    _, alg_weights, mod_weights = cartan_weights(alg, mod, "poisson")
    weights = [coordinate_weights(CochainSpace.build("poisson", n, 4, 4), alg_weights,
                                  mod_weights) for n in range(5)]
    for n, mat in enumerate(fresh):
        before = (mat.denominator, mat.numerator_rows())
        kept = _weight_zero_rows(mat, weights[n + 1], weights[n])
        assert (mat.denominator, mat.numerator_rows()) == before
        assert set(kept._rows) == {r for r in mat._rows if not weights[n + 1][r]}
        assert all(kept._rows[r] is mat._rows[r] for r in kept._rows)
        assert _weight_zero_rows(mat, [0] * mat.nrows, [0] * mat.ncols) is mat


# every FROZEN_DIMS case and every _route_inputs() case, each once
RANK_CASES = sorted({("regular", name, theory, len(expected) - 1)
                     for name, theory, expected in FROZEN_DIMS}
                    | {(kind, name, theory, _tier1_top(name, theory))
                       for kind, name in _route_inputs() for theory in CARTAN_THEORIES})


@pytest.mark.parametrize("kind,name,theory,top", RANK_CASES)
def test_row_first_rank_equals_the_echelon_rank_at_weight_zero(kind, name, theory, top):
    """``linalg.rank`` takes other pivots than ``Echelon`` but must find
    the same rank on every matrix that ``cohomology_dims`` eliminates."""
    alg, mod = _route_input(kind, name)
    for kept in _weight_zero_restrictions(alg, mod, theory, top):
        assert rank(kept) == Echelon(kept).rank


def test_elimination_never_writes_a_shared_row():
    """Elimination updates its rows in place, so it must work on copies:
    cached blocks and a weight-zero restriction, whose rows are those of a
    cached differential, keep their bytes through every elimination."""
    alg = _rescaled_m2()
    mod = regular_module(alg)
    _clear_block_caches()
    shared = [delta_H(alg, mod, 1, 2), delta_V(alg, mod, 1, 1), delta_v(alg, mod, 2),
              _weight_zero_restrictions(alg, mod, "poisson", 2)[2]]
    assert any(mat.denominator > 1 for mat in shared)

    def reduce_rows(mat):
        reducer = RowReducer(mat.ncols)
        for row in mat._rows.values():  # the live rows, as _representatives reads them
            reducer.add(row)
        return reducer.rank

    operations = {
        "rank": rank,
        "kernel": lambda mat: len(Echelon(mat).kernel_basis()),
        "solve": lambda mat: solve(mat, mat.matvec([1] * mat.ncols)),
        "reducer": reduce_rows,
    }
    for mat in shared:
        text = mat.dump_text()
        for name, operation in operations.items():
            assert operation(mat), name
            assert mat.dump_text() == text, name
    # the j >= 1 blocks are read off the cached (i, 0) blocks' rows
    bases = [block(alg, mod, i, 0) for block in (delta_H, delta_V) for i in range(3)]
    texts = [mat.dump_text() for mat in bases]
    for block in (delta_H, delta_V):
        for i in range(3):
            for j in range(1, alg.dim + 1):
                block(alg, mod, i, j)
    assert [mat.dump_text() for mat in bases] == texts


def test_assembly_never_writes_a_cached_row():
    """The assembly builds each j >= 1 block from the cached (i, 0) blocks
    and pastes every block at the common scale of the differential: every
    cached block and corner map keeps its bytes, and the assembly reads no
    block but these."""
    alg = _rescaled_m2()
    mod = regular_module(alg)
    _clear_block_caches()
    cached = ([delta_H(alg, mod, i, 0) for i in range(6)]
              + [delta_V(alg, mod, i, 0) for i in range(6)]
              + [delta_v(alg, mod, j) for j in range(1, 5)])
    assert any(mat.denominator > 1 for mat in cached)
    texts = [mat.dump_text() for mat in cached]
    misses = [block.cache_info().misses for block in (delta_H, delta_V, delta_v)]
    for theory in THEORIES:
        for n in range(4):
            differential(alg, mod, theory, n)
    assert [block.cache_info().misses for block in (delta_H, delta_V, delta_v)] == misses
    assert [mat.dump_text() for mat in cached] == texts


def test_weight_zero_restriction_refuses_a_map_that_moves_weights():
    mat = SparseMatrix(2, 2, {(0, 1): 1})
    with pytest.raises(ArithmeticError, match="moves the weight"):
        _weight_zero_rows(mat, [0, 1], [0, 1])


# ---------------------------------------------------------------------------
# The cohomology core on complexes that are none of the theories


# d^0: Q^2 -> Q^3, d^1: Q^3 -> Q^3, d^2: Q^3 -> Q^1, with d o d = 0 and a
# fractional entry; every rank is 1, so every H^n has dimension 1
HAND_COMPLEX = [
    [[1, 0], [0, 0], [1, 0]],
    [[1, 0, -1], [0, 0, 0], [Fraction(2, 3), 0, Fraction(-2, 3)]],
    [[2, 3, -3]],
]


def test_cohomology_of_agrees_with_a_dense_oracle():
    """Ranks, dims and representatives of a hand-built complex without
    weights, each checked by dense elimination."""
    mats = [SparseMatrix.from_dense(rows) for rows in HAND_COMPLEX]
    space_dims, ranks, dims, reps = cohomology_of(mats, representatives=True)
    dense_ranks = tuple(oracles.dense_rank(rows) for rows in HAND_COMPLEX)
    assert space_dims == (2, 3, 3)
    assert ranks == dense_ranks == (1, 1, 1)
    assert dims == tuple(space_dims[n] - ranks[n] - (ranks[n - 1] if n else 0)
                         for n in range(3)) == (1, 1, 1)
    assert cohomology_of(mats) == (space_dims, ranks, dims, None)
    assert sorted(reps) == [0, 1, 2]
    for n, vecs in reps.items():
        assert len(vecs) == dims[n]
        for vec in vecs:
            assert all(sum(a * v for a, v in zip(row, vec)) == 0 for row in HAND_COMPLEX[n])
        image = [list(col) for col in zip(*HAND_COMPLEX[n - 1])] if n else []
        assert oracles.dense_rank(image + [list(v) for v in vecs]) == \
            oracles.dense_rank(image) + dims[n]


def test_every_report_runs_the_core_once(monkeypatch):
    calls = []
    core = cohomology.cohomology_of

    def counted(*args, **kwargs):
        calls.append(args[0])
        return core(*args, **kwargs)

    monkeypatch.setattr(cohomology, "cohomology_of", counted)
    for name, dims in (("ut2", (1, 0, 1, 5)), ("kxk", (2, 0, 0, 6))):
        for representatives in (False, True):
            calls.clear()
            report = cohomology_dims(builtin(name), max_degree=3,
                                     representatives=representatives)
            assert len(calls) == 1 and len(calls[0]) == 4, name
            assert report.dims == dims
    for which in ("I", "II"):
        calls.clear()
        type_cohomology(builtin("trivial2"), which, 2)
        assert len(calls) == 1 and len(calls[0]) == 3, which
    calls.clear()
    lp_cohomology(builtin("kxk"), 2)
    assert len(calls) == 1


def test_the_core_refuses_an_impossible_rebuilt_rank():
    """With weights under which the nonzero weights are not acyclic, the
    weight-zero dims rebuild a full rank larger than the matrix allows:
    here both columns of a zero 1 x 2 ``d^0`` have weight 1."""
    with pytest.raises(ArithmeticError, match="rebuilt rank 2 of d\\^0 is impossible"):
        cohomology_of([SparseMatrix(1, 2)], [[1, 1], [0]])


def test_the_core_refuses_a_representative_count_mismatch():
    """``d o d = 0`` is the caller's to check: the weight-zero part here is
    ``Q -> Q -> Q`` by 1 and 1, whose rank-nullity gives ``dim H^1 = -1``,
    while the weight-2 coordinates are acyclic, so every rebuilt rank is
    possible and only the representative count is wrong."""
    mats = [SparseMatrix.from_dense([[1], [0]]), SparseMatrix.from_dense([[1, 0], [0, 1]])]
    weights = [[0], [0, 2], [0, 2]]
    assert cohomology_of(mats, weights)[2] == (0, -1)
    with pytest.raises(ArithmeticError, match="representative count mismatch in degree 1"):
        cohomology_of(mats, weights, representatives=True)


NEGATIVE_DEGREE_CALLS = {
    "cohomology_dims": lambda: cohomology_dims(builtin("ut2"), max_degree=-1),
    "type_cohomology": lambda: type_cohomology(builtin("ut2"), "I", -1),
    "lp_cohomology": lambda: lp_cohomology(builtin("trivial2"), -1),
    "trivial_bracket_decomposition": lambda: trivial_bracket_decomposition(
        builtin("trivial2"), -1),
}


@pytest.mark.parametrize("call", sorted(NEGATIVE_DEGREE_CALLS))
def test_a_negative_top_degree_is_refused(call):
    with pytest.raises(StructuralError, match="degree must be nonnegative"):
        NEGATIVE_DEGREE_CALLS[call]()


# ---------------------------------------------------------------------------
# The multiderivation theory


@pytest.mark.parametrize("name,dims", [
    ("trivial2", (2, 1, 0, 0, 0)),
    ("kxk", (2, 0, 0, 0, 0)),
    ("nil3", (1, 0, 0, 0, 0)),
    ("sl2std", (1, 0, 0, 0, 0)),
])
def test_lp_cohomology_dims(name, dims):
    alg = builtin(name)
    report = lp_cohomology(alg, max_degree=4)
    assert report.dims == dims
    assert report.theory == "lp"
    if alg.has_zero_bracket:
        # zero differential: the cohomology is the multiderivation space itself
        assert report.dims == report.space_dims
        assert report.space_dims == tuple(
            len(kernel_basis(edge_maps(alg, "I", n)[0]))
            for n in range(5))


def test_lp_cohomology_needs_commutativity():
    with pytest.raises(StructuralError):
        lp_cohomology(builtin("ut2"))


@pytest.mark.parametrize("name,type_one,type_two", [
    ("trivial2", (2, 1, 0), (2, 1, 1)),
    ("kxk", (2, 0, 0), (2, 0, 0)),
    ("ut2", (1, 0, 1), None),
])
def test_type_subcomplex_cohomology(name, type_one, type_two):
    alg = builtin(name)
    assert type_cohomology(alg, which="I", max_degree=2).dims == type_one
    if type_two is not None:
        assert type_cohomology(alg, which="II", max_degree=2).dims == type_two


def test_zero_bracket_type_complexes_have_known_meaning():
    # no bracket: the corner kernel is the multiderivation space with zero
    # differential, and the first horizontal map vanishes so type II is all
    # of Hochschild
    alg = builtin("trivial2")
    assert type_cohomology(alg, which="I", max_degree=2).dims == (2, 1, 0)
    hh = cohomology_dims(alg, theory="hochschild", max_degree=2).dims
    assert type_cohomology(alg, which="II", max_degree=2).dims == hh


# ---------------------------------------------------------------------------
# Equivariant maps: the kernel of delta_H(i, 0)


@pytest.mark.parametrize("name,i", itertools.product(sorted(BUILTINS), range(3)))
def test_equivariant_maps_are_the_kernel_of_delta_H(name, i):
    """The Lie action on Hom(A^(x)i, A) is delta_H(i, 0), so its kernel is
    the space of equivariant maps: it has the dimension of the common
    kernel of the oracle's L_x over every basis x, and each L_x kills it."""
    alg = builtin(name)
    mod = regular_module(alg)
    actions = [oracles.lie_derivative([(i, 0)], alg.bracket, mod.lie, mod.dim, x)
               for x in range(alg.dim)]
    ncols = actions[0][0]
    stacked = [[Fraction(0)] * ncols for _ in range(alg.dim * ncols)]
    for x, (_, entries) in enumerate(actions):
        for (r, c), v in entries.items():
            stacked[x * ncols + r][c] = v
    basis = kernel_basis(delta_H(alg, mod, i, 0))
    assert len(basis) == ncols - oracles.dense_rank(stacked)
    for _, entries in actions:
        assert all(not v for vec in basis for v in oracles.dict_matvec(entries, vec, ncols))


def test_equivariant_pairings_on_m2():
    """Maps sl2 (x) sl2 -> M2 commuting with the bracket action form a
    two-parameter family: a trace part landing on the unit and a bracket
    part landing on the traceless piece.  They are the equivariant maps
    A (x) A -> A, the kernel of delta_H(2, 0), restricted to the traceless
    words: the words holding the unit span an invariant complement."""
    alg = builtin("m2")
    space = CochainSpace.build("hochschild", 2, alg.dim, alg.dim)
    maps = [[decode(space, vec)[2, 0][x][y] for x in (1, 2, 3) for y in (1, 2, 3)]
            for vec in kernel_basis(delta_H(alg, regular_module(alg), 2, 0))]
    assert oracles.dense_rank([[v for image in T for v in image] for T in maps]) == 2

    trace = [[0] * 3 for _ in range(3)]
    trace[0][1] = trace[1][0] = 1
    trace[2][2] = 2

    def expected(lam, mu):
        out = []
        for x in range(3):
            for y in range(3):
                vec = [Fraction(0)] * 4
                vec[0] += Fraction(mu * trace[x][y], 6)
                for k, c in alg.bracket_pairs[x + 1][y + 1]:
                    vec[k] += Fraction(lam * c, 4)
                out.append(tuple(vec))
        return out

    readings = []
    for T in maps:
        # T lists the images of the nine traceless words (x, y); read the
        # parameters off the two entries that determine them, then demand
        # a full match
        lam = -2 * T[2][1]             # image of e (x) h is -(lam/2) e
        mu = 3 * T[8][0]               # image of h (x) h is (mu/3) 1
        assert [tuple(image) for image in T] == expected(lam, mu), (lam, mu)
        readings.append((lam, mu))
    # the two parameter readings are independent across the basis
    assert oracles.dense_rank([list(r) for r in readings]) == 2


# ---------------------------------------------------------------------------
# Long-exact-sequence feasibility and the zero-bracket comparison


def test_les_feasibility_on_the_triangular_algebra():
    report = les_feasibility((1, 0, 1, 5, 3, 0), (1, 2, 1, 0), (3, 6, 3, 0))
    assert report.ok
    assert report.ranks == (1, 0, 0, 0, 2, 1, 0, 1, 5, 0, 0, 3, 0)
    assert report.to_dict()["ok"] is True


def test_les_feasibility_flags_impossible_data():
    report = les_feasibility((1, 0, 0, 5, 3, 0), (1, 2, 1, 0), (3, 6, 3, 0))
    assert not report.ok
    assert "P2" in report.reason


def test_les_feasibility_low_degree_m2():
    assert les_feasibility((1, 0, 1), (1, 1, 0), (2, 2)).ok


@pytest.mark.parametrize("name,bad_rows", [("trivial2", {3: (3, 7), 4: (4, 7)}),
                                           ("kxk", {3: (0, 6), 4: (0, 4)})])
def test_trivial_bracket_comparison_reports_honestly(name, bad_rows):
    """The candidate splitting holds in degrees <= 2 and fails beyond; the
    comparison must say so rather than assert."""
    alg = builtin(name)
    out = trivial_bracket_decomposition(alg, max_degree=4)
    assert out["ok"] is False
    for row in out["rows"]:
        n = row["degree"]
        if n in bad_rows:
            assert not row["ok"]
            assert (row["predicted"], row["computed"]) == bad_rows[n]
        else:
            assert row["ok"]
            assert row["predicted"] == row["computed"]


def test_trivial_bracket_comparison_guards():
    with pytest.raises(StructuralError):
        trivial_bracket_decomposition(builtin("nil3"))  # bracket is not zero
    ut2 = builtin("ut2")
    flat = trivial_bracket(ut2.mult, ut2.unit)
    with pytest.raises(StructuralError):
        trivial_bracket_decomposition(flat)  # zero bracket but not commutative
