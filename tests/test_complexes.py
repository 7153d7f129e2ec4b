"""Assembly of the bicomplex differentials and the side complexes.

The elementary blocks are cross-checked against independent dense
re-derivations (bar-complex and Chevalley-Eilenberg formulas evaluated
slot by slot, a Hom-module reformulation of the horizontal map, and a
direct three-term evaluation of the corner map), not just against each
other.
"""

import hashlib
import itertools
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poiscoh.algebra import (
    ModuleSpec,
    StructuralError,
    builtin,
    regular_module,
    validate_module,
)
from poiscoh.cochain import (THEORIES, CochainSpace, tensor_rank, wedge_normalize,
                             wedge_rank)
from poiscoh.deformation import transport
from poiscoh.complexes import (
    SIGN_CONVENTION,
    build_complex,
    delta_H,
    delta_V,
    delta_v,
    differential,
    edge_maps,
    sigma_embed,
)
from poiscoh.linalg import SparseMatrix, kernel_basis

import oracles

COMMUTATIVE = ("trivial2", "kxk", "nil3", "sl2std")


def _unit(m, comp):
    return tuple(1 if k == comp else 0 for k in range(m))


def _edge_basis(alg, which, n):
    """A basis of the degree-n space of a distinguished subcomplex."""
    return kernel_basis(edge_maps(alg, which, n)[0])


# ---------------------------------------------------------------------------
# d o d = 0, and the sign rule that makes it so


# (builtin, theory, top degree); caps keep the dim-4 algebras affordable here,
# the acceptance suite runs the wider sweep.
COVERAGE = [
    (name, theory, 5)
    for name in ("trivial2", "kxk")
    for theory in ("poisson", "quasi", "omega", "hochschild", "ce")
] + [
    ("ut2", "poisson", 4), ("ut2", "quasi", 4), ("ut2", "omega", 3),
    ("ut2", "hochschild", 4), ("ut2", "ce", 3),
    ("nil3", "poisson", 4), ("nil3", "quasi", 4), ("nil3", "omega", 3),
    ("nil3", "hochschild", 4), ("nil3", "ce", 3),
    ("m2", "poisson", 3), ("m2", "quasi", 3), ("m2", "omega", 2),
    ("m2", "hochschild", 3), ("m2", "ce", 4),
    ("sl2std", "poisson", 3), ("sl2std", "quasi", 3), ("sl2std", "omega", 2),
]


@pytest.mark.parametrize("name,theory,top", COVERAGE)
def test_d_squared_is_zero(name, theory, top):
    alg = builtin(name)
    mod = regular_module(alg)
    mats = [differential(alg, mod, theory, n) for n in range(top + 1)]
    for n in range(top):
        prod = mats[n + 1].scaled_integer_copy().matmul(mats[n].scaled_integer_copy())
        assert prod.is_zero, f"{name}/{theory} fails d o d = 0 at degree {n}"


def test_sign_convention_constant():
    assert SIGN_CONVENTION == "horizontal-(-1)^i"


def test_mixed_squares_commute_so_the_twist_is_needed():
    """delta_V o delta_H == delta_H o delta_V on every mixed square, so the
    (-1)^i twist is what cancels them in d o d.  The composite is nonzero on
    a square with i >= 2, whose four blocks all lie in the poisson layout and
    which no corner map reaches: there an untwisted assembly's d o d is twice
    the composite, so it is not a complex."""
    alg = builtin("ut2")
    mod = regular_module(alg)
    untwisted_breaks = False
    for i in range(4):
        for j in range(3):
            vh = delta_V(alg, mod, i, j + 1).matmul(delta_H(alg, mod, i, j))
            hv = delta_H(alg, mod, i + 1, j).matmul(delta_V(alg, mod, i, j))
            assert vh == hv, (i, j)
            untwisted_breaks = untwisted_breaks or (i >= 2 and not vh.is_zero)
    assert untwisted_breaks


def test_build_complex_shapes_chain():
    alg = builtin("ut2")
    mod = regular_module(alg)
    mats = build_complex(alg, mod, "poisson", 4)
    assert len(mats) == 5
    for n in range(4):
        assert mats[n + 1].ncols == mats[n].nrows
        assert mats[n].ncols == CochainSpace.build("poisson", n, 3, 3).dim


def test_poisson_theories_reject_non_poisson_modules():
    alg = builtin("ut2")
    mod = regular_module(alg)
    quasi_mod = ModuleSpec(dim=mod.dim, algebra_dim=mod.algebra_dim,
                           left=mod.left, right=mod.right, lie=mod.lie,
                           flavor="quasi")
    for theory in ("poisson", "omega"):
        with pytest.raises(StructuralError):
            differential(alg, quasi_mod, theory, 1)
    # the purely bicomplex theories take it fine
    assert differential(alg, quasi_mod, "quasi", 1).nnz > 0


# ---------------------------------------------------------------------------
# Elementary blocks against independent dense re-derivations


def _bar_oracle(alg, mod, n):
    """Hochschild coboundary on Hom(A^n, M) by direct slotwise evaluation."""
    d, m = alg.dim, mod.dim
    src_words = list(itertools.product(range(d), repeat=n))
    tgt_words = list(itertools.product(range(d), repeat=n + 1))
    cols = {}
    for si, w in enumerate(src_words):
        for comp in range(m):
            col = [Fraction(0)] * (len(tgt_words) * m)
            for ti, y in enumerate(tgt_words):
                val = [Fraction(0)] * m
                if y[1:] == w:
                    for k, v in enumerate(mod.act_left(alg.basis_vector(y[0]), _unit(m, comp))):
                        val[k] += v
                for pos in range(1, n + 1):
                    sign = -1 if pos % 2 else 1
                    for r, c in alg.mult_pairs[y[pos - 1]][y[pos]]:
                        if y[:pos - 1] + (r,) + y[pos + 1:] == w:
                            val[comp] += sign * c
                if y[:-1] == w:
                    sign = -1 if (n + 1) % 2 else 1
                    for k, v in enumerate(mod.act_right(alg.basis_vector(y[-1]), _unit(m, comp))):
                        val[k] += sign * v
                for k, v in enumerate(val):
                    col[ti * m + k] += v
            cols[si * m + comp] = col
    return cols


def _matrix_matches_oracle(mat, cols):
    for col, vec in cols.items():
        for row, v in enumerate(vec):
            assert mat[row, col] == v, (row, col)
    assert mat.nnz == sum(1 for vec in cols.values() for v in vec if v)


def _block_input(name):
    """A builtin with its regular module, or ``"m2/5"``: m2 in the basis
    (1, e, f, 5h), with the regular module of m2 pulled back along that
    isomorphism (the new basis element i acts as its image does).  Its
    brackets hold fifths and its products tenths, while its module actions
    are integral, so the Lie action has a smaller denominator than the
    scale the blocks are built at."""
    if name != "m2/5":
        alg = builtin(name)
        return alg, regular_module(alg)
    alg = builtin("m2")
    factors = (1, 1, 1, 5)
    rescaled = transport(alg, [[factors[r] if r == c else 0 for c in range(4)]
                               for r in range(4)])
    mod = regular_module(alg)

    def pulled_back(table):
        return tuple(tuple(tuple(factors[a] * v for v in vec) for vec in table[a])
                     for a in range(4))

    return rescaled, ModuleSpec.build(4, 4, pulled_back(mod.left), pulled_back(mod.right),
                                      pulled_back(mod.lie))


@pytest.mark.parametrize("name", ("ut2", "nil3", "m2", "sl2std", "m2/5"))
@pytest.mark.parametrize("n", (0, 1, 2, 3))
def test_vertical_block_matches_bar_formula(name, n):
    alg, mod = _block_input(name)
    _matrix_matches_oracle(delta_V(alg, mod, n, 0), _bar_oracle(alg, mod, n))


@pytest.mark.parametrize("name", ("ut2", "nil3", "m2", "m2/5"))
@pytest.mark.parametrize("n", (0, 1, 2))
def test_horizontal_block_matches_ce_formula(name, n):
    alg, mod = _block_input(name)
    mat = delta_H(alg, mod, 0, n)
    nrows, ncols, entries = oracles.lie_coboundary(alg.bracket, mod.lie, n)
    assert (mat.nrows, mat.ncols) == (nrows, ncols)
    assert dict(mat.entries) == entries


def test_vertical_map_leaves_the_wedge_alone():
    """delta_V on an (i, j) block is the (i, 0) map with a wedge spectator."""
    alg = builtin("ut2")
    mod = regular_module(alg)
    d, m = alg.dim, mod.dim
    for i, j in ((0, 1), (1, 1), (2, 1), (1, 2)):
        plain = delta_V(alg, mod, i, 0)
        full = delta_V(alg, mod, i, j)
        C = comb(d, j)
        seen = 0
        for (r, c), v in full.entries.items():
            rcell, rcomp = divmod(r, m)
            rten, rwedge = divmod(rcell, C)
            ccell, ccomp = divmod(c, m)
            cten, cwedge = divmod(ccell, C)
            assert rwedge == cwedge
            assert plain[rten * m + rcomp, cten * m + ccomp] == v
            seen += 1
        assert seen == plain.nnz * C


# ---------------------------------------------------------------------------
# The horizontal map as Chevalley-Eilenberg cohomology of a Hom-module


def _hom_module(alg, mod, i):
    """Hom(A^i, M) with pointwise bimodule actions and the diagonal Lie
    action: bracket on values minus the sum of bracket substitutions."""
    d, m = alg.dim, mod.dim
    words = list(itertools.product(range(d), repeat=i))
    M = len(words) * m

    def embed(wi, mvec):
        out = [Fraction(0)] * M
        for k, v in enumerate(mvec):
            out[wi * m + k] = v
        return out

    left, right, lie = [], [], []
    for a in range(d):
        avec = alg.basis_vector(a)
        lrow, rrow, brow = [], [], []
        for wi, word in enumerate(words):
            for comp in range(m):
                lrow.append(tuple(embed(wi, mod.act_left(avec, _unit(m, comp)))))
                rrow.append(tuple(embed(wi, mod.act_right(avec, _unit(m, comp)))))
                img = embed(wi, mod.act_lie(avec, _unit(m, comp)))
                for yi, y in enumerate(words):
                    acc = 0
                    for t in range(i):
                        for z, c in alg.bracket_pairs[a][y[t]]:
                            if y[:t] + (z,) + y[t + 1:] == word:
                                acc -= c
                    if acc:
                        img[yi * m + comp] += acc
                brow.append(tuple(img))
        left.append(tuple(lrow))
        right.append(tuple(rrow))
        lie.append(tuple(brow))
    return ModuleSpec(dim=M, algebra_dim=d, left=tuple(left),
                      right=tuple(right), lie=tuple(lie), flavor="quasi")


HOM_MODULE_CASES = [(name, i, j) for name in ("ut2", "nil3")
                    for i, j in ((1, 1), (2, 0), (2, 1), (2, 2), (3, 0), (3, 1))]
HOM_MODULE_CASES += [("m2/5", i, j) for i, j in ((1, 1), (2, 0), (2, 1), (2, 2))]


# the ut2 cases are named by (i, j) alone
@pytest.mark.parametrize("name,i,j", HOM_MODULE_CASES, ids=[
    f"{i}-{j}" if name == "ut2" else f"{name}-{i}-{j}" for name, i, j in HOM_MODULE_CASES])
def test_delta_H_is_ce_of_the_hom_module(name, i, j):
    """Transposing the tensor slots into the coefficients must reproduce the
    horizontal map exactly, including every substitution sign."""
    alg, mod = _block_input(name)
    d, m = alg.dim, mod.dim
    hom = _hom_module(alg, mod, i)
    assert validate_module(alg, hom).ok
    orig = delta_H(alg, mod, i, j)
    via_ce = delta_H(alg, hom, 0, j)
    assert (orig.nrows, orig.ncols) == (via_ce.nrows, via_ce.ncols)

    M = d ** i * m

    def relabel(flat, width):
        cell, comp = divmod(flat, m)
        trank, wrank = divmod(cell, width)
        return wrank * M + trank * m + comp

    cj, cj1 = comb(d, j), comb(d, j + 1)
    assert orig.nnz == via_ce.nnz
    for (r, c), v in orig.entries.items():
        assert via_ce[relabel(r, cj1), relabel(c, cj)] == v


# ---------------------------------------------------------------------------
# The corner map, by direct three-term evaluation


def _corner_eval(alg, mod, j, fvec, a, b, omega):
    d, m = alg.dim, mod.dim

    def f_at(word):
        sgn, w = wedge_normalize(word)
        if sgn == 0:
            return (Fraction(0),) * m
        base = wedge_rank(w, d) * m
        return tuple(sgn * fvec[base + k] for k in range(m))

    t1 = mod.act_left(alg.basis_vector(a), f_at((b,) + omega))
    t3 = mod.act_right(alg.basis_vector(b), f_at((a,) + omega))
    t2 = [Fraction(0)] * m
    for r, c in alg.mult_pairs[a][b]:
        for k, v in enumerate(f_at((r,) + omega)):
            t2[k] += c * v
    return tuple(x - y + z for x, y, z in zip(t1, t2, t3))


@pytest.mark.parametrize("name,j", (("trivial2", 1), ("ut2", 1), ("ut2", 2), ("nil3", 2),
                                    ("m2", 1), ("m2", 3), ("sl2std", 2)))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_corner_map_matches_direct_evaluation(name, j, data):
    alg = builtin(name)
    mod = regular_module(alg)
    d, m = alg.dim, mod.dim
    width = comb(d, j) * m
    fvec = tuple(
        Fraction(data.draw(st.integers(-4, 4)), data.draw(st.integers(1, 3)))
        for _ in range(width)
    )
    out = delta_v(alg, mod, j).matvec(fvec)
    cm = comb(d, j - 1)
    for a in range(d):
        for b in range(d):
            for omega in itertools.combinations(range(d), j - 1):
                want = _corner_eval(alg, mod, j, fvec, a, b, omega)
                cell = (tensor_rank((a, b), d) * cm + wedge_rank(omega, d)) * m
                assert tuple(out[cell:cell + m]) == want


# ---------------------------------------------------------------------------
# Multiderivations and the Lichnerowicz-style complex


@pytest.mark.parametrize("name,dims", (
    ("trivial2", (2, 1, 0, 0)),
    ("kxk", (2, 0, 0, 0)),
    ("nil3", (3, 4, 2, 0, 0)),
    ("sl2std", (4, 9, 9, 3, 0, 0)),
))
def test_multiderivation_space_dims(name, dims):
    alg = builtin(name)
    got = tuple(len(_edge_basis(alg, "I", n)) for n in range(len(dims)))
    assert got == dims


@pytest.mark.parametrize("name", ("nil3", "sl2std"))
def test_lp_basis_elements_are_derivations_in_each_slot(name):
    """Every basis vector must satisfy the Leibniz rule in the first slot for
    every basis product and spectator wedge -- checked by evaluation, not by
    re-running the constraint matrix."""
    alg = builtin(name)
    d = alg.dim
    for n in (1, 2):
        for fvec in _edge_basis(alg, "I", n):
            def f_at(word):
                sgn, w = wedge_normalize(word)
                if sgn == 0:
                    return (Fraction(0),) * d
                base = wedge_rank(w, d) * d
                return tuple(sgn * fvec[base + k] for k in range(d))

            for omega in itertools.combinations(range(d), n - 1):
                for i in range(d):
                    for j in range(d):
                        prod = [Fraction(0)] * d
                        for r, c in alg.mult_pairs[i][j]:
                            for k, v in enumerate(f_at((r,) + omega)):
                                prod[k] += c * v
                        lhs = tuple(prod)
                        rhs = tuple(
                            x + y for x, y in zip(
                                alg.product(alg.basis_vector(i), f_at((j,) + omega)),
                                alg.product(alg.basis_vector(j), f_at((i,) + omega)),
                            ))
                        assert lhs == rhs


@pytest.mark.parametrize("name", ("nil3", "sl2std"))
def test_lp_coboundary_preserves_multiderivations(name):
    alg = builtin(name)
    mod = regular_module(alg)
    for n in range(3):
        constraints_next = delta_v(alg, mod, n + 1)
        d_n = delta_H(alg, mod, 0, n)
        d_next = delta_H(alg, mod, 0, n + 1)
        for fvec in _edge_basis(alg, "I", n):
            img = d_n.matvec(fvec)
            assert not any(constraints_next.matvec(img))
            assert not any(d_next.matvec(img))


@pytest.mark.parametrize("name", COMMUTATIVE)
def test_sigma_embedding_is_a_chain_map(name):
    """Including multiderivations as leading wedge blocks must intertwine the
    Lichnerowicz coboundary with the full theory differential on the nose."""
    alg = builtin(name)
    mod = regular_module(alg)
    for n in range(3):
        d_full = differential(alg, mod, "poisson", n)
        d_lp = delta_H(alg, mod, 0, n)
        for fvec in _edge_basis(alg, "I", n):
            lhs = d_full.matvec(sigma_embed(alg, n, fvec))
            rhs = sigma_embed(alg, n + 1, d_lp.matvec(fvec))
            assert tuple(lhs) == tuple(rhs)


def test_sigma_embed_rejects_wrong_width():
    alg = builtin("nil3")
    with pytest.raises(StructuralError):
        sigma_embed(alg, 2, (0, 1, 2))


# ---------------------------------------------------------------------------
# The distinguished edge subcomplexes


@pytest.mark.parametrize("name", ("ut2", "nil3"))
def test_type_I_is_closed_under_its_coboundary(name):
    alg = builtin(name)
    mod = regular_module(alg)
    assert len(_edge_basis(alg, "I", 0)) == mod.dim
    for n in (1, 2):
        killer = delta_v(alg, mod, n + 1)
        d_n = edge_maps(alg, "I", n)[1]
        for fvec in _edge_basis(alg, "I", n):
            assert not any(delta_v(alg, mod, n).matvec(fvec))
            assert not any(killer.matvec(d_n.matvec(fvec)))


@pytest.mark.parametrize("name", ("ut2", "nil3"))
def test_type_II_is_closed_under_its_coboundary(name):
    alg = builtin(name)
    mod = regular_module(alg)
    for n in (1, 2):
        killer = delta_H(alg, mod, n + 1, 0)
        d_n = edge_maps(alg, "II", n)[1]
        for fvec in _edge_basis(alg, "II", n):
            assert not any(delta_H(alg, mod, n, 0).matvec(fvec))
            assert not any(killer.matvec(d_n.matvec(fvec)))


def test_type_coboundaries_are_the_edge_maps():
    alg = builtin("ut2")
    mod = regular_module(alg)
    assert edge_maps(alg, "I", 2) == (delta_v(alg, mod, 2), delta_H(alg, mod, 0, 2))
    assert edge_maps(alg, "II", 2) == (delta_H(alg, mod, 2, 0), delta_V(alg, mod, 2, 0))


def test_unknown_subcomplex_type():
    alg = builtin("ut2")
    with pytest.raises(StructuralError):
        edge_maps(alg, "III", 1)


# ---------------------------------------------------------------------------
# Pinned bytes of differentials with fractional structure constants


RESCALED_DUMPS = {
    ("m2", "poisson", 2): "c94985a5d13ace7faa1ae532788c555d8bad695f50945a41b71d58510d17719b",
    ("m2", "poisson", 3): "b5e4386de90364c7727b6440ceed422b4a51cb769b8493948a7e918fc3b4345a",
    ("m2", "omega", 2): "c9b418db6f3e9a66692ca135a6e4ea2107eeebd38293e20bb3e2946b8994830f",
    ("ut2", "poisson", 2): "c56be4729f25eab1cb23f8848248fc36e9037516e609fd54dc6904e446971b07",
    ("ut2", "poisson", 3): "5945c192b1cfed37f040e6946ddafc95d077ec15b96286ed9a4106435066103c",
    ("ut2", "omega", 2): "2c8989e55b0ab47f72968227d892fc23ffdb29a92a59e5b0c25b5b7544b95749",
    # the deepest differentials of the benchmark's sweep
    ("ut2", "omega", 4): "ab45c1876c8d30e1f8bc83c089c53d2ec1d87dc7ddfe92b9e4d6eb335b1fae65",
    ("ut2", "quasi", 4): "faf318b0923e06e476db617c78ac60a5cea656d2687a6e3f75257092f26ae4fd",
    ("ut2", "poisson", 4): "2c8989e55b0ab47f72968227d892fc23ffdb29a92a59e5b0c25b5b7544b95749",
    ("ut2", "hochschild", 4): "703195988bcc55a1024cb3abe528ecdba6f3c6cb425507705c350834f1c2e85e",
    ("ut2", "ce", 2): "52c53670f3f0a0a328fc2dbca428900852ea22407bd32933839e69c62ca77468",
    ("nil3", "omega", 4): "a96166723d5412fc1ee8e18731d8ec9acd3055295c072b1022de6c71c14af612",
    ("nil3", "quasi", 4): "5b2d62d9f9b409e148644c1dee19a19268949c7311c9851fe5c2b3322c0eafb5",
    ("nil3", "poisson", 4): "740316296e1b5a2a1458b2db758a153081d47acd2553fc9946a2702b7b3d5532",
    ("nil3", "hochschild", 4): "468808b6755504992ca2d1a24f84f460ec1901d41cdc1d126dadfd7247ef0f54",
    ("nil3", "ce", 2): "9b84c240f61af45e4a670a2e531277b8d2142f7f1073e8f3001d2f09ff73f502",
    ("sl2std", "omega", 2): "e1bb2fc63a8a787c3f7ff8e8a55fabdb758b3138b20e59d4839b89e35eab2c43",
    # its delta_H, delta_V and wedge-copy parts each sit at 1/8 of the common scale
    ("m2", "quasi", 2): "557e8655f9e79fd12a27165bf7fbe3060a0881c74f642b5cb99d89fa12172f04",
}


@pytest.mark.parametrize("name,theory,degree", sorted(RESCALED_DUMPS))
def test_rescaled_differential_dump_is_pinned(name, theory, degree):
    """The builtin with basis vector i scaled by 2/3 (i even) or -3/2 (i odd)
    has mostly fractional structure constants, so most entries of its
    differentials are Fractions; their dump bytes are pinned."""
    alg = builtin(name)
    factors = (Fraction(2, 3), Fraction(-3, 2))
    alg = transport(alg, [[factors[r % 2] if r == c else 0 for c in range(alg.dim)]
                          for r in range(alg.dim)])
    mat = differential(alg, regular_module(alg), theory, degree)
    assert mat.denominator > 1
    digest = hashlib.sha256(mat.dump_text().encode()).hexdigest()
    assert digest == RESCALED_DUMPS[name, theory, degree]


def _pasted_blocks(alg, mod, theory, n):
    """d^n pasted from the rational entries of the elementary blocks, each
    at its offsets with its sign, by the SparseMatrix constructor."""
    src = CochainSpace.build(theory, n, alg.dim, mod.dim)
    tgt = CochainSpace.build(theory, n + 1, alg.dim, mod.dim)
    entries = []

    def place(block, target, col_off, sign=1):
        row_off = tgt.block_offsets[target]
        entries.extend(((r + row_off, c + col_off), sign * v) for r, c, v in block.triples())

    for i, j in src.blocks:
        col_off = src.block_offsets[i, j]
        if (i, j + 1) in tgt.block_offsets:
            place(delta_H(alg, mod, i, j), (i, j + 1), col_off, -1 if i % 2 else 1)
        if (i + 1, j) in tgt.block_offsets:
            place(delta_V(alg, mod, i, j), (i + 1, j), col_off)
        if theory == "poisson" and i == 0 and j >= 1 and (2, j - 1) in tgt.block_offsets:
            place(delta_v(alg, mod, j), (2, j - 1), col_off)
    return SparseMatrix(tgt.dim, src.dim, entries)


@pytest.mark.parametrize("name", ("ut2", "m2/5"))
@pytest.mark.parametrize("theory", THEORIES)
def test_differential_is_its_blocks_at_their_offsets(name, theory):
    """Assembly writes each part at a factor that brings its denominator to
    the common one.  m2/5's Lie action has a smaller denominator than the
    scale of its horizontal blocks, so a part written at the wrong one of
    the two shows here."""
    alg, mod = _block_input(name)
    for n in range(3):
        assert differential(alg, mod, theory, n) == _pasted_blocks(alg, mod, theory, n)


# ---------------------------------------------------------------------------
# What the block caches hold

BLOCK_CACHES = (delta_H, delta_V, delta_v)


def _lookups():
    return [cache.cache_info().hits + cache.cache_info().misses for cache in BLOCK_CACHES]


def test_block_caches_hold_one_pairs_i0_blocks():
    """The caches keep the (i, 0) blocks of delta_H and delta_V and the
    corner blocks of the last (algebra, module) pair asked for; the j >= 1
    blocks are built for the differential and kept nowhere."""
    for cache in BLOCK_CACHES:
        cache.cache_clear()
    alg = builtin("ut2")
    mod = regular_module(alg)
    d = alg.dim
    # omega degree n is the (i, n + 2 - i) blocks, i >= 2; through n = 4
    # the nonempty ones have i = 2 .. 6, and each reads delta_H(i, 0) and
    # delta_V(i, 0)
    used = {i for n in range(5) for i, j in CochainSpace.build("omega", n, d, d).blocks
            if comb(d, j)}
    assert used == set(range(2, 7))
    for n in range(5):
        differential(alg, mod, "omega", n)
    assert [cache.cache_info().currsize for cache in BLOCK_CACHES] == [len(used), len(used), 0]
    before = _lookups()

    # sl2std poisson d^2 reads delta_H(0, 2) and delta_H(2, 0), so the (0, 0)
    # and (2, 0) actions; delta_V(2, 0); and the corner map delta_v(2), which
    # reads delta_V(1, 0)
    alg = builtin("sl2std")
    differential(alg, regular_module(alg), "poisson", 2)
    assert [cache.cache_info().currsize for cache in BLOCK_CACHES] == [2, 2, 1]
    assert all(now >= then for now, then in zip(_lookups(), before))
    # the kept blocks are sl2std's: asking for them again only hits
    misses = [cache.cache_info().misses for cache in BLOCK_CACHES]
    mod = regular_module(alg)  # a fresh module equal by value
    for i in (0, 2):
        delta_H(alg, mod, i, 0)
    for i in (1, 2):
        delta_V(alg, mod, i, 0)
    delta_v(alg, mod, 2)
    assert [cache.cache_info().misses for cache in BLOCK_CACHES] == misses
    assert all(cache.cache_info().maxsize is None for cache in BLOCK_CACHES)


def test_direct_j_blocks_are_built_from_the_cached_i0_block():
    """delta_H(i, j) and delta_V(i, j) for j >= 1 are built from the cached
    (i, 0) block: one lookup of it each, and nothing more kept."""
    for cache in BLOCK_CACHES:
        cache.cache_clear()
    alg = builtin("m2")
    mod = regular_module(alg)
    first = delta_H(alg, mod, 1, 2), delta_V(alg, mod, 1, 2)
    assert [cache.cache_info()[:2] for cache in BLOCK_CACHES] == [(0, 1), (0, 1), (0, 0)]
    assert (delta_H(alg, mod, 1, 2), delta_V(alg, mod, 1, 2)) == first
    assert [cache.cache_info() for cache in BLOCK_CACHES] == [(1, 1, None, 1)] * 2 + [
        (0, 0, None, 0)]


def test_clearing_one_block_cache_keeps_the_others():
    """cache_clear drops one cache's values and counts, as lru_cache's does;
    the other caches keep theirs for the same pair."""
    for cache in BLOCK_CACHES:
        cache.cache_clear()
    alg = builtin("m2")
    mod = regular_module(alg)
    differential(alg, mod, "poisson", 2)
    kept = [cache.cache_info() for cache in BLOCK_CACHES]
    delta_H.cache_clear()
    assert [cache.cache_info() for cache in BLOCK_CACHES] == [(0, 0, None, 0)] + kept[1:]
    delta_V(alg, mod, 1, 0)
    assert delta_V.cache_info() == kept[1]._replace(hits=kept[1].hits + 1)
    assert delta_v.cache_info() == kept[2]
