"""Differential blocks and total complexes.

The bigraded space behind every theory here is Hom(A^(tensor i) (x) Lambda^j A, M),
and three elementary maps move between blocks:

* ``delta_H`` — horizontal, Lie-flavored, raising wedge width by one;
* ``delta_V`` — vertical, Hochschild-flavored, with the wedge slot a spectator,
  raising tensor width by one;
* ``delta_v`` — the corner map out of tensor width zero, trading one wedge
  factor for two tensor factors.

Total differentials twist ``delta_H`` out of tensor width ``i`` by ``(-1)**i``
and take the vertical and corner blocks verbatim.  With these elementary maps
the mixed squares commute and the corner square anticommutes, which makes this
twist the unique assembly (up to a global resigning) satisfying d o d = 0;
``tests/test_complexes.py`` demonstrates that the untwisted assembly fails.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb

from .algebra import AlgebraSpec, ModuleSpec, StructuralError, regular_module
from .cochain import (
    CochainSpace,
    tensor_rank,
    wedge_normalize,
    wedge_rank,
)
from .linalg import SparseMatrix, kernel_basis

SIGN_CONVENTION = "horizontal-(-1)^i"


def _block_dim(alg: AlgebraSpec, mod: ModuleSpec, i: int, j: int) -> int:
    return mod.dim * alg.dim ** i * comb(alg.dim, j)


@lru_cache(maxsize=None)
def delta_H(alg: AlgebraSpec, mod: ModuleSpec, i: int, j: int) -> SparseMatrix:
    """Horizontal block map (i, j) -> (i, j+1), verbatim (no assembly sign).

    On f : A^(x)i (x) Lambda^j -> M, evaluated at (a_1..a_i, x_1^...^x_{j+1}):
    alternating sum over slots l of the module Lie action of x_l on
    f(..., omitted-slot wedge) minus bracket substitutions of x_l into each
    tensor factor, plus the alternating pair terms feeding {x_p, x_q} back
    into the wedge.  At i = 0 this is the usual Lie-module coboundary.
    """
    d, m = alg.dim, mod.dim
    ncols = _block_dim(alg, mod, i, j)
    nrows = _block_dim(alg, mod, i, j + 1)
    out = SparseMatrix(nrows, ncols)
    if nrows == 0 or ncols == 0:
        return out
    cdj = comb(d, j)
    row_base = 0
    for tens in itertools.product(range(d), repeat=i):
        trank = tensor_rank(tens, d)
        for wedge in itertools.combinations(range(d), j + 1):
            for l_pos in range(j + 1):
                sgn = 1 if l_pos % 2 == 0 else -1
                x = wedge[l_pos]
                rest = wedge[:l_pos] + wedge[l_pos + 1:]
                wrank_rest = wedge_rank(rest, d)
                col_cell = (trank * cdj + wrank_rest) * m
                for p in range(m):
                    for q, c in mod.lie_pairs[x][p]:
                        out.add_to(row_base + q, col_cell + p, sgn * c)
                for t_pos in range(i):
                    weight = d ** (i - 1 - t_pos)
                    a_t = tens[t_pos]
                    for k, c in alg.bracket_pairs[x][a_t]:
                        col_cell2 = ((trank + (k - a_t) * weight) * cdj
                                     + wrank_rest) * m
                        for p in range(m):
                            out.add_to(row_base + p, col_cell2 + p, -sgn * c)
            for p_pos in range(j + 1):
                for q_pos in range(p_pos + 1, j + 1):
                    sgn2 = 1 if (p_pos + q_pos) % 2 == 0 else -1
                    rest2 = tuple(wedge[t] for t in range(j + 1)
                                  if t != p_pos and t != q_pos)
                    for k, c in alg.bracket_pairs[wedge[p_pos]][wedge[q_pos]]:
                        wsgn, word = wedge_normalize((k,) + rest2)
                        if wsgn == 0:
                            continue
                        col_cell3 = (trank * cdj + wedge_rank(word, d)) * m
                        for p in range(m):
                            out.add_to(row_base + p, col_cell3 + p,
                                       sgn2 * wsgn * c)
            row_base += m
    return out


@lru_cache(maxsize=None)
def delta_V(alg: AlgebraSpec, mod: ModuleSpec, i: int, j: int) -> SparseMatrix:
    """Vertical block map (i, j) -> (i+1, j), verbatim.

    The Hochschild coboundary in the tensor slots with the wedge slot along
    for the ride: left action of the first argument, alternating inner
    merges, and a signed right action of the last argument.
    """
    d, m = alg.dim, mod.dim
    ncols = _block_dim(alg, mod, i, j)
    nrows = _block_dim(alg, mod, i + 1, j)
    out = SparseMatrix(nrows, ncols)
    if nrows == 0 or ncols == 0:
        return out
    cdj = comb(d, j)
    last_sign = -1 if i % 2 == 0 else 1  # (-1)^(i+1)
    row_base = 0
    for tens in itertools.product(range(d), repeat=i + 1):
        head_rank = tensor_rank(tens[1:], d)
        tail_rank = tensor_rank(tens[:-1], d)
        merged_ranks = []
        for k_pos in range(i):
            sgn = -1 if k_pos % 2 == 0 else 1  # (-1)^(k+1)
            word = tens[:k_pos] + (0,) + tens[k_pos + 2:]
            base = tensor_rank(word, d)
            weight = d ** (i - 1 - k_pos)
            merged_ranks.append((sgn, base, weight,
                                 alg.mult_pairs[tens[k_pos]][tens[k_pos + 1]]))
        for wrank in range(cdj):
            for p in range(m):
                col_head = (head_rank * cdj + wrank) * m + p
                for q, c in mod.left_pairs[tens[0]][p]:
                    out.add_to(row_base + q, col_head, c)
                col_tail = (tail_rank * cdj + wrank) * m + p
                for q, c in mod.right_pairs[tens[-1]][p]:
                    out.add_to(row_base + q, col_tail, last_sign * c)
            for sgn, base, weight, pairs in merged_ranks:
                for r, c in pairs:
                    col_cell = ((base + r * weight) * cdj + wrank) * m
                    for p in range(m):
                        out.add_to(row_base + p, col_cell + p, sgn * c)
            row_base += m
    return out


@lru_cache(maxsize=None)
def delta_v(alg: AlgebraSpec, mod: ModuleSpec, j: int) -> SparseMatrix:
    """Corner block map (0, j) -> (2, j-1), verbatim.

    On f : Lambda^j -> M at (a (x) b, omega):
    a.f(b^omega) - f(ab^omega) + f(a^omega).b.
    """
    if j < 1:
        raise StructuralError("the corner map needs at least one wedge factor")
    d, m = alg.dim, mod.dim
    ncols = _block_dim(alg, mod, 0, j)
    nrows = _block_dim(alg, mod, 2, j - 1)
    out = SparseMatrix(nrows, ncols)
    if nrows == 0 or ncols == 0:
        return out
    row_base = 0
    for a, b in itertools.product(range(d), repeat=2):
        for omega in itertools.combinations(range(d), j - 1):
            wsgn, word = wedge_normalize((b,) + omega)
            if wsgn:
                col_cell = wedge_rank(word, d) * m
                for p in range(m):
                    for q, c in mod.left_pairs[a][p]:
                        out.add_to(row_base + q, col_cell + p, wsgn * c)
            for r, c in alg.mult_pairs[a][b]:
                wsgn, word = wedge_normalize((r,) + omega)
                if wsgn == 0:
                    continue
                col_cell = wedge_rank(word, d) * m
                for p in range(m):
                    out.add_to(row_base + p, col_cell + p, -wsgn * c)
            wsgn, word = wedge_normalize((a,) + omega)
            if wsgn:
                col_cell = wedge_rank(word, d) * m
                for p in range(m):
                    for q, c in mod.right_pairs[b][p]:
                        out.add_to(row_base + q, col_cell + p, wsgn * c)
            row_base += m
    return out


def hochschild_coboundary(alg: AlgebraSpec, mod: ModuleSpec, n: int) -> SparseMatrix:
    """The plain Hochschild coboundary Hom(A^(x)n, M) -> Hom(A^(x)(n+1), M)."""
    return delta_V(alg, mod, n, 0)


def ce_coboundary(alg: AlgebraSpec, mod: ModuleSpec, n: int) -> SparseMatrix:
    """The plain Lie-module coboundary Hom(Lambda^n, M) -> Hom(Lambda^(n+1), M)."""
    return delta_H(alg, mod, 0, n)


def _paste(out: SparseMatrix, block: SparseMatrix, row_off: int, col_off: int,
           sign: int) -> None:
    for (r, c), v in block.entries.items():
        out.add_to(r + row_off, c + col_off, v if sign == 1 else -v)


def _twist(i: int) -> int:
    return -1 if i % 2 else 1


def differential(alg: AlgebraSpec, mod: ModuleSpec, theory: str, degree: int,
                 _horizontal_sign=_twist) -> SparseMatrix:
    """The assembled total differential C^degree -> C^(degree+1) of a theory.

    Which elementary blocks contribute is read off the block layouts
    themselves; the only theory-specific rule is that the corner map belongs
    to the poisson assembly alone (the quasi layout contains the same target
    block but its differential is purely bicomplex).  ``_horizontal_sign``
    maps the tensor width i to the sign on ``delta_H`` out of it; rules
    other than the default exist only so tests can show they break d o d = 0.
    """
    if theory in ("poisson", "omega") and mod.flavor != "poisson":
        raise StructuralError(f"the {theory} theory needs a poisson-flavored module")
    src = CochainSpace.build(theory, degree, alg.dim, mod.dim)
    tgt = CochainSpace.build(theory, degree + 1, alg.dim, mod.dim)
    out = SparseMatrix(tgt.dim, src.dim)
    for i, j in src.blocks:
        if src.block_size(i, j) == 0:
            continue
        col_off = src.block_offsets[i, j]
        if (i, j + 1) in tgt.block_offsets:
            _paste(out, delta_H(alg, mod, i, j),
                   tgt.block_offsets[i, j + 1], col_off, _horizontal_sign(i))
        if (i + 1, j) in tgt.block_offsets:
            _paste(out, delta_V(alg, mod, i, j),
                   tgt.block_offsets[i + 1, j], col_off, 1)
        if theory == "poisson" and i == 0 and j >= 1 and (2, j - 1) in tgt.block_offsets:
            _paste(out, delta_v(alg, mod, j),
                   tgt.block_offsets[2, j - 1], col_off, 1)
    return out


_assemble_with_horizontal_sign = differential


def build_complex(alg: AlgebraSpec, mod: ModuleSpec, theory: str,
                  max_degree: int, verify: bool = True) -> list[SparseMatrix]:
    """Differentials d^0 .. d^max_degree of a theory, with d o d checked.

    The composition check runs on integer-rescaled copies, which is much
    faster and has the same zero set.
    """
    mats = [differential(alg, mod, theory, n) for n in range(max_degree + 1)]
    if verify:
        scaled = [m.scaled_integer_copy() for m in mats]
        for n in range(max_degree):
            if not scaled[n + 1].matmul(scaled[n]).is_zero:
                raise ArithmeticError(
                    f"{theory} assembly is not a complex at degree {n}")
    return mats


# ---------------------------------------------------------------------------
# The multiderivation (Lichnerowicz-flavored) complex of a commutative algebra


def multiderivation_constraints(alg: AlgebraSpec, n: int) -> SparseMatrix:
    """Linear conditions cutting the skew multiderivations out of
    Hom(Lambda^n A, A).

    A wedge-indexed map extends to an alternating multilinear one; it is a
    derivation in every slot iff it is one in the first slot, which is what
    the rows impose: f(b_i b_j ^ omega) = b_i f(b_j ^ omega) + b_j f(b_i ^ omega)
    for every basis pair i <= j and every (n-1)-wedge omega.
    """
    if not alg.is_commutative:
        raise StructuralError("the multiderivation complex needs a commutative algebra")
    d = alg.dim
    ncols = d * comb(d, n)
    if n == 0:
        return SparseMatrix(0, ncols)
    nrows = d * comb(d, n - 1) * (d * (d + 1) // 2)
    out = SparseMatrix(nrows, ncols)
    row_base = 0
    for omega in itertools.combinations(range(d), n - 1):
        for i in range(d):
            for j in range(i, d):
                for r, c in alg.mult_pairs[i][j]:
                    wsgn, word = wedge_normalize((r,) + omega)
                    if wsgn == 0:
                        continue
                    col_cell = wedge_rank(word, d) * d
                    for p in range(d):
                        out.add_to(row_base + p, col_cell + p, wsgn * c)
                for single, other in ((j, i), (i, j)):
                    wsgn, word = wedge_normalize((single,) + omega)
                    if wsgn == 0:
                        continue
                    col_cell = wedge_rank(word, d) * d
                    for p in range(d):
                        for q, c in alg.mult_pairs[other][p]:
                            out.add_to(row_base + q, col_cell + p, -wsgn * c)
                row_base += d
    return out


def lp_space_basis(alg: AlgebraSpec, n: int) -> list[tuple]:
    """Basis of the degree-n skew multiderivation space, as coefficient
    vectors in Hom(Lambda^n A, A)."""
    return kernel_basis(multiderivation_constraints(alg, n))


def lp_coboundary(alg: AlgebraSpec, n: int) -> SparseMatrix:
    """The bracket-induced coboundary on Hom(Lambda^n A, A); restricted to
    multiderivations it is the Lichnerowicz-style differential."""
    if not alg.is_commutative:
        raise StructuralError("the multiderivation complex needs a commutative algebra")
    return ce_coboundary(alg, regular_module(alg), n)


def sigma_embed(alg: AlgebraSpec, n: int, vec) -> tuple:
    """Include a Hom(Lambda^n A, A) vector into the degree-n poisson cochain
    space of the regular module (its leading (0, n) block).  This inclusion
    intertwines the coboundaries on the nose, with no additional sign."""
    space = CochainSpace.build("poisson", n, alg.dim, alg.dim)
    width = alg.dim * comb(alg.dim, n)
    if len(vec) != width:
        raise StructuralError(f"expected {width} coefficients, got {len(vec)}")
    out = [0] * space.dim
    out[:width] = list(vec)
    return tuple(out)


# ---------------------------------------------------------------------------
# Distinguished subcomplexes of the first row and first column


def type_space_basis(alg: AlgebraSpec, mod: ModuleSpec, which: str, n: int) -> list[tuple]:
    """Basis of the degree-n space of a distinguished subcomplex.

    ``"I"``: wedge cochains killed by the corner map, carrying the horizontal
    differential.  ``"II"``: tensor cochains killed by the first horizontal
    map, carrying the Hochschild differential.  Both are genuine subcomplexes
    because the corner square anticommutes and the mixed square commutes.
    """
    d, m = alg.dim, mod.dim
    if which == "I":
        if n == 0:
            return [tuple(1 if k == p else 0 for k in range(m)) for p in range(m)]
        return kernel_basis(delta_v(alg, mod, n))
    if which == "II":
        return kernel_basis(delta_H(alg, mod, n, 0))
    raise StructuralError(f"unknown subcomplex type {which!r}; expected 'I' or 'II'")


def type_coboundary(alg: AlgebraSpec, mod: ModuleSpec, which: str, n: int) -> SparseMatrix:
    """The full-block differential whose restriction the subcomplex carries."""
    if which == "I":
        return ce_coboundary(alg, mod, n)
    if which == "II":
        return hochschild_coboundary(alg, mod, n)
    raise StructuralError(f"unknown subcomplex type {which!r}; expected 'I' or 'II'")
