"""Differential blocks and total complexes.

The bigraded space behind every theory here is Hom(A^(tensor i) (x) Lambda^j A, M),
and three elementary maps move between blocks:

* ``delta_H`` — horizontal, Lie-flavored, raising wedge width by one;
* ``delta_V`` — vertical, Hochschild-flavored, with the wedge slot a spectator,
  raising tensor width by one;
* ``delta_v`` — the corner map out of tensor width zero, trading one wedge
  factor for two tensor factors.  It is the Hochschild coboundary of the
  polarisation: ``delta_v = delta_V(1, j-1) o iota`` with
  ``iota f(a; omega) = f(a ^ omega)``.

Total differentials twist ``delta_H`` out of tensor width ``i`` by ``(-1)**i``
and take the vertical and corner blocks verbatim.  With these elementary maps
the mixed squares commute and the corner square anticommutes, which makes this
twist the unique assembly (up to a global resigning) satisfying d o d = 0;
``tests/test_complexes.py::test_mixed_squares_commute_so_the_twist_is_needed``
shows that the untwisted assembly fails.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from functools import lru_cache
from math import comb, lcm

from .algebra import AlgebraSpec, ModuleSpec, StructuralError
from .cochain import (
    CochainSpace,
    block_size,
    decode,
    encode,
    space_layout,
    tensor_rank,
    wedge_normalize,
    wedge_rank,
)
from .linalg import SparseMatrix, denominator_lcm

SIGN_CONVENTION = "horizontal-(-1)^i"


def _integer_tables(*tables) -> tuple[int, tuple]:
    """Structure-constant pair tables (``pairs[a][b] = ((k, c), ...)``)
    scaled to integers by one common denominator, the lcm of one lcm per
    table: ``(denominator, scaled tables)``."""
    scale = lcm(*(denominator_lcm(c for row in table for pairs in row for _, c in pairs)
                  for table in tables))
    return scale, tuple(
        tuple(tuple(tuple((k, int(c * scale)) for k, c in pairs) for pairs in row)
              for row in table)
        for table in tables)


def _accumulator() -> defaultdict[int, defaultdict[int, int]]:
    """Numerator rows that take ``num[row][col] += value``."""
    return defaultdict(lambda: defaultdict(int))


def _block(nrows: int, ncols: int, num: dict, scale: int) -> SparseMatrix:
    """The block ``num / scale`` from accumulated numerators, zeros dropped."""
    rows = {}
    for r, acc in num.items():
        row = {c: v for c, v in acc.items() if v}
        if row:
            rows[r] = row
    return SparseMatrix.from_numerators(nrows, ncols, rows, scale)


def _induced_lie_action(d: int, m: int, i: int, lie, bracket) -> list[list[tuple]]:
    """The Lie action of each basis element x on the induced module
    Hom(A^(x)i, M), coordinate ``tensor_rank * m + component``, as
    ``(row, col, coefficient)`` triples: x acts on the values through M and
    by minus the bracket substitution of x into each tensor factor."""
    action = []
    for x in range(d):
        triples = []
        for trank, tens in enumerate(itertools.product(range(d), repeat=i)):
            base = trank * m
            triples += [(base + q, base + p, c) for p in range(m) for q, c in lie[x][p]]
            for t_pos, a_t in enumerate(tens):
                shift = d ** (i - 1 - t_pos) * m  # tensor factor t_pos moves by one
                triples += [(base + p, base + (k - a_t) * shift + p, -c)
                            for k, c in bracket[x][a_t] for p in range(m)]
        action.append(triples)
    return action


@lru_cache(maxsize=None)
def delta_H(alg: AlgebraSpec, mod: ModuleSpec, i: int, j: int) -> SparseMatrix:
    """Horizontal block map (i, j) -> (i, j+1), verbatim (no assembly sign).

    The Chevalley-Eilenberg coboundary of the Lie algebra with coefficients
    in the induced module N = Hom(A^(x)i, M) (see
    :func:`_induced_lie_action`): on f : Lambda^j -> N at x_0^...^x_j,
    the alternating sum of x_l acting on f(..., omitted x_l, ...), plus the
    alternating pair terms feeding {x_p, x_q} back into the wedge.  At i = 0
    this is the usual Lie-module coboundary.  Entries sit at the block's own
    flat index ``(tensor_rank * comb(d, j) + wedge_rank) * m + component``.
    """
    d, m = alg.dim, mod.dim
    nrows, ncols = block_size(d, m, i, j + 1), block_size(d, m, i, j)
    scale, (lie, bracket) = _integer_tables(mod.lie_pairs, alg.bracket_pairs)
    action = _induced_lie_action(d, m, i, lie, bracket) if nrows and ncols else ()
    # flat index of coordinate n of N at wedge rank 0, in the target / source
    span = range(block_size(d, m, i, 0))
    row_at = [(n - n % m) * comb(d, j + 1) + n % m for n in span]
    col_at = [(n - n % m) * comb(d, j) + n % m for n in span]
    num = _accumulator()
    for wrank, wedge in enumerate(itertools.combinations(range(d), j + 1)):
        row_w = wrank * m
        for l_pos, x in enumerate(wedge):
            sgn = -1 if l_pos % 2 else 1
            col_w = wedge_rank(wedge[:l_pos] + wedge[l_pos + 1:], d) * m
            for nr, nc, c in action[x]:
                num[row_at[nr] + row_w][col_at[nc] + col_w] += sgn * c
        for p_pos, q_pos in itertools.combinations(range(j + 1), 2):
            sgn = 1 if (p_pos + q_pos) % 2 == 0 else -1
            rest = tuple(w for t, w in enumerate(wedge) if t != p_pos and t != q_pos)
            for k, c in bracket[wedge[p_pos]][wedge[q_pos]]:
                wsgn, word = wedge_normalize((k,) + rest)
                if wsgn:
                    col_w = wedge_rank(word, d) * m
                    for n in span:
                        num[row_at[n] + row_w][col_at[n] + col_w] += sgn * wsgn * c
    return _block(nrows, ncols, num, scale)


@lru_cache(maxsize=None)
def delta_V(alg: AlgebraSpec, mod: ModuleSpec, i: int, j: int) -> SparseMatrix:
    """Vertical block map (i, j) -> (i+1, j), verbatim.

    The Hochschild coboundary in the tensor slots with the wedge slot along
    for the ride: left action of the first argument, alternating inner
    merges, and a signed right action of the last argument.  For j > 0 the
    block is one copy of the (i, 0) block per j-wedge, index-remapped.
    """
    d, m = alg.dim, mod.dim
    if j:
        return _wedge_copies(delta_V(alg, mod, i, 0), comb(d, j), m)
    scale, (left, right, mult) = _integer_tables(mod.left_pairs, mod.right_pairs,
                                                 alg.mult_pairs)
    last_sign = -1 if i % 2 == 0 else 1  # (-1)^(i+1)
    num = _accumulator()
    for trank, tens in enumerate(itertools.product(range(d), repeat=i + 1)):
        row = trank * m
        head = tensor_rank(tens[1:], d) * m
        tail = tensor_rank(tens[:-1], d) * m
        for p in range(m):
            for q, c in left[tens[0]][p]:
                num[row + q][head + p] += c
            for q, c in right[tens[-1]][p]:
                num[row + q][tail + p] += last_sign * c
        for k_pos in range(i):
            sgn = -1 if k_pos % 2 == 0 else 1  # (-1)^(k+1)
            base = tensor_rank(tens[:k_pos] + (0,) + tens[k_pos + 2:], d)
            weight = d ** (i - 1 - k_pos)
            for r, c in mult[tens[k_pos]][tens[k_pos + 1]]:
                col = (base + r * weight) * m
                for p in range(m):
                    num[row + p][col + p] += sgn * c
    return _block(block_size(d, m, i + 1, 0), block_size(d, m, i, 0), num, scale)


def _wedge_copies(block: SparseMatrix, copies: int, m: int) -> SparseMatrix:
    """A map on tensor-word cells with a wedge spectator: one copy of
    ``block`` per wedge word, at flat index ``(cell * copies + wedge) * m +
    component`` on both sides."""
    rows = {}
    for r, row in block.numerators.items():
        r0 = (r - r % m) * copies + r % m
        shifted = [((c - c % m) * copies + c % m, v) for c, v in row.items()]
        for w in range(0, copies * m, m):
            rows[r0 + w] = {c0 + w: v for c0, v in shifted}
    return SparseMatrix.from_numerators(block.nrows * copies, block.ncols * copies, rows,
                                        block.denominator)


def _polarisation(d: int, m: int, j: int) -> SparseMatrix:
    """The polarisation Hom(Lambda^j, M) -> Hom(A (x) Lambda^(j-1), M),
    ``f |-> (a (x) omega |-> f(a ^ omega))``: one entry, the sign that sorts
    ``a ^ omega``, per row whose wedge does not collapse."""
    rows = {}
    for row, (a, omega) in enumerate(itertools.product(
            range(d), itertools.combinations(range(d), j - 1))):
        wsgn, word = wedge_normalize((a,) + omega)
        if wsgn:
            col = wedge_rank(word, d) * m
            for p in range(m):
                rows[row * m + p] = {col + p: wsgn}
    return SparseMatrix.from_numerators(block_size(d, m, 1, j - 1), block_size(d, m, 0, j),
                                        rows)


@lru_cache(maxsize=None)
def delta_v(alg: AlgebraSpec, mod: ModuleSpec, j: int) -> SparseMatrix:
    """Corner block map (0, j) -> (2, j-1), verbatim.

    On f : Lambda^j -> M at (a (x) b, omega):
    a.f(b^omega) - f(ab^omega) + f(a^omega).b,
    which is delta_V(1, j-1) o iota for the polarisation iota of
    :func:`_polarisation`.
    """
    if j < 1:
        raise StructuralError("the corner map needs at least one wedge factor")
    return delta_V(alg, mod, 1, j - 1).matmul(_polarisation(alg.dim, mod.dim, j))


def differential(alg: AlgebraSpec, mod: ModuleSpec, theory: str,
                 degree: int) -> SparseMatrix:
    """The assembled total differential C^degree -> C^(degree+1) of a theory.

    Which elementary blocks contribute is read off the block layouts
    themselves; the only theory-specific rule is that the corner map belongs
    to the poisson assembly alone (the quasi layout contains the same target
    block but its differential is purely bicomplex).  ``delta_H`` out of
    tensor width i carries the sign ``(-1)**i``.

    Every entry belongs to exactly one (source block, target block) pair, so
    each block's numerators, rescaled to the common denominator, are written
    once at their offsets.
    """
    if theory in ("poisson", "omega") and mod.flavor != "poisson":
        raise StructuralError(f"the {theory} theory needs a poisson-flavored module")
    src = CochainSpace.build(theory, degree, alg.dim, mod.dim)
    tgt = CochainSpace.build(theory, degree + 1, alg.dim, mod.dim)
    parts = []  # (block, row offset, column offset, sign)
    for i, j in src.blocks:
        if src.block_size(i, j) == 0:
            continue
        col_off = src.block_offsets[i, j]
        if (i, j + 1) in tgt.block_offsets:
            parts.append((delta_H(alg, mod, i, j), tgt.block_offsets[i, j + 1], col_off,
                          -1 if i % 2 else 1))
        if (i + 1, j) in tgt.block_offsets:
            parts.append((delta_V(alg, mod, i, j), tgt.block_offsets[i + 1, j], col_off, 1))
        if theory == "poisson" and i == 0 and j >= 1 and (2, j - 1) in tgt.block_offsets:
            parts.append((delta_v(alg, mod, j), tgt.block_offsets[2, j - 1], col_off, 1))
    den = lcm(*(block.denominator for block, *_ in parts))
    rows: dict[int, dict[int, int]] = {}
    for block, row_off, col_off, sign in parts:
        f = sign * (den // block.denominator)
        for r, row in block.numerators.items():
            rows.setdefault(r + row_off, {}).update(
                {c + col_off: v * f for c, v in row.items()})
    return SparseMatrix.from_numerators(tgt.dim, src.dim, rows, den)


def build_complex(alg: AlgebraSpec, mod: ModuleSpec, theory: str,
                  max_degree: int) -> list[SparseMatrix]:
    """Differentials d^0 .. d^max_degree of a theory, with d o d checked.

    The compositions multiply integer numerators only.
    """
    mats = [differential(alg, mod, theory, n) for n in range(max_degree + 1)]
    for n in range(max_degree):
        if not mats[n + 1].matmul(mats[n]).is_zero:
            raise ArithmeticError(f"{theory} assembly is not a complex at degree {n}")
    return mats


# ---------------------------------------------------------------------------
# Weights of a diagonal Lie action


def _diagonal(table, x: int) -> tuple | None:
    """The diagonal of the action matrix ``table[x]`` (``table[x][p]`` is the
    image of basis p), or None when the matrix is not diagonal."""
    diag = []
    for p, vec in enumerate(table[x]):
        if any(c for k, c in enumerate(vec) if k != p):
            return None
        diag.append(vec[p])
    return tuple(diag)


def cartan_weights(alg: AlgebraSpec, mod: ModuleSpec,
                   theory: str) -> tuple[int, tuple, tuple] | None:
    """``(x, algebra weights, module weights)`` for the first basis element
    x whose bracket action ``ad_x`` and module action ``rho_M(x)`` are both
    diagonal with some nonzero weight, the weights scaled to integers by one
    common factor; None when there is no such x, or when the theory has no
    wedge slot to insert x into.

    Inserting x as the first wedge argument, with the twist ``(-1)**i`` on
    tensor width i, is a map iota with ``d iota + iota d = L_x`` (Cartan's
    formula), where ``L_x`` acts on each coordinate by its weight (see
    :func:`coordinate_weights`).  So ``iota / w`` contracts the weight-w
    part for every w != 0, and only weight zero carries cohomology.
    The hochschild complex has no wedge slot, and its weight-zero part
    alone gives wrong dimensions.
    """
    if not any(j for _, j in space_layout(theory, 1, alg.dim)):
        return None
    for x in range(alg.dim):
        aw, mw = _diagonal(alg.bracket, x), _diagonal(mod.lie, x)
        if aw is not None and mw is not None and any(aw + mw):
            scale = denominator_lcm(aw + mw)
            return x, tuple(int(w * scale) for w in aw), tuple(int(w * scale) for w in mw)
    return None


def coordinate_weights(space: CochainSpace, alg_weights, mod_weights) -> list[int]:
    """The weight ``w(p) - sum w(tensor word) - sum w(wedge word)`` of every
    flat coordinate of a cochain space, built one block at a time from the
    weights of its tensor words and of its wedge words."""
    out: list[int] = []
    for i, j in space.blocks:
        tensor = [0]
        for _ in range(i):
            tensor = [t + w for t in tensor for w in alg_weights]
        wedge = [sum(alg_weights[k] for k in word)
                 for word in itertools.combinations(range(space.alg_dim), j)]
        out += [p - t - w for t in tensor for w in wedge for p in mod_weights]
    return out


# ---------------------------------------------------------------------------
# Distinguished subcomplexes of the first row and first column


def edge_maps(alg: AlgebraSpec, mod: ModuleSpec, which: str,
              n: int) -> tuple[SparseMatrix, SparseMatrix]:
    """``(killer, coboundary)`` of a distinguished subcomplex: its degree-n
    space is the kernel of ``killer``, and it carries the restriction of the
    full-block ``coboundary`` out of that space.

    ``"I"``: wedge cochains killed by the corner map, carrying the horizontal
    differential (Hom(Lambda^0, M) = M has no corner map, so all of it).
    ``"II"``: tensor cochains killed by the first horizontal map, carrying
    the Hochschild differential.  Both are genuine subcomplexes because the
    corner square anticommutes and the mixed square commutes.
    """
    if which == "I":
        killer = delta_v(alg, mod, n) if n else SparseMatrix(0, mod.dim)
        return killer, delta_H(alg, mod, 0, n)
    if which == "II":
        return delta_H(alg, mod, n, 0), delta_V(alg, mod, n, 0)
    raise StructuralError(f"unknown subcomplex type {which!r}; expected 'I' or 'II'")


def sigma_embed(alg: AlgebraSpec, n: int, vec) -> tuple:
    """Include a Hom(Lambda^n A, A) vector into the degree-n poisson cochain
    space of the regular module (its leading (0, n) block).  This inclusion
    intertwines the coboundaries on the nose, with no additional sign."""
    d = alg.dim
    return encode(CochainSpace.build("poisson", n, d, d),
                  decode(CochainSpace.build("ce", n, d, d), vec))
