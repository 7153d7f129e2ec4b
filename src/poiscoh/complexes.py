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
from collections import namedtuple
from fractions import Fraction
from functools import update_wrapper
from math import comb, lcm

from .algebra import (AlgebraSpec, ModuleSpec, StructuralError, regular_module,
                      require_module_over, separability_idempotent)
from .cochain import (
    CochainSpace,
    block_size,
    decode,
    encode,
    space_layout,
    wedge_normalize,
    wedge_rank,
)
from .linalg import Echelon, SparseMatrix, _columns, denominator_lcm

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


def _add(row: dict[int, int], col: int, value: int) -> None:
    """``row[col] += value``, dropping the entry when the sum is zero."""
    v = row.get(col, 0) + value
    if v:
        row[col] = v
    else:
        del row[col]


_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


class _PairCache:
    """The values ``build(alg, mod, key)`` of one block builder, kept for one
    (algebra, module) pair: the last one that any of these caches was asked
    for.  Pairs compare by value, as ``lru_cache`` keys do, and an equal pair
    is served the objects first held; a call that names another pair drops
    every cache's values.  ``cache_info`` and ``cache_clear`` are those of an
    unbounded ``lru_cache``, with hits and misses counted across pair
    switches (docs/decisions.md, section 13)."""

    _pair: tuple | None = None  # the (alg, mod) every cache's values belong to
    _caches: list[_PairCache] = []

    def __init__(self, build):
        update_wrapper(self, build)
        self._build = build
        self._values: dict = {}
        self._hits = self._misses = 0
        _PairCache._caches.append(self)

    def __call__(self, alg: AlgebraSpec, mod: ModuleSpec, key: int):
        if _PairCache._pair != (alg, mod):
            for cache in _PairCache._caches:
                cache._values.clear()
            _PairCache._pair = (alg, mod)
        value = self._values.get(key)
        if value is None:
            self._misses += 1
            value = self._values[key] = self._build(*_PairCache._pair, key)
        else:
            self._hits += 1
        return value

    def cache_info(self) -> _CacheInfo:
        return _CacheInfo(self._hits, self._misses, None, len(self._values))

    def cache_clear(self) -> None:
        """Drop this cache's values and counts; the other caches keep theirs."""
        self._values.clear()
        self._hits = self._misses = 0


@_PairCache
def _action(alg: AlgebraSpec, mod: ModuleSpec, i: int) -> tuple[SparseMatrix, int, tuple]:
    """``(delta_H(i, 0), scale, bracket)``: the block with the scale and the
    integer bracket table of every ``delta_H(i, j)`` of the pair."""
    scale, (lie, bracket) = _integer_tables(mod.lie_pairs, alg.bracket_pairs)
    return _induced_action(alg.dim, mod.dim, i, scale, lie, bracket), scale, bracket


def delta_H(alg: AlgebraSpec, mod: ModuleSpec, i: int, j: int) -> SparseMatrix:
    """Horizontal block map (i, j) -> (i, j+1), verbatim (no assembly sign).

    The Chevalley-Eilenberg coboundary of the Lie algebra with coefficients
    in the induced module N = Hom(A^(x)i, M), on which x acts through M on
    the values and by minus the bracket substitution of x into each tensor
    factor: on f : Lambda^j -> N at x_0^...^x_j, the alternating sum of x_l
    acting on f(..., omitted x_l, ...), plus the alternating pair terms
    feeding {x_p, x_q} back into the wedge.  At i = 0 this is the usual
    Lie-module coboundary.  Entries sit at the block's own flat index
    ``(tensor_rank * comb(d, j) + wedge_rank) * m + component``.

    At j = 0 the wedge is one letter x and there are no pair terms, so the
    block is the action itself: row ``(n, x)`` is row n of the action of x,
    kept in the pair's cache.  For j > 0 the block is written by
    :func:`_write_horizontal` from that cached (i, 0) block and is kept
    nowhere.
    """
    if not j:
        return _action(alg, mod, i)[0]
    d, m = alg.dim, mod.dim
    nrows, ncols = block_size(d, m, i, j + 1), block_size(d, m, i, j)
    if not (nrows and ncols):
        return SparseMatrix(nrows, ncols)
    action = _action(alg, mod, i)
    rows: dict[int, dict[int, int]] = {}
    _write_horizontal(rows, action, d, m, i, j, 0, 0, 1)
    return SparseMatrix.from_numerators(nrows, ncols, rows, action[1])


def _write_horizontal(rows: dict, action: tuple, d: int, m: int, i: int, j: int,
                      row_off: int, col_off: int, f: int) -> None:
    """Write ``f`` times the numerators of ``delta_H(i, j)``, j > 0, over the
    scale of ``action = _action(alg, mod, i)``, into ``rows`` at the given
    offsets.  Each x's action is read off the cached (i, 0) block, and each
    target wedge adds its pair terms as one diagonal (docs/decisions.md,
    section 9)."""
    base, scale, bracket = action
    g = f * (scale // base.denominator)
    c0, c1 = comb(d, j), comb(d, j + 1)
    # flat index of coordinate n of N at wedge rank 0, in the target / source
    span = range(block_size(d, m, i, 0))
    row_at = [(n - n % m) * c1 + n % m + row_off for n in span]
    col_at = [(n - n % m) * c0 + n % m + col_off for n in span]
    # row (n, x) of the (i, 0) block, at source wedge rank 0 and at f times scale
    action = {r: [(col_at[c], v * g) for c, v in row.items()]
              for r, row in base._rows.items()}
    for wrank, wedge in enumerate(itertools.combinations(range(d), j + 1)):
        row_w = wrank * m
        terms = [(x * m, -1 if l_pos % 2 else 1,
                  wedge_rank(wedge[:l_pos] + wedge[l_pos + 1:], d) * m)
                 for l_pos, x in enumerate(wedge)]
        diagonal = {}  # source wedge offset -> coefficient of the pair terms
        for p_pos, q_pos in itertools.combinations(range(j + 1), 2):
            sgn = 1 if (p_pos + q_pos) % 2 == 0 else -1
            rest = tuple(w for t, w in enumerate(wedge) if t != p_pos and t != q_pos)
            for k, c in bracket[wedge[p_pos]][wedge[q_pos]]:
                wsgn, word = wedge_normalize((k,) + rest)
                if wsgn:
                    col_w = wedge_rank(word, d) * m
                    diagonal[col_w] = diagonal.get(col_w, 0) + sgn * wsgn * c
        diagonal = [(col_w, c * f) for col_w, c in diagonal.items() if c]
        for n in span:
            q = n % m
            cell = (n - q) * d + q  # row (n, x) of the (i, 0) block is cell + x * m
            key = row_at[n] + row_w
            row = rows.get(key)
            fresh = row is None
            if fresh:
                row = {}
            # the omitted letters differ, so the terms fill disjoint columns
            for x_m, sgn, col_w in terms:
                for c, v in action.get(cell + x_m, ()):
                    row[c + col_w] = sgn * v
            for col_w, c in diagonal:
                _add(row, col_at[n] + col_w, c)
            if fresh and row:
                rows[key] = row


delta_H.cache_info, delta_H.cache_clear = _action.cache_info, _action.cache_clear


def _induced_action(d: int, m: int, i: int, scale: int, lie, bracket) -> SparseMatrix:
    """``delta_H(i, 0)``: the Lie action of each basis element x on the
    induced module Hom(A^(x)i, M), coordinate ``n = tensor_rank * m +
    component``, at row ``(n, x)``: x acts on the values through M and by
    minus the bracket substitution of x into each tensor factor."""
    # lie_rows[x][q] = ((p, c), ...): row q of the action of x on M
    lie_rows = [[[] for _ in range(m)] for _ in range(d)]
    for x in range(d):
        for p in range(m):
            for q, c in lie[x][p]:
                lie_rows[x][q].append((p, c))
    shifts = [d ** (i - 1 - t) for t in range(i)]  # tensor factor t moves by one
    rows = {}
    for trank, tens in enumerate(itertools.product(range(d), repeat=i)):
        for x in range(d):
            moved = {}  # tensor word -> coefficient of the substitutions
            for shift, a_t in zip(shifts, tens):
                for k, c in bracket[x][a_t]:
                    cell = trank + (k - a_t) * shift
                    moved[cell] = moved.get(cell, 0) - c
            moved = [(cell * m, c) for cell, c in moved.items() if c]
            row0 = (trank * d + x) * m
            for q in range(m):
                row = {cell + q: c for cell, c in moved}
                for p, c in lie_rows[x][q]:
                    _add(row, trank * m + p, c)
                if row:
                    rows[row0 + q] = row
    return SparseMatrix.from_numerators(block_size(d, m, i, 1), block_size(d, m, i, 0),
                                        rows, scale)


def delta_V(alg: AlgebraSpec, mod: ModuleSpec, i: int, j: int) -> SparseMatrix:
    """Vertical block map (i, j) -> (i+1, j), verbatim.

    The Hochschild coboundary in the tensor slots with the wedge slot along
    for the ride: left action of the first argument, alternating inner
    merges, and a signed right action of the last argument.  The (i, 0)
    block is kept in the pair's cache; for j > 0 the block is one copy of
    it per j-wedge, index-remapped, and is kept nowhere.
    """
    if j:
        return _wedge_copies(delta_V(alg, mod, i, 0), comb(alg.dim, j), mod.dim, mod.dim)
    return _hochschild(alg, mod, i)


@_PairCache
def _hochschild(alg: AlgebraSpec, mod: ModuleSpec, i: int) -> SparseMatrix:
    """``delta_V(i, 0)``, built one tensor word at a time: its head, tail
    and merged words are read off the word's rank, the merges of each word
    are summed once and fanned out to its m component rows, and the two
    actions are added to those rows."""
    d, m = alg.dim, mod.dim
    scale, (left, right, mult) = _integer_tables(mod.left_pairs, mod.right_pairs,
                                                 alg.mult_pairs)
    last_sign = -1 if i % 2 == 0 else 1  # (-1)^(i+1)
    power = [d ** e for e in range(i + 2)]
    # per merge position k: (sign (-1)^(k+1), d^(i+1-k), d^(i-k), d^(i-1-k))
    merges = [(-1 if k % 2 == 0 else 1, power[i + 1 - k], power[i - k], power[i - 1 - k])
              for k in range(i)]
    rows = {}
    for trank, tens in enumerate(itertools.product(range(d), repeat=i + 1)):
        merged = {}  # merged tensor word -> coefficient
        for k, (sgn, above, width, weight) in enumerate(merges):
            base = trank // above * width + trank % weight
            for r, c in mult[tens[k]][tens[k + 1]]:
                cell = base + r * weight
                merged[cell] = merged.get(cell, 0) + sgn * c
        merged = [(cell * m, c) for cell, c in merged.items() if c]
        out = [{cell + p: c for cell, c in merged} for p in range(m)]
        for cell, sgn, action in ((trank % power[i] * m, 1, left[tens[0]]),
                                  (trank // d * m, last_sign, right[tens[-1]])):
            for p in range(m):
                col = cell + p
                for q, c in action[p]:
                    _add(out[q], col, sgn * c)
        row0 = trank * m
        for q, row in enumerate(out):
            if row:
                rows[row0 + q] = row
    return SparseMatrix.from_numerators(block_size(d, m, i + 1, 0), block_size(d, m, i, 0),
                                        rows, scale)


delta_V.cache_info, delta_V.cache_clear = _hochschild.cache_info, _hochschild.cache_clear


def _wedge_copies(block: SparseMatrix, copies: int, m: int, n: int) -> SparseMatrix:
    """A map on tensor-word cells with a wedge spectator: one copy of
    ``block`` per wedge word (see :func:`_write_copies`)."""
    rows: dict[int, dict[int, int]] = {}
    _write_copies(rows, block, copies, m, n, 0, 0, 1)
    return SparseMatrix.from_numerators(block.nrows * copies, block.ncols * copies, rows,
                                        block.denominator)


def _write_copies(rows: dict, block: SparseMatrix, copies: int, m: int, n: int,
                  row_off: int, col_off: int, f: int) -> None:
    """Write ``f`` times the numerators of one copy of ``block`` per wedge
    word into ``rows`` at the given offsets: entry ``(r, c)`` of copy w at
    ``(cell * copies + w) * width + component``, where a cell is m
    components wide on the row side and n on the column side."""
    get = rows.get
    for r, row in block._rows.items():
        r0 = (r - r % m) * copies + r % m + row_off
        shifted = []
        for c, v in row.items():
            shifted.append(((c - c % n) * copies + c % n + col_off, v * f))
        for wr, wc in zip(range(r0, r0 + copies * m, m), range(0, copies * n, n)):
            out = get(wr)
            if out is None:
                out = rows[wr] = {}
            for c, v in shifted:
                out[c + wc] = v


def _write(rows: dict, block: SparseMatrix, row_off: int, col_off: int, f: int) -> None:
    """Write ``f`` times the numerators of ``block`` into ``rows`` at the
    given offsets."""
    get = rows.get
    for r, row in block._rows.items():
        r += row_off
        out = get(r)
        if out is None:
            out = rows[r] = {}
        for c, v in row.items():
            out[c + col_off] = v * f


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


@_PairCache
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


def _require_inputs(alg: AlgebraSpec, mod: ModuleSpec, theory: str, degree: int) -> None:
    """Refuse a negative degree, a module over another algebra dimension,
    and for poisson and omega a module that is not poisson-flavored."""
    if degree < 0:
        raise StructuralError("degree must be nonnegative")
    require_module_over(alg, mod)
    if theory in ("poisson", "omega") and mod.flavor != "poisson":
        raise StructuralError(f"the {theory} theory needs a poisson-flavored module")


def _block_part(block: SparseMatrix, row_off: int, col_off: int, sign: int = 1) -> tuple:
    """The :func:`_paste` part of a built block, at the given offsets."""
    return block.denominator, sign, _write, (block, row_off, col_off)


def _paste(parts, nrows: int, ncols: int) -> SparseMatrix:
    """The matrix of ``(denominator, sign, writer, arguments)`` parts: the
    common denominator, the lcm of the parts', is fixed first, then each
    writer writes its entries once, ``writer(rows, *arguments, factor)``,
    at sign times the factor that brings its denominator to the common one.
    Every entry belongs to one part."""
    den = lcm(*(part[0] for part in parts))
    rows: dict[int, dict[int, int]] = {}
    for part_den, sign, writer, args in parts:
        writer(rows, *args, sign * (den // part_den))
    return SparseMatrix.from_numerators(nrows, ncols, rows, den)


def _require_complex(mats: list[SparseMatrix], what: str) -> list[SparseMatrix]:
    """``mats``, once every ``d^(n+1) o d^n`` is checked to vanish; one
    that does not raises ArithmeticError."""
    for n in range(len(mats) - 1):
        if not mats[n + 1].matmul(mats[n]).is_zero:
            raise ArithmeticError(f"{what} is not a complex at degree {n}")
    return mats


def differential(alg: AlgebraSpec, mod: ModuleSpec, theory: str,
                 degree: int) -> SparseMatrix:
    """The assembled total differential C^degree -> C^(degree+1) of a theory.

    Which elementary blocks contribute is read off the block layouts
    themselves; the only theory-specific rule is that the corner map belongs
    to the poisson assembly alone (the quasi layout contains the same target
    block but its differential is purely bicomplex).  ``delta_H`` out of
    tensor width i carries the sign ``(-1)**i``.  The cached (i, 0) blocks
    and corner maps are copied in; each ``j >= 1`` block is written straight
    into the assembled rows from its cached (i, 0) block, and is never built
    on its own (docs/decisions.md, section 13).
    """
    _require_inputs(alg, mod, theory, degree)
    d, m = alg.dim, mod.dim
    src = CochainSpace.build(theory, degree, d, m)
    tgt = CochainSpace.build(theory, degree + 1, d, m)
    parts = []
    for i, j in src.blocks:
        if src.block_size(i, j) == 0:
            continue
        col_off = src.block_offsets[i, j]
        if (i, j + 1) in tgt.block_offsets and tgt.block_size(i, j + 1):
            row_off, sign = tgt.block_offsets[i, j + 1], -1 if i % 2 else 1
            if not j:
                parts.append(_block_part(delta_H(alg, mod, i, 0), row_off, col_off, sign))
            else:
                action = _action(alg, mod, i)
                parts.append((action[1], sign, _write_horizontal,
                              (action, d, m, i, j, row_off, col_off)))
        if (i + 1, j) in tgt.block_offsets:
            row_off, block = tgt.block_offsets[i + 1, j], delta_V(alg, mod, i, 0)
            if not j:
                parts.append(_block_part(block, row_off, col_off))
            else:
                parts.append((block.denominator, 1, _write_copies,
                              (block, comb(d, j), m, m, row_off, col_off)))
        if theory == "poisson" and i == 0 and j >= 1 and (2, j - 1) in tgt.block_offsets:
            parts.append(_block_part(delta_v(alg, mod, j), tgt.block_offsets[2, j - 1],
                                     col_off))
    return _paste(parts, tgt.dim, src.dim)


def build_complex(alg: AlgebraSpec, mod: ModuleSpec, theory: str,
                  max_degree: int) -> list[SparseMatrix]:
    """Differentials d^0 .. d^max_degree of a theory, with d o d checked."""
    _require_inputs(alg, mod, theory, max_degree)
    return _require_complex([differential(alg, mod, theory, n) for n in range(max_degree + 1)],
                            f"{theory} assembly")


def separable_subcomplex(alg: AlgebraSpec, mod: ModuleSpec, theory: str,
                         max_degree: int) -> list[SparseMatrix] | None:
    """Differentials d^0 .. d^max_degree of a subcomplex with the cohomology
    of the poisson or omega complex; None, once the input passes the checks
    of :func:`build_complex`, for another theory or an algebra that is not
    separable.

    With ``Z = Z^2(A, M) = ker delta_V(2, 0)``, degree n is the ``Z``-valued
    part of the (2, n - 2) block (of (2, n) for omega) and, for poisson, the
    (0, n) block; ``HH^(>=3)`` of a separable algebra vanishes, so the
    quotient is acyclic (docs/decisions.md, section 12).  Coordinates on
    ``Z (x) Lambda^j`` are ``wedge * dim Z + k`` on the kernel basis, read
    off by a checked left inverse; every image into it is checked to lie in
    it, and d o d = 0 is checked."""
    _require_inputs(alg, mod, theory, max_degree)
    if theory not in ("poisson", "omega") or separability_idempotent(alg) is None:
        return None
    d, m = alg.dim, mod.dim
    cocycles = Echelon(delta_V(alg, mod, 2, 0))
    basis = [cocycles.kernel_vector(f) for f in cocycles.free_cols]
    z = len(basis)
    embed = _columns(basis, block_size(d, m, 2, 0))
    # each kernel vector vanishes at every other free column
    coords = SparseMatrix(z, embed.nrows, {(k, f): Fraction(1, basis[k][f])
                                           for k, f in enumerate(cocycles.free_cols)})
    if coords.matmul(embed) != SparseMatrix(z, z, {(k, k): 1 for k in range(z)}):
        raise ArithmeticError("the coordinates on Z^2 are not a left inverse of its basis")

    def into_z(j, image):
        """``image``, rows in the (2, j) block, in coordinates on Z (x) Lambda^j."""
        out = _wedge_copies(coords, comb(d, j), z, m).matmul(image)
        if _wedge_copies(embed, comb(d, j), m, z).matmul(out) != image:
            raise ArithmeticError(f"an image leaves Z^2 (x) Lambda^{j}")
        return out

    def width(j):  # of Z (x) Lambda^j
        return z * comb(d, j) if j >= 0 else 0

    poisson = theory == "poisson"
    mats = []
    for n in range(max_degree + 1):
        j = n - 2 if poisson else n  # wedge width of the Z part of degree n
        head = (block_size(d, m, 0, n), block_size(d, m, 0, n + 1)) if poisson else (0, 0)
        parts = [_block_part(delta_H(alg, mod, 0, n), 0, 0)] if poisson else []
        if poisson and n:
            parts.append(_block_part(into_z(n - 1, delta_v(alg, mod, n)), head[1], 0))
        if j >= 0:
            lifted = delta_H(alg, mod, 2, j).matmul(_wedge_copies(embed, comb(d, j), m, z))
            parts.append(_block_part(into_z(j + 1, lifted), head[1], head[0]))
        mats.append(_paste(parts, head[1] + width(j + 1), head[0] + width(j)))
    return _require_complex(mats, f"separable {theory} subcomplex")


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


def edge_maps(alg: AlgebraSpec, which: str, n: int) -> tuple[SparseMatrix, SparseMatrix]:
    """``(killer, coboundary)`` of a distinguished subcomplex of the regular
    module M = A: its degree-n space is the kernel of ``killer``, and it
    carries the restriction of the full-block ``coboundary`` out of that
    space.

    ``"I"``: wedge cochains killed by the corner map, carrying the horizontal
    differential (Hom(Lambda^0, M) = M has no corner map, so all of it).
    ``"II"``: tensor cochains killed by the first horizontal map, carrying
    the Hochschild differential.  Both are genuine subcomplexes because the
    corner square anticommutes and the mixed square commutes.
    """
    mod = regular_module(alg)
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
