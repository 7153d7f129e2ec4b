"""Exact sparse linear algebra over the rationals.

Everything in the cohomology pipeline reduces to ranks, kernels and linear
solves of sparse matrices with rational entries.  All arithmetic here is
exact: rows are scaled to integers once, elimination is fraction-free
(cross-multiplication followed by gcd reduction), and pivots are chosen by a
deterministic rule so that repeated runs produce identical output.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

Scalar = int | Fraction


def _as_exact(value) -> Scalar:
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise TypeError(f"exact scalar required, got {type(value).__name__}")
    if isinstance(value, Fraction) and value.denominator == 1:
        return int(value)
    return value


def _scalar_str(value: Scalar) -> str:
    return str(Fraction(value))


class SparseMatrix:
    """Sparse exact matrix, entries keyed by ``(row, col)``; zeros are never
    stored.  Supports just enough arithmetic for the cohomology pipeline."""

    __slots__ = ("nrows", "ncols", "entries")

    def __init__(self, nrows: int, ncols: int, entries=None):
        if nrows < 0 or ncols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        self.nrows = nrows
        self.ncols = ncols
        self.entries: dict[tuple[int, int], Scalar] = {}
        if entries:
            items = entries.items() if isinstance(entries, dict) else entries
            for (r, c), v in items:
                self.add_to(r, c, v)

    # -- construction and access ------------------------------------------

    @staticmethod
    def from_dense(rows: Sequence[Sequence]) -> "SparseMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        m = SparseMatrix(nrows, ncols)
        for r, row in enumerate(rows):
            if len(row) != ncols:
                raise ValueError("ragged dense matrix")
            for c, v in enumerate(row):
                m[r, c] = v
        return m

    def __setitem__(self, key, value):
        r, c = key
        self._check_index(r, c)
        value = _as_exact(value)
        if value:
            self.entries[r, c] = value
        else:
            self.entries.pop((r, c), None)

    def __getitem__(self, key) -> Scalar:
        self._check_index(*key)
        return self.entries.get(key, 0)

    def add_to(self, r: int, c: int, value) -> None:
        self._check_index(r, c)
        value = _as_exact(value)
        if not value:
            return
        cur = self.entries.get((r, c), 0) + value
        if cur:
            self.entries[r, c] = _as_exact(cur)
        else:
            self.entries.pop((r, c), None)

    def _check_index(self, r, c):
        if not (0 <= r < self.nrows and 0 <= c < self.ncols):
            raise IndexError(f"entry ({r}, {c}) outside {self.nrows} x {self.ncols}")

    @property
    def nnz(self) -> int:
        return len(self.entries)

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other):
        return (isinstance(other, SparseMatrix)
                and self.nrows == other.nrows
                and self.ncols == other.ncols
                and self.entries == other.entries)

    def __repr__(self):
        return f"<SparseMatrix {self.nrows}x{self.ncols}, {self.nnz} nonzero>"

    def copy(self) -> "SparseMatrix":
        m = SparseMatrix(self.nrows, self.ncols)
        m.entries = dict(self.entries)
        return m

    def triples(self) -> list[tuple[int, int, Scalar]]:
        return [(r, c, self.entries[r, c]) for (r, c) in sorted(self.entries)]

    def to_dense(self) -> list[list[Scalar]]:
        out = [[0] * self.ncols for _ in range(self.nrows)]
        for (r, c), v in self.entries.items():
            out[r][c] = v
        return out

    def row_dicts(self) -> dict[int, dict[int, Scalar]]:
        rows: dict[int, dict[int, Scalar]] = {}
        for (r, c), v in self.entries.items():
            rows.setdefault(r, {})[c] = v
        return rows

    # -- arithmetic ---------------------------------------------------------

    def matvec(self, vec: Sequence) -> tuple:
        if len(vec) != self.ncols:
            raise ValueError("vector length does not match column count")
        acc = [0] * self.nrows
        for (r, c), v in self.entries.items():
            x = vec[c]
            if x:
                acc[r] += v * x
        return tuple(acc)

    def matmul(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.ncols != other.nrows:
            raise ValueError("inner dimensions do not match")
        out = SparseMatrix(self.nrows, other.ncols)
        brows = other.row_dicts()
        for r, arow in self.row_dicts().items():
            acc: dict[int, Scalar] = {}
            for c, v in arow.items():
                brow = brows.get(c)
                if brow:
                    for k, w in brow.items():
                        acc[k] = acc.get(k, 0) + v * w
            for k, v in acc.items():
                if v:
                    out.entries[r, k] = _as_exact(v)
        return out

    def scaled_integer_copy(self) -> "SparseMatrix":
        """The matrix multiplied by the lcm of all denominators: same rank,
        same kernel, integer entries (faster to compose and eliminate)."""
        scale = _denominator_lcm(self.entries.values())
        if scale == 1:
            return self.copy()
        m = SparseMatrix(self.nrows, self.ncols)
        for key, v in self.entries.items():
            m.entries[key] = int(v * scale)
        return m

    def dump_text(self) -> str:
        """Stable text form: header ``nrows ncols nnz`` then one ``r c value``
        line per nonzero, sorted by (row, col)."""
        lines = [f"{self.nrows} {self.ncols} {self.nnz}"]
        for r, c, v in self.triples():
            lines.append(f"{r} {c} {_scalar_str(v)}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Fraction-free elimination


def _denominator_lcm(values) -> int:
    scale = 1
    for v in values:
        if isinstance(v, Fraction):
            scale = lcm(scale, v.denominator)
    return scale


def _normalize_int_row(row: dict[int, int]) -> dict[int, int]:
    """Divide an integer row by the gcd of its entries (in place)."""
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    if g > 1:
        for c in row:
            row[c] //= g
    return row


def _int_row(row: dict[int, Scalar]) -> dict[int, int]:
    """The row scaled to integers by the lcm of its denominators, without
    zeros, and divided by the gcd of its entries."""
    scale = _denominator_lcm(row.values())
    return _normalize_int_row({c: int(v * scale) for c, v in row.items() if v})


def _integer_rows(matrix: SparseMatrix) -> dict[int, dict[int, int]]:
    """Rows of the matrix scaled to integers and gcd-reduced, keyed by the
    original row index."""
    return {rid: _int_row(row) for rid, row in matrix.row_dicts().items()}


def _cancel(row: dict[int, int], piv: dict[int, int], col: int) -> dict[int, int]:
    """A new gcd-reduced integer row: ``row`` cross-multiplied against the
    pivot row ``piv`` so that its entry in ``col`` cancels."""
    a, b = piv[col], row[col]
    g = gcd(a, b)
    ma, mb = a // g, b // g
    new = {c: ma * v for c, v in row.items()}
    for c, pv in piv.items():
        nv = new.get(c, 0) - mb * pv
        if nv:
            new[c] = nv
        else:
            new.pop(c, None)
    return _normalize_int_row(new)


def _eliminate(rows: dict[int, dict[int, int]], skip_col: int | None = None):
    """Sparse fraction-free Gaussian elimination.

    Pivot rule (deterministic): the eligible column held by the fewest active
    rows, lowest column index on ties; within that column, the shortest row,
    lowest row index on ties.  Rows retired as pivots are frozen, so a pivot
    row never contains an earlier pivot's column — which is exactly what the
    reverse-order :func:`_back_substitute` relies on.

    Retiring a pivot changes only rows that hold its column, and fill-in
    stays inside the pivot row's support, so only the column counts of the
    pivot's own connected component (of the bipartite row/column graph, the
    barred ``skip_col`` left out) move.  A row's length counts its
    ``skip_col`` entry, but that entry is local to the row.  Hence running
    this on the rows of one component retires exactly the pivots, in exactly
    the order, that a run over all rows retires from that component;
    :func:`_eliminate_components` relies on this.

    Returns ``(pivots, leftovers)`` where pivots is a list of
    ``(pivot_col, row_dict)`` in retirement order and leftovers are the
    nonzero rows that could not be pivoted (support inside ``skip_col`` only).
    """
    col_rows: dict[int, set[int]] = {}
    for rid, row in rows.items():
        for c in row:
            if c != skip_col:
                col_rows.setdefault(c, set()).add(rid)

    pivots: list[tuple[int, dict[int, int]]] = []
    while col_rows:
        pivot_col = min(col_rows, key=lambda c: (len(col_rows[c]), c))
        candidates = col_rows[pivot_col]
        pivot_rid = min(candidates, key=lambda r: (len(rows[r]), r))
        piv = rows.pop(pivot_rid)
        for c in piv:
            if c == skip_col:
                continue
            holders = col_rows[c]
            holders.discard(pivot_rid)
            if not holders:
                del col_rows[c]
        pivots.append((pivot_col, piv))

        for rid in sorted(col_rows.get(pivot_col, ())):
            row = rows[rid]
            new = _cancel(row, piv, pivot_col)
            for c in row:
                if c != skip_col and c != pivot_col and c not in new:
                    holders = col_rows[c]
                    holders.discard(rid)
                    if not holders:
                        del col_rows[c]
            for c in new:
                if c != skip_col and c not in row:
                    col_rows.setdefault(c, set()).add(rid)
            if new:
                rows[rid] = new
            else:
                del rows[rid]
        col_rows.pop(pivot_col, None)

    leftovers = [rows[rid] for rid in sorted(rows)]
    return pivots, leftovers


def _back_substitute(pivots, assign: dict[int, Scalar]) -> dict[int, Scalar]:
    """Solve each pivot column from its row, in reverse retirement order, and
    record it in ``assign`` (columns not in ``assign`` are zero).  By the
    pivot rule a row contains no earlier pivot column, so every column it
    touches is already assigned when its own pivot gets solved."""
    for pivot_col, row in reversed(pivots):
        s = 0
        for c, v in row.items():
            if c != pivot_col:
                x = assign.get(c)
                if x:
                    s += v * x
        if s:
            assign[pivot_col] = Fraction(-s, row[pivot_col])
    return assign


def _normalize_exact_vec(vec: dict[int, Scalar], ncols: int) -> tuple:
    """Clear denominators, gcd-reduce, make the first nonzero entry positive,
    and expand to a dense tuple of ints."""
    ints = _int_row(vec)
    sign = -1 if ints and ints[min(ints)] < 0 else 1
    dense = [0] * ncols
    for c, v in ints.items():
        dense[c] = sign * v
    return tuple(dense)


def _components(rows: dict[int, dict[int, int]],
                skip_col: int | None = None) -> list[dict[int, dict[int, int]]]:
    """Split nonzero rows into the connected components of the bipartite
    row/column graph of their nonzero pattern, by union-find over the columns
    in O(nnz).  ``skip_col`` joins nothing, so every row must hold some other
    column.  Components come in order of their lowest row index, and each
    keeps its rows in increasing row order."""
    parent: dict[int, int] = {}

    def find(c: int) -> int:
        root = c
        while parent[root] != root:
            root = parent[root]
        while parent[c] != root:
            parent[c], c = root, parent[c]
        return root

    for row in rows.values():
        ra = None
        for c in row:
            if c != skip_col:
                rb = find(parent.setdefault(c, c))
                if ra is None:
                    ra = rb
                elif rb != ra:
                    parent[rb] = ra
    blocks: dict[int, dict[int, dict[int, int]]] = {}
    for rid in sorted(rows):
        row = rows[rid]
        anchor = next(c for c in row if c != skip_col)
        blocks.setdefault(find(anchor), {})[rid] = row
    return list(blocks.values())


def _eliminate_components(rows: dict[int, dict[int, int]],
                          skip_col: int | None = None) -> list[tuple]:
    """``_eliminate`` run on each connected component of ``rows`` (see
    :func:`_components`), in order of lowest row index: one
    ``(pivots, leftovers)`` pair per component."""
    return [_eliminate(block, skip_col) for block in _components(rows, skip_col)]


class Echelon:
    """Outcome of eliminating a matrix: rank, pivot positions, and the frozen
    pivot rows needed to back-substitute kernel vectors.

    The matrix is split into the connected components of its nonzero pattern
    (Pothen & Fan's block decomposition) and each component is eliminated on
    its own, in order of its lowest row index.  The rank, the free columns
    and every kernel vector are the same as from one elimination over all
    rows: by the argument in :func:`_eliminate` each component retires the
    same pivots in the same order either way, only their interleaving
    differs, and back-substitution for a free column never leaves that
    column's component.  Eliminating per component saves the pivot search
    over other components' columns, which makes the whole run quadratic in
    the largest component instead of in the matrix.
    """

    def __init__(self, matrix: SparseMatrix):
        self.nrows = matrix.nrows
        self.ncols = matrix.ncols
        self._blocks = [pivots for pivots, _ in
                        _eliminate_components(_integer_rows(matrix))]
        self.pivot_cols = tuple(c for pivots in self._blocks for c, _ in pivots)

    @property
    def rank(self) -> int:
        return len(self.pivot_cols)

    @property
    def free_cols(self) -> tuple[int, ...]:
        taken = set(self.pivot_cols)
        return tuple(c for c in range(self.ncols) if c not in taken)

    def kernel_basis(self) -> list[tuple]:
        """One normalized integer kernel vector per free column, each
        back-substituted through the pivot rows of its own component only.
        A column with no entries gives its unit vector."""
        block_of: dict[int, list] = {}
        for pivots in self._blocks:
            for _, row in pivots:
                for c in row:
                    block_of[c] = pivots
        basis = []
        for free in self.free_cols:
            assign = _back_substitute(block_of.get(free, ()), {free: 1})
            basis.append(_normalize_exact_vec(assign, self.ncols))
        return basis


def rank(matrix: SparseMatrix) -> int:
    return Echelon(matrix).rank


def verify_kernel(matrix: SparseMatrix, basis: Sequence[Sequence]) -> None:
    """Raise ArithmeticError unless ``matrix`` kills every vector of
    ``basis``.  One exact product with the basis as the columns of a sparse
    matrix checks every row of every vector; scaling the matrix to integers
    first keeps the same kernel and avoids Fraction arithmetic."""
    if any(len(vec) != matrix.ncols for vec in basis):
        raise ValueError("vector length does not match column count")
    cols = SparseMatrix(matrix.ncols, len(basis))
    cols.entries = {(c, j): v for j, vec in enumerate(basis)
                    for c, v in enumerate(vec) if v}
    if not matrix.scaled_integer_copy().matmul(cols).is_zero:
        raise ArithmeticError("kernel vector failed verification")


def kernel_basis(matrix: SparseMatrix) -> list[tuple]:
    """Basis of the right kernel {v : Mv = 0}, one vector per free column.

    Every returned vector is checked against the original matrix; a failure
    here would mean the elimination itself is broken, so it raises
    ArithmeticError in every interpreter mode.
    """
    basis = Echelon(matrix).kernel_basis()
    verify_kernel(matrix, basis)
    return basis


def solve(matrix: SparseMatrix, rhs: Sequence) -> tuple | None:
    """One exact solution of ``M x = rhs``, or None when inconsistent.

    Eliminates the augmented system ``M x - rhs*t = 0`` per connected
    component of ``M``'s rows, with the ``t`` column barred from pivoting
    and from joining components, then back-substitutes at t = 1 with all
    free columns set to zero.  By the argument in :func:`_eliminate` this is
    the solution one elimination over all augmented rows gives.
    """
    if len(rhs) != matrix.nrows:
        raise ValueError("right-hand side length does not match row count")
    sentinel = matrix.ncols
    rows = matrix.row_dicts()
    for r, b in enumerate(rhs):
        b = _as_exact(b)
        if b:
            rows.setdefault(r, {})[sentinel] = -b
    # scaling to integers happens on whole augmented rows, so the rhs column
    # stays in sync with the matrix coefficients
    rows = {rid: _int_row(row) for rid, row in rows.items()}
    if any(len(row) == 1 and sentinel in row for row in rows.values()):
        return None
    assign: dict[int, Scalar] = {sentinel: 1}
    for pivots, leftovers in _eliminate_components(rows, sentinel):
        if leftovers:
            return None
        _back_substitute(pivots, assign)

    solution = tuple(_as_exact(Fraction(assign.get(c, 0))) for c in range(matrix.ncols))
    if matrix.matvec(solution) != tuple(rhs):
        raise ArithmeticError("solve result failed verification")
    return solution


class RowReducer:
    """Incremental membership oracle for a growing subspace.

    Stored rows are kept mutually reduced (each contains its own pivot column
    and no other row's), so testing a vector is a single pass over the pivot
    columns it touches.  Used to pick cohomology representatives that are
    independent modulo the coboundary image, and as a general independence
    filter in tests.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self._rows: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _intify(self, vec) -> dict[int, int]:
        if isinstance(vec, dict):
            items = vec.items()
        else:
            if len(vec) != self.ncols:
                raise ValueError("vector length does not match")
            items = enumerate(vec)
        vd: dict[int, Scalar] = {}
        for c, v in items:
            if type(v) is not int:
                v = _as_exact(v)
            if v:
                vd[c] = v
        return _int_row(vd)

    def _reduce(self, row: dict[int, int]) -> dict[int, int]:
        for pivot_col in sorted(set(row) & set(self._rows)):
            if pivot_col in row:
                row = _cancel(row, self._rows[pivot_col], pivot_col)
        return row

    def contains(self, vec) -> bool:
        return not self._reduce(self._intify(vec))

    def add(self, vec) -> bool:
        """Insert ``vec``; returns True when it enlarged the subspace."""
        row = self._reduce(self._intify(vec))
        if not row:
            return False
        pivot_col = min(row)
        # keep the invariant: no stored row may contain the new pivot column
        for other_col, other in self._rows.items():
            if pivot_col in other:
                self._rows[other_col] = _cancel(other, row, pivot_col)
        self._rows[pivot_col] = row
        return True
