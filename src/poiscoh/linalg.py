"""Exact sparse linear algebra over the rationals.

Everything in the cohomology pipeline reduces to ranks, kernels and linear
solves of sparse matrices with rational entries.  All arithmetic here is
exact.  A matrix stores integer numerators over one denominator, so products
and eliminations run on integers: elimination starts from the numerator rows,
is fraction-free (cross-multiplication followed by gcd reduction), and pivots
are chosen by deterministic rules so that repeated runs produce identical
output: one rule for kernels and solves, and a faster one for ranks alone.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Sequence

Scalar = int | Fraction


def _as_exact(value) -> Scalar:
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise TypeError(f"exact scalar required, got {type(value).__name__}")
    if isinstance(value, Fraction) and value.denominator == 1:
        return int(value)
    return value


def _exact_vector(vec, n: int) -> dict[int, Scalar]:
    """The nonzero entries ``{index: value}`` of a dense sequence of length
    ``n`` or of a sparse dict with int indices in ``0..n-1``: the one intake
    of every vector that enters this module.  Each entry that is not an int
    goes through :func:`_as_exact`, zeros included, so ``0.0`` is refused."""
    if isinstance(vec, dict):
        if not all(type(i) is int and 0 <= i < n for i in vec):
            raise ValueError(f"vector index out of range: indices are ints below {n}")
        items = vec.items()
    elif len(vec) != n:
        raise ValueError(f"vector length {len(vec)} does not match {n}")
    else:
        items = enumerate(vec)
    out = {}
    for i, v in items:
        if type(v) is not int:
            v = _as_exact(v)
        if v:
            out[i] = v
    return out


def _ratio(num: int, den: int) -> Scalar:
    """``num / den`` as an int when it divides, else as a Fraction."""
    if den == 1:
        return num
    q, r = divmod(num, den)
    return Fraction(num, den) if r else q


def denominator_lcm(values) -> int:
    """The smallest positive integer that makes every value an integer."""
    scale = 1
    for v in values:
        if isinstance(v, Fraction):
            scale = lcm(scale, v.denominator)
    return scale


class SparseMatrix:
    """Sparse exact matrix: integer numerators in row dicts ``{row: {col:
    numerator}}`` over one positive denominator.  Zero numerators and empty
    rows are never stored, and the denominator is the smallest one that
    makes every entry an integer, so equal matrices store equal pairs.
    The accessors show the rational values or fresh copies, never a live
    row, and the shape is read-only."""

    __slots__ = ("_nrows", "_ncols", "_rows", "_den")

    def __init__(self, nrows: int, ncols: int, entries=()):
        """The matrix with exact ``entries`` (a ``{(row, col): value}``
        mapping or ``((row, col), value)`` pairs; repeated positions add
        up), stored in canonical form.  A matrix is never written after it
        is built."""
        if nrows < 0 or ncols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        self._nrows, self._ncols = nrows, ncols
        sums: dict[tuple[int, int], Scalar] = {}
        for (r, c), v in entries.items() if isinstance(entries, dict) else entries:
            self._check_index(r, c)
            sums[r, c] = sums.get((r, c), 0) + _as_exact(v)
        # the lcm of the reduced denominators is the canonical one
        self._den = den = denominator_lcm(sums.values())
        self._rows: dict[int, dict[int, int]] = {}
        for (r, c), v in sums.items():
            if v:
                self._rows.setdefault(r, {})[c] = v.numerator * (den // v.denominator)

    @staticmethod
    def from_numerators(nrows: int, ncols: int, rows: dict[int, dict[int, int]],
                        den: int = 1) -> "SparseMatrix":
        """The matrix ``rows / den``, taking over the nonempty row dicts of
        nonzero integer numerators (indices are not checked) and dividing
        the pair by its gcd, which is canonical form."""
        m = SparseMatrix(nrows, ncols)
        m._rows = rows
        g = den
        for row in rows.values():
            if g == 1:
                break
            for v in row.values():
                g = gcd(g, v)
        if g > 1:
            for row in rows.values():
                for c in row:
                    row[c] //= g
        m._den = den // g
        return m

    # -- construction and access ------------------------------------------

    @staticmethod
    def from_dense(rows: Sequence[Sequence]) -> "SparseMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        if any(len(row) != ncols for row in rows):
            raise ValueError("ragged dense matrix")
        return SparseMatrix(nrows, ncols, [((r, c), v) for r, row in enumerate(rows)
                                           for c, v in enumerate(row)])

    def __getitem__(self, key) -> Scalar:
        r, c = key
        self._check_index(r, c)
        return _ratio(self._rows.get(r, {}).get(c, 0), self._den)

    def _check_index(self, r, c):
        if not (0 <= r < self._nrows and 0 <= c < self._ncols):
            raise IndexError(f"entry ({r}, {c}) outside {self._nrows} x {self._ncols}")

    @property
    def nrows(self) -> int:
        return self._nrows

    @property
    def ncols(self) -> int:
        return self._ncols

    @property
    def entries(self) -> dict[tuple[int, int], Scalar]:
        """The nonzero entries as rationals, in a fresh ``{(row, col): value}`` dict."""
        return {(r, c): _ratio(v, self._den)
                for r, row in self._rows.items() for c, v in row.items()}

    @property
    def denominator(self) -> int:
        return self._den

    @property
    def nnz(self) -> int:
        return sum(map(len, self._rows.values()))

    @property
    def is_zero(self) -> bool:
        return not self._rows

    def __eq__(self, other):
        return (isinstance(other, SparseMatrix)
                and self._nrows == other._nrows
                and self._ncols == other._ncols
                and self._den == other._den
                and self._rows == other._rows)

    def __repr__(self):
        return f"<SparseMatrix {self._nrows}x{self._ncols}, {self.nnz} nonzero>"

    def triples(self) -> list[tuple[int, int, Scalar]]:
        return [(r, c, _ratio(row[c], self._den))
                for r, row in sorted(self._rows.items()) for c in sorted(row)]

    def to_dense(self) -> list[list[Scalar]]:
        out = [[0] * self._ncols for _ in range(self._nrows)]
        for r, c, v in self.triples():
            out[r][c] = v
        return out

    def numerator_rows(self) -> dict[int, dict[int, int]]:
        """The nonzero rows of the numerator matrix, as fresh dicts."""
        return {r: dict(row) for r, row in self._rows.items()}

    # -- arithmetic ---------------------------------------------------------

    def matvec(self, vec) -> tuple:
        """The product with a dense or sparse vector (see :func:`_exact_vector`)."""
        get = _exact_vector(vec, self._ncols).get
        acc = [0] * self._nrows
        for r, row in self._rows.items():
            for c, v in row.items():
                x = get(c)
                if x:
                    acc[r] += v * x
        den = self._den
        if den == 1:
            return tuple(acc)
        return tuple(a and (_ratio(a, den) if type(a) is int else a / den) for a in acc)

    def matmul(self, other: "SparseMatrix") -> "SparseMatrix":
        """The exact product: numerators multiplied one row at a time,
        denominators multiplied, then one reduction to canonical form.  A
        row's sums start as the first row of ``other`` it reaches, scaled;
        a row whose sums all cancel is dropped before it is filtered."""
        if self._ncols != other._nrows:
            raise ValueError("inner dimensions do not match")
        rows: dict[int, dict[int, int]] = {}
        brows = other._rows
        for r, arow in self._rows.items():
            acc: dict[int, int] = {}
            items = iter(arow.items())
            for c, v in items:
                brow = brows.get(c)
                if brow:
                    for k, w in brow.items():
                        acc[k] = v * w
                    break
            else:
                continue  # the row reaches no stored row of other
            get = acc.get
            for c, v in items:
                brow = brows.get(c)
                if brow:
                    for k, w in brow.items():
                        acc[k] = get(k, 0) + v * w
            sums = acc.values()
            if 0 in sums:  # some sums cancelled
                if not any(sums):
                    continue
                acc = {k: v for k, v in acc.items() if v}
            rows[r] = acc
        return SparseMatrix.from_numerators(self._nrows, other._ncols, rows,
                                            self._den * other._den)

    def scaled_integer_copy(self) -> "SparseMatrix":
        """The numerator matrix (this one times its denominator): same rank,
        same kernel, integer entries."""
        return SparseMatrix.from_numerators(self._nrows, self._ncols, self.numerator_rows())

    def dump_text(self) -> str:
        """Stable text form: header ``nrows ncols nnz`` then one ``r c value``
        line per nonzero, sorted by (row, col)."""
        return "".join([f"{self._nrows} {self._ncols} {self.nnz}\n",
                        *(f"{r} {c} {v}\n" for r, c, v in self.triples())])


# ---------------------------------------------------------------------------
# Fraction-free elimination


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
    """The row of nonzero entries scaled to integers by the lcm of its
    denominators and divided by the gcd of its entries."""
    scale = denominator_lcm(row.values())
    return _normalize_int_row({c: int(v * scale) for c, v in row.items()})


def _integer_rows(matrix: SparseMatrix) -> dict[int, dict[int, int]]:
    """The numerator rows gcd-reduced, keyed by the original row index."""
    return {rid: _normalize_int_row(row) for rid, row in matrix.numerator_rows().items()}


def _cancel(row: dict[int, int], piv: dict[int, int], col: int) -> tuple[list, list]:
    """Cross-multiply ``row`` in place against the pivot row ``piv`` so that
    its entry in ``col`` cancels, then divide it by the gcd of its entries.
    Kept columns keep their place and gained ones are appended in ``piv``'s
    order (docs/decisions.md, section 7).  Returns ``(added, dropped)``: the
    columns the row gained and lost, ``col`` among the lost.  ``row`` must
    be the caller's own dict, never a row of a stored matrix."""
    a, b = piv[col], row[col]
    g = gcd(a, b)
    ma, mb = a // g, b // g
    if ma != 1:
        for c in row:
            row[c] *= ma
    added, dropped = [], []
    for c, pv in piv.items():
        v = row.get(c)
        if v is None:
            row[c] = -mb * pv
            added.append(c)
            continue
        v -= mb * pv
        if v:
            row[c] = v
        else:
            del row[c]
            dropped.append(c)
    _normalize_int_row(row)
    return added, dropped


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
    :class:`Echelon` and :func:`solve` rely on this (see :func:`_components`).

    The pivot order decides which columns are free, and so every kernel
    vector and solution; a rank alone may take another order (see
    :func:`rank`).  Rows are updated in place by :func:`_cancel`, so
    ``rows`` must hold the caller's own dicts (as :func:`_integer_rows`
    makes them), never the rows of a stored matrix.

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
            added, dropped = _cancel(row, piv, pivot_col)
            for c in dropped:
                if c != skip_col and c != pivot_col:
                    holders = col_rows[c]
                    holders.discard(rid)
                    if not holders:
                        del col_rows[c]
            for c in added:
                if c != skip_col:
                    col_rows.setdefault(c, set()).add(rid)
            if not row:
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


def _normalize_exact_vec(vec: dict[int, Scalar]) -> dict[int, int]:
    """Clear denominators, gcd-reduce and make the entry in the lowest
    column positive: a sparse integer vector."""
    ints = _int_row(vec)
    if ints and ints[min(ints)] < 0:
        for c in ints:
            ints[c] = -ints[c]
    return ints


def dense_vector(vec: dict[int, Scalar], ncols: int) -> tuple:
    """A sparse ``{col: value}`` vector as a dense tuple of length ncols."""
    dense = [0] * ncols
    for c, v in vec.items():
        dense[c] = v
    return tuple(dense)


def _components(rows: dict[int, dict[int, int]]) -> list[dict[int, dict[int, int]]]:
    """Split nonzero rows into the connected components of the bipartite
    row/column graph of their nonzero pattern, by union-find over the columns
    in O(nnz).  Components come in order of their lowest row index, and each
    keeps its rows, the given dicts, in increasing row order."""
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
            rb = find(parent.setdefault(c, c))
            if ra is None:
                ra = rb
            elif rb != ra:
                parent[rb] = ra
    blocks: dict[int, dict[int, dict[int, int]]] = {}
    for rid in sorted(rows):
        row = rows[rid]
        blocks.setdefault(find(next(iter(row))), {})[rid] = row
    return list(blocks.values())


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

    Build one only for the pivots, free columns or kernel vectors: a rank
    alone comes faster from :func:`rank`, whose pivot order keeps the
    active rows short.
    """

    def __init__(self, matrix: SparseMatrix):
        self.nrows = matrix.nrows
        self.ncols = matrix.ncols
        blocks = [_eliminate(block)[0] for block in _components(_integer_rows(matrix))]
        self.pivot_cols = tuple(c for pivots in blocks for c, _ in pivots)
        self._taken = set(self.pivot_cols)
        # each column of a pivot row, to the pivot rows of its component
        self._block_of = {c: pivots for pivots in blocks for _, row in pivots for c in row}

    @property
    def rank(self) -> int:
        return len(self.pivot_cols)

    @property
    def free_cols(self) -> tuple[int, ...]:
        return tuple(c for c in range(self.ncols) if c not in self._taken)

    def kernel_vector(self, col: int) -> dict[int, int]:
        """The normalized sparse integer kernel vector of free column
        ``col``, back-substituted through the pivot rows of its own
        component only; a column with no entries gives its unit vector.
        Any other column raises ValueError."""
        if not 0 <= col < self.ncols or col in self._taken:
            raise ValueError(f"column {col} is not a free column")
        return _normalize_exact_vec(_back_substitute(self._block_of.get(col, ()), {col: 1}))

    def kernel_basis(self) -> list[dict[int, int]]:
        """One kernel vector per free column, by :meth:`kernel_vector`."""
        return [self.kernel_vector(col) for col in self.free_cols]


def rank(matrix: SparseMatrix) -> int:
    """The rank, by fraction-free elimination under the row-first rule:
    retire the shortest active row (lowest row index on ties), pivoting on
    its column held by the fewest active rows (lowest column index on ties).
    Short pivot rows keep the fill, and so the active rows, short.  A rank
    does not depend on the pivot order, but kernel vectors and solutions
    do, so :class:`Echelon` and :func:`solve` keep the rule of
    :func:`_eliminate` (docs/decisions.md, section 7).  The active rows sit
    in a lazy heap keyed by ``(length, row)``: an entry whose row has since
    been retired, emptied or resized is skipped when it comes up."""
    rows = _integer_rows(matrix)
    holders: dict[int, set[int]] = {}
    for rid, row in rows.items():
        for c in row:
            holders.setdefault(c, set()).add(rid)
    heap = [(len(row), rid) for rid, row in rows.items()]
    heapify(heap)
    found = 0
    while heap:
        length, rid = heappop(heap)
        piv = rows.get(rid)
        if piv is None or len(piv) != length:
            continue
        del rows[rid]
        for c in piv:
            holders[c].discard(rid)
        col = min(piv, key=lambda c: (len(holders[c]), c))
        found += 1
        # no active row holds ``col`` after this sweep, and none gains it
        # later, since every later pivot row lacks it
        for other in holders.pop(col):
            row = rows[other]
            before = len(row)
            added, dropped = _cancel(row, piv, col)
            for c in dropped:
                if c != col:
                    holders[c].discard(other)
            for c in added:
                holders.setdefault(c, set()).add(other)
            if not row:
                del rows[other]
            elif len(row) != before:
                heappush(heap, (len(row), other))
    return found


def _columns(basis: Sequence, nrows: int) -> SparseMatrix:
    """The vectors of ``basis``, each read by :func:`_exact_vector` as one of
    length ``nrows``, as the columns of a sparse matrix."""
    cols: dict[int, dict[int, Scalar]] = {}
    for j, vec in enumerate(basis):
        for c, v in _exact_vector(vec, nrows).items():
            cols.setdefault(c, {})[j] = v
    den = denominator_lcm(v for row in cols.values() for v in row.values())
    if den > 1:
        cols = {c: {j: int(v * den) for j, v in row.items()} for c, row in cols.items()}
    return SparseMatrix.from_numerators(nrows, len(basis), cols, den)


def verify_kernel(matrix: SparseMatrix, basis: Sequence) -> None:
    """Raise ArithmeticError unless ``matrix`` kills every vector of
    ``basis``, by one exact product with the basis as the columns of a
    sparse matrix (:func:`_columns`)."""
    if not matrix.matmul(_columns(basis, matrix.ncols)).is_zero:
        raise ArithmeticError("kernel vector failed verification")


def kernel_basis(matrix: SparseMatrix) -> list[tuple]:
    """Basis of the right kernel {v : Mv = 0}, one dense vector per free
    column, checked by :func:`verify_kernel`: a failure would mean the
    elimination itself is broken, and it raises in every interpreter mode."""
    basis = Echelon(matrix).kernel_basis()
    verify_kernel(matrix, basis)
    return [dense_vector(vec, matrix.ncols) for vec in basis]


def solve(matrix: SparseMatrix, rhs: Sequence) -> tuple | None:
    """One exact solution of ``M x = rhs``, or None when inconsistent.

    The augmented system ``M x - rhs*t = 0`` splits into the connected
    components of ``M``'s stored rows, which are only read; the ``t`` column
    is barred from pivoting.  Only the components holding a nonzero
    right-hand-side entry are copied, eliminated and back-substituted at
    t = 1, with free columns zero, so a zero right-hand side copies nothing.
    This is the solution one elimination over all augmented rows gives
    (docs/decisions.md, section 8), and it is checked with
    :meth:`SparseMatrix.matvec` before it is returned.
    """
    b = _exact_vector(rhs, matrix.nrows)
    stored = matrix._rows
    if any(r not in stored for r in b):
        return None  # a zero row asks for a nonzero value
    sentinel = matrix.ncols
    assign: dict[int, Scalar] = {sentinel: 1}
    for block in _components(stored) if b else ():
        if b.keys().isdisjoint(block):
            continue
        rows = {}
        for r, row in block.items():
            # numerators are the matrix times its denominator, so the rhs is
            # too; a fractional rhs entry scales its whole row to integers
            x = b.get(r, 0) * matrix.denominator
            row = {c: v * x.denominator for c, v in row.items()}
            if x:
                row[sentinel] = -x.numerator
            rows[r] = _normalize_int_row(row)
        pivots, leftovers = _eliminate(rows, sentinel)
        if leftovers:
            return None
        _back_substitute(pivots, assign)
    del assign[sentinel]
    solution = dense_vector({c: _as_exact(v) for c, v in assign.items()}, matrix.ncols)
    if matrix.matvec(solution) != dense_vector(b, matrix.nrows):
        raise ArithmeticError("solve result failed verification")
    return solution


class RowReducer:
    """Incremental membership oracle for a growing subspace.

    Stored rows are kept mutually reduced (each contains its own pivot column
    and no other row's), so testing a vector is a single pass over the pivot
    columns it touches.  Used to pick cohomology representatives, by testing
    the rows of the previous differential at the free columns, and as a
    general independence filter in tests.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self._rows: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _reduce(self, vec) -> dict[int, int]:
        """``vec`` as an integer row, reduced against every stored row."""
        row = _int_row(_exact_vector(vec, self.ncols))
        for pivot_col in sorted(set(row) & set(self._rows)):
            if pivot_col in row:
                _cancel(row, self._rows[pivot_col], pivot_col)
        return row

    def contains(self, vec) -> bool:
        return not self._reduce(vec)

    def add(self, vec) -> bool:
        """Insert ``vec``; returns True when it enlarged the subspace."""
        row = self._reduce(vec)
        if not row:
            return False
        pivot_col = min(row)
        # keep the invariant: no stored row may contain the new pivot column
        for other in self._rows.values():
            if pivot_col in other:
                _cancel(other, row, pivot_col)
        self._rows[pivot_col] = row
        return True
