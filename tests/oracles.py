"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: dense Gaussian elimination over
Fraction, direct axiom expansion for truncated deformations, brute-force
combinatorics.  None of it shares code with the library beyond the public
data layout (tables of structure constants, flat coefficient vectors).
"""

import itertools
from fractions import Fraction


# ---------------------------------------------------------------------------
# Dense exact linear algebra


def dense_rows(matrix):
    """Materialize a SparseMatrix (or anything with nrows/ncols/__getitem__)."""
    return [[Fraction(matrix[r, c]) for c in range(matrix.ncols)]
            for r in range(matrix.nrows)]


def dict_add(entries, r, c, value):
    """Add ``value`` at (r, c) of a plain ``dict[(r, c)] -> Fraction``,
    dropping the key when the sum is zero."""
    total = entries.get((r, c), Fraction(0)) + Fraction(value)
    if total:
        entries[r, c] = total
    else:
        entries.pop((r, c), None)


def dict_matmul(a, b):
    """Product of two plain dict matrices, entry by entry."""
    out = {}
    for (r, k), v in a.items():
        for (k2, c), w in b.items():
            if k == k2:
                dict_add(out, r, c, v * w)
    return out


def dict_matvec(a, vec, nrows):
    acc = [Fraction(0)] * nrows
    for (r, c), v in a.items():
        acc[r] += v * Fraction(vec[c])
    return tuple(acc)


def dict_dump_text(entries, nrows, ncols):
    """The ``nrows ncols nnz`` header, then ``r c value`` sorted by position."""
    lines = [f"{nrows} {ncols} {len(entries)}"]
    lines += [f"{r} {c} {entries[r, c]}" for r, c in sorted(entries)]
    return "\n".join(lines) + "\n"


def dense_rank(rows):
    rows = [list(map(Fraction, row)) for row in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        rows[rank] = [x / pv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def dense_kernel(rows, ncols):
    """Kernel basis of the dense row list, one vector per free column."""
    pivot_cols = []
    rank = 0
    work = [list(map(Fraction, row)) for row in rows]
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(work)):
            if work[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        pv = work[rank][col]
        work[rank] = [x / pv for x in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col]:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[rank])]
        pivot_cols.append(col)
        rank += 1
        if rank == len(work):
            break
    # read the fully reduced rows only after elimination settles
    pivots = {col: work[i] for i, col in enumerate(pivot_cols)}
    basis = []
    free = [c for c in range(ncols) if c not in pivots]
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for pc, row in pivots.items():
            vec[pc] = -row[fc]
        basis.append(tuple(vec))
    return basis


def in_span(vectors, target):
    """Is target a rational combination of the given vectors?"""
    base = [list(v) for v in vectors]
    return dense_rank(base) == dense_rank(base + [list(target)])


# ---------------------------------------------------------------------------
# Direct truncated-deformation residuals
#
# A series is handled as its raw term tables: mult_terms[k][i][j] and
# bracket_terms[k][i][j] are coefficient vectors, k = 0 being the undeformed
# structure.  Bilinear maps extend from basis pairs by expanding both
# arguments; the order-k residual of each axiom is the t^k coefficient of the
# axiom applied to the truncated product/bracket.


def _apply(table, x, y):
    out = [Fraction(0)] * len(table[0][0])
    for i in range(len(x)):
        if not x[i]:
            continue
        for j in range(len(y)):
            if not y[j]:
                continue
            coeff = Fraction(x[i]) * Fraction(y[j])
            for k, v in enumerate(table[i][j]):
                if v:
                    out[k] += coeff * Fraction(v)
    return out


def _basis(d, i):
    vec = [Fraction(0)] * d
    vec[i] = Fraction(1)
    return vec


def associativity_residual(mult_terms, order, a, b, c):
    """t^order coefficient of (a*b)*c - a*(b*c), basis indices a, b, c."""
    d = len(mult_terms[0])
    acc = [Fraction(0)] * d
    for p in range(order + 1):
        q = order - p
        if p >= len(mult_terms) or q >= len(mult_terms):
            continue
        ab = mult_terms[q][a][b]
        bc = mult_terms[q][b][c]
        left = _apply(mult_terms[p], ab, _basis(d, c))
        right = _apply(mult_terms[p], _basis(d, a), bc)
        for k in range(d):
            acc[k] += left[k] - right[k]
    return acc


def leibniz_residual(mult_terms, bracket_terms, order, a, b, c):
    """t^order coefficient of {a*b, c} - a*{b, c} - {a, c}*b."""
    d = len(mult_terms[0])
    acc = [Fraction(0)] * d
    for p in range(order + 1):
        q = order - p
        if p >= len(mult_terms) or q >= len(mult_terms):
            continue
        ab = mult_terms[q][a][b]
        bc = bracket_terms[q][b][c]
        ac = bracket_terms[q][a][c]
        t1 = _apply(bracket_terms[p], ab, _basis(d, c))
        t2 = _apply(mult_terms[p], _basis(d, a), bc)
        t3 = _apply(mult_terms[p], ac, _basis(d, b))
        for k in range(d):
            acc[k] += t1[k] - t2[k] - t3[k]
    return acc


def jacobi_residual(bracket_terms, order, a, b, c):
    """t^order coefficient of the cyclic sum {{a,b},c} + {{b,c},a} + {{c,a},b}."""
    d = len(bracket_terms[0])
    acc = [Fraction(0)] * d
    for p in range(order + 1):
        q = order - p
        if p >= len(bracket_terms) or q >= len(bracket_terms):
            continue
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            inner = bracket_terms[q][x][y]
            outer = _apply(bracket_terms[p], inner, _basis(d, z))
            for k in range(d):
                acc[k] += outer[k]
    return acc


def series_residuals(series, order):
    """All three residual families of a library series at one t-order, as a
    dict axiom -> {(a,b,c): nonzero residual tuple}."""
    mult = list(series.mult_terms)
    brk = list(series.bracket_terms)
    d = series.algebra.dim
    out = {"associativity": {}, "leibniz": {}, "jacobi": {}}
    for a in range(d):
        for b in range(d):
            for c in range(d):
                r1 = associativity_residual(mult, order, a, b, c)
                if any(r1):
                    out["associativity"][(a, b, c)] = tuple(r1)
                r2 = leibniz_residual(mult, brk, order, a, b, c)
                if any(r2):
                    out["leibniz"][(a, b, c)] = tuple(r2)
                r3 = jacobi_residual(brk, order, a, b, c)
                if any(r3):
                    out["jacobi"][(a, b, c)] = tuple(r3)
    return out


# ---------------------------------------------------------------------------
# Module axioms, written out from their definitions


def module_axiom_residuals(mult, bracket, unit, left, right, lie, flavor):
    """``(checked, violations)`` of a module over an algebra, in the report
    order of ``validate_module``: the unit laws for each module basis vector
    u, then, for each basis triple (a, b, u), every other label in turn.  A
    violation is ``(label, indices, left side - right side)``.  ``left[a][p]``,
    ``right[a][p]`` and ``lie[a][p]`` are a.u_p, u_p.a and {a, u_p}."""
    d, m = len(mult), len(left[0])

    def sub(x, y):
        return tuple(p - q for p, q in zip(x, y))

    def add(x, y):
        return tuple(p + q for p, q in zip(x, y))

    def times(x, y):
        return _apply(mult, x, y)

    def brk(x, y):
        return _apply(bracket, x, y)

    def dot(x, u):  # x.u
        return _apply(left, x, u)

    def tod(u, x):  # u.x
        return _apply(right, x, u)

    def act(x, u):  # {x, u}
        return _apply(lie, x, u)

    labels = ["assoc-left", "assoc-right", "bimodule-commute", "lie-module",
              "quasi-left", "quasi-right"] + (["poisson-leibniz"] if flavor == "poisson" else [])
    checked = ("unit-left", "unit-right") + tuple(labels)
    violations = []
    for p in range(m):
        u = _basis(m, p)
        for label, residual in (("unit-left", sub(dot(unit, u), u)),
                                ("unit-right", sub(tod(u, unit), u))):
            if any(residual):
                violations.append((label, (p,), residual))
    for i, j, p in itertools.product(range(d), range(d), range(m)):
        a, b, u = _basis(d, i), _basis(d, j), _basis(m, p)
        residuals = {
            "assoc-left": sub(dot(times(a, b), u), dot(a, dot(b, u))),
            "assoc-right": sub(tod(u, times(a, b)), tod(tod(u, a), b)),
            "bimodule-commute": sub(tod(dot(a, u), b), dot(a, tod(u, b))),
            "lie-module": sub(act(brk(a, b), u), sub(act(a, act(b, u)), act(b, act(a, u)))),
            "quasi-left": sub(act(a, dot(b, u)), add(dot(brk(a, b), u), dot(b, act(a, u)))),
            "quasi-right": sub(act(a, tod(u, b)), add(tod(u, brk(a, b)), tod(act(a, u), b))),
            "poisson-leibniz": sub(act(times(a, b), u), add(dot(a, act(b, u)), tod(act(a, u), b))),
        }
        for label in labels:
            if any(residuals[label]):
                violations.append((label, (i, j, p), residuals[label]))
    return checked, violations


# ---------------------------------------------------------------------------
# Combinatorial helpers


def permutation_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


# ---------------------------------------------------------------------------
# The corner defect of a zero-bracket algebra
#
# With a zero bracket every horizontal block of the poisson complex vanishes,
# and the complex splits into one strand per wedge width q:
#   Hom(Lambda^(q+1) A, A) --corner--> C^2(A, Hom(Lambda^q A, A)) --> C^3 ...
# The corner map is the Hochschild coboundary of 1-cochains restricted to the
# alternating ones, so degree q + 2 carries, beyond HH^2 * C(d, q), the part
# of the 2-coboundaries that the alternating 1-cochains do not reach.


def _antisymmetrized(word, slots):
    """The elementary multilinear map on ``word`` antisymmetrized over the
    positions ``slots``, as a dict word -> sign (empty when it vanishes)."""
    out = {}
    for perm in itertools.permutations(range(len(slots))):
        moved = list(word)
        for pos, src in zip(slots, perm):
            moved[pos] = word[slots[src]]
        key = tuple(moved)
        out[key] = out.get(key, 0) + permutation_sign(perm)
    return {w: s for w, s in out.items() if s}


def _corner_image(mult, support, comp, q):
    """Flat vector of (a, b, w) -> a.F(b, w) - F(ab, w) + F(a, w).b, where
    F(word) = support[word] * e_comp for words of length q + 1."""
    d = len(mult)

    def value(word):
        return [Fraction(support.get(word, 0)) * (k == comp) for k in range(d)]

    flat = []
    for a, b, *w in itertools.product(range(d), repeat=q + 2):
        w = tuple(w)
        left = _apply(mult, _basis(d, a), value((b,) + w))
        right = _apply(mult, value((a,) + w), _basis(d, b))
        merged = sum(Fraction(c) * support.get((r,) + w, 0)
                     for r, c in enumerate(mult[a][b]))
        flat.extend(left[k] - merged * (k == comp) + right[k]
                    for k in range(d))
    return flat


def zero_bracket_corner_defect(mult, q):
    """dim of the Hochschild 2-coboundaries in C^2(A, Hom(Lambda^q A, A))
    minus the rank of the corner map on Hom(Lambda^(q+1) A, A), for the
    algebra with structure constants ``mult`` acting on itself.

    For a zero bracket this is what the poisson dimension in degree q + 2
    exceeds the multiderivation-plus-Hochschild splitting by.  Both sides
    are ranks of coboundary images, each spanned by elementary cochains
    antisymmetrized in the wedge slots (slots 1..q for general 1-cochains,
    slots 0..q for the alternating ones).
    """
    d = len(mult)
    general, alternating = [], []
    for word in itertools.product(range(d), repeat=q + 1):
        for slots, rows in ((tuple(range(1, q + 1)), general),
                            (tuple(range(q + 1)), alternating)):
            support = _antisymmetrized(word, slots)
            for comp in range(d):
                rows.append(_corner_image(mult, support, comp, q))
    return dense_rank(general) - dense_rank(alternating)


# ---------------------------------------------------------------------------
# The degree-1 coboundary, written out from the structure constants


def coboundary_pair(mult, bracket, left, right, lie, h):
    """(tensor, wedge) tables of the coboundary of h : A -> M, from the
    formulas  a.h(b) - h(ab) + h(a).b  and  {a, h(b)} - {b, h(a)} - h({a, b}).
    ``h[a]`` is the image of basis a; ``left[a][p]``, ``right[a][p]`` and
    ``lie[a][p]`` are the coordinates of basis a acting on module basis p
    (``right`` from the right)."""
    d, m = len(h), len(h[0])

    def act(action, a, vec):
        out = [Fraction(0)] * m
        for p, c in enumerate(vec):
            for q, v in enumerate(action[a][p]):
                out[q] += Fraction(c) * Fraction(v)
        return out

    def h_of(avec):
        return [sum(Fraction(avec[i]) * Fraction(h[i][q]) for i in range(d))
                for q in range(m)]

    tensor = [[tuple(x - y + z for x, y, z in zip(
        act(left, a, h[b]), h_of(mult[a][b]), act(right, b, h[a])))
        for b in range(d)] for a in range(d)]
    wedge = [[tuple(x - y - z for x, y, z in zip(
        act(lie, a, h[b]), act(lie, b, h[a]), h_of(bracket[a][b])))
        for b in range(d)] for a in range(d)]
    return tensor, wedge


# ---------------------------------------------------------------------------
# Cartan's formula: insertion of a basis element and its Lie derivative
#
# Both maps act on the flat cochains of a sum of (i, j) blocks, laid out as
# ``block offset + (tensor rank * C(d, j) + wedge rank) * m + component``
# with tensor words in ``itertools.product`` order and increasing wedge
# words in ``itertools.combinations`` order, and come back as their shape
# and a plain dict matrix ``{(row, col): Fraction}``.


def _flat_positions(blocks, d, m):
    """``({(i, j, tensor word, wedge word): first flat index}, total dim)``."""
    pos, start = {}, 0
    for i, j in blocks:
        for tens in itertools.product(range(d), repeat=i):
            for wedge in itertools.combinations(range(d), j):
                pos[i, j, tens, wedge] = start
                start += m
    return pos, start


def _sorted_wedge(word):
    """``(sign, increasing word)`` of a wedge word, sign 0 on a repeat."""
    if len(set(word)) < len(word):
        return 0, None
    return permutation_sign(sorted(range(len(word)), key=word.__getitem__)), tuple(sorted(word))


def insertion(src_blocks, tgt_blocks, d, m, x):
    """iota_x : C^n -> C^(n-1), ``(iota f)(a; omega) = (-1)^i f(a; x ^ omega)``
    on tensor width i, as ``(nrows, ncols, entries)``."""
    src, ncols = _flat_positions(src_blocks, d, m)
    tgt, nrows = _flat_positions(tgt_blocks, d, m)
    entries = {}
    for (i, j, tens, omega), row in tgt.items():
        if (i, j + 1) not in src_blocks:
            continue
        sign, word = _sorted_wedge((x,) + omega)
        if sign:
            col = src[i, j + 1, tens, word]
            for p in range(m):
                dict_add(entries, row + p, col + p, (-1) ** i * sign)
    return nrows, ncols, entries


def lie_derivative(blocks, bracket, lie, m, x):
    """L_x on C^n: ``(L f)(args) = {x, f(args)} - sum_k f(..., {x, arg_k}, ...)``
    over every tensor and wedge argument, from the bracket table and the
    module's Lie action ``lie[a][p]`` = {a, u_p}; ``(dim, entries)``."""
    d = len(bracket)
    pos, dim = _flat_positions(blocks, d, m)
    entries = {}
    for (i, j, tens, wedge), row in pos.items():
        for q in range(m):  # {x, f(args)}: column p feeds row component q
            for p in range(m):
                if lie[x][p][q]:
                    dict_add(entries, row + q, row + p, lie[x][p][q])
        args = tens + wedge
        for k, a in enumerate(args):
            for b, c in enumerate(bracket[x][a]):
                if not c:
                    continue
                moved = args[:k] + (b,) + args[k + 1:]
                sign, word = _sorted_wedge(moved[i:])
                if sign:
                    col = pos[i, j, moved[:i], word]
                    for p in range(m):
                        dict_add(entries, row + p, col + p, -c * sign)
    return dim, entries


# ---------------------------------------------------------------------------
# The Chevalley-Eilenberg coboundary of a Lie module, slot by slot, in the
# layout above restricted to the (0, n) block


def lie_coboundary(bracket, lie, n):
    """``d : Hom(Lambda^n A, M) -> Hom(Lambda^(n+1) A, M)`` evaluated on each
    increasing word ``y``: ``sum_k (-1)^k {y_k, f(y without y_k)}`` plus
    ``sum_{k<l} (-1)^(k+l) f({y_k, y_l}, y without y_k, y_l)``, from the
    bracket table and the module's Lie action ``lie[a][p]`` = {a, u_p};
    ``(nrows, ncols, entries)``."""
    d, m = len(bracket), len(lie[0])
    src, ncols = _flat_positions([(0, n)], d, m)
    tgt, nrows = _flat_positions([(0, n + 1)], d, m)
    entries = {}
    for (_, _, _, y), row in tgt.items():
        for k, x in enumerate(y):
            col = src[0, n, (), y[:k] + y[k + 1:]]
            for p in range(m):
                for q, c in enumerate(lie[x][p]):
                    if c:
                        dict_add(entries, row + q, col + p, (-1) ** k * c)
        for k, l in itertools.combinations(range(n + 1), 2):
            rest = tuple(z for t, z in enumerate(y) if t not in (k, l))
            for r, c in enumerate(bracket[y[k]][y[l]]):
                sign, word = _sorted_wedge((r,) + rest)
                if c and sign:
                    col = src[0, n, (), word]
                    for p in range(m):
                        dict_add(entries, row + p, col + p, (-1) ** (k + l) * sign * c)
    return nrows, ncols, entries
