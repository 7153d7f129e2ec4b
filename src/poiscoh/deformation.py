"""Formal deformations of Poisson algebras, truncated at a finite order.

A deformation is a pair of coefficient series (m_0 + m_1 t + ... ,
l_0 + l_1 t + ...) of bilinear tables over the base algebra, with m_0 and l_0
its multiplication and bracket.  Everything here works order by order with
exact coefficients: axiom residuals, cocycle tests for first-order terms,
higher obstructions, one-step lifts, and the square-zero extension algebras
attached to degree-2 cochains.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import (
    AlgebraSpec,
    ModuleSpec,
    StructuralError,
    ValidationReport,
    _apply_pairs,
    _dense_table,
    _extension_pairs,
    _freeze_table,
    _order_residuals,
    _pairs,
    _require_valid,
    _table_to_triples,
    _triples_to_table,
    _zero_table,
    algebra_from_dict,
    algebra_to_dict,
    builtin,
    ratio,
    regular_module,
    require_module_over,
)
from .cochain import CochainSpace, decode, encode, require_alternating
from .complexes import differential
from .linalg import SparseMatrix, kernel_basis, rank, solve


@dataclass(frozen=True)
class DeformationSeries:
    """Truncated deformation of a Poisson algebra.

    ``mult_terms[n]`` and ``bracket_terms[n]`` are the order-n coefficient
    tables; index 0 always repeats the base algebra's own tables.  Terms
    beyond the stored order read as zero.  ``mult_pairs`` and
    ``bracket_pairs`` hold the sparse pairs of the same terms, each made
    once, when its term joins the series.
    """

    algebra: AlgebraSpec
    mult_terms: tuple
    bracket_terms: tuple
    mult_pairs: tuple = field(compare=False, repr=False)
    bracket_pairs: tuple = field(compare=False, repr=False)

    @staticmethod
    def build(alg: AlgebraSpec, mult_terms, bracket_terms) -> "DeformationSeries":
        d = alg.dim
        mt = tuple(_freeze_table(t, d, d, d, f"mult_terms[{k}]")
                   for k, t in enumerate(mult_terms))
        bt = tuple(_freeze_table(t, d, d, d, f"bracket_terms[{k}]")
                   for k, t in enumerate(bracket_terms))
        if not mt or mt[0] != alg.mult:
            raise StructuralError("mult_terms[0] must be the base multiplication")
        if not bt or bt[0] != alg.bracket:
            raise StructuralError("bracket_terms[0] must be the base bracket")
        width = max(len(mt), len(bt))
        mt = mt + tuple(_zero_table(d) for _ in range(width - len(mt)))
        bt = bt + tuple(_zero_table(d) for _ in range(width - len(bt)))
        for k, t in enumerate(bt):
            require_alternating(t, 0, 2, f"bracket_terms[{k}] is not antisymmetric")
        return DeformationSeries(alg, mt, bt, tuple(map(_pairs, mt)), tuple(map(_pairs, bt)))

    @property
    def order(self) -> int:
        return len(self.mult_terms) - 1

    def mult_term(self, n: int) -> tuple:
        return self.mult_terms[n] if n <= self.order else _zero_table(self.algebra.dim)

    def bracket_term(self, n: int) -> tuple:
        return self.bracket_terms[n] if n <= self.order else _zero_table(self.algebra.dim)

    def extended(self, m_table, l_table) -> "DeformationSeries":
        """The series with one more term; only the new pair is checked."""
        d, n = self.algebra.dim, self.order + 1
        m_n = _freeze_table(m_table, d, d, d, f"mult_terms[{n}]")
        l_n = _freeze_table(l_table, d, d, d, f"bracket_terms[{n}]")
        require_alternating(l_n, 0, 2, f"bracket_terms[{n}] is not antisymmetric")
        return DeformationSeries(self.algebra, self.mult_terms + (m_n,),
                                 self.bracket_terms + (l_n,),
                                 self.mult_pairs + (_pairs(m_n),),
                                 self.bracket_pairs + (_pairs(l_n),))

    def truncated(self, order: int) -> "DeformationSeries":
        if order < 0:
            raise StructuralError("order must be nonnegative")
        stop = min(order, self.order) + 1
        return DeformationSeries(self.algebra, self.mult_terms[:stop],
                                 self.bracket_terms[:stop], self.mult_pairs[:stop],
                                 self.bracket_pairs[:stop])


def series_to_file_dict(series: DeformationSeries) -> dict:
    """Self-contained JSON object: the base algebra, the sparse
    ``[i, j, k, value]`` tables of orders >= 1 (order 0 always comes from
    the algebra itself) and the ``order`` they reach."""
    return {
        "algebra": algebra_to_dict(series.algebra),
        "order": series.order,
        "mult_terms": [_table_to_triples(t) for t in series.mult_terms[1:]],
        "bracket_terms": [_table_to_triples(t) for t in series.bracket_terms[1:]],
    }


def series_from_file_dict(data: dict) -> DeformationSeries:
    """Inverse of :func:`series_to_file_dict`; the algebra travels with the
    terms so a series file needs no companion algebra file, and ``order``
    may be left out."""
    if not isinstance(data, dict) or "algebra" not in data:
        raise StructuralError("series file must embed its algebra under 'algebra'")
    alg = algebra_from_dict(data["algebra"])
    d = alg.dim

    def tables(key, order0):
        terms = data.get(key, [])
        if not isinstance(terms, list):
            raise StructuralError(f"{key} must be a list of entry lists")
        return [order0] + [_triples_to_table(t, d, d, d, key) for t in terms]

    series = DeformationSeries.build(alg, tables("mult_terms", alg.mult),
                                     tables("bracket_terms", alg.bracket))
    order = data.get("order", series.order)
    if type(order) is not int or order != series.order:  # no bools
        raise StructuralError(f"order must be {series.order}, the number of terms given")
    return series


# ---------------------------------------------------------------------------
# Order-by-order axiom verification

SAMPLE_LIMIT = 3  # residual samples kept per failing axiom and order


@dataclass(frozen=True)
class ResidualRecord:
    axiom: str
    order: int
    count: int
    samples: tuple  # ((indices, residual vector), ...) truncated


@dataclass(frozen=True)
class DeformationCheck:
    ok: bool
    unital: bool
    max_order: int
    failures: tuple[ResidualRecord, ...]

    def failing_axioms(self) -> set[str]:
        return {rec.axiom for rec in self.failures}

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "unital": self.unital,
            "max_order": self.max_order,
            "failures": [
                {
                    "axiom": rec.axiom,
                    "order": rec.order,
                    "count": rec.count,
                    "samples": [
                        {"indices": list(idx),
                         "residual": [str(Fraction(v)) for v in vec]}
                        for idx, vec in rec.samples
                    ],
                }
                for rec in self.failures
            ],
        }


def verify_deformation(series: DeformationSeries,
                       max_order: int | None = None) -> DeformationCheck:
    """Expand the three Poisson-algebra axioms over the truncated series and
    collect every order where a residual survives.

    Checked per order n (summing over splittings p + q = n):
    associativity of the m-series, the Leibniz compatibility between both
    series and the Jacobi identity of the l-series (each l-term is
    antisymmetric already: :meth:`DeformationSeries.build` checks it).
    Whether every higher m-term kills the unit is reported separately and
    does not affect ``ok``.  Orders above ``2 * series.order`` are skipped:
    each of their splittings reads a term past the series, which is zero.
    """
    alg = series.algebra
    d = alg.dim
    if max_order is None:
        max_order = series.order
    if max_order < 0:
        raise StructuralError("order must be nonnegative")
    basis = [alg.basis_vector(i) for i in range(d)]
    zero = (0,) * d
    failures: list[ResidualRecord] = []
    unital = True

    for n in range(min(max_order, 2 * series.order) + 1):
        tables = _order_residuals(series.mult_pairs, series.bracket_pairs, n)
        for axiom, table in zip(("associativity", "leibniz", "jacobi"), tables):
            if table:
                failures.append(ResidualRecord(
                    axiom=axiom, order=n, count=len(table),
                    samples=tuple(itertools.islice(table.items(), SAMPLE_LIMIT))))
        if 1 <= n <= series.order and unital:
            mp = series.mult_pairs[n]
            unital = all(_apply_pairs(mp, alg.unit, basis[a], d) == zero
                         and _apply_pairs(mp, basis[a], alg.unit, d) == zero
                         for a in range(d))

    return DeformationCheck(ok=not failures, unital=unital,
                            max_order=max_order, failures=tuple(failures))


# ---------------------------------------------------------------------------
# First-order terms as degree-2 cochains


def encode_pair(alg: AlgebraSpec, m_table, l_table) -> tuple:
    """Flatten a (bilinear, antisymmetric-bilinear) pair into the degree-2
    cochain space of the algebra acting on itself."""
    d = alg.dim
    return encode(CochainSpace.build("poisson", 2, d, d), {
        (2, 0): _freeze_table(m_table, d, d, d, "m_table"),
        (0, 2): _freeze_table(l_table, d, d, d, "l_table"),
    })


def decode_pair(alg: AlgebraSpec, coeffs) -> tuple:
    """Inverse of :func:`encode_pair`."""
    tables = decode(CochainSpace.build("poisson", 2, alg.dim, alg.dim), coeffs)
    return tables[2, 0], tables[0, 2]


def is_poisson_2cocycle(alg: AlgebraSpec, m_table, l_table) -> bool:
    """Whether a first-order direction is closed under the assembled
    degree-2 differential of the regular module."""
    mat = differential(alg, regular_module(alg), "poisson", 2)
    return not any(mat.matvec(encode_pair(alg, m_table, l_table)))


def first_order_deformations(alg: AlgebraSpec) -> list[tuple]:
    """Basis of all first-order directions: the degree-2 cocycles of the
    regular module, decoded back into (m1, l1) table pairs."""
    mat = differential(alg, regular_module(alg), "poisson", 2)
    return [decode_pair(alg, vec) for vec in kernel_basis(mat)]


# ---------------------------------------------------------------------------
# Obstructions and lifting


def obstruction_tables(series: DeformationSeries, order: int | None = None, *,
                       validate: bool = True) -> tuple:
    """Right-hand sides (F1, F2, F3) of the order-n extension problem.

    Built purely from terms 1..n-1: F1 collects the associativity cross
    terms, F2 the Leibniz ones, F3 the Jacobi ones.  A valid continuation
    (m_n, l_n) exists iff the assembled degree-2 differential maps some pair
    onto their encoding.
    """
    n = series.order + 1 if order is None else order
    if n < 1:
        raise StructuralError("obstructions start at order 1")
    if validate:
        check = verify_deformation(series.truncated(n - 1), max_order=n - 1)
        if not check.ok:
            raise StructuralError(
                f"the series is not a deformation through order {n - 1}; "
                "obstructions are undefined")
    residuals = _order_residuals(series.mult_pairs, series.bracket_pairs, n, range(1, n))
    d = series.algebra.dim
    basis, zero = range(d), (0,) * d
    return tuple(tuple(tuple(tuple(f.get((a, b, c), zero) for c in basis) for b in basis)
                       for a in basis) for f in residuals)


def encode_obstruction(alg: AlgebraSpec, f1, f2, f3) -> tuple:
    """Flatten (F1, F2, F3) into the degree-3 cochain space: F3 on wedges,
    F2 on (tensor pair, single wedge) cells, F1 on tensor triples."""
    return encode(CochainSpace.build("poisson", 3, alg.dim, alg.dim),
                  {(0, 3): f3, (2, 1): f2, (3, 0): f1})


def lift_step(series: DeformationSeries, d2: SparseMatrix, *, validate: bool = True):
    """Extend a valid partial deformation by one order, or return None when
    the linear problem d(m_n, l_n) = F has no solution.

    ``d2`` is ``differential(alg, regular_module(alg), "poisson", 2)`` of
    the series' algebra; the caller assembles it, so that a loop over
    orders assembles it once.  The new order n is checked as
    :func:`verify_deformation` checks it, by the full order-n residual,
    not by the obstruction solved for (docs/decisions.md, section 8); a
    surviving cell raises :class:`ArithmeticError`.  Lower orders are
    checked only by ``validate``.
    """
    alg = series.algebra
    n = series.order + 1
    target = encode_obstruction(alg, *obstruction_tables(series, n, validate=validate))
    sol = solve(d2, target)
    if sol is None:
        return None
    lifted = series.extended(*decode_pair(alg, sol))
    if any(_order_residuals(lifted.mult_pairs, lifted.bracket_pairs, n)):
        raise ArithmeticError(f"lifted series fails the axioms at order {n}")
    return lifted


def lift_until(series: DeformationSeries, target: int) -> tuple:
    """Lift order by order until ``target``.  Returns the last series reached
    and the order whose linear problem had no solution (None once ``target``
    is reached).

    The degree-2 differential is assembled once and every order's
    :func:`lift_step` solves against it.  The input is validated once, by
    the first :func:`lift_step`.  Lifting never changes lower orders, and
    each :func:`lift_step` checks the order it adds, so the whole series
    stays verified; a surviving residual raises :class:`ArithmeticError`.
    """
    alg = series.algebra
    d2 = differential(alg, regular_module(alg), "poisson", 2)
    validate = True
    while series.order < target:
        lifted = lift_step(series, d2, validate=validate)
        if lifted is None:
            return series, series.order + 1
        series, validate = lifted, False
    return series, None


def is_poisson_3cocycle(alg: AlgebraSpec, f1, f2, f3) -> bool:
    """Whether obstruction tables encode a cocycle of the assembled degree-3
    differential of the regular module."""
    mat = differential(alg, regular_module(alg), "poisson", 3)
    return not any(mat.matvec(encode_obstruction(alg, f1, f2, f3)))


# ---------------------------------------------------------------------------
# Quantization in the bracket direction


def quantization_first_order(alg: AlgebraSpec) -> tuple:
    """The canonical semiclassical first-order pair (half the bracket as the
    product correction, no bracket correction) of a commutative algebra."""
    if not alg.is_commutative:
        raise StructuralError("semiclassical quantization starts from a "
                              "commutative algebra")
    d = alg.dim
    half = Fraction(1, 2)
    m1 = tuple(tuple(tuple(half * v for v in alg.bracket[i][j])
                     for j in range(d)) for i in range(d))
    return m1, _zero_table(d)


def quantization_obstruction_check(alg: AlgebraSpec, max_order: int = 3) -> dict:
    """Try to extend the canonical semiclassical series order by order.

    Returns a report with the order reached; a failure at order k exhibits an
    unsolvable linear problem, i.e. a nonzero obstruction class for this
    particular partial series.  (Other partials could in principle behave
    differently; this check follows the canonical one.)
    """
    if max_order < 1:
        raise StructuralError("max_order must be at least 1: the semiclassical "
                              "series starts at order 1")
    m1, l1 = quantization_first_order(alg)
    if not is_poisson_2cocycle(alg, m1, l1):
        raise ArithmeticError("the semiclassical direction must be a cocycle")
    series = DeformationSeries.build(alg, (alg.mult, m1), (alg.bracket, l1))
    lifted, obstructed_at = lift_until(series, max_order)
    return {"ok": obstructed_at is None, "order_reached": lifted.order,
            "obstructed_at": obstructed_at,
            "orders_solved": list(range(2, lifted.order + 1))}


# ---------------------------------------------------------------------------
# Square-zero extensions


def extension_algebra(alg: AlgebraSpec, mod: ModuleSpec, f1,
                      f0) -> tuple[AlgebraSpec, ValidationReport]:
    """The square-zero extension of the algebra by a poisson module, twisted
    by a degree-2 cochain: f1 feeds tensor pairs, f0 feeds wedge pairs (the
    pairs of :func:`poiscoh.algebra._extension_pairs`).

    The module must be poisson-flavored.  The result must satisfy all
    Poisson axioms (which is exactly the degree-2 cocycle condition on
    (f1, f0), plus normalization of f1 against the unit); violations raise
    :class:`AxiomError`.  Returns the extension with the (passing) report of
    its one validation.
    """
    require_module_over(alg, mod)
    if mod.flavor != "poisson":
        raise StructuralError("the extension needs a poisson-flavored module")
    d, m = alg.dim, mod.dim
    f1 = _freeze_table(f1, d, d, m, "f1")
    f0 = _freeze_table(f0, d, d, m, "f0")
    require_alternating(f0, 0, 2, "the wedge part f0 must be antisymmetric")
    mult, bracket = (_dense_table(pairs, d + m)
                     for pairs in _extension_pairs(alg, mod, f1, f0))
    ext = AlgebraSpec.build(d + m, mult, alg.unit + (0,) * m, bracket,
                            basis=alg.basis + tuple(f"u{p}" for p in range(m)))
    return ext, _require_valid(
        ext, "extension by a non-cocycle (or non-normalized) pair")


def _linear_map_table(alg: AlgebraSpec, mod: ModuleSpec, h_table) -> tuple:
    """The exact d x m table ``h[j][q]`` of a linear map h : A -> M."""
    h = tuple(tuple(ratio(v) for v in row) for row in h_table)
    if len(h) != alg.dim or any(len(row) != mod.dim for row in h):
        raise StructuralError(f"h must be a {alg.dim} x {mod.dim} table")
    return h


def coboundary_pair(alg: AlgebraSpec, mod: ModuleSpec, h_table) -> tuple:
    """The degree-2 coboundary d^1 h of a linear map h : A -> M, read off the
    assembled degree-1 differential and returned as the (tensor, wedge)
    table pair it shifts extensions by:

    tensor part: a.h(b) - h(ab) + h(a).b
    wedge part:  {a, h(b)} - {b, h(a)} - h({a, b})
    """
    d, m = alg.dim, mod.dim
    h = _linear_map_table(alg, mod, h_table)
    dh = differential(alg, mod, "poisson", 1).matvec(
        encode(CochainSpace.build("poisson", 1, d, m), {(0, 1): h}))
    tables = decode(CochainSpace.build("poisson", 2, d, m), dh)
    return tables[2, 0], tables[0, 2]


def shift_basis_matrix(alg: AlgebraSpec, mod: ModuleSpec, h_table) -> tuple:
    """Change of basis of the extension space sending each algebra basis
    vector b_j to (b_j, h(b_j)) and fixing the module part; as columns."""
    d, n = alg.dim, alg.dim + mod.dim
    h = _linear_map_table(alg, mod, h_table)
    # the identity, with the module coordinates of h(b_j) below it in column j
    return tuple(tuple(h[c][r - d] if c < d <= r else int(r == c) for c in range(n))
                 for r in range(n))


def transport(spec: AlgebraSpec, matrix) -> AlgebraSpec:
    """The same algebra written in the basis whose coordinates are the
    columns of ``matrix`` (must be invertible)."""
    n = spec.dim
    p = SparseMatrix.from_dense(matrix)
    if p.nrows != n or p.ncols != n:
        raise StructuralError(f"change of basis must be {n} x {n}")
    if rank(p) != n:
        raise StructuralError("change of basis is not invertible")
    cols = [tuple(matrix[r][c] for r in range(n)) for c in range(n)]

    def new_table(pairs):
        return [[solve(p, _apply_pairs(pairs, cols[i], cols[j], n)) for j in range(n)]
                for i in range(n)]

    return AlgebraSpec.build(n, new_table(spec.mult_pairs), solve(p, spec.unit),
                             new_table(spec.bracket_pairs), basis=spec.basis)


def classical_limit(series: DeformationSeries) -> AlgebraSpec:
    """The Poisson algebra seen at first order by a deformation of a
    commutative base: same multiplication, bracket the antisymmetrized
    first-order product term.  Validated before being returned."""
    alg = series.algebra
    if not alg.is_commutative:
        raise StructuralError("classical limits are taken over commutative bases")
    d = alg.dim
    m1 = series.mult_term(1)
    bracket = [[tuple(m1[i][j][k] - m1[j][i][k] for k in range(d))
                for j in range(d)] for i in range(d)]
    out = AlgebraSpec.build(d, alg.mult, alg.unit, bracket, basis=alg.basis)
    _require_valid(out, "first-order term does not induce a Poisson bracket")
    return out


# ---------------------------------------------------------------------------
# The 2x2 matrix algebra families


def m2_product_family(nu, lam, mu) -> tuple:
    """Three-parameter bilinear pairing on the 2x2 matrix algebra in its
    (1, e, f, h) basis: the unit row and column scaled by nu, and on the
    traceless part (mu/6) tr(xy) . 1 + (lam/4) {x, y}.

    The honest matrix product is (nu, lam, mu) = (1, 2, 3); the pairing is
    associative precisely when nu = 1 (or a rescaling) and 4 mu = 3 lam**2.
    """
    nu, lam, mu = ratio(nu), ratio(lam), ratio(mu)
    alg = builtin("m2")
    d = 4
    quarter = Fraction(1, 4)
    trace = [[0] * 3 for _ in range(3)]  # over (e, f, h)
    trace[0][1] = trace[1][0] = 1
    trace[2][2] = 2
    table = [[(0,) * d for _ in range(d)] for _ in range(d)]
    for k in range(d):
        table[0][k] = tuple(nu * v for v in alg.basis_vector(k))
        table[k][0] = tuple(nu * v for v in alg.basis_vector(k))
    for x in range(1, d):
        for y in range(1, d):
            vec = [0] * d
            vec[0] += Fraction(mu, 6) * trace[x - 1][y - 1]
            for k, c in alg.bracket_pairs[x][y]:
                vec[k] += quarter * lam * c
            table[x][y] = tuple(vec)
    return tuple(tuple(row) for row in table)


def m2_family_is_associative(nu, lam, mu) -> bool:
    return not _order_residuals((_pairs(m2_product_family(nu, lam, mu)),), (), 0)[0]


def phi_family(alg: AlgebraSpec, nu, lam) -> tuple:
    """The two-parameter slice of :func:`m2_product_family` with the trace
    coefficient locked to three times the bracket one (mu = 3*lam).

    Only the nu = 0 members are cocycles: on the full three-parameter
    family the Hochschild cocycle condition reads mu = 3*lam - 3*nu, so
    the lock used here leaves the kernel as soon as nu != 0 (check with
    :func:`is_poisson_2cocycle`).  The nu = 0 slice consists of the
    equivariant first-order deformation directions of the algebra.
    """
    if alg != builtin("m2"):
        raise StructuralError("phi_family is defined over the m2 builtin")
    return m2_product_family(nu, lam, 3 * ratio(lam))


def m2_table3_series(s, repaired: bool = False) -> DeformationSeries:
    """A one-parameter quadratic deformation family of the 2x2 matrix
    algebra with the bracket series held constant.

    ``repaired=False`` builds the family exactly as tabulated; running
    :func:`verify_deformation` on it shows the order-1 associativity residual
    is nonzero for every s (and the order-2 one for s != 0), so it is not a
    deformation.  ``repaired=True`` builds the nearby family obtained by
    pulling the product back along the basis flow e -> e, f -> (1+ts)^2 f,
    h -> (1+ts) h; it is associative at every order, Lie-equivariant in each
    term (so the Leibniz and Jacobi residuals vanish with the constant
    bracket series), and its first-order term is the equivariant direction
    ``phi_family(m2, 0, 2s)``.
    """
    s = ratio(s)
    alg = builtin("m2")
    d = 4
    zero = _zero_table(d)
    m1 = [[(0,) * d for _ in range(d)] for _ in range(d)]
    m2_ = [[(0,) * d for _ in range(d)] for _ in range(d)]
    E, F, H = 1, 2, 3
    half = Fraction(1, 2)
    if repaired:
        m1[E][F] = (s, 0, 0, half * s)
        m1[F][E] = (s, 0, 0, -half * s)
        m1[E][H] = (0, -s, 0, 0)
        m1[H][E] = (0, s, 0, 0)
        m1[F][H] = (0, 0, s, 0)
        m1[H][F] = (0, 0, -s, 0)
        m1[H][H] = (2 * s, 0, 0, 0)
    else:
        m1[E][F] = (-s, 0, 0, -half)
        m1[F][E] = (-s, 0, 0, half)
        m1[E][H] = (0, -s, 0, 0)
        m1[H][E] = (0, -s, 0, 0)
        m1[F][H] = (0, 0, s, 0)
        m1[H][F] = (0, 0, -s, 0)
        m1[H][H] = (-2 * s, 0, 0, 0)
    sq = s * s
    m2_[E][F] = (half * sq, 0, 0, 0)
    m2_[F][E] = (half * sq, 0, 0, 0)
    m2_[H][H] = (sq, 0, 0, 0)
    return DeformationSeries.build(alg, (alg.mult, m1, m2_),
                                   (alg.bracket, zero, zero))
