"""Finite-dimensional Poisson algebras and their modules over exact rationals.

An algebra is presented by structure constants relative to a chosen basis:
a multiplication table, a bracket table, and the coordinates of the unit.
All coefficients are exact (`int` or `fractions.Fraction`); floating point
is never used anywhere in this package.
"""

from __future__ import annotations

import itertools
import json
import re
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Sequence

from .linalg import SparseMatrix, solve


class StructuralError(ValueError):
    """Malformed presentation: bad shapes, out-of-range indices, non-exact
    coefficients.  Distinct from axiom violations, which are *reported*."""


class AxiomError(ValueError):
    """Raised by constructors when the requested object cannot satisfy its
    defining axioms.  Carries the offending validation report."""

    def __init__(self, message: str, report: "ValidationReport"):
        super().__init__(message)
        self.report = report


_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def ratio(value) -> int | Fraction:
    """Coerce an exact scalar to canonical form (int when integral).

    Accepts int, Fraction and strings ``"p"`` or ``"p/q"`` of decimal
    integers, like ``"-3/4"``: the forms :func:`ratio_str` writes.  Floats
    are rejected (this package is exact-arithmetic only), and so are
    decimal points and exponents, which can describe huge integers in a
    few bytes.
    """
    if isinstance(value, bool):
        raise StructuralError(f"not an exact scalar: {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    if isinstance(value, str):
        try:
            if _RATIONAL.fullmatch(value):
                return ratio(Fraction(value))
        except (ValueError, ZeroDivisionError) as exc:  # q = 0, or too many digits
            raise StructuralError(f"cannot parse exact scalar {value!r}") from exc
        raise StructuralError(f"cannot parse exact scalar {value!r}")
    raise StructuralError(f"not an exact scalar: {value!r}")


def ratio_str(value) -> str:
    """Serialize an exact scalar as ``"p"`` or ``"p/q"`` (always reduced)."""
    return str(Fraction(value))


def _zero(n: int) -> tuple:
    return (0,) * n


def _zero_table(d: int) -> tuple:
    return tuple(tuple((0,) * d for _ in range(d)) for _ in range(d))


def _freeze_vec(vec, n: int, what: str) -> tuple:
    vec = tuple(ratio(v) for v in vec)
    if len(vec) != n:
        raise StructuralError(f"{what}: expected length {n}, got {len(vec)}")
    return vec


def _freeze_table(table, rows: int, cols: int, width: int, what: str) -> tuple:
    """Freeze a rows x cols table of length-width coefficient vectors."""
    table = tuple(table)
    if len(table) != rows:
        raise StructuralError(f"{what}: expected {rows} rows")
    out = []
    for r, row in enumerate(table):
        row = tuple(row)
        if len(row) != cols:
            raise StructuralError(f"{what}: row {r} has {len(row)} entries, expected {cols}")
        out.append(tuple(_freeze_vec(v, width, f"{what}[{r}]") for v in row))
    return tuple(out)


def _sparse(vec) -> tuple:
    """Sparse view ``((k, c), ...)`` of the nonzero coordinates of a vector."""
    return tuple((k, c) for k, c in enumerate(vec) if c)


def _pairs(table) -> tuple:
    """Sparse view of a structure-constant table: pairs[i][j] = ((k, c), ...)."""
    return tuple(tuple(_sparse(vec) for vec in row) for row in table)


def _add_pairs(acc, pairs, u, v, sign: int = 1) -> None:
    """``acc += sign * P(u, v)`` in place, for the bilinear map P whose sparse
    structure constants are ``pairs``, on sparse vectors ``u`` and ``v``;
    ``acc`` is a list or a ``defaultdict(int)`` indexed by coordinate."""
    for i, x in u:
        row = pairs[i]
        for j, y in v:
            for k, c in row[j]:
                acc[k] += sign * x * y * c


def _apply_pairs(pairs, u, v, out_dim: int) -> tuple:
    acc = [0] * out_dim
    _add_pairs(acc, pairs, _sparse(u), _sparse(v))
    return tuple(acc)


def _order_residuals(mult_pairs, bracket_pairs, n: int, splittings=None,
                     triples=None) -> tuple:
    """Order-n residuals (F1, F2, F3) of associativity, Leibniz and Jacobi
    at basis triples (a, b, c) of the series ``m = sum m_p t^p``,
    ``l = sum l_p t^p``, given by the sparse pairs (:func:`_pairs`) of its
    terms (missing terms read as zero), summed over the splittings
    p + q = n with p in ``splittings`` (distinct; all of 0..n by default):

        F1 = m_p(m_q(a, b), c) - m_p(a, m_q(b, c))
        F2 = l_p(m_q(a, b), c) - m_p(a, l_q(b, c)) - m_p(l_q(a, c), b)
        F3 = l_p(l_q(a, b), c) + l_p(l_q(b, c), a) + l_p(l_q(c, a), b)

    Each is a dict ``{(a, b, c): vector}`` of the nonzero vectors only, in
    the order of ``triples`` (distinct; all of them in index order by
    default).  At order 0 these are the Poisson axioms of ``(m_0, l_0)``
    themselves.  The splittings ``range(1, n)`` leave the part built from
    terms 1..n-1 alone: the order-n obstruction; ``(0, n)`` are the two
    that read the order-n terms.  A splitting is skipped when one side's
    mult and bracket terms are both zero: every product in it would vanish.
    """
    d = len(mult_pairs[0])
    zero = (((),) * d,) * d  # the sparse pairs of the zero table

    def side(k):
        mk, lk = (pairs[k] if k < len(pairs) else zero
                  for pairs in (mult_pairs, bracket_pairs))
        return (mk, lk) if mk != zero or lk != zero else None

    if splittings is None:
        splittings = range(n + 1)
    if triples is None:
        triples = itertools.product(range(d), repeat=3)
    splits = [(side(p), side(n - p)) for p in splittings]
    splits = [split for split in splits if None not in split]
    basis = [((i, 1),) for i in range(d)]
    out = ({}, {}, {})
    # the touched cells of each residual, emptied after every triple
    sums = r1, r2, r3 = defaultdict(int), defaultdict(int), defaultdict(int)
    for a, b, c in triples:
        for (mp, lp), (mq, lq) in splits:
            _add_pairs(r1, mp, mq[a][b], basis[c])
            _add_pairs(r1, mp, basis[a], mq[b][c], -1)
            _add_pairs(r2, lp, mq[a][b], basis[c])
            _add_pairs(r2, mp, basis[a], lq[b][c], -1)
            _add_pairs(r2, mp, lq[a][c], basis[b], -1)
            _add_pairs(r3, lp, lq[a][b], basis[c])
            _add_pairs(r3, lp, lq[b][c], basis[a])
            _add_pairs(r3, lp, lq[c][a], basis[b])
        if r1 or r2 or r3:
            for f, r in zip(out, sums):
                if any(r.values()):
                    f[a, b, c] = tuple([r.get(k, 0) for k in range(d)])
                r.clear()
    return out


@dataclass(frozen=True)
class AlgebraSpec:
    """A Poisson algebra presentation.

    ``mult[i][j]`` and ``bracket[i][j]`` are coordinate vectors of
    ``basis_i * basis_j`` and ``{basis_i, basis_j}``.  The presentation is
    not validated on construction; use :func:`validate_algebra`.
    """

    dim: int
    basis: tuple[str, ...]
    unit: tuple
    mult: tuple
    bracket: tuple

    def __post_init__(self):
        if self.dim <= 0:
            raise StructuralError("algebra dimension must be positive")
        if len(self.basis) != self.dim or len(set(self.basis)) != self.dim:
            raise StructuralError("basis names must be distinct and match dim")

    # every block-cache lookup hashes its spec, so the fields are hashed once
    @cached_property
    def _hash(self) -> int:
        return hash((self.dim, self.basis, self.unit, self.mult, self.bracket))

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def build(dim, mult, unit, bracket, basis=None) -> "AlgebraSpec":
        basis = tuple(basis) if basis is not None else tuple(f"b{i}" for i in range(dim))
        return AlgebraSpec(
            dim=dim,
            basis=basis,
            unit=_freeze_vec(unit, dim, "unit"),
            mult=_freeze_table(mult, dim, dim, dim, "mult"),
            bracket=_freeze_table(bracket, dim, dim, dim, "bracket"),
        )

    @cached_property
    def mult_pairs(self):
        return _pairs(self.mult)

    @cached_property
    def bracket_pairs(self):
        return _pairs(self.bracket)

    def product(self, u: Sequence, v: Sequence) -> tuple:
        """Bilinear extension of the multiplication table."""
        return _apply_pairs(self.mult_pairs, u, v, self.dim)

    def bracket_of(self, u: Sequence, v: Sequence) -> tuple:
        """Bilinear extension of the bracket table."""
        return _apply_pairs(self.bracket_pairs, u, v, self.dim)

    @cached_property
    def is_commutative(self) -> bool:
        return all(
            self.mult[i][j] == self.mult[j][i]
            for i in range(self.dim)
            for j in range(i + 1, self.dim)
        )

    @cached_property
    def has_zero_bracket(self) -> bool:
        zero = _zero(self.dim)
        return all(v == zero for row in self.bracket for v in row)

    def basis_vector(self, i: int) -> tuple:
        return tuple(1 if k == i else 0 for k in range(self.dim))


@dataclass(frozen=True)
class ModuleSpec:
    """A module over a Poisson algebra.

    ``left[a][p]`` / ``right[a][p]`` / ``lie[a][p]`` are the coordinates of
    ``basis_a . u_p``, ``u_p . basis_a`` and ``{basis_a, u_p}_*``.  ``flavor``
    is ``"poisson"`` or ``"quasi"``: both satisfy the bimodule + Lie-module
    compatibilities, the poisson flavor additionally satisfies the Leibniz
    rule in the algebra slot of the Lie action.
    """

    dim: int
    algebra_dim: int
    left: tuple
    right: tuple
    lie: tuple
    flavor: str = "poisson"

    def __post_init__(self):
        if self.dim <= 0 or self.algebra_dim <= 0:
            raise StructuralError("module and algebra dimensions must be positive")
        if self.flavor not in ("poisson", "quasi"):
            raise StructuralError(f"unknown module flavor {self.flavor!r}")

    @cached_property
    def _hash(self) -> int:
        return hash((self.dim, self.algebra_dim, self.left, self.right, self.lie, self.flavor))

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def build(dim, algebra_dim, left, right, lie, flavor="poisson") -> "ModuleSpec":
        return ModuleSpec(
            dim=dim,
            algebra_dim=algebra_dim,
            left=_freeze_table(left, algebra_dim, dim, dim, "left"),
            right=_freeze_table(right, algebra_dim, dim, dim, "right"),
            lie=_freeze_table(lie, algebra_dim, dim, dim, "lie"),
            flavor=flavor,
        )

    @cached_property
    def left_pairs(self):
        return _pairs(self.left)

    @cached_property
    def right_pairs(self):
        return _pairs(self.right)

    @cached_property
    def lie_pairs(self):
        return _pairs(self.lie)

    def act_left(self, avec, mvec) -> tuple:
        return _apply_pairs(self.left_pairs, avec, mvec, self.dim)

    def act_right(self, avec, mvec) -> tuple:
        """Right action ``m . a`` (algebra vector second in the math, first here)."""
        return _apply_pairs(self.right_pairs, avec, mvec, self.dim)

    def act_lie(self, avec, mvec) -> tuple:
        return _apply_pairs(self.lie_pairs, avec, mvec, self.dim)


@dataclass(frozen=True)
class Violation:
    axiom: str
    indices: tuple
    residual: tuple


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    checked: tuple[str, ...]
    violations: tuple[Violation, ...]

    def by_axiom(self, axiom: str) -> list[Violation]:
        return [v for v in self.violations if v.axiom == axiom]

    def summary(self) -> str:
        if self.ok:
            return "ok (" + ", ".join(self.checked) + ")"
        counts: dict[str, int] = {}
        for v in self.violations:
            counts[v.axiom] = counts.get(v.axiom, 0) + 1
        return "violations: " + ", ".join(f"{a} x{n}" for a, n in sorted(counts.items()))


def _vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def validate_algebra(alg: AlgebraSpec) -> ValidationReport:
    """Exhaustively check the Poisson algebra axioms on basis tuples.

    Checks: two-sided unit, associativity, bracket antisymmetry, Jacobi,
    and the Leibniz rule {ab,c} = a{b,c} + {a,c}b.  The last three are the
    order-0 residuals of :func:`_order_residuals`.
    """
    d = alg.dim
    violations: list[Violation] = []
    basis = [alg.basis_vector(i) for i in range(d)]
    zero = _zero(d)

    for i in range(d):
        left = alg.product(alg.unit, basis[i])
        if left != basis[i]:
            violations.append(Violation("unit", (i,), _vsub(left, basis[i])))
        right = alg.product(basis[i], alg.unit)
        if right != basis[i]:
            violations.append(Violation("unit", (i,), _vsub(right, basis[i])))

    for i in range(d):
        for j in range(d):
            skew = tuple(x + y for x, y in zip(alg.bracket[i][j], alg.bracket[j][i]))
            if skew != zero:
                violations.append(Violation("antisymmetry", (i, j), skew))

    assoc, leibniz, jacobi = _order_residuals((alg.mult_pairs,), (alg.bracket_pairs,), 0)
    for cell in sorted({*assoc, *leibniz, *jacobi}):
        for axiom, residuals in (("associativity", assoc), ("jacobi", jacobi),
                                 ("leibniz", leibniz)):
            if cell in residuals:
                violations.append(Violation(axiom, cell, residuals[cell]))

    checked = ("unit", "antisymmetry", "associativity", "jacobi", "leibniz")
    return ValidationReport(ok=not violations, checked=checked, violations=tuple(violations))


def _require_valid(alg: AlgebraSpec, why: str) -> ValidationReport:
    """The passing validation report of ``alg``; a failing one raises
    :class:`AxiomError` with ``why`` and the report summary."""
    report = validate_algebra(alg)
    if not report.ok:
        raise AxiomError(f"{why}: {report.summary()}", report)
    return report


def _extension_pairs(alg: AlgebraSpec, mod: ModuleSpec, f1=None, f0=None) -> tuple:
    """Sparse multiplication and bracket pairs (:func:`_pairs`) of the
    square-zero extension ``A + M`` (basis ``b_0..b_{d-1}, u_0..u_{m-1}``),
    read off the pairs of the algebra and the module, twisted by the
    ``d x d`` tables of module vectors ``f1`` and ``f0`` (none when omitted):

        (a, x)(a', x') = (aa', a.x' + x.a' + f1(a, a'))
        {(a, x), (a', x')} = ({a, a'}, {a, x'} - {a', x} + f0(a, a'))
    """
    d, m = alg.dim, mod.dim

    def into_m(pairs, sign=1):
        return tuple((d + k, sign * c) for k, c in pairs)

    def table(base, twist, by_a, by_u, sign):
        return tuple(
            [tuple(base[i][j] + (into_m(_sparse(twist[i][j])) if twist else ())
                   for j in range(d)) + tuple(into_m(by_a[i][p]) for p in range(m))
             for i in range(d)]
            + [tuple(into_m(by_u[a][p], sign) for a in range(d)) + ((),) * m
               for p in range(m)])

    return (table(alg.mult_pairs, f1, mod.left_pairs, mod.right_pairs, 1),
            table(alg.bracket_pairs, f0, mod.lie_pairs, mod.lie_pairs, -1))


def _dense_table(pairs, n: int) -> tuple:
    """The table of n-vectors whose sparse pairs are ``pairs``."""
    def vec(sparse):
        out = [0] * n
        for k, c in sparse:
            out[k] = c
        return tuple(out)
    return tuple(tuple(vec(sparse) for sparse in row) for row in pairs)


# Each non-unit module axiom at (a, b, u) = (b_i, b_j, u_p) is the M part of
# one order-0 residual cell of the extension: (label, F1/F2/F3, cell, sign).
_MODULE_CELLS = (
    ("assoc-left", 0, "abu", 1),
    ("assoc-right", 0, "uab", -1),
    ("bimodule-commute", 0, "aub", 1),
    ("lie-module", 2, "abu", 1),
    ("quasi-left", 1, "bua", -1),
    ("quasi-right", 1, "uba", -1),
    ("poisson-leibniz", 1, "abu", 1),
)


def require_module_over(alg: AlgebraSpec, mod: ModuleSpec) -> None:
    """Refuse a module presented over an algebra of another dimension."""
    if mod.algebra_dim != alg.dim:
        raise StructuralError("module was presented over a different algebra dimension")


def validate_module(alg: AlgebraSpec, mod: ModuleSpec) -> ValidationReport:
    """Exhaustively check the module axioms for ``mod`` over ``alg``.

    Each label below is checked as ``left side - right side`` at basis
    vectors ``a, b`` of the algebra and ``u`` of the module:

        unit-left         1.u = u
        unit-right        u.1 = u
        assoc-left        (ab).u = a.(b.u)
        assoc-right       u.(ab) = (u.a).b
        bimodule-commute  (a.u).b = a.(u.b)
        lie-module        {{a,b},u} = {a,{b,u}} - {b,{a,u}}
        quasi-left        {a,b.u} = {a,b}.u + b.{a,u}
        quasi-right       {a,u.b} = u.{a,b} + {a,u}.b
        poisson-leibniz   {ab,u} = a.{b,u} + {a,u}.b   (poisson flavor only)

    The unit laws are checked directly.  The other seven are the module
    parts of the order-0 residuals of the square-zero extension ``A + M``
    at triples with one module index (``_MODULE_CELLS``).
    """
    require_module_over(alg, mod)
    d, m = alg.dim, mod.dim
    violations: list[Violation] = []
    for p in range(m):
        u_p = tuple(1 if k == p else 0 for k in range(m))
        for axiom, got in (("unit-left", mod.act_left(alg.unit, u_p)),
                           ("unit-right", mod.act_right(alg.unit, u_p))):
            if got != u_p:
                violations.append(Violation(axiom, (p,), _vsub(got, u_p)))

    cells = _MODULE_CELLS if mod.flavor == "poisson" else _MODULE_CELLS[:-1]
    mult, bracket = _extension_pairs(alg, mod)

    def abu():  # the triples with one module index, u last
        return ((a, b, d + p) for a, b, p in itertools.product(range(d), range(d), range(m)))

    # u last, first and in the middle, streamed: only nonzero cells are kept
    residuals = _order_residuals((mult,), (bracket,), 0, triples=itertools.chain(
        abu(), ((u, a, b) for a, b, u in abu()), ((a, u, b) for a, b, u in abu())))
    # only stored (nonzero) residuals can be violations: with none, skip the scan
    for i, j, u in abu() if any(residuals) else ():
        at = {"a": i, "b": j, "u": u}
        for axiom, f, cell, sign in cells:
            residual = residuals[f].get(tuple(at[c] for c in cell), ())[d:]
            if any(residual):
                violations.append(Violation(axiom, (i, j, u - d),
                                            tuple(sign * v for v in residual)))

    checked = ("unit-left", "unit-right") + tuple(cell[0] for cell in cells)
    return ValidationReport(ok=not violations, checked=checked, violations=tuple(violations))


def standard_poisson(mult, unit, basis=None) -> AlgebraSpec:
    """Associative algebra with the commutator bracket {a,b} = ab - ba.

    The multiplication must be associative and unital; violations raise
    :class:`AxiomError` (the Leibniz and Jacobi identities are then automatic,
    but the full validator is still run and asserted).
    """
    dim = len(mult)
    mult_t = _freeze_table(mult, dim, dim, dim, "mult")
    bracket = [
        [_vsub(mult_t[i][j], mult_t[j][i]) for j in range(dim)]
        for i in range(dim)
    ]
    alg = AlgebraSpec.build(dim, mult_t, unit, bracket, basis)
    _require_valid(alg, "commutator construction needs an associative unital algebra")
    return alg


def trivial_bracket(mult, unit, basis=None) -> AlgebraSpec:
    """Associative algebra equipped with the zero bracket."""
    dim = len(mult)
    alg = AlgebraSpec.build(dim, mult, unit, _zero_table(dim), basis)
    _require_valid(alg, "zero-bracket construction needs an associative unital algebra")
    return alg


def regular_module(alg: AlgebraSpec) -> ModuleSpec:
    """The algebra as a module over itself: actions by multiplication, Lie
    action by the bracket.  Always poisson-flavored."""
    d = alg.dim
    right = tuple(tuple(alg.mult[p][a] for p in range(d)) for a in range(d))
    return ModuleSpec(d, d, left=alg.mult, right=right, lie=alg.bracket)


def separability_idempotent(alg: AlgebraSpec) -> tuple | None:
    """Coefficients ``e[p * d + q]`` of ``e = sum e_pq b_p (x) b_q`` with
    ``mu(e) = sum e_pq b_p b_q = 1`` and ``(a (x) 1) e = e (1 (x) a)`` for
    every basis a, by one exact solve with ``d^2`` unknowns; None when the
    algebra is not separable.  Then ``HH^(>=1)(A, N) = 0`` for every
    bimodule N (docs/decisions.md, section 12).  A solution that fails the
    conditions when they are applied to it raises ArithmeticError."""
    d = alg.dim
    mult, top = alg.mult_pairs, d ** 3

    def conditions(e: dict) -> dict:
        """Row ``(a * d + r) * d + s`` holds the ``b_r (x) b_s`` coefficient
        of ``a e - e a``, row ``d^3 + k`` the ``b_k`` one of ``mu(e)``."""
        out: dict[int, Fraction] = {}
        for pq, c in e.items():
            p, q = divmod(pq, d)
            cells = [(top + k, v) for k, v in mult[p][q]]
            for a in range(d):
                cells += [((a * d + r) * d + q, v) for r, v in mult[a][p]]
                cells += [((a * d + p) * d + s, -v) for s, v in mult[q][a]]
            for row, v in cells:
                out[row] = out.get(row, 0) + c * v
        return {row: v for row, v in out.items() if v}

    unit = {top + k: c for k, c in enumerate(alg.unit) if c}
    matrix = SparseMatrix(top + d, d * d, {(row, col): v for col in range(d * d)
                                            for row, v in conditions({col: 1}).items()})
    e = solve(matrix, unit)
    if e is not None and conditions(dict(enumerate(e))) != unit:
        raise ArithmeticError("the separability idempotent fails its conditions")
    return e


# ---------------------------------------------------------------------------
# Built-in algebras


def _matrix_units_mult(cells: list[tuple[int, int]]):
    """Multiplication table for a span of matrix units e_{rc}."""
    n = len(cells)
    index = {cell: i for i, cell in enumerate(cells)}
    table = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i, (r1, c1) in enumerate(cells):
        for j, (r2, c2) in enumerate(cells):
            if c1 == r2 and (r1, c2) in index:
                table[i][j][index[(r1, c2)]] = 1
    return table


def _build_ut2() -> AlgebraSpec:
    cells = [(0, 0), (0, 1), (1, 1)]
    mult = _matrix_units_mult(cells)
    return standard_poisson(mult, unit=(1, 0, 1), basis=("e11", "e12", "e22"))


def _build_m2() -> AlgebraSpec:
    # basis (1, e, f, h) with e = E12, f = E21, h = E11 - E22
    half = Fraction(1, 2)
    one = (1, 0, 0, 0)
    e = (0, 1, 0, 0)
    f = (0, 0, 1, 0)
    h = (0, 0, 0, 1)
    zero = (0, 0, 0, 0)
    mult = [
        [one, e, f, h],
        [e, zero, (half, 0, 0, half), (0, -1, 0, 0)],
        [f, (half, 0, 0, -half), zero, (0, 0, 1, 0)],
        [h, (0, 1, 0, 0), (0, 0, -1, 0), one],
    ]
    return standard_poisson(mult, unit=one, basis=("1", "e", "f", "h"))


def _build_trivial2() -> AlgebraSpec:
    one = (1, 0)
    x = (0, 1)
    zero = (0, 0)
    mult = [[one, x], [x, zero]]
    return trivial_bracket(mult, unit=one, basis=("1", "x"))


def _build_sl2std() -> AlgebraSpec:
    # Commutative: products of e, f, h all vanish; bracket is the usual
    # rank-one simple Lie algebra structure with the unit central.
    one = (1, 0, 0, 0)
    e = (0, 1, 0, 0)
    f = (0, 0, 1, 0)
    h = (0, 0, 0, 1)
    zero = (0, 0, 0, 0)
    mult = [
        [one, e, f, h],
        [e, zero, zero, zero],
        [f, zero, zero, zero],
        [h, zero, zero, zero],
    ]
    bracket = [
        [zero, zero, zero, zero],
        [zero, zero, h, (0, -2, 0, 0)],
        [zero, tuple(-c for c in h), zero, (0, 0, 2, 0)],
        [zero, (0, 2, 0, 0), (0, 0, -2, 0), zero],
    ]
    alg = AlgebraSpec.build(4, mult, one, bracket, basis=("1", "e", "f", "h"))
    _require_valid(alg, "the sl2std table is not a Poisson algebra")
    return alg


def _build_kxk() -> AlgebraSpec:
    one0 = (1, 0)
    one1 = (0, 1)
    zero = (0, 0)
    mult = [[one0, zero], [zero, one1]]
    return trivial_bracket(mult, unit=(1, 1), basis=("p", "q"))


def _build_nil3() -> AlgebraSpec:
    # K[x,y] / (x,y)^2 with {x,y} = x: commutative, nonzero bracket.
    one = (1, 0, 0)
    x = (0, 1, 0)
    y = (0, 0, 1)
    zero = (0, 0, 0)
    mult = [[one, x, y], [x, zero, zero], [y, zero, zero]]
    bracket = [[zero, zero, zero], [zero, zero, x], [zero, tuple(-c for c in x), zero]]
    alg = AlgebraSpec.build(3, mult, one, bracket, basis=("1", "x", "y"))
    _require_valid(alg, "the nil3 table is not a Poisson algebra")
    return alg


BUILTINS: dict[str, tuple[str, Callable[[], AlgebraSpec]]] = {
    "ut2": ("upper-triangular 2x2 matrices with the commutator bracket", _build_ut2),
    "m2": ("full 2x2 matrix algebra, basis (1, e, f, h), commutator bracket", _build_m2),
    "trivial2": ("dual numbers K[x]/(x^2) with the zero bracket", _build_trivial2),
    "sl2std": ("K.1 + V with V.V = 0 and the standard rank-one simple bracket "
               "({h,e}=2e, {h,f}=-2f, {e,f}=h); commutative, nonzero bracket", _build_sl2std),
    "kxk": ("split commutative semisimple K x K with the zero bracket", _build_kxk),
    "nil3": ("K[x,y]/(x,y)^2 with {x,y} = x; commutative local, nonzero bracket", _build_nil3),
}

_builtin_cache: dict[str, AlgebraSpec] = {}


def builtin(name: str) -> AlgebraSpec:
    """Look up a built-in algebra by registry name."""
    if name not in BUILTINS:
        raise StructuralError(
            f"unknown builtin {name!r}; available: {', '.join(sorted(BUILTINS))}")
    if name not in _builtin_cache:
        _builtin_cache[name] = BUILTINS[name][1]()
    return _builtin_cache[name]


# ---------------------------------------------------------------------------
# JSON presentations

_MAX_TABLE_SIZE = 10**6  # coefficients in one table read from a file


def _triples_to_table(triples, rows: int, cols: int, width: int, what: str):
    """The rows x cols table of length-width vectors that sparse
    ``[i, j, k, value]`` entries describe (repeated entries add up)."""
    if not isinstance(triples, (list, tuple)):
        raise StructuralError(f"{what} must be a list of [i, j, k, value] entries")
    if rows * cols * width > _MAX_TABLE_SIZE:
        raise StructuralError(f"{what}: a {rows} x {cols} x {width} table exceeds "
                              f"the limit of {_MAX_TABLE_SIZE} coefficients")
    table = [[[0] * width for _ in range(cols)] for _ in range(rows)]
    for entry in triples:
        try:
            i, j, k, value = entry
        except (TypeError, ValueError) as exc:
            raise StructuralError(f"{what}: entries must be [i, j, k, value]") from exc
        if not (type(i) is int and type(j) is int and type(k) is int):  # no bools
            raise StructuralError(f"{what}: indices must be integers, got {entry!r}")
        if not (0 <= i < rows and 0 <= j < cols and 0 <= k < width):
            raise StructuralError(f"{what}: index out of range in {entry!r}")
        table[i][j][k] += ratio(value)
    return table


def _table_to_triples(table, index: tuple = ()) -> list:
    """Sparse ``[i, j, ..., value]`` entries of a nested coefficient table of
    any depth, in row-major order, with values as reduced strings."""
    out = []
    for i, x in enumerate(table):
        if isinstance(x, (list, tuple)):
            out.extend(_table_to_triples(x, index + (i,)))
        elif x:
            out.append([*index, i, ratio_str(x)])
    return out


def algebra_to_dict(alg: AlgebraSpec) -> dict:
    return {
        "dim": alg.dim,
        "basis": list(alg.basis),
        "unit": [ratio_str(c) for c in alg.unit],
        "mult": _table_to_triples(alg.mult),
        "bracket": _table_to_triples(alg.bracket),
    }


def algebra_from_dict(data: dict) -> AlgebraSpec:
    if not isinstance(data, dict):
        raise StructuralError("algebra file must contain a JSON object")
    for key in ("dim", "unit", "mult", "bracket"):
        if key not in data:
            raise StructuralError(f"algebra object is missing {key!r}")
    d = data["dim"]
    if type(d) is not int or d <= 0:  # no bools
        raise StructuralError("dim must be a positive integer")
    unit = data["unit"]
    if not isinstance(unit, (list, tuple)) or len(unit) != d:
        raise StructuralError(f"unit must be a list of {d} coefficients")
    basis = data.get("basis")
    if basis is not None and (not isinstance(basis, (list, tuple)) or len(basis) != d
                              or not all(isinstance(name, str) for name in basis)):
        raise StructuralError(f"basis must be a list of {d} names")
    return AlgebraSpec.build(
        d,
        _triples_to_table(data["mult"], d, d, d, "mult"),
        [ratio(v) for v in unit],
        _triples_to_table(data["bracket"], d, d, d, "bracket"),
        basis=basis,
    )


def module_to_dict(mod: ModuleSpec) -> dict:
    return {
        "dim": mod.dim,
        "algebra_dim": mod.algebra_dim,
        "left": _table_to_triples(mod.left),
        "right": _table_to_triples(mod.right),
        "lie": _table_to_triples(mod.lie),
        "flavor": mod.flavor,
    }


def module_from_dict(data: dict, algebra_dim: int) -> ModuleSpec:
    if not isinstance(data, dict):
        raise StructuralError("module file must contain a JSON object")
    for key in ("dim", "left", "right", "lie"):
        if key not in data:
            raise StructuralError(f"module object is missing {key!r}")
    m = data["dim"]
    if type(m) is not int or m <= 0:  # no bools
        raise StructuralError("module dim must be a positive integer")
    d = data.get("algebra_dim", algebra_dim)
    if type(d) is not int or d != algebra_dim:
        raise StructuralError("module algebra_dim does not match the algebra")
    return ModuleSpec.build(
        m, d,
        *(_triples_to_table(data[key], d, m, m, key) for key in ("left", "right", "lie")),
        flavor=data.get("flavor", "poisson"),
    )


def load_algebra(path: str) -> AlgebraSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return algebra_from_dict(json.load(fh))


def load_module(path: str, alg: AlgebraSpec) -> ModuleSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return module_from_dict(json.load(fh), alg.dim)
