"""Cohomology of the assembled complexes, with cross-checking utilities.

One core, :func:`cohomology_of`, serves any list of differentials.  Its
dimensions come from ``dim H^n = dim C^n - rank d^n - rank d^(n-1)``, and
representatives, when asked for, are kernel vectors read off the rows of
``d^(n-1)`` at the free columns of ``d^n``; both are taken from the
weight-zero subcomplex alone when a diagonal Lie action makes every other
weight acyclic.  The module also computes cohomology of distinguished
subcomplexes (multiderivations, corner/first-row kernels) and a
feasibility scan for the long exact sequence tying the three main theories
together.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import comb
from typing import Sequence

from .algebra import AlgebraSpec, ModuleSpec, StructuralError, regular_module
from .cochain import CochainSpace
from .complexes import (
    SIGN_CONVENTION,
    build_complex,
    cartan_weights,
    coordinate_weights,
    edge_maps,
    separable_subcomplex,
)
from .linalg import (
    Echelon,
    RowReducer,
    SparseMatrix,
    _columns,
    dense_vector,
    kernel_basis,
    rank,
    verify_kernel,
)


@dataclass(frozen=True)
class CohomologyReport:
    theory: str
    max_degree: int
    space_dims: tuple[int, ...]
    ranks: tuple[int, ...]
    dims: tuple[int, ...]
    representatives: dict | None = None
    sign_convention: str = SIGN_CONVENTION

    def to_dict(self) -> dict:
        out = {
            "theory": self.theory,
            "max_degree": self.max_degree,
            "space_dims": list(self.space_dims),
            "ranks": list(self.ranks),
            "dims": list(self.dims),
            "sign_convention": self.sign_convention,
        }
        if self.representatives is not None:
            out["representatives"] = {
                str(n): [[str(v) for v in vec] for vec in vecs]
                for n, vecs in sorted(self.representatives.items())
            }
        return out


def _weight_zero_rows(matrix: SparseMatrix, row_weights, col_weights) -> SparseMatrix:
    """The rows of weight zero of a differential, with the columns left as
    they are, so that columns of other weights are in no kept row: the
    matrix itself when every weight is zero, and otherwise its live row
    dicts over denominator 1, which ``from_numerators`` leaves unwritten.
    Every entry must join equal weights; one that does not raises
    ArithmeticError."""
    if not any(row_weights) and not any(col_weights):
        return matrix
    rows = {}
    for r, row in matrix.numerators.items():
        w = row_weights[r]
        if any(col_weights[c] != w for c in row):
            raise ArithmeticError(f"the differential moves the weight of row {r}")
        if not w:
            rows[r] = row
    return SparseMatrix.from_numerators(matrix.nrows, matrix.ncols, rows)


def _representatives(free: list[tuple[int, dict[int, int]]],
                     image_matrix: SparseMatrix | None) -> list[dict[int, int]]:
    """The vectors of ``free``, ``(free column, kernel vector)`` pairs in
    increasing column order, that are independent modulo the image of
    ``image_matrix``: the vector of ``f`` exactly when row ``f`` of
    ``image_matrix`` lies in the span of its rows at the later free columns
    (docs/decisions.md, section 10).  Without an image, every vector."""
    if image_matrix is None:
        return [vec for _, vec in free]
    rows, reducer = image_matrix.numerators, RowReducer(image_matrix.ncols)
    return [vec for f, vec in reversed(free) if not reducer.add(rows.get(f, {}))][::-1]


def _rebuilt_ranks(space_dims: Sequence[int], dims: Sequence[int]) -> tuple[int, ...]:
    """The ranks of ``d^0 .. d^N`` from ``dim C^0 .. C^(N+1)`` and
    ``dim H^0 .. H^N``, by ``dim H^n = dim C^n - rank d^n - rank d^(n-1)``
    read backwards; a rank that ``d^n`` cannot have raises ArithmeticError."""
    ranks: list[int] = []
    for n, dim in enumerate(dims):
        r = space_dims[n] - dim - (ranks[-1] if n else 0)
        if not 0 <= r <= min(space_dims[n], space_dims[n + 1]):
            raise ArithmeticError(f"rebuilt rank {r} of d^{n} is impossible")
        ranks.append(r)
    return tuple(ranks)


def cohomology_of(mats: Sequence[SparseMatrix], weights=None,
                  representatives: bool = False) -> tuple:
    """``(space_dims, ranks, dims, representatives)``, in the field order of
    :class:`CohomologyReport`, of the complex with differentials ``mats``,
    ``d^0 .. d^N``, whose ``d o d = 0`` the caller has checked.

    ``weights`` (one list per degree ``0 .. N+1``, None for all zero) must
    make every nonzero weight acyclic: only the weight-zero rows are
    eliminated, by :func:`~poiscoh.linalg.rank` unless representatives are
    asked for, the dims come from weight-zero rank-nullity and the full
    ranks from the dims.  Representatives, a dict of dense vectors per
    degree or None, are the weight-zero kernel vectors, each checked against
    the full ``d^n``, that are independent modulo the image: those that
    eliminating every row would pick (docs/decisions.md, section 6), read
    off the rows of ``d^(n-1)`` at the weight-zero free columns (section 10).
    """
    space_dims = tuple(m.ncols for m in mats)
    if weights is None:
        weights = [(0,) * dim for dim in space_dims] + [(0,) * mats[-1].nrows]
    zero_ranks, found = [], []
    for n, mat in enumerate(mats):
        restricted = _weight_zero_rows(mat, weights[n + 1], weights[n])
        if not representatives:
            zero_ranks.append(rank(restricted))
            continue
        echelon = Echelon(restricted)
        zero_ranks.append(echelon.rank)
        free = [(c, echelon.kernel_vector(c)) for c in echelon.free_cols if not weights[n][c]]
        verify_kernel(mat, [vec for _, vec in free])
        found.append(_representatives(free, mats[n - 1] if n else None))
    # dim H^n = dim C^n - rank d^n - rank d^(n-1) at weight zero, where the
    # dims live; then the same identity read backwards gives the full ranks
    dims = tuple(weights[n].count(0) - zero_ranks[n] - (zero_ranks[n - 1] if n else 0)
                 for n in range(len(mats)))
    ranks = _rebuilt_ranks(space_dims + (mats[-1].nrows,), dims)
    for n, vecs in enumerate(found):
        if len(vecs) != dims[n]:
            raise ArithmeticError(f"representative count mismatch in degree {n}")
    reps = {n: [dense_vector(vec, space_dims[n]) for vec in vecs]
            for n, vecs in enumerate(found)} if representatives else None
    return space_dims, ranks, dims, reps


def cohomology_dims(alg: AlgebraSpec, mod: ModuleSpec | None = None,
                    theory: str = "poisson", max_degree: int = 4,
                    representatives: bool = False) -> CohomologyReport:
    """Cohomology dimensions of one theory up to ``max_degree`` inclusive.

    ``mod`` defaults to the algebra acting on itself.  Poisson and omega
    dims of a separable algebra come from the small
    :func:`~poiscoh.complexes.separable_subcomplex`, and the full ranks from
    them.  Otherwise the differentials of
    :func:`~poiscoh.complexes.build_complex` go to :func:`cohomology_of`
    with the coordinate weights of the element that
    :func:`~poiscoh.complexes.cartan_weights` finds, if any.
    """
    if mod is None:
        mod = regular_module(alg)
    small = None if representatives else separable_subcomplex(alg, mod, theory, max_degree)
    if small is not None:
        dims = cohomology_of(small)[2]
        space_dims = tuple(CochainSpace.build(theory, n, alg.dim, mod.dim).dim
                           for n in range(max_degree + 2))
        return CohomologyReport(theory, max_degree, space_dims[:-1],
                                _rebuilt_ranks(space_dims, dims), dims)
    mats = build_complex(alg, mod, theory, max_degree)
    cartan = cartan_weights(alg, mod, theory)
    weights = None if cartan is None else [
        coordinate_weights(CochainSpace.build(theory, n, alg.dim, mod.dim), *cartan[1:])
        for n in range(max_degree + 2)]
    return CohomologyReport(theory, max_degree,
                            *cohomology_of(mats, weights, representatives))


# ---------------------------------------------------------------------------
# Restricted (subcomplex) cohomology


def type_cohomology(alg: AlgebraSpec, which: str = "I",
                    max_degree: int = 4) -> CohomologyReport:
    """Cohomology of a distinguished subcomplex of the regular module:
    corner-kernel wedge cochains under the horizontal map ("I"), or
    first-horizontal-kernel tensor cochains under the Hochschild map ("II").

    Each image of the coboundary restricted to the degree-n basis is checked
    to lie in the degree-(n+1) space, and :func:`cohomology_of` takes the
    images, whose ranks and column counts are those of the subcomplex.
    """
    if max_degree < 0:
        raise StructuralError("degree must be nonnegative")
    maps = [edge_maps(alg, which, n) for n in range(max_degree + 2)]
    images = []
    for n, (killer, coboundary) in enumerate(maps[:-1]):
        img = coboundary.matmul(_columns(kernel_basis(killer), coboundary.ncols))
        if not maps[n + 1][0].matmul(img).is_zero:
            raise ArithmeticError("subcomplex is not closed under its differential")
        images.append(img)
    return CohomologyReport(f"type-{which}", max_degree, *cohomology_of(images))


def lp_cohomology(alg: AlgebraSpec, max_degree: int = 4) -> CohomologyReport:
    """Cohomology of the skew-multiderivation complex of a commutative
    Poisson algebra under the bracket-induced coboundary: the type-I
    subcomplex of the regular module.  Over a commutative algebra acting on
    itself, f is killed by the corner map iff f(ab^omega) = a f(b^omega) +
    b f(a^omega), the derivation rule in the first slot, so the
    multiderivations are the type-I space."""
    if not alg.is_commutative:
        raise StructuralError("the multiderivation complex needs a commutative algebra")
    return replace(type_cohomology(alg, "I", max_degree), theory="lp")


# ---------------------------------------------------------------------------
# Long exact sequence feasibility


@dataclass(frozen=True)
class LesReport:
    terms: tuple[tuple[str, int], ...]
    ranks: tuple[int, ...]
    ok: bool
    reason: str | None = None

    def to_dict(self) -> dict:
        return {
            "terms": [[label, dim] for label, dim in self.terms],
            "ranks": list(self.ranks),
            "ok": self.ok,
            "reason": self.reason,
        }


def les_feasibility(poisson_dims: Sequence[int], quasi_dims: Sequence[int],
                    omega_dims: Sequence[int]) -> LesReport:
    """Check that three dimension sequences can sit in the long exact sequence

        0 -> P0 -> Q0 -> 0 -> P1 -> Q1 -> E0 -> P2 -> Q2 -> E1 -> ...

    (P = poisson, Q = quasi, E = the two-shifted wedge-augmented theory).
    In an exact sequence the rank of each arrow is forced once the start is
    fixed: rank_out = dim - rank_in.  The scan walks the window covered by the
    given dims and fails if any forced rank goes negative or a rank into a
    zero term is nonzero.
    """
    terms: list[tuple[str, int]] = [("0", 0)]
    if poisson_dims:
        terms.append(("P0", poisson_dims[0]))
    if quasi_dims:
        terms.append(("Q0", quasi_dims[0]))
        terms.append(("0", 0))
    n = 1
    while True:
        if n < len(poisson_dims):
            terms.append((f"P{n}", poisson_dims[n]))
        else:
            break
        if n < len(quasi_dims):
            terms.append((f"Q{n}", quasi_dims[n]))
        else:
            break
        if n - 1 < len(omega_dims):
            terms.append((f"E{n - 1}", omega_dims[n - 1]))
        else:
            break
        n += 1

    ranks: list[int] = []
    incoming = 0
    for label, dim in terms[1:] + [("end", None)]:
        if dim is None:
            break
        outgoing = dim - incoming
        if outgoing < 0:
            return LesReport(tuple(terms), tuple(ranks), False,
                             f"forced rank into {label} exceeds its dimension")
        ranks.append(outgoing)
        incoming = outgoing
    return LesReport(tuple(terms), tuple(ranks), True)


# ---------------------------------------------------------------------------
# Zero-bracket decomposition


def trivial_bracket_decomposition(alg: AlgebraSpec, max_degree: int = 4) -> dict:
    """Compare the poisson dims of a zero-bracket commutative algebra against
    the candidate splitting sum_{i=2..n} HH^i * C(d, n-i) + multiderivations_n,
    each side computed by an independent code path.

    The two sides provably agree for n <= 2.  For n >= 3 they can differ: the
    complex drops the width-one tensor blocks, so the corner map out of
    Hom(wedge^{n-1}, M) feeds the (2, n-2) block from a smaller source than
    the dropped block would have, leaving extra classes that the HH^2 term of
    the candidate formula does not see (already visible for the base field K,
    where degree 3 computes to 1, not 0).  With the zero bracket the complex
    splits into one strand per wedge width, and for n >= 2 the computed
    dimension exceeds the prediction by the corner defect

        dim B^2(A, Hom(wedge^{n-2}, M)) - rank(delta_v on Hom(wedge^{n-1}, M)),

    which vanishes at n = 2; at degree 3 it reads
    dim delta^1(Hom(A (x) A, M)) - rank(delta_v on Hom(wedge^2, M)).
    The derivation is in docs/decisions.md.  Returns per-degree rows with an
    ``ok`` flag per degree plus an overall ``ok``; nothing is asserted.
    """
    if not alg.has_zero_bracket:
        raise StructuralError("the decomposition needs the zero bracket")
    if not alg.is_commutative:
        raise StructuralError("the decomposition needs a commutative algebra")
    hh = cohomology_dims(alg, theory="hochschild", max_degree=max_degree).dims
    hp = cohomology_dims(alg, theory="poisson", max_degree=max_degree).dims
    killers = [edge_maps(alg, "I", n)[0] for n in range(max_degree + 1)]
    chi = [killer.ncols - rank(killer) for killer in killers]
    rows = []
    all_ok = True
    for n in range(max_degree + 1):
        predicted = chi[n] + sum(hh[i] * comb(alg.dim, n - i)
                                 for i in range(2, n + 1))
        ok = predicted == hp[n]
        all_ok = all_ok and ok
        rows.append({"degree": n, "predicted": predicted,
                     "multiderivations": chi[n], "computed": hp[n], "ok": ok})
    return {"rows": rows, "ok": all_ok, "hochschild_dims": list(hh)}
