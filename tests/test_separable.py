"""The separable route: poisson and omega dims from a small subcomplex.

When the algebra carries a separability idempotent, ``cohomology_dims``
eliminates the subcomplex of ``complexes.separable_subcomplex`` instead of
the full complex (docs/decisions.md, section 12).  The oracle throughout is
the direct route, ``build_complex`` + ``cohomology_of``.
"""

from dataclasses import replace
from itertools import combinations
from math import comb

import pytest

from poiscoh import algebra, cohomology, complexes
from poiscoh.algebra import (
    BUILTINS,
    StructuralError,
    builtin,
    regular_module,
    separability_idempotent,
)
from poiscoh.cochain import CochainSpace, block_size
from poiscoh.cohomology import CohomologyReport, cohomology_dims, cohomology_of
from poiscoh.complexes import build_complex, delta_V, separable_subcomplex
from poiscoh.linalg import Echelon, SparseMatrix

from test_cohomology import _route_input, _tier1_top

SEPARABLE = ("kxk", "m2")
ROUTE_INPUTS = [("regular", "m2"), ("rescaled", "m2"), ("regular", "kxk"),
                ("character", "kxk")]
THEORIES = ("poisson", "omega")


def _idempotent_residuals(alg, e):
    """``(mu(e) - 1, [a e - e a for each basis a])`` by the algebra's own
    product on dense vectors, each side a dict of nonzero coefficients."""
    d = alg.dim
    basis = [alg.basis_vector(k) for k in range(d)]
    terms = [(p, q, c) for (p, q), c in zip(((p, q) for p in range(d) for q in range(d)), e)
             if c]
    mu = list(alg.unit)
    for p, q, c in terms:
        mu = [x - c * y for x, y in zip(mu, alg.product(basis[p], basis[q]))]
    commutators = []
    for a in range(d):
        out = {}
        for p, q, c in terms:
            for r, v in enumerate(alg.product(basis[a], basis[p])):
                out[r, q] = out.get((r, q), 0) + c * v
            for s, v in enumerate(alg.product(basis[q], basis[a])):
                out[p, s] = out.get((p, s), 0) - c * v
        commutators.append({k: v for k, v in out.items() if v})
    return {k: v for k, v in enumerate(mu) if v}, commutators


def test_m2_and_kxk_carry_the_certificate_and_no_other_builtin_does():
    carriers = []
    for name in sorted(BUILTINS):
        alg = builtin(name)
        e = separability_idempotent(alg)
        if e is not None:
            carriers.append(name)
            assert len(e) == alg.dim ** 2
            assert _idempotent_residuals(alg, e) == ({}, [{}] * alg.dim)
    assert tuple(carriers) == SEPARABLE
    rescaled, _ = _route_input("rescaled", "m2")
    assert separability_idempotent(rescaled) is not None


@pytest.mark.parametrize("kind,name,theory", [
    (kind, name, theory) for kind, name in ROUTE_INPUTS for theory in THEORIES])
def test_separable_route_agrees_with_the_direct_route(monkeypatch, kind, name, theory):
    """The same report, field by field, as eliminating every row of the
    assembled complex; the route builds no assembled complex."""
    alg, mod = _route_input(kind, name)
    top = _tier1_top(name, theory)
    direct = CohomologyReport(theory, top, *cohomology_of(build_complex(alg, mod, theory, top)))

    def refused(*args):
        raise AssertionError("the separable route assembled the full complex")

    monkeypatch.setattr(cohomology, "build_complex", refused)
    assert cohomology_dims(alg, mod, theory, top) == direct
    small = separable_subcomplex(alg, mod, theory, top)
    assert sum(mat.ncols for mat in small) < sum(direct.space_dims)


def _inclusion(alg, mod, theory, n):
    """The inclusion of degree n of the subcomplex into ``C^n``: the
    identity on the (0, n) block for poisson, and the kernel basis of
    ``delta_V(2, 0)`` tensored with each wedge word into the (2, j)
    block, at column ``head + wedge * dim Z + k``."""
    d, m = alg.dim, mod.dim
    echelon = Echelon(delta_V(alg, mod, 2, 0))
    basis = [echelon.kernel_vector(f) for f in echelon.free_cols]
    space = CochainSpace.build(theory, n, d, m)
    head, j = (m * comb(d, n), n - 2) if theory == "poisson" else (0, n)
    entries = {(p, p): 1 for p in range(head)}
    for w, wedge in enumerate(combinations(range(d), j) if j >= 0 else ()):
        for k, vec in enumerate(basis):
            for c, v in vec.items():
                cell, comp = divmod(c, m)
                row = space.index(2, j, divmod(cell, d), wedge, comp)
                entries[row, head + w * len(basis) + k] = v
    ncols = head + (len(basis) * comb(d, j) if j >= 0 else 0)
    return SparseMatrix(space.dim, ncols, entries)


@pytest.mark.parametrize("kind,name,theory", [
    (kind, name, theory) for kind, name in ROUTE_INPUTS for theory in THEORIES])
def test_the_inclusion_is_a_chain_map(kind, name, theory):
    """``d^n o i^n = i^(n+1) o d'^n`` exactly, so every block of the
    subcomplex, signs included, is the restriction of the full one."""
    alg, mod = _route_input(kind, name)
    top = _tier1_top(name, theory)
    small = separable_subcomplex(alg, mod, theory, top)
    full = build_complex(alg, mod, theory, top)
    incl = [_inclusion(alg, mod, theory, n) for n in range(top + 2)]
    for n in range(top + 1):
        assert full[n].matmul(incl[n]) == incl[n + 1].matmul(small[n]), n


def test_hp7_of_m2_is_zero():
    """HP^7(m2) = 0, with every field as the direct route gave it
    (docs/decisions.md, section 12)."""
    report = cohomology_dims(builtin("m2"), max_degree=7)
    assert report == CohomologyReport(
        "poisson", 7, (4, 16, 88, 528, 2436, 9984, 40000, 160000),
        (3, 13, 74, 451, 1985, 7998, 32000, 128000), (1, 0, 1, 3, 0, 1, 2, 0))


def test_m2_omega_to_degree_5():
    """omega^n(m2) = HP^(n+2)(m2) for n >= 4, and the ranks equal those of
    poisson two degrees up, as the direct route gave them (docs/decisions.md,
    section 12)."""
    report = cohomology_dims(builtin("m2"), theory="omega", max_degree=5)
    assert report == CohomologyReport(
        "omega", 5, (64, 512, 2432, 9984, 40000, 160000),
        (62, 448, 1984, 7998, 32000, 128000), (2, 2, 0, 2, 2, 0))


def _quasi_flavored(alg):
    return replace(regular_module(alg), flavor="quasi")


REFUSALS = {
    "negative degree": (lambda alg: (regular_module(alg), -1), "degree must be nonnegative"),
    "other dimension": (lambda alg: (regular_module(builtin("ut2")), 2),
                        "different algebra dimension"),
    "quasi flavor": (lambda alg: (_quasi_flavored(alg), 2), "needs a poisson-flavored module"),
}


@pytest.mark.parametrize("theory", THEORIES)
@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_the_route_refuses_bad_input_before_the_certificate(monkeypatch, case, theory):
    alg = builtin("m2")
    mod, top = REFUSALS[case][0](alg)

    def certificate(alg):
        raise AssertionError("the certificate ran before the input was checked")

    with pytest.raises(StructuralError, match=REFUSALS[case][1]):
        build_complex(alg, mod, theory, top)
    monkeypatch.setattr(complexes, "separability_idempotent", certificate)
    with pytest.raises(StructuralError, match=REFUSALS[case][1]):
        cohomology_dims(alg, mod, theory, top)


def test_a_wrong_idempotent_is_refused(monkeypatch):
    real = algebra.solve

    def off_by_one(matrix, rhs):
        e = real(matrix, rhs)
        return (e[0] + 1,) + e[1:]

    monkeypatch.setattr(algebra, "solve", off_by_one)
    with pytest.raises(ArithmeticError, match="fails its conditions"):
        separability_idempotent(builtin("m2"))


def test_coordinates_that_are_not_a_left_inverse_are_refused(monkeypatch):
    real = complexes._columns
    monkeypatch.setattr(complexes, "_columns", lambda basis, nrows: real(
        [{c: 2 * v for c, v in vec.items()} for vec in basis], nrows))
    with pytest.raises(ArithmeticError, match="not a left inverse"):
        separable_subcomplex(builtin("m2"), regular_module(builtin("m2")), "poisson", 2)


def test_an_image_outside_the_cocycles_is_refused(monkeypatch):
    """A corner map onto the cochain ``f(1, 1) = 1``, which is no
    Hochschild cocycle: ``df(1, 1, e) = -e``."""
    alg = builtin("m2")
    mod = regular_module(alg)
    monkeypatch.setattr(complexes, "delta_v", lambda alg, mod, j: SparseMatrix(
        block_size(4, 4, 2, j - 1), block_size(4, 4, 0, j), {(0, 0): 1}))
    with pytest.raises(ArithmeticError, match="leaves Z\\^2"):
        separable_subcomplex(alg, mod, "poisson", 2)


def test_a_subcomplex_that_is_not_a_complex_is_refused(monkeypatch):
    """Doubling ``delta_H`` out of the (0, n) blocks keeps every image in
    ``Z (x) Lambda``, but the corner square no longer anticommutes."""
    real = complexes.delta_H

    def doubled(alg, mod, i, j):
        block = real(alg, mod, i, j)
        return block.matmul(SparseMatrix(block.ncols, block.ncols, {
            (c, c): 2 if i == 0 else 1 for c in range(block.ncols)}))

    monkeypatch.setattr(complexes, "delta_H", doubled)
    alg = builtin("m2")
    with pytest.raises(ArithmeticError, match="separable poisson subcomplex is not a complex"):
        separable_subcomplex(alg, regular_module(alg), "poisson", 3)
