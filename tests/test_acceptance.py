"""End-to-end acceptance run.

Every target figure is checked at exact equality and each check prints one
``[PASS]``/``[FAIL]`` verdict line (visible with ``pytest -rA`` or ``-s``).
Two checks refute a reference claim and assert the statement that exact
computation proves instead; the analysis behind each is in
docs/decisions.md:

* criterion 5a -- the tabulated two-parameter pairing family with trace lock
  mu = 3*lambda is claimed to span the equivariant-cocycle kernel; the
  kernel actually enforces mu = 3*lambda - 3*nu.  The check asserts that the
  corrected family spans the kernel, that the tabulated unit direction lies
  outside it, and that the m2 product is a cocycle off the tabulated lock.
* criterion 7d -- the zero-bracket splitting formula (multiderivations plus
  a binomially weighted Hochschild sum) holds at degrees <= 2; at degree 3
  the computed dimension exceeds it by exactly the corner defect, which a
  dense oracle computes from the structure constants alone.

Criteria 5 and 7 are split into lettered sub-checks so each statement is
reported on its own line.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from functools import lru_cache

from poiscoh.algebra import builtin, regular_module, validate_algebra
from poiscoh.cochain import CochainSpace, decode
from poiscoh.cohomology import (
    cohomology_dims,
    les_feasibility,
    trivial_bracket_decomposition,
)
from poiscoh.complexes import delta_H, differential, edge_maps, sigma_embed
from poiscoh.deformation import (
    DeformationSeries,
    coboundary_pair,
    extension_algebra,
    first_order_deformations,
    is_poisson_2cocycle,
    is_poisson_3cocycle,
    m2_family_is_associative,
    m2_product_family,
    m2_table3_series,
    obstruction_tables,
    phi_family,
    shift_basis_matrix,
    transport,
    verify_deformation,
)
from poiscoh.linalg import kernel_basis

import oracles

ALL_BUILTINS = ("ut2", "m2", "trivial2", "sl2std", "kxk", "nil3")
COMMUTATIVE_BUILTINS = ("trivial2", "sl2std", "kxk", "nil3")
THEORIES = ("poisson", "quasi", "omega", "hochschild", "ce")


def _verdict(tag: str, label: str, ok: bool, detail: str = "") -> bool:
    note = f"  [{detail}]" if detail else ""
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {tag}: {label}{note}")
    return ok


@lru_cache(maxsize=None)
def _dims(name: str, theory: str, max_degree: int) -> tuple:
    return tuple(cohomology_dims(builtin(name), theory=theory,
                                 max_degree=max_degree).dims)


def _zero_table(d):
    return tuple(tuple((0,) * d for _ in range(d)) for _ in range(d))


def _add_tables(first, second):
    d = len(first)
    return [[tuple(x + y for x, y in zip(first[i][j], second[i][j]))
             for j in range(d)] for i in range(d)]


# ---------------------------------------------------------------------------
# 1-3: dimension reproductions


def test_criterion_1_flag_algebra_dims():
    t0 = time.monotonic()
    dims = _dims("ut2", "poisson", 5)
    elapsed = time.monotonic() - t0
    ok = dims == (1, 0, 1, 5, 3, 0) and elapsed < 120
    assert _verdict("1", "ut2 total-complex dims 0..5 == (1,0,1,5,3,0)",
                    ok, f"{dims}, {elapsed:.1f}s")


def test_criterion_2_flag_algebra_companions():
    hh = _dims("ut2", "hochschild", 4)
    ce = _dims("ut2", "ce", 3)
    quasi = _dims("ut2", "quasi", 3)
    omega = _dims("ut2", "omega", 3)
    les = les_feasibility(_dims("ut2", "poisson", 5), quasi, omega)
    ok = (hh[1:5] == (0, 0, 0, 0)
          and ce == (1, 2, 1, 0)
          and quasi == (1, 2, 1, 0)
          and omega == (3, 6, 3, 0)
          and les.ok)
    assert _verdict("2", "ut2 companions: HH 1..4 zero, Lie (1,2,1,0), "
                         "two-shifted (3,6,3,0), sequence feasible", ok,
                    f"hh={hh} ce={ce} quasi={quasi} omega={omega} les={les.ok}")


def test_criterion_3_matrix_algebra_dims():
    t0 = time.monotonic()
    hp = _dims("m2", "poisson", 3)
    ce = _dims("m2", "ce", 2)
    omega0 = _dims("m2", "omega", 0)
    elapsed = time.monotonic() - t0
    ok = (hp[:3] == (1, 0, 1)
          and ce[1:3] == (1, 0)
          and omega0[0] == 2
          and hp[3] > 0
          and elapsed < 600)
    assert _verdict("3", "m2 dims: total (1,0,1), Lie 1..2 (1,0), "
                         "degree-0 equivariant kernel 2, degree 3 nonzero",
                    ok, f"hp={hp} ce={ce} omega0={omega0[0]}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4: the equivariant pairing table


def test_criterion_4_equivariant_pairing_table():
    """The equivariant maps A (x) A -> A are the kernel of delta_H(2, 0);
    since {1, a} = 0, the words holding the unit span an invariant
    complement of sl2 (x) sl2, so restricting that kernel to the traceless
    words (a, b) in {e, f, h}^2 gives every equivariant map sl2 (x) sl2 -> A
    (docs/decisions.md, section 11)."""
    alg = builtin("m2")
    space = CochainSpace.build("hochschild", 2, alg.dim, alg.dim)
    traceless = (1, 2, 3)
    maps = [[[tuple(Fraction(v) for v in decode(space, vec)[2, 0][a][b])
              for b in traceless] for a in traceless]
            for vec in kernel_basis(delta_H(alg, regular_module(alg), 2, 0))]
    ok = oracles.dense_rank([[v for row in T for image in row for v in image]
                             for T in maps]) == 2

    def entry_table(lam, mu):
        z = (Fraction(0),) * 4
        return {
            ("e", "e"): z,
            ("e", "f"): (mu / 6, 0, 0, lam / 4),
            ("e", "h"): (0, -lam / 2, 0, 0),
            ("f", "e"): (mu / 6, 0, 0, -lam / 4),
            ("f", "f"): z,
            ("f", "h"): (0, 0, lam / 2, 0),
            ("h", "e"): (0, lam / 2, 0, 0),
            ("h", "f"): (0, 0, -lam / 2, 0),
            ("h", "h"): (mu / 3, 0, 0, 0),
        }

    names = ("e", "f", "h")
    readings = []
    for T in maps:  # T[x][y]: the image of the traceless word (x, y)
        lam = -2 * T[0][2][1]           # e (x) h -> -(lam/2) e
        mu = 3 * T[2][2][0]             # h (x) h -> (mu/3) 1
        want = entry_table(lam, mu)
        for x in range(3):
            for y in range(3):
                expect = tuple(Fraction(v) for v in want[names[x], names[y]])
                ok = ok and T[x][y] == expect
        readings.append((lam, mu))
    ok = ok and oracles.dense_rank([list(r) for r in readings]) == 2
    assert _verdict("4", "equivariant pairings: dimension 2 and every table "
                         "entry matches the (lambda, mu) normalization", ok,
                    f"readings={[(str(a), str(b)) for a, b in readings]}")


# ---------------------------------------------------------------------------
# 5: the two-parameter cocycle family


def _encode_degree0(alg, table):
    flat = []
    for a in range(alg.dim):
        for b in range(alg.dim):
            flat.extend(table[a][b])
    return list(flat)


def test_criterion_5a_tabulated_family_spans_the_kernel():
    alg = builtin("m2")
    mod = regular_module(alg)
    kernel = [list(v) for v in kernel_basis(differential(alg, mod, "omega", 0))]

    def rank_with_kernel(*tables):
        return oracles.dense_rank(
            kernel + [_encode_degree0(alg, t) for t in tables])

    corrected = (m2_product_family(1, 0, -3), m2_product_family(0, 1, 3))
    claimed = (phi_family(alg, 1, 0), phi_family(alg, 0, 1))
    dim_ok = len(kernel) == 2
    corrected_ok = (oracles.dense_rank([_encode_degree0(alg, t)
                                        for t in corrected]) == 2
                    and rank_with_kernel(*corrected) == 2)
    lock_ok = (rank_with_kernel(phi_family(alg, 0, 1)) == 2
               and rank_with_kernel(phi_family(alg, 1, 0)) == 3)
    # The product itself, (nu, lam, mu) = (1, 2, 3), is a cocycle on the
    # corrected lock (3 == 3*2 - 3*1) and off the claimed one (3 != 3*2).
    product_ok = (alg.mult == m2_product_family(1, 2, 3)
                  and rank_with_kernel(alg.mult) == 2
                  and oracles.dense_rank([_encode_degree0(alg, t) for t in
                                          claimed + (alg.mult,)]) == 3)
    print(f"    kernel dim 2: {dim_ok}; mu = 3*lambda - 3*nu spans it: "
          f"{corrected_ok}; mu = 3*lambda leaves it at nu = 1: {lock_ok}; "
          f"the m2 product is a cocycle off mu = 3*lambda: {product_ok}")
    assert _verdict(
        "5a", "degree-0 equivariant-cocycle kernel == span of the trace lock "
              "mu = 3*lambda - 3*nu; the tabulated lock mu = 3*lambda is "
              "refuted", dim_ok and corrected_ok and lock_ok and product_ok,
        "the unit direction needs the -3*nu trace term; the m2 product "
        "(1, 2, 3) is the counterexample -- see docs/decisions.md")


def test_criterion_5b_associativity_curve():
    ok = True
    for lam in range(-3, 4):
        for mu in range(-4, 8):
            ok = ok and (m2_family_is_associative(1, lam, mu)
                         == (4 * mu == 3 * lam * lam))
    on = Fraction(3, 16)
    ok = ok and m2_family_is_associative(1, Fraction(1, 2), on)
    ok = ok and not m2_family_is_associative(1, Fraction(1, 2), on + Fraction(1, 1000))
    assert _verdict("5b", "pointwise associativity of the product family is "
                          "cut out by 4*mu == 3*lambda**2", ok)


# ---------------------------------------------------------------------------
# 6: deformation suite


def test_criterion_6_deformation_suite():
    alg = builtin("m2")
    zero4 = _zero_table(4)
    ok = is_poisson_2cocycle(alg, phi_family(alg, 0, 2), zero4)

    # The deforming build carries the two-parameter direction at order 1.
    for s in (1, 2, Fraction(-1, 3)):
        series = m2_table3_series(s, repaired=True)
        ok = ok and series.mult_term(1) == phi_family(alg, 0, 2 * s)
        ok = ok and not any(c for row in series.bracket_term(1)
                            for vec in row for c in vec)

    # The verbatim build differs at order 1 and fails verification; the
    # residual report must be complete and explicit, never silenced.
    literal = m2_table3_series(1)
    ok = ok and literal.mult_term(1) != phi_family(alg, 0, 2)
    check = verify_deformation(literal, max_order=6)
    failures = {(rec.axiom, rec.order, rec.count) for rec in check.failures}
    report_ok = (not check.ok and check.unital and check.max_order == 6
                 and failures == {("associativity", 1, 11), ("leibniz", 1, 8),
                                  ("associativity", 2, 8), ("associativity", 3, 4)}
                 and all(rec.samples for rec in check.failures))
    print("    verbatim tabulated build: order-1 term differs from the "
          "two-parameter direction and residuals are nonzero at orders 1-3; "
          "reported in full (see docs/decisions.md)")
    ok = ok and report_ok

    # Twenty seeded random valid order-1 partials: obstruction always closed.
    closed = 0
    for name in ("ut2", "trivial2"):
        base = builtin(name)
        directions = first_order_deformations(base)
        rng = random.Random(f"acceptance-obstructions-{name}")
        d = base.dim
        for _ in range(10):
            m1 = [[[0] * d for _ in range(d)] for _ in range(d)]
            l1 = [[[0] * d for _ in range(d)] for _ in range(d)]
            for m_dir, l_dir in directions:
                weight = Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
                for i in range(d):
                    for j in range(d):
                        for k in range(d):
                            m1[i][j][k] += weight * m_dir[i][j][k]
                            l1[i][j][k] += weight * l_dir[i][j][k]
            series = DeformationSeries.build(base, (base.mult, m1),
                                             (base.bracket, l1))
            if verify_deformation(series).ok and is_poisson_3cocycle(
                    base, *obstruction_tables(series)):
                closed += 1
    ok = ok and closed == 20
    assert _verdict("6", "deformation suite: cocycle pair, order-1 terms, "
                         "full residual report, 20/20 closed obstructions",
                    ok, f"closed={closed}/20")


# ---------------------------------------------------------------------------
# 7: structural property suite


def test_criterion_7a_differentials_square_to_zero():
    t0 = time.monotonic()
    ok = True
    compositions = 0
    for name in ALL_BUILTINS:
        alg = builtin(name)
        mod = regular_module(alg)
        for theory in THEORIES:
            prev = differential(alg, mod, theory, 0)
            for n in range(5):
                nxt = differential(alg, mod, theory, n + 1)
                ok = ok and nxt.matmul(prev).nnz == 0
                compositions += 1
                prev = nxt
            del prev
    assert _verdict("7a", "d(n+1) o d(n) == 0 for every theory, every "
                          "builtin, degrees <= 5", ok,
                    f"{compositions} compositions, {time.monotonic() - t0:.0f}s")


def test_criterion_7b_horizontal_edge_is_the_lie_coboundary():
    ok = True
    for name in ALL_BUILTINS:
        alg = builtin(name)
        mod = regular_module(alg)
        for n in range(3):
            edge = delta_H(alg, mod, 0, n)
            nrows, ncols, lie = oracles.lie_coboundary(alg.bracket, mod.lie, n)
            ok = (ok and (edge.nrows, edge.ncols) == (nrows, ncols)
                  and dict(edge.entries) == lie)
    assert _verdict("7b", "the i = 0 horizontal blocks are the Lie "
                          "coboundary matrices, entry for entry", ok)


def test_criterion_7c_multiderivation_embedding_is_a_chain_map():
    ok = True
    for name in COMMUTATIVE_BUILTINS:
        alg = builtin(name)
        mod = regular_module(alg)
        for n in range(3):
            d_full = differential(alg, mod, "poisson", n)
            killer, d_lp = edge_maps(alg, "I", n)
            for fvec in kernel_basis(killer):
                lhs = d_full.matvec(sigma_embed(alg, n, fvec))
                rhs = sigma_embed(alg, n + 1, d_lp.matvec(fvec))
                ok = ok and tuple(lhs) == tuple(rhs)
    assert _verdict("7c", "the multiderivation embedding intertwines the "
                          "coboundaries on commutative builtins, n <= 2", ok)


def test_criterion_7d_zero_bracket_splitting():
    ok = True
    for name in ("trivial2", "kxk"):
        alg = builtin(name)
        rows = trivial_bracket_decomposition(alg, max_degree=3)["rows"]
        low_ok = [r["degree"] for r in rows if r["ok"]] == [0, 1, 2]
        gap = rows[3]["computed"] - rows[3]["predicted"]
        defect = oracles.zero_bracket_corner_defect(alg.mult, 1)
        print(f"    {name}: degrees 0-2 agree: {low_ok}; degree 3 "
              f"(predicted, computed) = ({rows[3]['predicted']}, "
              f"{rows[3]['computed']}), oracle corner defect {defect}")
        ok = ok and low_ok and defect > 0 and gap == defect
    assert _verdict(
        "7d", "zero-bracket splitting (multiderivations + binomial "
              "Hochschild sum) holds at degrees <= 2 and misses exactly the "
              "corner defect at degree 3, both sides independent", ok,
        "defect = dim B^2 in C^2(A, Hom(A, A)) - rank of the corner map on "
        "Hom(wedge^2 A, A), from a dense oracle -- see docs/decisions.md")


def test_criterion_7e_extensions_validate():
    ok = True
    for name in ALL_BUILTINS:
        alg = builtin(name)
        zero = _zero_table(alg.dim)
        ext, _ = extension_algebra(alg, regular_module(alg), zero, zero)
        ok = ok and ext.dim == 2 * alg.dim and validate_algebra(ext).ok
    dual = builtin("trivial2")
    f1 = [[(0, 0), (0, 0)], [(0, 0), (1, 0)]]
    ext, _ = extension_algebra(dual, regular_module(dual), f1, _zero_table(2))
    ok = ok and validate_algebra(ext).ok
    m2 = builtin("m2")
    ext8, _ = extension_algebra(m2, regular_module(m2), phi_family(m2, 0, 2),
                                _zero_table(4))
    ok = ok and ext8.dim == 8 and validate_algebra(ext8).ok
    assert _verdict("7e", "square-zero extensions over verified cocycles "
                          "pass full axiom validation (incl. the dim-8 one)", ok)


def test_criterion_7f_cohomologous_cocycles_isomorphic_extensions():
    alg = builtin("trivial2")
    mod = regular_module(alg)
    f1 = [[(0, 0), (0, 0)], [(0, 0), (1, 0)]]
    f0 = _zero_table(2)
    base, _ = extension_algebra(alg, mod, f1, f0)
    rng = random.Random("acceptance-transport")
    ok = True
    for _ in range(4):
        h = [[0, 0]] + [[Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
                         for _ in range(2)]]
        df1, df0 = coboundary_pair(alg, mod, h)
        shifted, _ = extension_algebra(alg, mod, _add_tables(f1, df1),
                                       _add_tables(f0, df0))
        moved = transport(base, shift_basis_matrix(alg, mod, h))
        ok = ok and moved == shifted and validate_algebra(shifted).ok
    assert _verdict("7f", "shifting the cocycle by a coboundary of the assembled "
                          "d^1 matches the basis-change transport of the extension "
                          "exactly", ok)


# ---------------------------------------------------------------------------
# 8: determinism


def test_criterion_8_byte_identical_reruns():
    argv = [sys.executable, "-m", "poiscoh.cli", "cohomology",
            "--algebra", "builtin:ut2", "--theory", "hp", "--max-degree", "5"]
    first = subprocess.run(argv, capture_output=True)
    second = subprocess.run(argv, capture_output=True)
    payload = json.loads(first.stdout)
    ok = (first.returncode == second.returncode == 0
          and first.stdout == second.stdout
          and payload["dims"] == [1, 0, 1, 5, 3, 0])
    assert _verdict("8", "two identical report runs emit byte-identical "
                         "output", ok)
