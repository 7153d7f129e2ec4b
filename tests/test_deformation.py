"""Formal deformations: series plumbing, residual reports, obstruction
lifting, square-zero extensions, and the 2x2 matrix algebra families."""

import dataclasses
import json
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

import poiscoh
from poiscoh.algebra import (
    BUILTINS,
    AxiomError,
    ModuleSpec,
    StructuralError,
    _order_residuals,
    builtin,
    regular_module,
    validate_module,
)
from poiscoh.cohomology import cohomology_dims
from poiscoh.complexes import differential
from poiscoh.deformation import (
    DeformationSeries,
    classical_limit,
    coboundary_pair,
    decode_pair,
    encode_pair,
    extension_algebra,
    first_order_deformations,
    is_poisson_2cocycle,
    is_poisson_3cocycle,
    lift_step,
    lift_until,
    m2_family_is_associative,
    m2_product_family,
    m2_table3_series,
    obstruction_tables,
    phi_family,
    quantization_first_order,
    quantization_obstruction_check,
    series_from_file_dict,
    series_to_file_dict,
    shift_basis_matrix,
    transport,
    verify_deformation,
)

import oracles


def _d2(alg):
    """The degree-2 differential that :func:`lift_step` solves against."""
    return differential(alg, regular_module(alg), "poisson", 2)


def _zero_table(d):
    return tuple(tuple((0,) * d for _ in range(d)) for _ in range(d))


def _add_tables(first, second):
    return [
        [tuple(x + y for x, y in zip(first[i][j], second[i][j]))
         for j in range(len(first))]
        for i in range(len(first))
    ]


# ---------------------------------------------------------------------------
# Series plumbing


def test_build_requires_the_base_tables_at_order_zero():
    alg = builtin("trivial2")
    z = _zero_table(2)
    with pytest.raises(StructuralError):
        DeformationSeries.build(alg, (z,), (alg.bracket,))
    with pytest.raises(StructuralError):
        DeformationSeries.build(alg, (alg.mult,), (z[:1] + ((0, 1), (0, 0)),))
    # symmetric junk in a bracket slot
    bad = [[(0, 0), (1, 0)], [(1, 0), (0, 0)]]
    with pytest.raises(StructuralError):
        DeformationSeries.build(alg, (alg.mult, z), (alg.bracket, bad))


def test_series_pads_to_a_common_order():
    alg = builtin("trivial2")
    z = _zero_table(2)
    series = DeformationSeries.build(alg, (alg.mult, z, z), (alg.bracket,))
    assert series.order == 2
    assert series.bracket_term(2) == z
    assert series.bracket_term(9) == z  # beyond the truncation reads as zero
    assert series.mult_term(0) == alg.mult


def test_truncated_and_extended():
    series = m2_table3_series(1, repaired=True)
    assert series.order == 2
    head = series.truncated(1)
    assert head.order == 1
    assert head.mult_terms == series.mult_terms[:2]
    z = _zero_table(4)
    longer = head.extended(z, z)
    assert longer.order == 2
    assert longer.mult_term(2) == z
    with pytest.raises(StructuralError):
        series.truncated(-1)
    # only the appended pair is checked, under its own order in the message
    symmetric = tuple(tuple((1, 0, 0, 0) if i + j == 3 else (0,) * 4 for j in range(4))
                      for i in range(4))
    with pytest.raises(StructuralError, match=r"bracket_terms\[2\] is not antisymmetric"):
        head.extended(z, symmetric)
    with pytest.raises(StructuralError, match=r"mult_terms\[2\]"):
        head.extended(z[:3], z)


def test_series_dict_roundtrips():
    series = m2_table3_series(Fraction(3, 2), repaired=True)
    data = series_to_file_dict(series)
    back = series_from_file_dict(data)
    assert back == series
    # and through JSON text
    blob = json.loads(json.dumps(data))
    again = series_from_file_dict(blob)
    assert again == series
    with pytest.raises(StructuralError):
        series_from_file_dict({"order": 0})
    embedded = data["algebra"]
    with pytest.raises(StructuralError):
        series_from_file_dict({"algebra": embedded, "mult_terms": [[[0, 0, 0]]]})
    with pytest.raises(StructuralError):
        series_from_file_dict({"algebra": embedded, "mult_terms": [[[0, 0, 9, "1"]]]})


# ---------------------------------------------------------------------------
# Axiom verification order by order


def test_tabulated_family_fails_verbatim():
    """The quadratic family as printed does not satisfy associativity or the
    bracket compatibility at first order; the report must spell the failures
    out rather than hide them (see the repaired variant for the fix)."""
    check = verify_deformation(m2_table3_series(1), max_order=6)
    assert not check.ok
    assert check.unital
    summary = [(rec.axiom, rec.order, rec.count) for rec in check.failures]
    assert summary == [
        ("associativity", 1, 11),
        ("leibniz", 1, 8),
        ("associativity", 2, 8),
        ("associativity", 3, 4),
    ]
    assert check.failing_axioms() == {"associativity", "leibniz"}
    # one concrete witness, frozen: (e, e, f) at order 1
    first = check.failures[0]
    witnesses = dict(first.samples)
    assert (1, 1, 2) in witnesses
    assert witnesses[(1, 1, 2)] == (0, 1, 0, 0)


@pytest.mark.parametrize("s", (0, 1, Fraction(-5, 3)))
def test_repaired_family_verifies_through_order_six(s):
    series = m2_table3_series(s, repaired=True)
    check = verify_deformation(series, max_order=6)
    assert check.ok
    assert check.unital
    assert check.max_order == 6
    assert check.failures == ()


def test_check_to_dict_is_deterministic_and_stringly_exact():
    check = verify_deformation(m2_table3_series(Fraction(1, 3)), max_order=2)
    one = json.dumps(check.to_dict(), sort_keys=True)
    two = json.dumps(verify_deformation(
        m2_table3_series(Fraction(1, 3)), max_order=2).to_dict(), sort_keys=True)
    assert one == two
    payload = check.to_dict()
    assert payload["ok"] is False
    sample = payload["failures"][0]["samples"][0]
    assert all(isinstance(v, str) for v in sample["residual"])


def test_negative_check_order_is_refused():
    with pytest.raises(StructuralError, match="order must be nonnegative"):
        verify_deformation(m2_table3_series(1), max_order=-1)


def test_orders_past_twice_the_series_are_not_expanded(monkeypatch):
    """Every splitting of an order above 2 * series.order reads a missing
    term, so the check stops expanding there and still reports the order
    asked for, with the failures of the full check."""
    series = m2_table3_series(1)
    calls = []
    real = poiscoh.deformation._order_residuals
    monkeypatch.setattr(poiscoh.deformation, "_order_residuals",
                        lambda *args: calls.append(args[2]) or real(*args))
    check = verify_deformation(series, max_order=1000)
    assert calls == list(range(2 * series.order + 1))
    assert check.max_order == 1000
    assert check.failures == verify_deformation(series, max_order=2 * series.order).failures
    assert not check.ok


def test_verification_matches_the_oracle_expansion():
    """Every residual the verifier reports must equal the brute-force
    order-by-order expansion, and vice versa."""
    series = m2_table3_series(2)
    check = verify_deformation(series, max_order=3)
    reported = {}
    for rec in check.failures:
        if rec.axiom == "antisymmetry":
            continue
        for idx, vec in rec.samples:
            reported[(rec.axiom, rec.order, idx)] = vec
    for order in range(4):
        expanded = oracles.series_residuals(series, order)
        for axiom in ("associativity", "leibniz", "jacobi"):
            nonzero = {k: v for k, v in expanded[axiom].items() if any(v)}
            recs = [rec for rec in check.failures
                    if rec.axiom == axiom and rec.order == order]
            if not nonzero:
                assert not recs
                continue
            assert len(recs) == 1 and recs[0].count == len(nonzero)
            for idx, vec in recs[0].samples:
                assert nonzero[idx] == vec


def test_repaired_family_is_the_basis_flow_pullback():
    """Through t^2 the repaired family equals m_t(a, b) =
    P_t^{-1}(P_t(a) P_t(b)) for the flow fixing 1 and e, scaling f by
    (1+ts)^2 and h by (1+ts); checked with truncated polynomial arithmetic."""
    alg = builtin("m2")
    d = 4

    def poly_mul(p, q):
        out = [Fraction(0)] * 3
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                if a and b and i + j < 3:
                    out[i + j] += a * b
        return tuple(out)

    for s in (1, -2, Fraction(1, 2)):
        series = m2_table3_series(s, repaired=True)
        fwd = {0: (1, 0, 0), 1: (1, 0, 0),
               2: (1, 2 * s, s * s), 3: (1, s, 0)}
        inv = {0: (1, 0, 0), 1: (1, 0, 0),
               2: (1, -2 * s, 3 * s * s), 3: (1, -s, s * s)}
        for a in range(d):
            for b in range(d):
                scale = poly_mul(fwd[a], fwd[b])
                got = [[Fraction(0)] * 3 for _ in range(d)]
                for k, c in enumerate(alg.mult[a][b]):
                    if c:
                        coeff = poly_mul(scale, inv[k])
                        for t, v in enumerate(coeff):
                            got[k][t] += c * v
                for k in range(d):
                    want = tuple(series.mult_term(t)[a][b][k] for t in range(3))
                    assert tuple(got[k]) == want, (a, b, k)


# ---------------------------------------------------------------------------
# First-order directions and cocycles


def test_phi_pair_is_a_2cocycle_exactly_on_the_traceless_slice():
    alg = builtin("m2")
    zero = _zero_table(4)
    assert is_poisson_2cocycle(alg, phi_family(alg, 0, 2), zero)
    assert is_poisson_2cocycle(alg, phi_family(alg, 0, Fraction(-7, 3)), zero)
    # The mu = 3*lam lock is off the kernel for nu != 0 ...
    assert not is_poisson_2cocycle(alg, phi_family(alg, 1, -3), zero)
    assert not is_poisson_2cocycle(alg, phi_family(alg, 2, 0), zero)
    # ... where the cocycle condition really cuts out mu = 3*lam - 3*nu.
    for nu, lam in [(1, -3), (2, 0), (1, 2), (Fraction(1, 2), Fraction(5, 3))]:
        good = m2_product_family(nu, lam, 3 * lam - 3 * nu)
        assert is_poisson_2cocycle(alg, good, zero)
    # Sanity anchor: the product itself (nu, lam, mu) = (1, 2, 3) is always
    # a Hochschild cocycle, and 3 == 3*2 - 3*1 while 3 != 3*2.
    assert is_poisson_2cocycle(alg, m2_product_family(1, 2, 3), zero)
    bad = [[(0,) * 4 for _ in range(4)] for _ in range(4)]
    bad[1][1] = (1, 0, 0, 0)
    assert not is_poisson_2cocycle(alg, bad, zero)


def test_phi_family_is_defined_over_m2_only():
    with pytest.raises(StructuralError):
        phi_family(builtin("ut2"), 0, 1)


def test_encode_decode_roundtrip():
    alg = builtin("ut2")
    random.seed(11)
    d = 3
    m_table = [[tuple(Fraction(random.randint(-4, 4), random.choice((1, 2, 3)))
                      for _ in range(d)) for _ in range(d)] for _ in range(d)]
    l_raw = [[[0] * d for _ in range(d)] for _ in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            vec = [Fraction(random.randint(-4, 4)) for _ in range(d)]
            l_raw[i][j] = vec
            l_raw[j][i] = [-v for v in vec]
    l_table = [[tuple(v) for v in row] for row in l_raw]
    coeffs = encode_pair(alg, m_table, l_table)
    m_back, l_back = decode_pair(alg, coeffs)
    assert m_back == tuple(tuple(row) for row in m_table)
    assert l_back == tuple(tuple(row) for row in l_table)
    with pytest.raises(StructuralError):
        encode_pair(alg, m_table, m_table)  # wedge part must be antisymmetric
    with pytest.raises(StructuralError):
        decode_pair(alg, coeffs[:-1])


@pytest.mark.parametrize("name", ("ut2", "trivial2", "m2"))
def test_first_order_directions_are_cocycles(name):
    alg = builtin(name)
    pairs = first_order_deformations(alg)
    assert pairs
    for m1, l1 in pairs:
        assert is_poisson_2cocycle(alg, m1, l1)
        series = DeformationSeries.build(alg, (alg.mult, m1), (alg.bracket, l1))
        assert verify_deformation(series).ok


# ---------------------------------------------------------------------------
# Obstructions


def test_obstruction_tables_are_the_zero_extension_residuals():
    """(F1, F2, F3) at order n must equal the order-n residuals of the series
    continued by zero -- the defining property, via the oracle expansion."""
    series = m2_table3_series(1, repaired=True).truncated(1)
    d = 4
    f1, f2, f3 = obstruction_tables(series)
    extended = series.extended(_zero_table(d), _zero_table(d))
    residuals = oracles.series_residuals(extended, 2)
    zero = (0,) * d
    for a in range(d):
        for b in range(d):
            for c in range(d):
                assert tuple(f1[a][b][c]) == tuple(
                    residuals["associativity"].get((a, b, c), zero))
                assert tuple(f2[a][b][c]) == tuple(
                    residuals["leibniz"].get((a, b, c), zero))
                assert tuple(f3[a][b][c]) == tuple(
                    residuals["jacobi"].get((a, b, c), zero))


def test_obstructions_of_invalid_series_are_refused():
    with pytest.raises(StructuralError):
        obstruction_tables(m2_table3_series(1))  # not a deformation at order 1
    with pytest.raises(StructuralError):
        obstruction_tables(m2_table3_series(1, repaired=True), 0)


def random_partials(name):
    """Ten seeded random valid order-1 partials over a builtin, each a
    random combination of its first-order directions."""
    alg = builtin(name)
    directions = first_order_deformations(alg)
    rng = random.Random(f"obstruction-{name}")
    d = alg.dim
    for trial in range(10):
        m1 = [[[0] * d for _ in range(d)] for _ in range(d)]
        l1 = [[[0] * d for _ in range(d)] for _ in range(d)]
        for m_dir, l_dir in directions:
            weight = Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
            if not weight:
                continue
            for i in range(d):
                for j in range(d):
                    for k in range(d):
                        m1[i][j][k] += weight * m_dir[i][j][k]
                        l1[i][j][k] += weight * l_dir[i][j][k]
        yield DeformationSeries.build(alg, (alg.mult, m1), (alg.bracket, l1))


@pytest.mark.parametrize("name", ("ut2", "trivial2"))
def test_random_partial_series_have_closed_obstructions(name):
    """Ten seeded random valid partials per base: every obstruction
    encodes to a degree-3 cocycle, and lifting (when possible) re-verifies."""
    for series in random_partials(name):
        assert is_poisson_3cocycle(series.algebra, *obstruction_tables(series))
        lifted = lift_step(series, _d2(series.algebra))
        if lifted is None:
            continue
        assert verify_deformation(lifted).ok
        assert is_poisson_3cocycle(lifted.algebra, *obstruction_tables(lifted))


def _split_residuals(series, n):
    """The inner splittings plus the outer ones {0, n}, summed cell by cell,
    zero sums dropped."""
    inner = _order_residuals(series.mult_pairs, series.bracket_pairs, n, range(1, n))
    outer = _order_residuals(series.mult_pairs, series.bracket_pairs, n, (0, n))
    zero = (0,) * series.algebra.dim
    sums = []
    for f_inner, f_outer in zip(inner, outer):
        cells = {cell: tuple(x + y for x, y in zip(f_inner.get(cell, zero),
                                                   f_outer.get(cell, zero)))
                 for cell in sorted({*f_inner, *f_outer})}
        sums.append({cell: vec for cell, vec in cells.items() if any(vec)})
    return tuple(sums)


def test_inner_and_outer_splittings_make_the_full_residual():
    """The order-n check of :func:`lift_step` reads the inner residuals it
    solved for plus p in {0, n}: together the full order-n residual."""
    lifted, _ = lift_until(m2_table3_series(1, repaired=True).truncated(1), 8)
    for series in (lifted, *random_partials("ut2"), *random_partials("trivial2")):
        for n in range(1, 9):
            full = _order_residuals(series.mult_pairs, series.bracket_pairs, n)
            assert _split_residuals(series, n) == full


@pytest.mark.parametrize("name", ("ut2", "trivial2"))
def test_residuals_hold_only_nonzero_cells_in_triple_order(name):
    """The kernel returns the nonzero vectors alone, in index order, for the
    full residual, the inner splittings and the outer ones."""
    for series in random_partials(name):
        for n in range(2 * series.order + 2):
            for splittings in (None, range(1, n), {0, n}):
                for table in _order_residuals(series.mult_pairs, series.bracket_pairs,
                                              n, splittings):
                    assert all(any(vec) for vec in table.values())
                    assert list(table) == sorted(table)


def test_a_lift_converts_each_appended_term_once(monkeypatch):
    """Lifting to order 20 makes the sparse pairs of each new table once,
    when it joins the series, and never again for lower terms."""
    series = m2_table3_series(1, repaired=True).truncated(1)
    lift_until(series, 2)  # warm the algebra's cached pairs and d^2
    calls = []
    for module in (poiscoh.algebra, poiscoh.deformation):
        real = module._pairs
        monkeypatch.setattr(module, "_pairs",
                            lambda table, real=real: calls.append(1) or real(table))
    lifted, obstructed_at = lift_until(series, 20)
    assert obstructed_at is None and lifted.order == 20
    assert len(calls) == 2 * (20 - series.order)  # one mult and one bracket table


def test_a_wrong_order_fails_its_own_check(monkeypatch):
    """A continuation that does not solve the order-n problem raises at
    that order, from ``lift_until`` and from a direct ``lift_step``."""
    alg = builtin("sl2std")
    m1, l1 = quantization_first_order(alg)
    series = DeformationSeries.build(alg, (alg.mult, m1), (alg.bracket, l1))
    lifted = lift_step(series, _d2(alg))
    assert any(v for row in lifted.mult_term(2) for vec in row for v in vec)

    def doubled(base, coeffs):
        m_n, l_n = decode_pair(base, coeffs)
        return tuple(tuple(tuple(2 * v for v in vec) for vec in row) for row in m_n), l_n

    monkeypatch.setattr(poiscoh.deformation, "decode_pair", doubled)
    with pytest.raises(ArithmeticError, match="at order 2"):
        quantization_obstruction_check(alg, 4)
    with pytest.raises(ArithmeticError, match="at order 2"):
        lift_step(series, _d2(alg))

    # a zero continuation leaves every outer cell zero: only the cells where
    # the inner residual alone is nonzero can fail
    monkeypatch.setattr(poiscoh.deformation, "decode_pair",
                        lambda base, coeffs: (_zero_table(base.dim),) * 2)
    with pytest.raises(ArithmeticError, match="at order 2"):
        lift_step(series, _d2(alg))


def test_lift_eliminates_only_for_nonzero_obstructions(monkeypatch):
    """An order whose obstruction is zero solves without any elimination."""
    solves = []
    real_eliminate, real_solve = poiscoh.linalg._eliminate, poiscoh.deformation.solve

    def counting_eliminate(*args):
        solves[-1][1] += 1
        return real_eliminate(*args)

    def recording_solve(mat, rhs):
        solves.append([any(rhs), 0])
        return real_solve(mat, rhs)

    monkeypatch.setattr(poiscoh.linalg, "_eliminate", counting_eliminate)
    monkeypatch.setattr(poiscoh.deformation, "solve", recording_solve)
    start = m2_table3_series(1, repaired=True).truncated(1)
    series, obstructed_at = lift_until(start, 20)
    assert obstructed_at is None and series.order == 20
    assert len(solves) == 19
    assert any(nonzero for nonzero, _ in solves)
    assert any(not nonzero for nonzero, _ in solves)
    for nonzero, eliminations in solves:
        assert (eliminations > 0) == nonzero


def test_lift_assembles_the_differential_once(monkeypatch):
    """Every order of a lift solves against one assembled d^2."""
    calls = []
    real = poiscoh.deformation.differential

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(poiscoh.deformation, "differential", counting)
    series, obstructed_at = lift_until(m2_table3_series(1, repaired=True).truncated(1), 20)
    assert obstructed_at is None and series.order == 20
    assert [args[2:] for args in calls] == [("poisson", 2)]


def test_lift_step_extends_the_truncated_family():
    series = m2_table3_series(1, repaired=True).truncated(1)
    lifted = lift_step(series, _d2(series.algebra))
    assert lifted is not None and lifted.order == 2
    assert verify_deformation(lifted).ok
    # the found term can differ from the tabulated one by a cocycle only
    tabulated = m2_table3_series(1, repaired=True)
    alg = series.algebra
    diff_m = [[tuple(x - y for x, y in zip(lifted.mult_term(2)[i][j],
                                           tabulated.mult_term(2)[i][j]))
               for j in range(4)] for i in range(4)]
    diff_l = [[tuple(x - y for x, y in zip(lifted.bracket_term(2)[i][j],
                                           tabulated.bracket_term(2)[i][j]))
               for j in range(4)] for i in range(4)]
    assert is_poisson_2cocycle(alg, diff_m, diff_l)


@pytest.mark.parametrize("target", [4, 8, 16])
def test_lift_freezes_each_new_term_once(monkeypatch, target):
    """Lifting freezes the two tables of each new order and nothing else:
    earlier terms are never frozen or checked again."""
    start = m2_table3_series(1, repaired=True).truncated(1)
    frozen = []
    real = poiscoh.algebra._freeze_table

    def counting(table, rows, cols, width, what):
        frozen.append(what)
        return real(table, rows, cols, width, what)

    for module in (poiscoh.algebra, poiscoh.deformation):
        monkeypatch.setattr(module, "_freeze_table", counting)
    series, obstructed_at = lift_until(start, target)
    assert obstructed_at is None and series.order == target
    assert len(frozen) == 2 * (target - 1)


# ---------------------------------------------------------------------------
# Quantization of the commutative builtins


@pytest.mark.parametrize("name", ("nil3", "sl2std", "trivial2", "kxk"))
def test_semiclassical_series_lift_to_order_three(name):
    alg = builtin(name)
    result = quantization_obstruction_check(alg, max_order=3)
    assert result == {"ok": True, "order_reached": 3, "obstructed_at": None,
                      "orders_solved": [2, 3]}


def test_quantization_needs_a_commutative_base():
    with pytest.raises(StructuralError):
        quantization_first_order(builtin("ut2"))


def test_quantization_check_starts_at_order_one():
    """The semiclassical series already has order 1, so a lower maximum has
    no honest report."""
    for max_order in (0, -1):
        with pytest.raises(StructuralError, match="at least 1"):
            quantization_obstruction_check(builtin("sl2std"), max_order=max_order)
    report = quantization_obstruction_check(builtin("sl2std"), max_order=1)
    assert report == {"ok": True, "order_reached": 1, "obstructed_at": None,
                      "orders_solved": []}


def test_non_cocycle_start_raises_under_optimize():
    """The start-cocycle check is an explicit raise, so it holds under ``-O``."""
    script = textwrap.dedent("""
        from poiscoh import builtin, deformation
        deformation.is_poisson_2cocycle = lambda *args: False
        try:
            deformation.quantization_obstruction_check(builtin("nil3"))
        except ArithmeticError:
            raise SystemExit(0)
        raise SystemExit(3)
    """)
    src = str(Path(poiscoh.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()


@pytest.mark.parametrize("name", ("nil3", "sl2std"))
def test_classical_limit_recovers_the_bracket(name):
    alg = builtin(name)
    m1, l1 = quantization_first_order(alg)
    series = DeformationSeries.build(alg, (alg.mult, m1), (alg.bracket, l1))
    assert classical_limit(series) == alg


def test_classical_limit_guards():
    with pytest.raises(StructuralError):
        classical_limit(m2_table3_series(0, repaired=True))  # base not commutative
    alg = builtin("trivial2")
    m1 = [[(0, 0), (0, 1)], [(0, 0), (0, 0)]]  # antisymmetrizes to {1, x} = x
    series = DeformationSeries.build(alg, (alg.mult, m1), (alg.bracket,))
    with pytest.raises(AxiomError):
        classical_limit(series)


# ---------------------------------------------------------------------------
# Square-zero extensions and the cohomologous-cocycle isomorphism


DUAL_COCYCLE = ([[(0, 0), (0, 0)], [(0, 0), (1, 0)]], None)  # x*x -> 1


def _dual_extension_inputs():
    alg = builtin("trivial2")
    mod = regular_module(alg)
    f1 = DUAL_COCYCLE[0]
    f0 = _zero_table(2)
    return alg, mod, f1, f0


def test_extension_algebra_validates():
    alg, mod, f1, f0 = _dual_extension_inputs()
    assert is_poisson_2cocycle(alg, f1, f0)
    ext, report = extension_algebra(alg, mod, f1, f0)
    assert report.ok
    assert ext.dim == 4
    assert ext.basis == ("1", "x", "u0", "u1")
    # the twist really lands in the module part: x * x = u0
    assert ext.mult[1][1] == (0, 0, 1, 0)
    # module part squares to zero
    assert ext.mult[2][3] == (0, 0, 0, 0)


def test_extension_rejects_non_cocycles():
    alg, mod, _, f0 = _dual_extension_inputs()
    lopsided = [[(0, 0), (1, 0)], [(0, 0), (0, 0)]]  # fails the unit axiom
    with pytest.raises(AxiomError):
        extension_algebra(alg, mod, lopsided, f0)
    with pytest.raises(StructuralError):
        extension_algebra(alg, mod, lopsided, lopsided)  # f0 not antisymmetric


def _zero_pair_table(alg, mod):
    """The zero table of a bilinear map from ``alg`` to ``mod``."""
    return [[[0] * mod.dim for _ in range(alg.dim)] for _ in range(alg.dim)]


MISMATCHED_MODULE_CALLS = {
    "differential": lambda alg, mod: differential(alg, mod, "poisson", 1),
    "coboundary_pair": lambda alg, mod: coboundary_pair(
        alg, mod, [[1] * mod.dim for _ in range(alg.dim)]),
    "cohomology_dims": lambda alg, mod: cohomology_dims(alg, mod, "poisson", 2),
    "extension_algebra": lambda alg, mod: extension_algebra(
        alg, mod, _zero_pair_table(alg, mod), _zero_pair_table(alg, mod)),
}


@pytest.mark.parametrize("call", sorted(MISMATCHED_MODULE_CALLS))
@pytest.mark.parametrize("alg_name,mod_name", [("ut2", "m2"), ("m2", "ut2")])
def test_module_over_another_algebra_dimension_is_refused(call, alg_name, mod_name):
    alg, mod = builtin(alg_name), regular_module(builtin(mod_name))
    with pytest.raises(StructuralError, match="different algebra dimension"):
        MISMATCHED_MODULE_CALLS[call](alg, mod)


# one-dimensional modules on which basis a acts by chi[a] from both sides and
# the bracket acts by zero: ut2 through e11 -> 1, kxk through p -> 1
CHARACTERS = {"ut2": (1, 0, 0), "kxk": (1, 0)}


def _character_module(name):
    chi = CHARACTERS[name]
    mod = ModuleSpec.build(1, len(chi), [[[c]] for c in chi], [[[c]] for c in chi],
                           [[[0]] for _ in chi])
    assert validate_module(builtin(name), mod).ok
    return mod


def _unit_killing_h(alg, dim, rng):
    """A random h : A -> M with h(1) = 0, so the shifted pair stays
    unit-normalized."""
    h = [[Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(dim)]
         for _ in range(alg.dim)]
    k = next(a for a, c in enumerate(alg.unit) if c)
    h[k] = [-sum(alg.unit[a] * h[a][q] for a in range(alg.dim) if a != k)
            / Fraction(alg.unit[k]) for q in range(dim)]
    return h


def test_cohomologous_cocycles_give_isomorphic_extensions():
    """Shifting the twisting pair by the coboundary of h must be the same as
    rewriting the untwisted extension in the basis b_j + h(b_j) -- an exact
    algebra equality after transport, not just matching invariants.  Checked
    over the dual numbers acting on themselves and over the characters of
    ut2 and kxk, where h(a) and the module actions are scalars."""
    inputs = [_dual_extension_inputs()]
    for name in sorted(CHARACTERS):
        alg = builtin(name)
        zero = [[(0,)] * alg.dim for _ in range(alg.dim)]
        inputs.append((alg, _character_module(name), zero, zero))
    rng = random.Random(40)
    for alg, mod, f1, f0 in inputs:
        base, _ = extension_algebra(alg, mod, f1, f0)
        moved_any = False
        for _ in range(4):
            h = _unit_killing_h(alg, mod.dim, rng)
            df1, df0 = coboundary_pair(alg, mod, h)
            moved_any = moved_any or any(v for row in df1 for vec in row for v in vec)
            shifted, _ = extension_algebra(alg, mod, _add_tables(f1, df1),
                                           _add_tables(f0, df0))
            moved = transport(base, shift_basis_matrix(alg, mod, h))
            assert moved == shifted
        assert moved_any


@pytest.mark.parametrize("name,module", [(name, "regular") for name in sorted(BUILTINS)]
                         + [(name, "character") for name in sorted(CHARACTERS)])
def test_coboundary_pair_matches_the_written_out_formulas(name, module):
    """``coboundary_pair`` reads d^1 off the assembled differential; here it
    is checked against the defining formulas, evaluated by the oracle."""
    alg = builtin(name)
    mod = regular_module(alg) if module == "regular" else _character_module(name)
    rng = random.Random(f"{name}-{module}")
    for _ in range(3):
        h = [[Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(mod.dim)]
             for _ in range(alg.dim)]
        tensor, wedge = oracles.coboundary_pair(alg.mult, alg.bracket, mod.left,
                                                mod.right, mod.lie, h)
        df1, df0 = coboundary_pair(alg, mod, h)
        assert df1 == tuple(map(tuple, tensor)) and df0 == tuple(map(tuple, wedge))


def test_coboundary_pair_refuses_quasi_modules():
    """The poisson differential is not defined over a quasi module, so there
    is no d^1 to read."""
    alg = builtin("ut2")
    mod = dataclasses.replace(regular_module(alg), flavor="quasi")
    with pytest.raises(StructuralError):
        coboundary_pair(alg, mod, [[0] * 3 for _ in range(3)])


def test_transport_requires_invertibility():
    alg = builtin("trivial2")
    with pytest.raises(StructuralError):
        transport(alg, [[1, 0], [1, 0]])
    with pytest.raises(StructuralError):
        transport(alg, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    # singular, yet every product of m2 stays in its image
    with pytest.raises(StructuralError, match="not invertible"):
        transport(builtin("m2"), [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])


@pytest.mark.parametrize("call", [coboundary_pair, shift_basis_matrix])
@pytest.mark.parametrize("h", [[[1, 2, 3, 99]] * 3, [[1, 2, 3]] * 5, [[1, 2]] * 3,
                               [[1, 2, 3]] * 2])
def test_linear_map_tables_must_be_d_by_m(call, h):
    alg = builtin("ut2")
    with pytest.raises(StructuralError, match="h must be a 3 x 3 table"):
        call(alg, regular_module(alg), h)


# ---------------------------------------------------------------------------
# The 2x2 matrix product family


def test_honest_parameters_recover_the_matrix_product():
    assert m2_product_family(1, 2, 3) == builtin("m2").mult


def test_family_associativity_is_cut_by_one_curve():
    for lam in range(-2, 4):
        for mu in range(-2, 4):
            expected = 4 * mu == 3 * lam * lam
            assert m2_family_is_associative(1, lam, mu) is expected, (lam, mu)


def test_family_members_match_the_two_parameter_table():
    lam = Fraction(4, 3)
    table = phi_family(builtin("m2"), 2, lam)
    full = m2_product_family(2, lam, 3 * lam)
    assert table == full
    # spot entries: unit row scaling and the h-h corner
    assert table[0][2] == (0, 0, 2, 0)
    assert table[3][3] == (lam, 0, 0, 0)
