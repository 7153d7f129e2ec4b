"""Structure-constant containers, axiom validation, builtins, JSON I/O."""

import copy
import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poiscoh.algebra import (
    AlgebraSpec,
    AxiomError,
    BUILTINS,
    ModuleSpec,
    StructuralError,
    algebra_from_dict,
    algebra_to_dict,
    builtin,
    module_from_dict,
    module_to_dict,
    ratio,
    ratio_str,
    regular_module,
    standard_poisson,
    trivial_bracket,
    validate_algebra,
    validate_module,
)
from poiscoh.deformation import (
    m2_table3_series,
    series_from_file_dict,
    series_to_file_dict,
    transport,
)

import oracles


# ---------------------------------------------------------------------------
# scalars


def test_ratio_accepts_exact_forms():
    assert ratio(3) == 3
    assert ratio("-7/2") == Fraction(-7, 2)
    assert ratio(Fraction(4, 2)) == 2
    assert ratio("0") == 0


def test_ratio_rejects_floats_and_bools():
    with pytest.raises(StructuralError):
        ratio(0.5)
    with pytest.raises(StructuralError):
        ratio(True)
    with pytest.raises(StructuralError):
        ratio("nonsense")
    # only "p" and "p/q": an exponent can spell a huge integer in a few bytes
    for text in ("1e4000000", "1.5", "1_000", " 1", "1/0", "3/-4"):
        with pytest.raises(StructuralError):
            ratio(text)


def test_ratio_str_canonical():
    assert ratio_str(Fraction(6, 4)) == "3/2"
    assert ratio_str(5) == "5"
    assert ratio_str(Fraction(-8, 2)) == "-4"


@given(st.integers(-10**6, 10**6), st.integers(1, 10**4))
def test_ratio_roundtrips_through_strings(num, den):
    value = Fraction(num, den)
    assert ratio(ratio_str(value)) == value


# ---------------------------------------------------------------------------
# builtins and validation


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_builtin_satisfies_all_axioms(name):
    alg = builtin(name)
    report = validate_algebra(alg)
    assert report.ok, report.summary()


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_regular_module_is_poisson_module(name):
    alg = builtin(name)
    mod = regular_module(alg)
    assert mod.flavor == "poisson"
    report = validate_module(alg, mod)
    assert report.ok, report.summary()


def test_builtin_cache_returns_same_object():
    assert builtin("ut2") is builtin("ut2")


def test_equal_specs_hash_equal():
    """Specs hash by their fields: equal specs built separately compare and
    hash equal, also with non-integral structure constants."""
    diag = [[Fraction(3, 2) if r == c else 0 for c in range(4)] for r in range(4)]
    diag[2][2] = Fraction(-2, 3)
    alg, again = transport(builtin("m2"), diag), transport(builtin("m2"), diag)
    mod, mod_again = regular_module(alg), regular_module(again)
    assert alg is not again and alg == again and hash(alg) == hash(again)
    assert mod is not mod_again and mod == mod_again and hash(mod) == hash(mod_again)
    assert any(isinstance(v, Fraction) and v.denominator > 1
               for row in alg.mult for vec in row for v in vec)


def test_unknown_builtin_lists_names():
    with pytest.raises(StructuralError, match="ut2"):
        builtin("no-such-algebra")


def test_broken_associativity_is_caught():
    alg = builtin("ut2")
    mult = [list(map(list, row)) for row in alg.mult]
    mult[1][1][0] += 1  # e12*e12 should be 0
    bad = AlgebraSpec.build(alg.dim, mult, alg.unit, alg.bracket)
    report = validate_algebra(bad)
    assert not report.ok
    assert report.by_axiom("associativity")


def test_broken_jacobi_is_caught():
    alg = builtin("sl2std")
    bracket = [list(map(list, row)) for row in alg.bracket]
    bracket[1][2][1] += 1  # {e,f} = h + e breaks the cyclic identity
    bracket[2][1][1] -= 1  # keep antisymmetry so jacobi/leibniz get blamed
    bad = AlgebraSpec.build(alg.dim, alg.mult, alg.unit, bracket)
    report = validate_algebra(bad)
    assert not report.ok
    assert {"jacobi", "leibniz"} & {v.axiom for v in report.violations}


def test_leibniz_violation_reports_indices():
    alg = builtin("nil3")
    bracket = [list(map(list, row)) for row in alg.bracket]
    bracket[0][1][1] += 1
    bracket[1][0][1] -= 1
    bad = AlgebraSpec.build(alg.dim, alg.mult, alg.unit, bracket)
    report = validate_algebra(bad)
    assert not report.ok
    for violation in report.violations:
        assert len(violation.indices) == 3
        assert any(violation.residual)


small_scalars = st.sampled_from((0, 0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)))


@st.composite
def small_algebras(draw):
    """Dim-1..3 presentations: a builtin, or random tables with small
    rational entries (valid or not) and the first basis vector as unit."""
    if draw(st.booleans()):
        return builtin(draw(st.sampled_from(("ut2", "trivial2", "kxk", "nil3"))))
    d = draw(st.integers(1, 3))

    def table():
        return [[[draw(small_scalars) for _ in range(d)] for _ in range(d)]
                for _ in range(d)]

    unit = [1] + [0] * (d - 1)
    return AlgebraSpec.build(d, table(), unit, table())


@settings(max_examples=150, deadline=None)
@given(small_algebras())
def test_validation_matches_the_direct_axiom_expansion(alg):
    """The associativity, Jacobi and Leibniz violations, in report order,
    are the nonzero order-0 residuals of the naive per-triple oracles."""
    expected = []
    for a, b, c in itertools.product(range(alg.dim), repeat=3):
        for axiom, residual in (
            ("associativity", oracles.associativity_residual([alg.mult], 0, a, b, c)),
            ("jacobi", oracles.jacobi_residual([alg.bracket], 0, a, b, c)),
            ("leibniz", oracles.leibniz_residual([alg.mult], [alg.bracket], 0, a, b, c)),
        ):
            if any(residual):
                expected.append((axiom, (a, b, c), tuple(residual)))
    got = [(v.axiom, v.indices, v.residual) for v in validate_algebra(alg).violations
           if v.axiom in ("associativity", "jacobi", "leibniz")]
    assert got == expected


def test_validation_memory_does_not_grow_with_the_triples():
    """Validating k^20 (20 orthogonal idempotents, zero bracket) holds only
    its nonzero residual cells, none here, never a table over all d^3."""
    d = 20
    idempotent = [tuple(int(k == i) for k in range(d)) for i in range(d)]
    alg = trivial_bracket([[idempotent[i] if i == j else (0,) * d for j in range(d)]
                           for i in range(d)], unit=(1,) * d)
    tracemalloc.start()
    try:
        assert validate_algebra(alg).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_module_validation_memory_does_not_grow_with_the_extension():
    """The regular module of k^30 validates from the sparse pairs of the
    square-zero extension, with its triples streamed: no dense table of
    (d + m)-vectors over all (d + m)^2 cells, and no list of the 3 d^2 m
    triples."""
    d = 30
    idempotent = [tuple(int(k == i) for k in range(d)) for i in range(d)]
    alg = trivial_bracket([[idempotent[i] if i == j else (0,) * d for j in range(d)]
                           for i in range(d)], unit=(1,) * d)
    mod = regular_module(alg)
    tracemalloc.start()
    try:
        assert validate_module(alg, mod).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_standard_poisson_from_commutator():
    alg = builtin("m2")
    again = standard_poisson(alg.mult, alg.unit, basis=alg.basis)
    assert again.bracket == alg.bracket


def test_standard_poisson_rejects_nonassociative_input():
    mult = [[[0, 0], [1, 0]], [[0, 0], [0, 1]]]  # garbage product
    with pytest.raises(AxiomError):
        standard_poisson(mult, (1, 0))


def test_trivial_bracket_builder():
    alg = builtin("trivial2")
    rebuilt = trivial_bracket(alg.mult, alg.unit)
    assert rebuilt.has_zero_bracket
    assert validate_algebra(rebuilt).ok


def test_flag_properties():
    assert builtin("kxk").is_commutative
    assert builtin("kxk").has_zero_bracket
    assert not builtin("m2").is_commutative
    assert not builtin("nil3").has_zero_bracket
    assert builtin("nil3").is_commutative


def test_product_and_bracket_are_bilinear():
    alg = builtin("m2")
    u = (1, Fraction(1, 2), 0, -3)
    v = (0, 2, Fraction(2, 3), 1)
    w = tuple(Fraction(3) * x for x in u)
    lhs = alg.product(w, v)
    rhs = tuple(3 * x for x in alg.product(u, v))
    assert lhs == rhs
    lhs = alg.bracket_of(w, v)
    rhs = tuple(3 * x for x in alg.bracket_of(u, v))
    assert lhs == rhs


# ---------------------------------------------------------------------------
# module validation flavors


def test_quasi_flavor_skips_full_leibniz():
    # the regular module of any builtin passes as quasi too
    alg = builtin("ut2")
    mod = regular_module(alg)
    quasi = type(mod)(dim=mod.dim, algebra_dim=mod.algebra_dim, left=mod.left,
                      right=mod.right, lie=mod.lie, flavor="quasi")
    report = validate_module(alg, quasi)
    assert report.ok
    assert "poisson-leibniz" not in report.checked


def test_module_with_broken_lie_action():
    alg = builtin("sl2std")
    mod = regular_module(alg)
    lie = [list(map(list, row)) for row in mod.lie]
    lie[1][2][0] += 1
    bad = type(mod)(dim=mod.dim, algebra_dim=mod.algebra_dim, left=mod.left,
                    right=mod.right, lie=tuple(
                        tuple(tuple(v) for v in row) for row in lie),
                    flavor="poisson")
    report = validate_module(alg, bad)
    assert not report.ok


def _module_cases(alg, seed):
    """The regular module of ``alg`` unchanged and with seeded corruptions,
    then random modules of dims 1-3, each in both flavors."""
    rng = random.Random(seed)
    values = (1, -1, 2, Fraction(1, 2), Fraction(-3, 2))
    reg = regular_module(alg)
    tables = [[[[list(vec) for vec in row] for row in t] for t in (reg.left, reg.right, reg.lie)]]
    for _ in range(4):
        corrupt = copy.deepcopy(tables[0])
        for _ in range(rng.randint(1, 3)):
            t = rng.choice(corrupt)
            t[rng.randrange(alg.dim)][rng.randrange(alg.dim)][rng.randrange(alg.dim)] \
                += rng.choice(values)
        tables.append(corrupt)
    for m in (1, 2, 3):
        tables.append([[[[rng.choice(values) if rng.random() < 0.3 else 0 for _ in range(m)]
                         for _ in range(m)] for _ in range(alg.dim)] for _ in range(3)])
    for left, right, lie in tables:
        for flavor in ("poisson", "quasi"):
            yield ModuleSpec.build(len(left[0]), alg.dim, left, right, lie, flavor)


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_module_validation_matches_the_direct_axiom_expansion(name):
    """Every field of the module report, violation by violation and in
    order, equals the axioms written out from their definitions."""
    alg = builtin(name)
    failing = 0
    for mod in _module_cases(alg, seed=sorted(BUILTINS).index(name)):
        report = validate_module(alg, mod)
        checked, expected = oracles.module_axiom_residuals(
            alg.mult, alg.bracket, alg.unit, mod.left, mod.right, mod.lie, mod.flavor)
        assert report.checked == checked
        assert report.ok == (not expected)
        assert [(v.axiom, v.indices, v.residual) for v in report.violations] == expected
        failing += not report.ok
    assert failing == 14  # all but the two unchanged regular modules


# ---------------------------------------------------------------------------
# serialization


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_algebra_json_roundtrip(name):
    alg = builtin(name)
    again = algebra_from_dict(algebra_to_dict(alg))
    assert again == alg


def test_module_json_roundtrip():
    alg = builtin("nil3")
    mod = regular_module(alg)
    again = module_from_dict(module_to_dict(mod), alg.dim)
    assert again == mod


def test_algebra_dict_rejects_bad_entries():
    data = algebra_to_dict(builtin("trivial2"))
    data["mult"] = [[0, 0, 5, "1"]]  # index out of range
    with pytest.raises(StructuralError):
        algebra_from_dict(data)
    data["mult"] = [[True, 0, 0, "1"]]  # JSON true is not the index 1
    with pytest.raises(StructuralError, match="integers"):
        algebra_from_dict(data)


def test_algebra_dict_rejects_malformed_shapes():
    good = algebra_to_dict(builtin("trivial2"))
    for key, bad in [("unit", 0), ("unit", "10"), ("mult", 5),
                     ("bracket", "x"), ("basis", ["1"]), ("basis", 7),
                     ("dim", True), ("basis", [[1], [2]])]:
        data = dict(good, **{key: bad})
        with pytest.raises(StructuralError, match=key):
            algebra_from_dict(data)


def test_module_dict_rejects_malformed_shapes():
    alg = builtin("trivial2")
    good = module_to_dict(regular_module(alg))
    with pytest.raises(StructuralError, match="left"):
        module_from_dict(dict(good, left=3), alg.dim)
    with pytest.raises(StructuralError, match="integers"):
        module_from_dict(dict(good, lie=[["a", 0, 0, "1"]]), alg.dim)
    with pytest.raises(StructuralError, match="integers"):  # JSON true is not 1
        module_from_dict(dict(good, left=good["left"] + [[True, 0, 0, "1"]]), alg.dim)
    with pytest.raises(StructuralError, match="dim"):
        module_from_dict(dict(good, dim=True), alg.dim)
    with pytest.raises(StructuralError, match="exceeds"):
        module_from_dict(dict(good, dim=10**18), alg.dim)


def test_algebra_dict_values_are_strings():
    data = algebra_to_dict(builtin("m2"))
    for entry in data["mult"] + data["bracket"]:
        assert isinstance(entry[3], str)


# ---------------------------------------------------------------------------
# properties


@st.composite
def unimodular_matrices(draw, n):
    """Products of elementary integer matrices: always invertible."""
    mat = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(1, 6))):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 1))
        if i == j:
            continue
        c = Fraction(draw(st.integers(-3, 3)))
        for k in range(n):
            mat[i][k] += c * mat[j][k]
    return mat


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_change_of_basis_preserves_axioms(data):
    name = data.draw(st.sampled_from(["ut2", "trivial2", "nil3"]))
    alg = builtin(name)
    mat = data.draw(unimodular_matrices(alg.dim))
    moved = transport(alg, mat)
    assert validate_algebra(moved).ok


# ---------------------------------------------------------------------------
# file readers under arbitrary JSON

JSON_SCALARS = st.booleans() | st.none() | st.integers() | st.floats() | st.text(max_size=4)
JSON_VALUES = st.one_of(JSON_SCALARS, st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=6))


def _has_bool(value) -> bool:
    if isinstance(value, bool):
        return True
    if isinstance(value, (list, dict)):
        items = value.values() if isinstance(value, dict) else value
        return any(_has_bool(v) for v in items)
    return False


@st.composite
def mutated(draw, valid: dict):
    """A copy of a valid file object with one field replaced or removed, one
    entry of one of its lists replaced, or one slot of such an entry
    replaced by an arbitrary JSON value; or that value instead of the object."""
    data = copy.deepcopy(valid)
    holder = data
    key = draw(st.sampled_from(sorted(holder)))
    while isinstance(holder[key], dict) and draw(st.booleans()):
        holder = holder[key]  # into a nested object (the algebra of a series)
        key = draw(st.sampled_from(sorted(holder)))
    value = draw(JSON_VALUES)
    kind = draw(st.sampled_from(["field", "remove", "entry", "slot", "document"]))
    target = holder[key]
    if kind == "document":
        return value
    if kind == "remove":
        del holder[key]
    elif kind == "field" or not isinstance(target, list) or not target:
        holder[key] = value
    else:
        i = draw(st.integers(0, len(target) - 1))
        entry = target[i]
        if kind == "entry" or not isinstance(entry, list) or not entry:
            target[i] = value
        else:
            if entry and isinstance(entry[0], list):  # a list of tables
                entry = entry[draw(st.integers(0, len(entry) - 1))]
            entry[draw(st.integers(0, len(entry) - 1))] = value
    return data


READERS = {
    "algebra": (algebra_to_dict(builtin("nil3")), algebra_from_dict),
    # the ground field, with default basis names: the smallest algebra file
    "field": ({"dim": 1, "unit": ["1"], "mult": [[0, 0, 0, "1"]], "bracket": []},
              algebra_from_dict),
    "module": (module_to_dict(regular_module(builtin("trivial2"))),
               lambda data: module_from_dict(data, 2)),
    "series": (series_to_file_dict(m2_table3_series(1, repaired=True).truncated(2)),
               series_from_file_dict),
}


@pytest.mark.parametrize("name", sorted(READERS))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_file_readers_accept_only_well_typed_json(name, data):
    """Whatever JSON a file holds, a reader either raises StructuralError or
    returns a spec; and it never accepts JSON true/false, which no field of
    these formats can hold (a bool is not the index 1 or the dimension 1)."""
    valid, reader = READERS[name]
    doc = data.draw(mutated(valid))
    try:
        reader(doc)
    except StructuralError:
        return
    assert not _has_bool(doc), doc
