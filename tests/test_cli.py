"""Command-line surface: verb coverage, exit codes, stream separation,
file-format roundtrips through the CLI, and byte-level determinism."""

import hashlib
import json
import subprocess
import sys
import time
from dataclasses import replace

import pytest

from poiscoh.algebra import (
    AlgebraSpec,
    algebra_to_dict,
    builtin,
    load_module,
    module_to_dict,
    regular_module,
    trivial_bracket,
    validate_module,
)
from poiscoh import cli, complexes
from poiscoh.cli import MAX_SPACE_DIM, _check_size, main
from poiscoh.complexes import differential
from poiscoh.deformation import (
    m2_table3_series,
    series_from_file_dict,
    series_to_file_dict,
    verify_deformation,
)

from test_deformation import _character_module


def run(capsys, *argv):
    """In-process invocation; returns (exit code, stdout, stderr)."""
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def spawn(*argv, env=None):
    """Subprocess invocation for stream- and byte-level checks."""
    return subprocess.run([sys.executable, "-m", "poiscoh.cli", *argv],
                          capture_output=True, env=env)


# ---------------------------------------------------------------------------
# examples / validate


def test_examples_lists_every_builtin(capsys):
    code, payload, err = run_json(capsys, "examples")
    assert code == 0
    assert err == ""
    names = [row["name"] for row in payload]
    assert names == sorted(["ut2", "m2", "trivial2", "sl2std", "kxk", "nil3"])
    by_name = {row["name"]: row for row in payload}
    assert by_name["m2"]["dim"] == 4
    assert "(1, e, f, h)" in by_name["m2"]["description"]
    assert by_name["trivial2"]["zero_bracket"]
    assert by_name["nil3"]["commutative"] and not by_name["nil3"]["zero_bracket"]
    assert not by_name["ut2"]["commutative"]


def test_examples_table_rendering(capsys):
    code, out, _ = run(capsys, "examples", "--table")
    assert code == 0
    assert out.splitlines()[0].startswith("name")
    assert any(line.startswith("m2") and "4" in line for line in out.splitlines())


def test_validate_builtin_passes(capsys):
    code, payload, _ = run_json(capsys, "validate", "--algebra", "builtin:sl2std")
    assert code == 0
    assert payload["algebra"]["ok"]
    assert payload["algebra"]["violations"] == []
    assert "jacobi" in payload["algebra"]["checked"]


def test_validate_with_module(capsys):
    code, payload, _ = run_json(capsys, "validate", "--algebra", "builtin:ut2",
                                "--module", "regular")
    assert code == 0
    assert payload["module"]["ok"]


def test_validate_reports_axiom_violations(capsys, tmp_path):
    # Loadable file whose bracket {1, x} = x breaks the Leibniz rule.
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "dim": 2,
        "unit": ["1", "0"],
        "mult": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"]],
        "bracket": [[0, 1, 1, "1"], [1, 0, 1, "-1"]],
    }))
    code, payload, _ = run_json(capsys, "validate", "--algebra", f"file:{bad}")
    assert code == 1
    assert not payload["algebra"]["ok"]
    axioms = {v["axiom"] for v in payload["algebra"]["violations"]}
    assert "leibniz" in axioms


def test_validate_table_rendering_marks_failures(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "dim": 2,
        "unit": ["1", "0"],
        "mult": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"]],
        "bracket": [[0, 1, 1, "1"], [1, 0, 1, "-1"]],
    }))
    code, out, _ = run(capsys, "validate", "--algebra", f"file:{bad}", "--table")
    assert code == 1
    assert "FAILED" in out and "leibniz" in out


# ---------------------------------------------------------------------------
# cohomology / lp


def test_cohomology_reproduces_the_flag_variety_dims(capsys):
    code, payload, _ = run_json(capsys, "cohomology", "--algebra", "builtin:ut2",
                                "--theory", "hp", "--max-degree", "5")
    assert code == 0
    assert payload["dims"] == [1, 0, 1, 5, 3, 0]
    assert payload["theory"] == "poisson"


@pytest.mark.parametrize("alias,canonical", [
    ("hp", "poisson"), ("hh", "hochschild"), ("hl", "ce"), ("lie", "ce"),
])
def test_theory_aliases_are_transparent(capsys, alias, canonical):
    code_a, alias_payload, _ = run_json(
        capsys, "cohomology", "--algebra", "builtin:trivial2",
        "--theory", alias, "--max-degree", "2")
    code_c, canon_payload, _ = run_json(
        capsys, "cohomology", "--algebra", "builtin:trivial2",
        "--theory", canonical, "--max-degree", "2")
    assert code_a == code_c == 0
    assert alias_payload == canon_payload
    assert alias_payload["theory"] == canonical


def test_cohomology_representatives_and_matrix_dump(capsys):
    code, payload, _ = run_json(
        capsys, "cohomology", "--algebra", "builtin:trivial2",
        "--max-degree", "2", "--representatives", "--dump-matrices")
    assert code == 0
    reps = payload["representatives"]
    assert [len(reps[str(n)]) for n in range(3)] == payload["dims"]
    # d0, d1, d2 in the text dump format: "nrows ncols nnz" header lines.
    for n in range(3):
        header = payload["matrices"][f"d{n}"].splitlines()[0]
        assert len(header.split()) == 3
    mat = differential(builtin("trivial2"), regular_module(builtin("trivial2")), "poisson", 1)
    assert payload["matrices"]["d1"] == mat.dump_text()


def test_cohomology_table_rendering(capsys):
    code, out, _ = run(capsys, "cohomology", "--algebra", "builtin:kxk",
                       "--max-degree", "2", "--table")
    assert code == 0
    assert out.splitlines()[0].startswith("theory: poisson")
    assert "degree" in out.splitlines()[1]


def test_lp_verb(capsys):
    code, payload, _ = run_json(capsys, "lp", "--algebra", "builtin:nil3",
                                "--max-degree", "3")
    assert code == 0
    assert payload["theory"] == "lp"
    assert payload["dims"] == [1, 0, 0, 0]


def test_lp_rejects_noncommutative_algebras(capsys):
    code, out, err = run(capsys, "lp", "--algebra", "builtin:ut2")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


# ---------------------------------------------------------------------------
# deformation verbs


def test_deform_check_flags_the_tabulated_family(capsys):
    code, payload, _ = run_json(capsys, "deform-check",
                                "--series", "table3:1", "--order", "3")
    assert code == 1
    assert not payload["ok"]
    first = payload["failures"][0]
    assert first["axiom"] == "associativity" and first["order"] == 1
    assert first["count"] == 11


def test_deform_check_passes_the_repaired_family(capsys):
    code, payload, _ = run_json(capsys, "deform-check",
                                "--series", "table3-repaired:1", "--order", "4")
    assert code == 0
    assert payload["ok"] and payload["unital"]
    assert payload["failures"] == []


def test_series_dump_roundtrips_through_deform_check(capsys, tmp_path):
    path = tmp_path / "series.json"
    code, _, _ = run(capsys, "dump", "--what", "series",
                     "--series", "table3-repaired:2", "--output", str(path))
    assert code == 0
    reloaded = series_from_file_dict(json.loads(path.read_text()))
    assert reloaded == m2_table3_series(2, repaired=True)
    code, payload, _ = run_json(capsys, "deform-check",
                                "--series", f"file:{path}", "--order", "5")
    assert code == 0 and payload["ok"]


def test_deform_lift_extends_an_order_one_start(capsys, tmp_path):
    start = m2_table3_series(1, repaired=True).truncated(1)
    path = tmp_path / "start.json"
    path.write_text(json.dumps(series_to_file_dict(start)))
    code, payload, _ = run_json(capsys, "deform-lift", "--series", f"file:{path}",
                                "--target-order", "3")
    assert code == 0
    assert payload["status"] == "lifted"
    assert payload["reached_order"] == 3 and payload["obstructed_at"] is None
    lifted = series_from_file_dict(payload["series"])
    assert verify_deformation(lifted).ok


def test_obstruction_verb_reports_closure(capsys, tmp_path):
    start = m2_table3_series(1, repaired=True).truncated(1)
    path = tmp_path / "start.json"
    path.write_text(json.dumps(series_to_file_dict(start)))
    code, payload, _ = run_json(capsys, "obstruction", "--series", f"file:{path}")
    assert code == 0
    assert payload["order"] == 2
    assert payload["closed"] is True
    # Nonzero associativity right-hand side, sparse [i, j, k, p, value] rows.
    assert payload["associativity_rhs"]
    assert all(len(entry) == 5 for entry in payload["associativity_rhs"])


def test_extend_builds_the_trivial_extension(capsys):
    code, payload, _ = run_json(capsys, "extend", "--algebra", "builtin:nil3",
                                "--module", "regular")
    assert code == 0
    assert payload["dim"] == 6
    assert payload["validation"]["ok"]


def test_extend_accepts_a_sparse_cocycle_file(capsys, tmp_path):
    cocycle = tmp_path / "cocycle.json"
    cocycle.write_text(json.dumps({"f1": [[1, 1, 0, "1"]]}))
    code, payload, _ = run_json(capsys, "extend", "--algebra", "builtin:trivial2",
                                "--module", "regular",
                                "--cocycle", f"file:{cocycle}")
    assert code == 0
    assert payload["dim"] == 4
    assert payload["basis"] == ["1", "x", "u0", "u1"]
    assert payload["validation"]["ok"]


def test_extend_rejects_malformed_cocycle_entries(capsys, tmp_path):
    cocycle = tmp_path / "cocycle.json"
    for content, message in (({"f1": [[9, 0, 0, "1"]]}, "out of range"),
                             ({"f1": [["x", 0, 0, "1"]]}, "indices must be integers"),
                             ({"f0": [[1.5, 0, 0, "1"]]}, "indices must be integers"),
                             ([[0, 0, 0, "1"]], "must contain a JSON object"),
                             # a mistyped key is not the zero cocycle
                             ({"F1": [[0, 0, 0, "1"]]}, "unknown key 'F1'")):
        cocycle.write_text(json.dumps(content))
        code, out, err = run(capsys, "extend", "--algebra", "builtin:trivial2",
                             "--module", "regular", "--cocycle", f"file:{cocycle}")
        assert code == 1 and out == ""
        assert err.startswith("error:") and message in err


def test_quantize_check_verdicts(capsys):
    code, payload, _ = run_json(capsys, "quantize-check",
                                "--algebra", "builtin:nil3", "--max-order", "3")
    assert code == 0
    assert payload["ok"] and payload["orders_solved"] == [2, 3]
    code, _, err = run(capsys, "quantize-check", "--algebra", "builtin:m2")
    assert code == 1 and "error:" in err


# ---------------------------------------------------------------------------
# dump roundtrips


def test_dump_algebra_roundtrips_through_validate(capsys, tmp_path):
    path = tmp_path / "alg.json"
    code, _, _ = run(capsys, "dump", "--what", "algebra",
                     "--algebra", "builtin:sl2std", "--output", str(path))
    assert code == 0
    assert json.loads(path.read_text()) == algebra_to_dict(builtin("sl2std"))
    code, payload, _ = run_json(capsys, "validate", "--algebra", f"file:{path}")
    assert code == 0 and payload["algebra"]["ok"]


def test_dump_module_roundtrips_through_validate(capsys, tmp_path):
    path = tmp_path / "mod.json"
    code, _, _ = run(capsys, "dump", "--what", "module",
                     "--algebra", "builtin:ut2", "--output", str(path))
    assert code == 0
    assert json.loads(path.read_text()) == module_to_dict(regular_module(builtin("ut2")))
    code, payload, _ = run_json(capsys, "validate", "--algebra", "builtin:ut2",
                                "--module", f"file:{path}")
    assert code == 0 and payload["module"]["ok"]


def test_dump_differential_matches_the_library_matrix(capsys):
    code, payload, _ = run_json(capsys, "dump", "--what", "differential",
                                "--algebra", "builtin:trivial2",
                                "--theory", "quasi", "--degree", "1")
    assert code == 0
    mat = differential(builtin("trivial2"), regular_module(builtin("trivial2")), "quasi", 1)
    assert (payload["nrows"], payload["ncols"]) == (mat.nrows, mat.ncols)
    assert payload["source_blocks"] == [[0, 1], [1, 0]]
    assert len(payload["entries"]) == mat.nnz
    assert payload["entries"] == [[r, c, str(v)] for r, c, v in mat.triples()]


def test_dump_differential_table_is_the_text_format(capsys):
    code, out, _ = run(capsys, "dump", "--what", "differential",
                       "--algebra", "builtin:kxk", "--degree", "0", "--table")
    assert code == 0
    mat = differential(builtin("kxk"), regular_module(builtin("kxk")), "poisson", 0)
    assert out == mat.dump_text()


def test_dump_series_requires_a_series_source():
    proc = spawn("dump", "--what", "series")
    assert proc.returncode == 2 and proc.stdout == b""
    assert b"needs --series" in proc.stderr


# ---------------------------------------------------------------------------
# exit codes, streams, environment


def test_one_parser_serves_every_call(capsys):
    """main builds its parser once per process; a usage error on it leaves
    the next call's output, exit code and streams as a first call's."""
    assert cli.build_parser() is cli.build_parser()
    first = run(capsys, "dump", "--what", "algebra", "--algebra", "builtin:ut2")
    for argv, message in ((["dump", "--what", "series"], "needs --series"),
                          (["cohomology", "--algebra", "builtin:ut2", "--max-degree", "-1"],
                           "--max-degree")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == 2 and "usage: poiscoh" in err and message in err
    assert run(capsys, "dump", "--what", "algebra", "--algebra", "builtin:ut2") == first
    assert cli.build_parser.cache_info().currsize == 1


def test_usage_errors_exit_2():
    for argv in (
        [],                                         # verb required
        ["no-such-verb"],
        ["cohomology"],                             # --algebra required
        ["cohomology", "--algebra", "ut2"],         # missing builtin:/file: prefix
        ["examples", "--json", "--table"],          # mutually exclusive
        ["dump", "--what", "differential"],         # needs --algebra
        ["cohomology", "--algebra", "regular"],     # 'regular' names a module only
        ["deform-check", "--series", "table3xyz"],  # not a table3 name
        # each source option has one grammar, checked before anything is read
        ["validate", "--algebra", "builtin:m2", "--module", "builtin:x"],
        ["cohomology", "--algebra", "builtin:m2", "--module", "builtin:x"],
        ["extend", "--algebra", "builtin:trivial2", "--module", "builtin:x"],
        ["dump", "--what", "module", "--algebra", "builtin:m2", "--module", "builtin:x"],
        ["extend", "--algebra", "builtin:trivial2", "--cocycle", "builtin:x"],
        ["extend", "--algebra", "builtin:trivial2", "--cocycle", "cocycle.json"],
        ["deform-check", "--series", "table3:abc"],
        ["deform-check", "--series", "table3:1/0"],
        ["deform-check", "--series", "table3:", "--order", "3"],  # empty parameter
        ["deform-lift", "--series", "table3-repaired:", "--target-order", "3"],
        ["dump", "--what", "series"],               # needs --series
        # counts are nonnegative
        ["cohomology", "--algebra", "builtin:ut2", "--max-degree", "-1"],
        ["lp", "--algebra", "builtin:nil3", "--max-degree", "-1"],
        ["deform-check", "--series", "table3:1", "--order", "-2"],
        ["deform-lift", "--series", "table3-repaired:1", "--target-order", "-1"],
        ["obstruction", "--series", "table3-repaired:1", "--order", "-1"],
        ["quantize-check", "--algebra", "builtin:sl2std", "--max-order", "-3"],
        ["dump", "--what", "differential", "--algebra", "builtin:m2", "--degree", "-1"],
    ):
        proc = spawn(*argv)
        assert proc.returncode == 2, argv
        assert proc.stdout == b""
        assert b"usage" in proc.stderr or b"error" in proc.stderr


def test_domain_errors_exit_1(capsys, tmp_path):
    code, out, err = run(capsys, "cohomology", "--algebra", "builtin:nosuch")
    assert code == 1 and out == "" and "unknown builtin" in err
    code, _, err = run(capsys, "validate", "--algebra", "file:/nonexistent.json")
    assert code == 1 and "cannot read" in err
    # a well-formed source of every other kind that fails to read
    for argv in (["validate", "--algebra", "builtin:m2", "--module", "file:/nonexistent.json"],
                 ["deform-check", "--series", "file:/nonexistent.json"],
                 ["extend", "--algebra", "builtin:trivial2",
                  "--cocycle", "file:/nonexistent.json"]):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == "error: cannot read /nonexistent.json: No such file or directory\n"
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    code, _, err = run(capsys, "validate", "--algebra", f"file:{garbled}")
    assert code == 1 and "not valid JSON" in err
    garbled.write_bytes(b"\xff{}")  # JSON files are UTF-8
    code, _, err = run(capsys, "validate", "--algebra", f"file:{garbled}")
    assert code == 1 and "not valid JSON" in err
    code, _, err = run(capsys, "examples", "--output",
                       str(tmp_path / "no-such-dir" / "out.json"))
    assert code == 1 and "cannot write" in err
    code, out, err = run(capsys, "quantize-check", "--algebra", "builtin:sl2std",
                         "--max-order", "0")  # the semiclassical series has order 1
    assert code == 1 and out == "" and "at least 1" in err
    path = tmp_path / "bad_series.json"
    for bad_entry, message in ((["x", 0, 0, "1"], "indices must be integers"),
                               ([1.5, 0, 0, "1"], "indices must be integers"),
                               (None, "must be a list of entry lists"),
                               (True, "order must be 1")):
        series = series_to_file_dict(m2_table3_series(1).truncated(1))
        if bad_entry is None:
            series["mult_terms"] = 5
        elif bad_entry is True:
            series["order"] = True
        else:
            series["mult_terms"][0].append(bad_entry)
        path.write_text(json.dumps(series))
        code, out, err = run(capsys, "deform-check", "--series", f"file:{path}")
        assert code == 1 and out == ""
        assert err.startswith("error:") and message in err
    module = module_to_dict(regular_module(builtin("kxk")))
    module["left"].append([True, 0, 0, "1"])  # JSON true is not the index 1
    path = tmp_path / "bad_module.json"
    path.write_text(json.dumps(module))
    code, out, err = run(capsys, "validate", "--algebra", "builtin:kxk",
                         "--module", f"file:{path}")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "indices must be integers" in err
    path = tmp_path / "bad_algebra.json"
    for key, bad, message in (("dim", True, "dim must be a positive integer"),
                              ("basis", [[1], [2]], "basis must be a list of 2 names"),
                              ("unit", ["1e4000000", "1"], "cannot parse exact scalar")):
        path.write_text(json.dumps(dict(algebra_to_dict(builtin("kxk")), **{key: bad})))
        code, out, err = run(capsys, "validate", "--algebra", f"file:{path}")
        assert code == 1 and out == ""
        assert err.startswith("error:") and message in err


# Unit, antisymmetry, associativity, Jacobi and Leibniz all fail here.
FAILING_ALGEBRA = {
    "dim": 3, "unit": ["1", "0", "1"],
    "mult": [[0, 0, 0, "1"], [0, 1, 1, "2"], [1, 2, 0, "-3/2"], [2, 2, 2, "1"],
             [1, 1, 2, "1/3"]],
    "bracket": [[1, 2, 0, "1"], [2, 1, 1, "-1"], [0, 1, 2, "5"]],
}
FAILING_ALGEBRA_SHA256 = {
    "--json": "7dc163322a72381328eba7ce8dd9ce2e7b4ca41cbcc9fb53aa1a85fd25cc4b51",
    "--table": "971652200a0faca53c9f6a4a9f245a1df9a674db8ac4ce2a3da5d8010db24351",
}


@pytest.mark.parametrize("fmt", sorted(FAILING_ALGEBRA_SHA256))
def test_validate_report_bytes_are_pinned(capsys, tmp_path, fmt):
    """Violation order, indices and residual text of a failing algebra."""
    path = tmp_path / "failing.json"
    path.write_text(json.dumps(FAILING_ALGEBRA))
    code, out, err = run(capsys, "validate", "--algebra", f"file:{path}", fmt)
    assert code == 1 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == FAILING_ALGEBRA_SHA256[fmt]


# Over ut2 this module trips all nine module labels as poisson, and all
# eight it is checked for as quasi.
FAILING_MODULE = {"dim": 2, "left": [[2, 1, 1, "2"]], "right": [[2, 0, 1, "1/2"]],
                  "lie": [[1, 1, 0, "-3/2"]]}
FAILING_MODULE_SHA256 = {
    ("poisson", "--json"): "9d433c03111cd852cfffad7281e0485a28f6e2a336bda4b6e8077c5ade80c437",
    ("poisson", "--table"): "fdf1b7b660d2ffa082f2a3d8642a70cf987a13df810f3d325d003a49bbb9c2c9",
    ("quasi", "--json"): "ec3225f08f5516bbccbcf47c7574831967d8608bb40971a100b75877a28a8102",
    ("quasi", "--table"): "620d04670c2b6b593b5e63d23e4f9049cc1832a9016316ae65b4f0f25d81c41f",
}


@pytest.mark.parametrize("flavor,fmt", sorted(FAILING_MODULE_SHA256))
def test_validate_module_report_bytes_are_pinned(capsys, tmp_path, flavor, fmt):
    """Violation order, indices and residual text of a failing module."""
    path = tmp_path / "failing.json"
    path.write_text(json.dumps(dict(FAILING_MODULE, flavor=flavor)))
    code, out, err = run(capsys, "validate", "--algebra", "builtin:ut2",
                         "--module", f"file:{path}", fmt)
    assert code == 1 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == FAILING_MODULE_SHA256[flavor, fmt]
    if fmt == "--json":
        labels = {v["axiom"] for v in json.loads(out)["module"]["violations"]}
        assert len(labels) == (9 if flavor == "poisson" else 8)


# the module axioms each verb reads: every one, except for the ce and
# hochschild theories, whose differentials read only part of a module
BIMODULE_AXIOMS = {"assoc-left", "assoc-right", "bimodule-commute"}
MODULE_VERBS = {
    "cohomology-hp": (("cohomology", "--max-degree", "2"), None),
    "cohomology-ce": (("cohomology", "--theory", "ce", "--max-degree", "2"), {"lie-module"}),
    "cohomology-hh": (("cohomology", "--theory", "hh", "--max-degree", "2"), BIMODULE_AXIOMS),
    "extend": (("extend",), None),
    "dump": (("dump", "--what", "differential", "--degree", "1"), None),
}


@pytest.mark.parametrize("name", sorted(MODULE_VERBS))
def test_a_failing_file_module_is_named_before_anything_is_built(capsys, tmp_path, name):
    """The module's violations of the axioms the verb reads are reported,
    not a broken complex or a non-cocycle built from it."""
    path, zero = tmp_path / "failing.json", tmp_path / "zero.json"
    path.write_text(json.dumps(FAILING_MODULE))
    zero.write_text("{}")
    argv, axioms = MODULE_VERBS[name]
    alg = builtin("ut2")
    report = validate_module(alg, load_module(str(path), alg))
    report = replace(report, violations=tuple(v for v in report.violations
                                              if axioms is None or v.axiom in axioms))
    extra = ["--cocycle", f"file:{zero}"] if name == "extend" else []
    code, out, err = run(capsys, *argv, "--algebra", "builtin:ut2",
                         "--module", f"file:{path}", *extra)
    assert code == 1 and out == ""
    assert err == f"error: the module fails its axioms: {report.summary()}\n"
    assert {v.axiom for v in report.violations} == (axioms or set(report.checked))


@pytest.mark.parametrize("name", sorted(MODULE_VERBS))
def test_a_passing_file_module_runs_as_the_regular_one(capsys, tmp_path, name):
    path = tmp_path / "regular.json"
    path.write_text(json.dumps(module_to_dict(regular_module(builtin("ut2")))))
    runs = [run(capsys, *MODULE_VERBS[name][0], "--algebra", "builtin:ut2", "--module", source)
            for source in ("regular", f"file:{path}")]
    assert runs[0] == runs[1] and runs[0][0] == 0


@pytest.mark.parametrize("theory,dropped", [("ce", ("left", "right")), ("hh", ("lie",))])
def test_a_module_needs_only_the_axioms_its_theory_reads(capsys, tmp_path, theory, dropped):
    """The regular module with the actions the theory does not read set to
    zero fails the full validation, yet gives that theory's cohomology of
    the regular module; the poisson theory refuses it."""
    alg = builtin("ut2")
    data = dict(module_to_dict(regular_module(alg)), **{key: [] for key in dropped})
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(data))
    assert not validate_module(alg, load_module(str(path), alg)).ok
    runs = [run(capsys, "cohomology", "--algebra", "builtin:ut2", "--theory", theory,
                "--max-degree", "3", "--module", source)
            for source in ("regular", f"file:{path}")]
    assert runs[0] == runs[1] and runs[0][0] == 0
    code, out, err = run(capsys, "cohomology", "--algebra", "builtin:ut2",
                         "--module", f"file:{path}", "--max-degree", "3")
    assert code == 1 and out == "" and err.startswith("error: the module fails its axioms")


NIL3 = algebra_to_dict(builtin("nil3"))
# nil3 with one bracket entry {1, x} = y too many, and nil3 with x x = y and
# x y = 1, so that (x x) x = 0 but x (x x) = 1
BROKEN_ALGEBRAS = {
    "bracket": dict(NIL3, bracket=NIL3["bracket"] + [[0, 1, 2, "1"]]),
    "product": dict(NIL3, mult=NIL3["mult"] + [[1, 1, 2, "1"], [1, 2, 0, "1"]]),
}
# the violations of the axioms each verb reads, as the error names them
BROKEN_ALGEBRA_ERRORS = {
    ("bracket", "dump"): "antisymmetry x2, jacobi x3, leibniz x1",
    ("bracket", "cohomology"): "antisymmetry x2, jacobi x3, leibniz x1",
    ("bracket", "cohomology --theory ce"): "antisymmetry x2, jacobi x3",
    ("bracket", "lp"): "antisymmetry x2, jacobi x3, leibniz x1",
    ("bracket", "extend"): "antisymmetry x2, jacobi x3, leibniz x1",
    ("bracket", "quantize-check"): "antisymmetry x2, jacobi x3, leibniz x1",
    ("product", "dump"): "associativity x5, leibniz x6",
    ("product", "cohomology"): "associativity x5, leibniz x6",
    ("product", "cohomology --theory hh"): "associativity x5",
    ("product", "lp"): "associativity x5, leibniz x6",
}


@pytest.mark.parametrize("broken,verb", sorted(BROKEN_ALGEBRA_ERRORS))
def test_a_failing_file_algebra_is_named_before_anything_is_built(capsys, tmp_path,
                                                                  broken, verb):
    """The algebra's violations of the axioms the verb reads are reported,
    not a broken complex, a subcomplex that is not closed or a matrix that
    is not a differential."""
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(BROKEN_ALGEBRAS[broken]))
    extra = ("--what", "differential") if verb == "dump" else ()
    code, out, err = run(capsys, *verb.split(), *extra, "--algebra", f"file:{path}")
    assert code == 1 and out == ""
    assert err == ("error: the algebra fails its axioms: violations: "
                   f"{BROKEN_ALGEBRA_ERRORS[broken, verb]}\n")


@pytest.mark.parametrize("broken,theory", [("bracket", "hh"), ("product", "ce")])
def test_an_algebra_needs_only_the_axioms_its_theory_reads(capsys, tmp_path, broken, theory):
    """Each broken algebra keeps the table the theory reads from nil3, so it
    gives nil3's cohomology in that theory."""
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(BROKEN_ALGEBRAS[broken]))
    runs = [run(capsys, "cohomology", "--theory", theory, "--algebra", source)
            for source in ("builtin:nil3", f"file:{path}")]
    assert runs[0] == runs[1] and runs[0][0] == 0


def test_extend_refuses_a_quasi_flavored_module(capsys, tmp_path):
    path = tmp_path / "quasi.json"
    path.write_text(json.dumps(dict(module_to_dict(regular_module(builtin("ut2"))),
                                    flavor="quasi")))
    code, out, err = run(capsys, "extend", "--algebra", "builtin:ut2",
                         "--module", f"file:{path}")
    assert code == 1 and out == ""
    assert err == "error: the extension needs a poisson-flavored module\n"


# stdout of the deformation verbs, which encode and decode degree-2 and
# degree-3 cochains at every order they lift or report.
DEFORMATION_VERB_SHA256 = {
    "lift-s1": ("deform-lift --series table3-repaired:1 --target-order 8",
                "d176618aedb5aae7075041f4addbab362ab2d8dd0b86aff14890f5cd99d75b28"),
    "lift-s1_2": ("deform-lift --series table3-repaired:1/2 --target-order 8",
                  "56bb39388c627db2e947db791b321c0fbf00c8af756950e055789af0638702ef"),
    "obstruction-s2": ("obstruction --series table3-repaired:2",
                       "f5559aba2db65711be385644280d9503276ec949611f01daf1442ce327d7c35a"),
    "quantize-sl2std": ("quantize-check --algebra builtin:sl2std --max-order 6",
                        "42c608b8523429e3fbf05f84a314bbcc0e47f65b86abbe0b5fd404d063d56637"),
}


@pytest.mark.parametrize("case", sorted(DEFORMATION_VERB_SHA256))
def test_deformation_verb_bytes_are_pinned(capsys, case):
    argv, digest = DEFORMATION_VERB_SHA256[case]
    code, out, err = run(capsys, *argv.split())
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# stdout of the dims-only cohomology runs, which take the weight-zero route
# (digests captured on the direct elimination route).
COHOMOLOGY_SHA256 = {
    "m2-hp4": ("cohomology --algebra builtin:m2 --theory hp --max-degree 4",
               "2c113ccbacf0c805a029b7fb6b9e74b97fc0596d89541aed96f18fcc70b0729f"),
    "sl2std-hp4": ("cohomology --algebra builtin:sl2std --theory hp --max-degree 4",
                   "f4c48564cddec1e5c85d00c843c9d7d33500ecb1c3d6bcaf50d294ea046c62d2"),
    "m2-omega2": ("cohomology --algebra builtin:m2 --theory omega --max-degree 2",
                  "f0ac1b4dbfffa58284c93d3886344c4676ef5704215a7d92a07795362517e76f"),
    # representatives as picked by eliminating every row of each differential
    "ut2-hp5-reps": ("cohomology --algebra builtin:ut2 --theory hp --max-degree 5 "
                     "--representatives",
                     "44d010fc4bd6c53383f7422d1e48e63c03540c649bde2be677b0726ce70833a7"),
    "sl2std-hp4-reps": ("cohomology --algebra builtin:sl2std --theory hp --max-degree 4 "
                        "--representatives",
                        "2630173425aa37ed4b2034784128fe67dc7ae791fb64df4056d9db0585172ae0"),
    "m2-hp4-reps": ("cohomology --algebra builtin:m2 --theory hp --max-degree 4 "
                    "--representatives",
                    "4d33e1564905674b383052a057a3948e7206aaaf5fb7ade1a448e6fc760435f5"),
    # representatives where no weight element exists (hochschild), on the
    # omega and quasi layouts, and over a character module read from a file
    # (digests captured while a reducer over the image columns picked them)
    "m2-hh3-reps": ("cohomology --algebra builtin:m2 --theory hh --max-degree 3 "
                    "--representatives",
                    "f793e430be908271a8ac1aa02314e146b658822e3a49f8c025e3c73fa41da9cc"),
    "m2-omega2-reps": ("cohomology --algebra builtin:m2 --theory omega --max-degree 2 "
                       "--representatives",
                       "8de9c0b26e4a25f48f487b85e062c43c36f598210f450340335910cecd5b4704"),
    "nil3-quasi3-reps": ("cohomology --algebra builtin:nil3 --theory quasi --max-degree 3 "
                         "--representatives",
                         "ec645de90d9fda1b337fc16ac23ce80d77e5b2ef66003dde98f75cd886d57b52"),
    "ut2-character-hp5-reps": ("cohomology --algebra builtin:ut2 --module file:{character} "
                               "--theory hp --max-degree 5 --representatives",
                               "b631424fb19b069bdc196ad7872e92021c79d423b50b77998e12ef25d357be7b"),
}


@pytest.mark.parametrize("case", sorted(COHOMOLOGY_SHA256))
def test_cohomology_bytes_are_pinned(capsys, tmp_path, case):
    argv, digest = COHOMOLOGY_SHA256[case]
    character = tmp_path / "character.json"
    character.write_text(json.dumps(module_to_dict(_character_module("ut2"))))
    code, out, err = run(capsys, *argv.format(character=character).split())
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_package_runs_as_a_module():
    """``python -m poiscoh`` is the same program as ``python -m poiscoh.cli``."""
    package = subprocess.run([sys.executable, "-m", "poiscoh", "examples"],
                             capture_output=True)
    cli = spawn("examples")
    assert package.returncode == cli.returncode == 0
    assert package.stdout == cli.stdout and package.stdout


def test_version_flag():
    proc = spawn("--version")
    assert proc.returncode == 0
    assert proc.stdout.startswith(b"poiscoh ")


@pytest.mark.parametrize("argv,size", (
    (("cohomology", "--algebra", "builtin:m2", "--max-degree", "9"), 2560000),
    (("cohomology", "--algebra", "builtin:m2", "--theory", "omega",
      "--max-degree", "6"), 2560000),
    (("dump", "--what", "differential", "--algebra", "builtin:m2",
      "--theory", "hh", "--degree", "9"), 1048576),
    # k^60 is sized before it is validated, which alone takes seconds
    (("cohomology", "--algebra", "file:{k60}", "--max-degree", "4"), 27973200),
))
def test_oversized_cochain_space_is_refused_before_building(capsys, tmp_path, argv, size):
    if "file:{k60}" in argv:  # 60 orthogonal idempotents, zero bracket, not validated
        d, path = 60, tmp_path / "k60.json"
        idempotent = [tuple(int(k == i) for k in range(d)) for i in range(d)]
        path.write_text(json.dumps(algebra_to_dict(AlgebraSpec.build(
            d, [[idempotent[i] if i == j else (0,) * d for j in range(d)] for i in range(d)],
            (1,) * d, [[(0,) * d] * d] * d))))
        argv = tuple(arg.format(k60=path) for arg in argv)
    blocks = (complexes.delta_H, complexes.delta_V, complexes.delta_v)
    before = [block.cache_info().currsize for block in blocks]
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert f"has {size} coordinates" in err and str(MAX_SPACE_DIM) in err
    assert [block.cache_info().currsize for block in blocks] == before


def test_largest_measured_run_passes_the_size_check():
    """m2 omega up to degree 4 builds C^5, 160000 coordinates."""
    alg = builtin("m2")
    _check_size("omega", range(6), alg, regular_module(alg))


def test_lp_has_no_size_cap():
    """The lp guard is on block sizes, not on the degree."""
    proc = spawn("lp", "--algebra", "builtin:sl2std", "--max-degree", "6")
    assert proc.returncode == 0 and proc.stderr == b""
    assert json.loads(proc.stdout)["dims"][:2] == [1, 0]


def test_lp_refuses_oversized_blocks_before_building(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_SPACE_DIM", 20)
    blocks = (complexes.delta_H, complexes.delta_V, complexes.delta_v)
    before = [block.cache_info().currsize for block in blocks]
    code, out, err = run(capsys, "lp", "--algebra", "builtin:nil3", "--max-degree", "3")
    assert code == 1 and out == ""
    assert err.startswith("error: the degree-1 lp block (2, 0) has 27 coordinates")
    assert "Traceback" not in err
    assert [block.cache_info().currsize for block in blocks] == before


def test_lp_of_k22_exits_at_once(capsys, tmp_path):
    """k^22, 22 orthogonal idempotents and zero bracket: its degree-3 corner
    target has 22**3 * comb(22, 2) coordinates."""
    d = 22
    idempotent = [tuple(int(k == i) for k in range(d)) for i in range(d)]
    alg = trivial_bracket([[idempotent[i] if i == j else (0,) * d for j in range(d)]
                           for i in range(d)], unit=(1,) * d)
    path = tmp_path / "k22.json"
    path.write_text(json.dumps(algebra_to_dict(alg)))
    start = time.perf_counter()
    code, out, err = run(capsys, "lp", "--algebra", f"file:{path}", "--max-degree", "11")
    assert time.perf_counter() - start < 5
    assert code == 1 and out == ""
    assert "the degree-3 lp block (2, 2) has 2459688 coordinates" in err


def test_output_flag_matches_stdout_bytes(tmp_path):
    path = tmp_path / "report.json"
    to_stdout = spawn("cohomology", "--algebra", "builtin:m2",
                      "--theory", "ce", "--max-degree", "3")
    to_file = spawn("cohomology", "--algebra", "builtin:m2",
                    "--theory", "ce", "--max-degree", "3",
                    "--output", str(path))
    assert to_stdout.returncode == to_file.returncode == 0
    assert to_file.stdout == b""
    assert path.read_bytes() == to_stdout.stdout


def test_identical_invocations_emit_identical_bytes():
    argv = ("cohomology", "--algebra", "builtin:ut2", "--theory", "hp",
            "--max-degree", "4", "--representatives")
    first, second = spawn(*argv), spawn(*argv)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.endswith(b"}\n")
