"""Command-line front end.

Every verb is a thin wrapper over a library call: its sources are resolved,
the computation runs, and the report is emitted as canonical JSON
(``--table`` renders a plain-text view of the same data).  Each source
option has one grammar (``SOURCE_GRAMMAR``), checked while the arguments
are parsed; :func:`_resolve` then reads every source.  Exit codes: 0
success, 1 domain errors or failed checks (a well-formed source that fails
to read among them), 2 usage errors (a malformed source among them).
Diagnostics go to stderr, data to stdout or ``--output``.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import namedtuple
from dataclasses import replace
from fractions import Fraction
from functools import cache

from . import __version__
from .algebra import (
    AlgebraSpec,
    AxiomError,
    BUILTINS,
    ModuleSpec,
    StructuralError,
    _table_to_triples,
    _triples_to_table,
    algebra_from_dict,
    algebra_to_dict,
    builtin,
    module_from_dict,
    module_to_dict,
    ratio,
    regular_module,
    validate_algebra,
    validate_module,
)
from .cochain import CochainSpace, block_size
from .cohomology import cohomology_dims, lp_cohomology
from .complexes import differential
from .deformation import (
    extension_algebra,
    is_poisson_3cocycle,
    lift_until,
    m2_table3_series,
    obstruction_tables,
    quantization_obstruction_check,
    series_from_file_dict,
    series_to_file_dict,
    verify_deformation,
)

THEORY_ALIASES = {"hp": "poisson", "poisson": "poisson", "quasi": "quasi",
                  "omega": "omega", "hh": "hochschild", "hochschild": "hochschild",
                  "hl": "ce", "ce": "ce", "lie": "ce"}


# The algebra and module axioms read by the differentials of the theories
# that read part of an algebra or a module; the other theories, ``lp``, the
# extension and the semiclassical series read all of them.
THEORY_AXIOMS = {
    "ce": ("antisymmetry", "jacobi", "lie-module"),
    "hochschild": ("associativity", "assoc-left", "assoc-right", "bimodule-commute"),
}


# the largest cochain space ``cohomology`` and ``dump --what differential``
# (or block ``lp``) will build; m2 omega up to degree 4 builds 160000
MAX_SPACE_DIM = 10 ** 6


class CliError(Exception):
    """Domain-level failure: bad input data, unknown name, broken file."""


# ---------------------------------------------------------------------------
# Source resolution and output plumbing


# the grammar of each source option; a [:s] parameter is an exact scalar, default 1
SOURCE_GRAMMAR = {
    "algebra": "builtin:NAME | file:PATH",
    "module": "regular | file:PATH",
    "series": "file:PATH | table3[:s] | table3-repaired[:s]",
    "cocycle": "file:PATH",
}


# a source checked against its option's grammar, not yet read
Source = namedtuple("Source", "option kind value")


def _count(text: str) -> int:
    """A nonnegative integer option value (degrees and orders)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {value}")
    return value


def _cocycle_pair(data, alg: AlgebraSpec, mod: ModuleSpec) -> tuple:
    """The (f1, f0) tables of a cocycle object; an absent key is the zero table."""
    if not isinstance(data, dict):
        raise CliError("cocycle file must contain a JSON object")
    for key in data:
        if key not in ("f1", "f0"):
            raise CliError(f"cocycle file has an unknown key {key!r}; expected f1 and f0")
    return tuple(_triples_to_table(data.get(key, []), alg.dim, alg.dim, mod.dim, key)
                 for key in ("f1", "f0"))


def _resolve(source: Source, alg: AlgebraSpec | None = None,
             mod: ModuleSpec | None = None):
    """The object a checked source names: a module over ``alg``, a cocycle
    pair over ``alg`` with values in ``mod``.  Every ``file:`` source is
    opened and decoded here; every failure here exits 1."""
    option, kind, value = source
    if kind == "builtin":
        return builtin(value)
    if kind == "regular":
        return regular_module(alg)
    if kind != "file":
        return m2_table3_series(value, repaired=kind == "table3-repaired")
    try:
        with open(value, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {value}: {exc.strerror or exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CliError(f"{value} is not valid JSON: {exc}") from exc
    if option == "algebra":
        return algebra_from_dict(data)
    if option == "module":
        return module_from_dict(data, alg.dim)
    if option == "series":
        return series_from_file_dict(data)
    return _cocycle_pair(data, alg, mod)


def _emit(args, data, table: str | None = None) -> None:
    if getattr(args, "table", False) and table is not None:
        text = table if table.endswith("\n") else table + "\n"
    else:
        text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(
                f"cannot write {args.output}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _refuse_size(what: str, size: int) -> None:
    if size > MAX_SPACE_DIM:
        raise CliError(f"{what} has {size} coordinates, above the limit of "
                       f"{MAX_SPACE_DIM}; lower the degree")


def _check_size(theory: str, degrees, alg: AlgebraSpec, mod: ModuleSpec) -> None:
    """Refuse, before any block is built or file validated, a run that builds
    the cochain spaces of ``degrees`` when one has more than ``MAX_SPACE_DIM``
    coordinates; the first such degree in walk order is named, so an
    increasing walk stops early however large the top degree."""
    for n in degrees:
        _refuse_size(f"the degree-{n} {theory} cochain space",
                     CochainSpace.build(theory, n, alg.dim, mod.dim).dim)


def _require_axioms(args, alg: AlgebraSpec, mod: ModuleSpec | None = None,
                    theory: str = "poisson") -> None:
    """Refuse a ``file:`` algebra or module that fails an axiom ``theory``
    reads, naming those axioms, before anything is built from it.  The
    builtins and the regular module need no check."""
    parts = [("algebra", args.algebra, validate_algebra, (alg,))]
    if mod is not None:
        parts.append(("module", args.module, validate_module, (alg, mod)))
    for part, source, validate, inputs in parts:
        if source.kind != "file":
            continue
        report = validate(*inputs)
        read = THEORY_AXIOMS.get(theory, report.checked)
        report = replace(report, violations=tuple(v for v in report.violations
                                                  if v.axiom in read))
        if report.violations:
            raise AxiomError(f"the {part} fails its axioms: {report.summary()}", report)


def _validation_dict(report) -> dict:
    return {
        "ok": report.ok,
        "checked": list(report.checked),
        "violations": [
            {"axiom": v.axiom, "indices": list(v.indices),
             "residual": [str(Fraction(x)) for x in v.residual]}
            for v in report.violations
        ],
    }


# ---------------------------------------------------------------------------
# Table renderers (presentation only; JSON is canonical)


def _cohomology_table(payload: dict) -> str:
    lines = [f"theory: {payload['theory']}    sign convention: "
             f"{payload['sign_convention']}"]
    lines.append(f"{'degree':>6}  {'space':>6}  {'rank':>6}  {'dim':>6}")
    ranks = payload["ranks"]
    for n, (space, dim) in enumerate(zip(payload["space_dims"], payload["dims"])):
        rank = ranks[n] if n < len(ranks) else "-"
        lines.append(f"{n:>6}  {space:>6}  {rank:>6}  {dim:>6}")
    return "\n".join(lines)


def _validate_table(payload: dict) -> str:
    lines = []
    for part, rep in payload.items():  # the algebra, then any module
        status = "ok" if rep["ok"] else "FAILED"
        lines.append(f"{part}: {status} (checked: {', '.join(rep['checked'])})")
        for v in rep["violations"]:
            idx = ",".join(str(i) for i in v["indices"])
            lines.append(f"  {v['axiom']} at ({idx}): residual {v['residual']}")
    return "\n".join(lines)


def _examples_table(payload: list) -> str:
    width = max(len(row["name"]) for row in payload)
    lines = [f"{'name':<{width}}  dim  flags             description"]
    for row in payload:
        flags = []
        if row["commutative"]:
            flags.append("commutative")
        if row["zero_bracket"]:
            flags.append("zero-bracket")
        lines.append(f"{row['name']:<{width}}  {row['dim']:>3}  "
                     f"{','.join(flags) or '-':<16}  {row['description']}")
    return "\n".join(lines)


def _deform_check_table(payload: dict) -> str:
    lines = [f"valid through order {payload['max_order']}: "
             f"{'yes' if payload['ok'] else 'NO'}   "
             f"unit preserved: {'yes' if payload['unital'] else 'NO'}"]
    for rec in payload["failures"]:
        lines.append(f"  {rec['axiom']} fails at order {rec['order']} "
                     f"({rec['count']} basis triples); first witnesses:")
        for sample in rec["samples"]:
            idx = ",".join(str(i) for i in sample["indices"])
            lines.append(f"    ({idx}) -> {sample['residual']}")
    return "\n".join(lines)


def _quantize_table(payload: dict) -> str:
    return "\n".join(f"{key}: {payload[key]}" for key in sorted(payload))


# ---------------------------------------------------------------------------
# Verbs


def cmd_validate(args) -> int:
    alg = _resolve(args.algebra)
    payload = {"algebra": _validation_dict(validate_algebra(alg))}
    ok = payload["algebra"]["ok"]
    if args.module:
        mod = _resolve(args.module, alg)
        payload["module"] = _validation_dict(validate_module(alg, mod))
        ok = ok and payload["module"]["ok"]
    _emit(args, payload, _validate_table(payload))
    return 0 if ok else 1


def cmd_cohomology(args) -> int:
    alg = _resolve(args.algebra)
    mod = _resolve(args.module, alg)
    theory = THEORY_ALIASES[args.theory]
    _check_size(theory, range(args.max_degree + 2), alg, mod)
    _require_axioms(args, alg, mod, theory)
    report = cohomology_dims(alg, mod, theory=theory, max_degree=args.max_degree,
                             representatives=args.representatives)
    payload = report.to_dict()
    if args.dump_matrices:
        payload["matrices"] = {
            f"d{n}": differential(alg, mod, theory, n).dump_text()
            for n in range(args.max_degree + 1)
        }
    _emit(args, payload, _cohomology_table(payload))
    return 0


def cmd_lp(args) -> int:
    alg = _resolve(args.algebra)
    d = alg.dim
    for n in range(1, args.max_degree + 2):  # the blocks of edge_maps("I", n)
        for i, j in ((0, n), (2, n - 1)):
            _refuse_size(f"the degree-{n} lp block ({i}, {j})", block_size(d, d, i, j))
    _require_axioms(args, alg, theory="lp")
    payload = lp_cohomology(alg, max_degree=args.max_degree).to_dict()
    _emit(args, payload, _cohomology_table(payload))
    return 0


def cmd_deform_check(args) -> int:
    series = _resolve(args.series)
    check = verify_deformation(series, max_order=args.order)
    payload = check.to_dict()
    _emit(args, payload, _deform_check_table(payload))
    return 0 if check.ok else 1


def cmd_deform_lift(args) -> int:
    series = _resolve(args.series)
    target = args.target_order if args.target_order is not None else series.order + 1
    if target <= series.order:
        raise CliError(f"series already has order {series.order}; "
                       f"target must exceed it")
    current, obstructed_at = lift_until(series, target)
    payload = {
        "start_order": series.order,
        "target_order": target,
        "reached_order": current.order,
        "status": "obstructed" if obstructed_at is not None else "lifted",
        "obstructed_at": obstructed_at,
        "series": series_to_file_dict(current),
    }
    _emit(args, payload)
    return 0


def cmd_obstruction(args) -> int:
    series = _resolve(args.series)
    order = args.order if args.order is not None else series.order + 1
    f1, f2, f3 = obstruction_tables(series, order)
    payload = {
        "order": order,
        "associativity_rhs": _table_to_triples(f1),
        "leibniz_rhs": _table_to_triples(f2),
        "jacobi_rhs": _table_to_triples(f3),
        "closed": is_poisson_3cocycle(series.algebra, f1, f2, f3),
    }
    _emit(args, payload)
    return 0


def cmd_extend(args) -> int:
    alg = _resolve(args.algebra)
    mod = _resolve(args.module, alg)
    _require_axioms(args, alg, mod)
    f1, f0 = (_resolve(args.cocycle, alg, mod) if args.cocycle
              else _cocycle_pair({}, alg, mod))
    ext, report = extension_algebra(alg, mod, f1, f0)
    payload = {
        "dim": ext.dim,
        "basis": list(ext.basis),
        "algebra": algebra_to_dict(ext),
        "validation": _validation_dict(report),
    }
    _emit(args, payload)
    return 0


def cmd_quantize_check(args) -> int:
    alg = _resolve(args.algebra)
    _require_axioms(args, alg)
    payload = quantization_obstruction_check(alg, max_order=args.max_order)
    _emit(args, payload, _quantize_table(payload))
    return 0 if payload["ok"] else 1


def cmd_examples(args) -> int:
    payload = []
    for name in sorted(BUILTINS):
        alg = builtin(name)
        payload.append({
            "name": name,
            "dim": alg.dim,
            "description": BUILTINS[name][0],
            "commutative": alg.is_commutative,
            "zero_bracket": alg.has_zero_bracket,
        })
    _emit(args, payload, _examples_table(payload))
    return 0


def cmd_dump(args) -> int:
    if args.what == "series":
        _emit(args, series_to_file_dict(_resolve(args.series)))
        return 0
    alg = _resolve(args.algebra)
    if args.what == "algebra":
        _emit(args, algebra_to_dict(alg))
        return 0
    mod = _resolve(args.module, alg)
    if args.what == "module":
        _emit(args, module_to_dict(mod))
        return 0
    # differential matrix in the exact-linalg dump format
    theory = THEORY_ALIASES[args.theory]
    _check_size(theory, (args.degree, args.degree + 1), alg, mod)
    _require_axioms(args, alg, mod, theory)
    mat = differential(alg, mod, theory, args.degree)
    if args.table:
        _emit(args, None, mat.dump_text())
    else:
        space = CochainSpace.build(theory, args.degree, alg.dim, mod.dim)
        _emit(args, {
            "theory": theory,
            "degree": args.degree,
            "nrows": mat.nrows,
            "ncols": mat.ncols,
            "source_blocks": [[i, j] for i, j in space.blocks],
            "entries": [[r, c, str(Fraction(v))] for r, c, v in mat.triples()],
        })
    return 0


# ---------------------------------------------------------------------------
# Parser


def _add_source(sub, option: str, **kwargs) -> None:
    """Add ``--OPTION`` with an argparse type that checks only the form of a
    source and reads nothing, so a malformed source exits 2 while a missing
    file or an unknown builtin is left to :func:`_resolve` and exits 1."""
    grammar = SOURCE_GRAMMAR[option]
    forms = {form.partition(":")[0].partition("[")[0]: form
             for form in grammar.split(" | ")}

    def check(text: str) -> Source:
        kind, colon, value = text.partition(":")
        form = forms.get(kind)
        if form is not None and "[:" in form:
            try:
                return Source(option, kind, ratio(value) if colon else 1)
            except StructuralError as exc:
                raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from None
        if form is not None and bool(colon) == (":" in form):
            return Source(option, kind, value)
        raise argparse.ArgumentTypeError(f"{text!r}: expected {grammar}")

    sub.add_argument(f"--{option}", type=check, help=grammar, **kwargs)


def _add_common(sub, *, module=False, module_default="regular", degree=False):
    _add_source(sub, "algebra", required=True)
    if module:
        _add_source(sub, "module", default=module_default)
    if degree:
        sub.add_argument("--max-degree", type=_count, default=4,
                         help="top degree to compute (default 4)")


def _add_output(sub):
    sub.add_argument("--output", help="write the report here instead of stdout")
    fmt = sub.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="table", action="store_false",
                     help="canonical JSON output (default)")
    fmt.add_argument("--table", dest="table", action="store_true",
                     help="plain-text rendering of the same data")
    sub.set_defaults(table=False)


def _verb(subs, func, summary: str):
    """The subparser of the verb that ``func`` (``cmd_NAME``) runs."""
    sub = subs.add_parser(func.__name__[4:].replace("_", "-"), help=summary)
    sub.set_defaults(func=func)
    return sub


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every verb, built once per process: parsing reads it
    and never changes it."""
    parser = argparse.ArgumentParser(
        prog="poiscoh",
        description="Exact cohomology and deformation computations for "
                    "finite-dimensional Poisson algebras given by rational "
                    "structure constants.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="verb", required=True)

    sub = _verb(subs, cmd_validate, "check algebra/module axioms")
    _add_common(sub, module=True, module_default=None)

    sub = _verb(subs, cmd_cohomology, "cohomology dims of a theory")
    _add_common(sub, module=True, degree=True)
    sub.add_argument("--theory", choices=sorted(THEORY_ALIASES), default="hp",
                     help="hp/poisson, quasi, omega, hh/hochschild, hl/ce/lie")
    sub.add_argument("--representatives", action="store_true",
                     help="include a cocycle representative basis per degree")
    sub.add_argument("--dump-matrices", action="store_true",
                     help="embed every differential in the dump format")

    sub = _verb(subs, cmd_lp,
                "multiderivation-complex cohomology (commutative algebras)")
    _add_common(sub, degree=True)

    sub = _verb(subs, cmd_deform_check,
                "per-order axiom residuals of a deformation series")
    _add_source(sub, "series", required=True)
    sub.add_argument("--order", type=_count, default=None,
                     help="check through this t-order (default: series order)")

    sub = _verb(subs, cmd_deform_lift, "extend a partial deformation order by order")
    _add_source(sub, "series", required=True)
    sub.add_argument("--target-order", type=_count, default=None,
                     help="lift until this order (default: one step)")

    sub = _verb(subs, cmd_obstruction, "order-n obstruction tables and cocycle check")
    _add_source(sub, "series", required=True)
    sub.add_argument("--order", type=_count, default=None,
                     help="obstruction order (default: series order + 1)")

    sub = _verb(subs, cmd_extend,
                "square-zero extension by a module twisted by a 2-cocycle pair")
    _add_common(sub, module=True)
    _add_source(sub, "cocycle")

    sub = _verb(subs, cmd_quantize_check,
                "order-by-order lifting of the semiclassical series")
    _add_common(sub)
    sub.add_argument("--max-order", type=_count, default=3)

    _verb(subs, cmd_examples, "list built-in algebras")

    sub = _verb(subs, cmd_dump,
                "emit algebra/module/series JSON or a differential matrix")
    sub.add_argument("--what", choices=("algebra", "module", "differential",
                                        "series"), default="algebra")
    _add_source(sub, "algebra")  # main checks that --what has its source
    _add_source(sub, "module", default="regular")
    _add_source(sub, "series")
    sub.add_argument("--theory", choices=sorted(THEORY_ALIASES), default="hp")
    sub.add_argument("--degree", type=_count, default=2,
                     help="differential slice to dump")

    for sub in subs.choices.values():
        _add_output(sub)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verb == "dump":
        needed = "series" if args.what == "series" else "algebra"
        if getattr(args, needed) is None:
            parser.error(f"dump --what {args.what} needs --{needed}")
    try:
        return args.func(args)
    except (StructuralError, AxiomError, CliError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
