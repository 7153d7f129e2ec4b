"""Source-level guards over the package itself."""

import ast
import importlib.util
from pathlib import Path

import poiscoh
import poiscoh.cli
from poiscoh import complexes

PACKAGE = Path(poiscoh.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"


def test_no_bare_assert_in_package():
    """Self-checks must raise under ``python -O`` too, so the package holds
    no ``assert`` statement."""
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = [f"{path.name}:{node.lineno}"
             for path in sources
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_no_underscore_parameters_in_package():
    """A parameter named ``_x`` is a knob that only tests turn, so no
    function or method in the package has one."""
    found = [f"{path.name}:{node.lineno} {node.name}({arg.arg})"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             for arg in (node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                         + [a for a in (node.args.vararg, node.args.kwarg) if a])
             if arg.arg.startswith("_")]
    assert found == []


def test_block_offsets_are_read_only_by_the_codec_and_the_assembly():
    """Tables become flat cochains through ``cochain.encode``/``decode`` and
    differentials are pasted in ``complexes``; any other module reading
    ``CochainSpace.block_offsets`` is walking the layout by hand."""
    readers = sorted({path.name for path in PACKAGE.glob("*.py")
                      for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                      if isinstance(node, ast.Attribute) and node.attr == "block_offsets"})
    assert readers == ["cochain.py", "complexes.py"]


def _called(node) -> str | None:
    """The name a call node calls, or None when ``node`` is not a call."""
    if not isinstance(node, ast.Call):
        return None
    return getattr(node.func, "attr", getattr(node.func, "id", None))


def test_rank_only_callers_use_linalg_rank():
    """``Echelon(...).rank`` builds pivot rows and free columns only to
    count them, and ``len(kernel_basis(...))`` builds kernel vectors only to
    count them; a caller that needs only the rank (or the nullity,
    ``ncols - rank``) calls ``linalg.rank``, whose pivot order is faster."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if (isinstance(node, ast.Attribute) and node.attr == "rank"
                 and _called(node.value) == "Echelon")
             or (_called(node) == "len" and node.args
                 and _called(node.args[0]) == "kernel_basis")]
    assert found == []


_SPLITTERS = {"partition", "rpartition", "split", "rsplit", "startswith",
              "removeprefix", "find", "index"}
_READERS = {"load", "load_algebra", "load_module"}  # json.load and the file loaders


def _has_colon(node) -> bool:
    return any(isinstance(c, ast.Constant) and isinstance(c.value, str) and ":" in c.value
               for c in ast.walk(node))


def _reads_a_source(node) -> bool:
    """Splits text at ``":"``, or opens a file for reading."""
    if isinstance(node, ast.Compare):
        return any(isinstance(op, ast.In) for op in node.ops) and _has_colon(node.left)
    if not isinstance(node, ast.Call):
        return False
    name = getattr(node.func, "attr", getattr(node.func, "id", None))
    if name in _SPLITTERS and isinstance(node.func, ast.Attribute):
        return any(_has_colon(arg) for arg in node.args)
    if name == "open":  # reading, unless the mode is a constant that only writes
        mode = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
        return not (mode and isinstance(mode[0], ast.Constant)
                    and not set(mode[0].value) & set("r+"))
    return name in _READERS


def test_cli_sources_have_one_grammar_and_one_reader():
    """A source option's grammar is checked by ``cli._add_source`` and every
    source is read by ``cli._resolve``; any other code in ``cli.py`` that
    splits text at ``":"`` or opens a file for reading is parsing or reading
    a source by hand."""
    tree = ast.parse(Path(poiscoh.cli.__file__).read_text(encoding="utf-8"))
    found = {getattr(top, "name", "<module>")
             for top in tree.body for node in ast.walk(top) if _reads_a_source(node)}
    assert found == {"_add_source", "_resolve"}


def test_bench_entry_points_exist():
    """The benchmark's traced runs wrap these entry points by name through
    ``owner.__dict__`` and clear the block caches between job groups, so a
    rename or an inlined function must fail here rather than in a traced
    run."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = spans._targets(poiscoh)
    assert targets
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in targets if attr not in owner.__dict__]
    assert missing == []
    for block in (complexes.delta_H, complexes.delta_V, complexes.delta_v):
        assert callable(block.cache_clear) and callable(block.cache_info)


def _pkg_chains(tree) -> set[tuple[str, ...]]:
    """Every attribute chain ``pkg.a.b...`` in a module, as ``("a", "b", ...)``."""
    chains = set()
    for node in ast.walk(tree):
        names = []
        while isinstance(node, ast.Attribute):
            names.append(node.attr)
            node = node.value
        if names and isinstance(node, ast.Name) and node.id == "pkg":
            chains.add(tuple(reversed(names)))
    return chains


def test_bench_untraced_names_exist():
    """The benchmark's jobs reach the package through ``pkg.<module>.<name>``
    chains, so a rename must fail here rather than in an untraced run."""
    chains = set()
    for name in ("workloads.py", "run.py"):
        chains |= _pkg_chains(ast.parse((PERFBENCH / name).read_text(encoding="utf-8")))
    assert chains

    def resolves(chain):
        obj = poiscoh
        for attr in chain:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True

    missing = sorted(".".join(chain) for chain in chains if not resolves(chain))
    assert missing == []
