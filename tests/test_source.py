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


def test_block_offsets_are_read_only_by_the_codec_and_the_assembly():
    """Tables become flat cochains through ``cochain.encode``/``decode`` and
    differentials are pasted in ``complexes``; any other module reading
    ``CochainSpace.block_offsets`` is walking the layout by hand."""
    readers = sorted({path.name for path in PACKAGE.glob("*.py")
                      for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                      if isinstance(node, ast.Attribute) and node.attr == "block_offsets"})
    assert readers == ["cochain.py", "complexes.py"]


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
