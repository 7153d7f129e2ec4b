"""Source-level guards over the package itself."""

import ast
import importlib.util
from pathlib import Path

import poiscoh
import poiscoh.cli
from poiscoh import complexes

PACKAGE = Path(poiscoh.__file__).resolve().parent
SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


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
