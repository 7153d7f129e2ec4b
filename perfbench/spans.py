"""Outside-in tracing for the benchmark's traced runs.

Spans are recorded by wrappers that the benchmark installs around the public
entry points of each package layer; nothing inside ``src/`` knows about them.
``from .x import name`` copies a binding into the importing module, so every
wrapper is installed at the defining site and at each module-level alias of
the same object (found by identity, so no alias is missed).

``algebra`` and ``cochain`` are deliberately not wrapped: their calls are
either set-up or hot helpers (``wedge_rank``, ``wedge_normalize``) that run
millions of times inside block builds, where a wrapper would distort the time
it measures.  Their time is counted inside ``complexes.blocks.s``.

Exact counts (nonzeros, components, scalar products, ranks) are computed by
the wrappers with the span clock paused, so they do not inflate any span's
duration; they do show in the traced wall time, which is why
``trace.overhead_s`` is reported.
"""

from __future__ import annotations

import resource
import sys
import time
from collections import Counter


def components(matrix) -> int:
    """Connected components of the bipartite row/column graph of the nonzero
    pattern, by union-find.  Empty rows and columns are not counted."""
    parent: dict = {}

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for r, c in matrix.entries:
        a, b = ("r", r), ("c", c)
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return sum(1 for x in parent if parent[x] == x)


def scalar_products(a, b) -> int:
    """Scalar multiplications ``a.matmul(b)`` performs: for every entry
    (r, c) of ``a``, the length of row c of ``b``."""
    row_len = Counter(r for r, _ in b.entries)
    return sum(row_len[c] for _, c in a.entries)


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    """In-memory span recorder.  A span is ``[name, job, parent, start, end,
    attrs, rss_start, rss_end]``.  Times come from a clock that stops while
    the tracer does its own bookkeeping or counting, so a span's duration is
    the program's own time."""

    def __init__(self):
        self.spans: list[list] = []
        self.job: str | None = None
        self._stack: list[int] = []
        self._paused = 0.0

    def now(self) -> float:
        return time.perf_counter() - self._paused

    def off_clock(self, fn, *args):
        """``fn(*args)``, with the span clock stopped meanwhile."""
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._paused += time.perf_counter() - t0

    def open(self, name: str) -> int:
        idx = self.off_clock(self._push, name)
        self.spans[idx][3] = self.now()
        return idx

    def close(self, idx: int, attrs: dict) -> None:
        self.off_clock(self._pop, idx, self.now(), attrs)

    def _push(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.job, parent, 0.0, 0.0, {}, _maxrss_mb(), 0.0])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _pop(self, idx: int, end: float, attrs: dict) -> None:
        span = self.spans[idx]
        span[4] = end
        span[5].update(attrs)
        span[7] = _maxrss_mb()
        self._stack.pop()


def _targets(pkg):
    """``(owner, attribute, span name, count_in, count_out)`` for every
    wrapped entry point.  ``count_in(args)`` and ``count_out(args, result)``
    return the span's exact counts."""
    cx, la, co, de, cli = (pkg.complexes, pkg.linalg, pkg.cohomology,
                           pkg.deformation, pkg.cli)

    def nnz_out(args, out):
        return {"nnz": out.nnz}

    def matmul_in(args):
        return {"products": scalar_products(args[0], args[1])}

    def echelon_in(args):
        return {"nnz_in": args[1].nnz, "components": components(args[1])}

    def echelon_out(args, out):
        return {"rank": args[0].rank}

    def count_out(args, out):
        return {"vectors": len(out)}

    def accept_out(args, out):
        return {"accepted": int(bool(out))}

    def infeasible_out(args, out):
        return {"infeasible": int(out is None)}

    return [
        (cx, "delta_H", "complexes.delta_H", None, None),
        (cx, "delta_V", "complexes.delta_V", None, None),
        (cx, "delta_v", "complexes.delta_v", None, None),
        (cx, "differential", "complexes.differential", None, nnz_out),
        (cx, "build_complex", "complexes.build_complex", None, None),
        (la.SparseMatrix, "matmul", "linalg.matmul", matmul_in, None),
        (la.SparseMatrix, "scaled_integer_copy", "linalg.scaled_copy", None, None),
        (la.SparseMatrix, "matvec", "linalg.matvec", None, None),
        (la.Echelon, "__init__", "linalg.echelon", echelon_in, echelon_out),
        (la.Echelon, "kernel_basis", "linalg.kernel", None, count_out),
        (la, "kernel_basis", "linalg.kernel_basis", None, None),
        (la, "rank", "linalg.rank", None, None),
        (la, "solve", "linalg.solve", None, infeasible_out),
        (la.RowReducer, "add", "linalg.reducer", None, accept_out),
        (co, "cohomology_dims", "cohomology.cohomology_dims", None, None),
        (de, "verify_deformation", "deformation.verify", None, None),
        (de, "obstruction_tables", "deformation.obstruction", None, None),
        (de, "lift_step", "deformation.lift", None, None),
        (cli, "main", "cli.main", None, None),
    ]


def _wrap(tracer, fn, name, count_in, count_out):
    def wrapper(*args, **kwargs):
        if tracer.job is None:
            return fn(*args, **kwargs)
        attrs = tracer.off_clock(count_in, args) if count_in else {}
        idx = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            tracer.close(idx, {**attrs, "raised": 1})
            raise
        if count_out:
            attrs.update(tracer.off_clock(count_out, args, out))
        tracer.close(idx, attrs)
        return out

    return wrapper


class Instrumentation:
    """Installs the wrappers on the imported package and removes them again.
    Module functions are replaced in every ``poiscoh`` module that binds the
    same object; methods are replaced on their class."""

    def __init__(self, pkg, tracer: Tracer):
        self.pkg = pkg
        self.tracer = tracer
        self._undo: list[tuple] = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "poiscoh" or name.startswith("poiscoh.")]
        for owner, attr, name, count_in, count_out in _targets(self.pkg):
            original = owner.__dict__[attr]
            wrapper = _wrap(self.tracer, original, name, count_in, count_out)
            if isinstance(owner, type):
                sites = [owner]
            else:
                sites = [m for m in modules
                         if any(v is original for v in vars(m).values())]
            for site in sites:
                for key, value in list(vars(site).items()):
                    if value is original:
                        self._undo.append((site, key, original))
                        setattr(site, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            site, key, original = self._undo.pop()
            setattr(site, key, original)


# ---------------------------------------------------------------------------
# Per-layer metrics from one pass's spans

BLOCK_SPANS = ("complexes.delta_H", "complexes.delta_V", "complexes.delta_v")


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def summarize(spans: list[list]) -> dict:
    """Per span name: inclusive time ``s``, ``self_s`` (duration minus the
    time its child spans cover), ``calls`` and the summed counts; plus, under
    ``"rss"``, the ru_maxrss growth inside each layer's outermost spans (a
    layer's nested calls are not counted twice)."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[2] is not None:
            child_time[span[2]] += span[4] - span[3]
    out: dict = {"rss": Counter()}
    for idx, (name, _job, parent, start, end, attrs, rss0, rss1) in enumerate(spans):
        row = out.setdefault(name, Counter())
        row["s"] += end - start
        row["self_s"] += end - start - child_time[idx]
        row["calls"] += 1
        row.update(attrs)
        if parent is None or layer_of(spans[parent][0]) != layer_of(name):
            out["rss"][layer_of(name)] += rss1 - rss0
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(timed: dict, counted: dict) -> dict:
    """Per-layer metrics, name -> (value, unit).  Times come from the pass
    ``timed``, counts from the pass ``counted`` (counts repeat exactly)."""
    empty: Counter = Counter()

    def t(name, key="s"):
        return timed["summary"].get(name, empty)[key]

    def c(name, key="calls"):
        return counted["summary"].get(name, empty)[key]

    def rss_of(name):
        return sum(s[7] - s[6] for s in counted["spans"] if s[0] == name)

    hits, misses = counted["cache"]
    return {
        "complexes.blocks.s": (sum(t(n) for n in BLOCK_SPANS), "s"),
        "complexes.blocks.misses": (misses, "count"),
        "complexes.blocks.hit_ratio": (_ratio(hits, hits + misses), "ratio"),
        "complexes.differential.self_s": (t("complexes.differential", "self_s"), "s"),
        "complexes.differential.calls": (c("complexes.differential"), "count"),
        "complexes.differential.nnz": (c("complexes.differential", "nnz"), "count"),
        "complexes.build_complex.self_s": (t("complexes.build_complex", "self_s"), "s"),
        "complexes.rss_growth_mb": (counted["summary"]["rss"]["complexes"], "MB"),
        "linalg.matmul.s": (t("linalg.matmul"), "s"),
        "linalg.matmul.calls": (c("linalg.matmul"), "count"),
        "linalg.matmul.products": (c("linalg.matmul", "products"), "count"),
        "linalg.matmul.rss_growth_mb": (rss_of("linalg.matmul"), "MB"),
        "linalg.scaled_copy.s": (t("linalg.scaled_copy"), "s"),
        "linalg.echelon.s": (t("linalg.echelon"), "s"),
        "linalg.echelon.calls": (c("linalg.echelon"), "count"),
        "linalg.echelon.nnz_in": (c("linalg.echelon", "nnz_in"), "count"),
        "linalg.echelon.rank": (c("linalg.echelon", "rank"), "count"),
        "linalg.echelon.components": (c("linalg.echelon", "components"), "count"),
        "linalg.echelon.rss_growth_mb": (rss_of("linalg.echelon"), "MB"),
        "linalg.kernel.s": (t("linalg.kernel"), "s"),
        "linalg.kernel.vectors": (c("linalg.kernel", "vectors"), "count"),
        "linalg.matvec.s": (t("linalg.matvec"), "s"),
        "linalg.matvec.calls": (c("linalg.matvec"), "count"),
        "linalg.reducer.s": (t("linalg.reducer"), "s"),
        "linalg.reducer.calls": (c("linalg.reducer"), "count"),
        "linalg.reducer.accept_ratio": (_ratio(c("linalg.reducer", "accepted"),
                                               c("linalg.reducer")), "ratio"),
        "linalg.solve.s": (t("linalg.solve"), "s"),
        "linalg.solve.calls": (c("linalg.solve"), "count"),
        "linalg.solve.infeasible": (c("linalg.solve", "infeasible"), "count"),
        "deformation.verify.self_s": (t("deformation.verify", "self_s"), "s"),
        "deformation.verify.calls": (c("deformation.verify"), "count"),
        "deformation.obstruction.self_s": (t("deformation.obstruction", "self_s"), "s"),
        "deformation.obstruction.calls": (c("deformation.obstruction"), "count"),
        "deformation.lift.self_s": (t("deformation.lift", "self_s"), "s"),
        "deformation.lift.calls": (c("deformation.lift"), "count"),
        "cohomology.cohomology_dims.self_s": (t("cohomology.cohomology_dims", "self_s"), "s"),
        "cli.main.self_s": (t("cli.main", "self_s"), "s"),
    }
