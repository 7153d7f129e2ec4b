"""poiscoh benchmark: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  The run writes the seeded inputs under ``perfbench/out/``, then
repeats the workload's full job list ("a pass"; the block caches are cleared
before each group of jobs) for about ``S`` seconds and checks every output.
The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds the machine details and
every pass's wall time.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (mean pass),
``setup_s`` (a fresh interpreter that imports poiscoh and loads the inputs,
median of several spread over the run) and ``peak_rss_mb`` (``ru_maxrss`` of
this process).
``--trace 1`` spends half the time on traced passes and half on untraced
ones and reports the per-layer metrics, ``trace.overhead_s`` and
``failed_frac``; its spans go to ``perfbench/out/spans-<workload>-<seed>.json``.
See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import fmean, median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

import spans  # noqa: E402  (this directory is on sys.path as the script's)
import workloads  # noqa: E402

SETUP_PROBES = 7

SETUP_PROBE = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import poiscoh.cli\n"
    "for path in sys.argv[2:]:\n"
    "    poiscoh.load_algebra(path)\n"
)


def import_program():
    """Import poiscoh from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "poiscoh" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no poiscoh sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import poiscoh
    import poiscoh.cli  # noqa: F401  (binds every submodule on the package)
    if Path(poiscoh.__file__).resolve().parent != (SRC / "poiscoh").resolve():
        raise SystemExit(f"perfbench: imported poiscoh from {poiscoh.__file__}")
    return poiscoh


def setup_probe(paths: dict) -> float:
    """Wall time of a fresh interpreter that imports the program and loads
    the workload's input files."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC), *paths.values()],
                   check=True, cwd=ROOT)
    return time.perf_counter() - t0


class Harness:
    """Runs passes over groups of jobs and keeps the tally of attempts and
    failures across all of them.  Each group starts from cold block caches,
    as a CLI user does; the jobs of a group share the caches."""

    def __init__(self, pkg, groups, tracer=None):
        # the lru_cache objects themselves, taken before any wrapper is
        # installed over them
        self.caches = (pkg.complexes.delta_H, pkg.complexes.delta_V,
                       pkg.complexes.delta_v)
        self.groups = groups
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict = {}

    def one_pass(self) -> dict:
        """One pass; its wall time is the sum of its jobs' wall times (the
        cache clearing between groups is not timed)."""
        tracer = self.tracer
        if tracer is not None:
            tracer.spans = []
        results = []
        wall = 0.0
        hits = misses = 0
        for group in self.groups:
            for cache in self.caches:
                cache.cache_clear()
            gc.collect()
            for job in group:
                start = time.perf_counter()
                if tracer is not None:
                    tracer.job = job.name
                    idx = tracer.open("job")
                try:
                    results.append((job, job.run(), None))
                except Exception as exc:  # a failed job is counted, not fatal
                    results.append((job, None, f"{type(exc).__name__}: {exc}"))
                finally:
                    if tracer is not None:
                        tracer.close(idx, {})
                        tracer.job = None
                    wall += time.perf_counter() - start
            infos = [c.cache_info() for c in self.caches]
            hits += sum(i.hits for i in infos)
            misses += sum(i.misses for i in infos)
        cache = (hits, misses)
        for job, result, error in results:
            self.attempted += 1
            problems = [error] if error else self._check(job, result)
            if problems:
                self.failed += 1
                self.problems += [f"{job.name}: {p}" for p in problems]
        out = {"wall": wall, "cache": cache}
        if tracer is not None:
            out["spans"] = tracer.spans
            out["summary"] = spans.summarize(tracer.spans)
        return out

    def _check(self, job, result) -> list:
        """The first result of a job gets the full check; later passes must
        reproduce it exactly."""
        if job.name not in self.reference:
            self.reference[job.name] = result
            return job.check(result, True)
        if result != self.reference[job.name]:
            return ["output differs from the first pass"]
        return job.check(result, False)

    def passes(self, budget_s: float, between=None) -> list[dict]:
        """Passes until the next one would likely overrun ``budget_s``; at
        least one.  ``between()`` runs before each pass, untimed."""
        start = time.perf_counter()
        done = []
        while not done or elapsed + elapsed / len(done) <= budget_s:
            if between is not None:
                between()
            done.append(self.one_pass())
            elapsed = time.perf_counter() - start
        return done


def host_speed() -> float:
    """Seconds for a fixed pure-Python loop: context for reading results,
    never used to normalise them."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def machine_info() -> dict:
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            commit = ref
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "mem_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "commit": commit,
        "host_speed_s": host_speed(),
    }


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(pkg, groups, paths, seconds) -> tuple[Harness, dict]:
    """``wall_s`` is the mean pass: the host's speed drifts for tens of
    seconds at a time, and the mean weighs every second of the run alike.
    Untimed set-up probes are spread between the passes, so that both
    figures sample the same stretch of the host's speed."""
    harness = Harness(pkg, groups)
    probes: list[float] = []
    done = harness.passes(seconds, between=lambda: probes.append(setup_probe(paths)))
    while len(probes) < SETUP_PROBES:
        probes.append(setup_probe(paths))
    metrics = {
        "wall_s": metric(fmean(p["wall"] for p in done), "s"),
        "setup_s": metric(median(probes), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return harness, {"pass_walls": [p["wall"] for p in done], "setup_probes": probes,
                     "metrics": metrics}


def traced(pkg, groups, seconds, spans_file: Path) -> tuple[Harness, dict]:
    """Traced passes for half the time, then untraced ones for the other
    half.  Per-layer times come from the median traced pass, counts from
    the first; the overhead compares the median pass of each kind."""
    tracer = spans.Tracer()
    instrumentation = spans.Instrumentation(pkg, tracer)
    harness = Harness(pkg, groups, tracer)
    instrumentation.install()
    try:
        traced_passes = harness.passes(seconds / 2)
    finally:
        instrumentation.uninstall()
    harness.tracer = None
    plain = harness.passes(seconds / 2)

    for p in traced_passes:
        top = sum(s[4] - s[3] for s in p["spans"] if s[2] is None)
        if top > p["wall"]:
            harness.failed += 1
            harness.problems.append(f"trace: top-level spans cover {top:.6f} s "
                                    f"of a {p['wall']:.6f} s pass")
    typical = sorted(traced_passes, key=lambda p: p["wall"])[(len(traced_passes) - 1) // 2]
    layer = spans.layer_metrics(typical, traced_passes[0])
    cli_bytes = sum(len(r.stdout.encode()) for r in harness.reference.values()
                    if isinstance(r, workloads.CliResult))
    layer["cli.stdout_bytes"] = (cli_bytes, "B")
    layer["trace.overhead_s"] = (median(p["wall"] for p in traced_passes)
                                 - median(p["wall"] for p in plain), "s")
    layer["failed_frac"] = (harness.failed / harness.attempted, "ratio")
    spans_file.write_text(json.dumps({
        "fields": ["name", "job", "parent", "start", "end", "attrs",
                   "maxrss_mb_start", "maxrss_mb_end"],
        "passes": [p["spans"] for p in traced_passes],
    }))
    metrics = {name: metric(v, unit) for name, (v, unit) in layer.items()}
    return harness, {"pass_walls": [p["wall"] for p in traced_passes],
                     "plain_pass_walls": [p["wall"] for p in plain],
                     "metrics": metrics}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        raise SystemExit("perfbench: --seed must be >= 0 and --seconds > 0")
    pkg = import_program()
    work = OUT / f"inputs-{os.getpid()}"
    try:
        paths = workloads.write_inputs(pkg, args.workload, args.seed, work)
        groups = workloads.build_jobs(pkg, args.workload, args.seed, paths)
        info = machine_info()
        if args.trace:
            spans_file = OUT / f"spans-{args.workload}-{args.seed}.json"
            harness, report = traced(pkg, groups, args.seconds, spans_file)
        else:
            harness, report = end_to_end(pkg, groups, paths, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in harness.problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "machine": info,
                      **{k: v for k, v in report.items() if k != "metrics"}}))
    correct = harness.failed == 0
    print(json.dumps({"correct": correct, "attempted": harness.attempted,
                      "failed": harness.failed, "metrics": report["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
