"""The benchmark's workloads, their seeded inputs and frozen expectations.

A workload is a fixed list of job groups; each group starts from cold block
caches.  CLI jobs call ``poiscoh.cli.main(argv)`` in-process with stdout
captured; the sweep calls the library directly, as the tier-1 ``d o d = 0``
acceptance test does.  The seed only rescales inputs (see :func:`rescaled`),
so every expected dimension and verdict below holds for every seed; the
stdout hashes are those of seed 0, where the inputs are the builtins as
shipped.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

# A seeded input scales each basis vector of a builtin by a factor drawn
# from this pool.  The pool is closed under inversion and sign, which leave
# the bit size of a coefficient unchanged, so every seed changes every
# coefficient while the cost of a job varies little between seeds.
FACTORS = (Fraction(2, 3), Fraction(3, 2), Fraction(-2, 3), Fraction(-3, 2))

# Values of s for which table3-repaired lifts to order 20 (checked when this
# list was made, and again by every deform run through the "lifted" status).
S_VALUES = ("1", "1/2", "2", "-1", "3/2", "2/3", "-3/2", "5/4",
            "4/5", "-2/3", "3/4", "-4/3")

LIFT_ORDER = 20
QUANTIZE_ORDER = 16
CHECK_ORDER = 16

# Top degree swept per builtin: d^(n+1) o d^n for n < top.  The tier-1 sweep
# goes through d^5 o d^4 everywhere (about 150 s).  Even tops of 5 and 3 take
# 12 s a pass on seeded (fractional) inputs, so the sweep is cut further to
# fit several passes in a run.
SWEEP_TOP = {"kxk": 4, "trivial2": 4, "ut2": 4, "nil3": 4, "m2": 2, "sl2std": 2}


def rescaled(pkg, name: str, seed: int):
    """Builtin ``name``, with basis vector i scaled by a factor the seed picks
    (seed 0: unscaled).  A diagonal change of basis keeps every sparsity
    pattern, component count and dimension; only coefficients change."""
    spec = pkg.builtin(name)
    if seed == 0:
        return spec
    rng = random.Random(f"{seed}:{name}")
    d = spec.dim
    factors = [rng.choice(FACTORS) for _ in range(d)]
    diag = [[factors[r] if r == c else 0 for c in range(d)] for r in range(d)]
    return pkg.deformation.transport(spec, diag)


def seeded_s(seed: int) -> tuple[str, str]:
    if seed == 0:
        return S_VALUES[0], S_VALUES[1]
    first, second = random.Random(f"{seed}:s").sample(S_VALUES, 2)
    return first, second


@dataclass
class Job:
    """One unit of work.  ``run`` is timed; ``check(result, full)`` is not,
    and returns a list of problems (empty when the output is right).  With
    ``full`` the expensive checks run too (once per run)."""
    name: str
    run: Callable[[], object]
    check: Callable[[object, bool], list]


@dataclass
class CliResult:
    code: int
    stdout: str


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cli_job(pkg, name: str, argv: list[str], expect_code: int,
            check_payload: Callable[[dict, bool], list], seed0_sha: str | None,
            seed: int) -> Job:
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = pkg.cli.main(list(argv))
        return CliResult(code, out.getvalue())

    def check(res: CliResult, full: bool) -> list:
        problems = []
        if res.code != expect_code:
            problems.append(f"exit code {res.code}, expected {expect_code}")
        try:
            payload = json.loads(res.stdout)
        except json.JSONDecodeError:
            return problems + ["stdout is not JSON"]
        problems += check_payload(payload, full)
        if seed == 0 and seed0_sha is not None and sha256(res.stdout) != seed0_sha:
            problems.append("stdout differs from the frozen seed-0 bytes")
        return problems

    return Job(name, run, check)


# ---------------------------------------------------------------------------
# Expectations (seed-independent)

DIMS = {
    ("m2", "hp", 4): (1, 0, 1, 3, 0),
    ("sl2std", "hp", 4): (1, 0, 1, 5, 7),
    ("m2", "omega", 2): (2, 2, 0),
    ("ut2", "hp", 5): (1, 0, 1, 5, 3, 0),
}

# sha256 of each CLI job's stdout at seed 0, produced at the commit that
# introduced this benchmark.  Keyed by job name.
SEED0_SHA = {
    "m2-hp-4":
        "2c113ccbacf0c805a029b7fb6b9e74b97fc0596d89541aed96f18fcc70b0729f",
    "sl2std-hp-4":
        "f4c48564cddec1e5c85d00c843c9d7d33500ecb1c3d6bcaf50d294ea046c62d2",
    "m2-omega-2":
        "f0ac1b4dbfffa58284c93d3886344c4676ef5704215a7d92a07795362517e76f",
    "ut2-hp-5-reps":
        "44d010fc4bd6c53383f7422d1e48e63c03540c649bde2be677b0726ce70833a7",
    "sl2std-hp-4-reps":
        "2630173425aa37ed4b2034784128fe67dc7ae791fb64df4056d9db0585172ae0",
    "lift-1":
        "590dc292eb7ebf26047fdd887a17077a627e06daa58e30b5ec17918d27d3513e",
    "lift-1/2":
        "2a10546d50bc789888cf6c07b2da7a01cc94d7dd793f9c66d4401d28142a78f1",
    "quantize-sl2std":
        "18c8119da4b3dd5a8031248d94741f3befc03e989c49ef955821237c631a448f",
    "quantize-nil3":
        "18c8119da4b3dd5a8031248d94741f3befc03e989c49ef955821237c631a448f",
    "table3-1":
        "f464081a8a0ea0a1ad04868006a3cca7abcb6fe512cbe9b1c8c64ab2e45f8381",
}


def _dims_check(key, reps_of=None):
    want = list(DIMS[key])

    def check(payload, full):
        problems = []
        if payload.get("dims") != want:
            problems.append(f"dims {payload.get('dims')}, expected {want}")
        if reps_of is not None:
            problems += reps_of(payload, want, full)
        return problems

    return check


def _reps_check(pkg, alg_path: str, theory: str):
    """Each degree has dims[n] representatives, and (in a full check) each
    one is a cocycle of the differential built from the same input file."""
    def check(payload, want, full):
        reps = payload.get("representatives") or {}
        problems = []
        for n, dim in enumerate(want):
            vecs = reps.get(str(n), [])
            if len(vecs) != dim:
                problems.append(f"degree {n}: {len(vecs)} representatives, "
                                f"expected {dim}")
        if full and not problems:
            alg = pkg.load_algebra(alg_path)
            mod = pkg.regular_module(alg)
            for n in range(len(want)):
                mat = pkg.complexes.differential(alg, mod, theory, n)
                for vec in reps[str(n)]:
                    if any(mat.matvec(tuple(Fraction(x) for x in vec))):
                        problems.append(f"degree {n}: a representative is "
                                        "not a cocycle")
        return problems

    return check


def _cohomology_jobs(pkg, seed, paths, specs, representatives):
    jobs = []
    for name, theory, top in specs:
        argv = ["cohomology", "--algebra", f"file:{paths[name]}", "--theory",
                theory, "--max-degree", str(top)]
        reps = None
        if representatives:
            argv.append("--representatives")
            reps = _reps_check(pkg, paths[name], pkg.cli.THEORY_ALIASES[theory])
        job_name = f"{name}-{theory}-{top}" + ("-reps" if representatives else "")
        jobs.append(cli_job(pkg, job_name, argv, 0,
                            _dims_check((name, theory, top), reps),
                            SEED0_SHA.get(job_name), seed))
    return jobs


def _lift_check(payload, full):
    if (payload.get("status"), payload.get("reached_order")) != ("lifted", LIFT_ORDER):
        return [f"lift ended {payload.get('status')} at order "
                f"{payload.get('reached_order')}"]
    return []


def _quantize_check(payload, full):
    if (payload.get("ok"), payload.get("order_reached")) != (True, QUANTIZE_ORDER):
        return [f"quantize-check ok={payload.get('ok')} at order "
                f"{payload.get('order_reached')}"]
    return []


def _red_check(payload, full):
    # verbatim table3 is not a deformation: the order-1 associativity
    # residual is nonzero for every s
    failing = {(f["axiom"], f["order"]) for f in payload.get("failures", [])}
    if payload.get("ok") is not False or ("associativity", 1) not in failing:
        return ["verbatim table3 did not fail associativity at order 1"]
    return []


def _deform_jobs(pkg, seed, paths):
    s1, s2 = seeded_s(seed)
    jobs = []
    for s in (s1, s2):
        jobs.append(cli_job(pkg, f"lift-{s}", [
            "deform-lift", "--series", f"table3-repaired:{s}",
            "--target-order", str(LIFT_ORDER)], 0, _lift_check,
            SEED0_SHA.get(f"lift-{s}"), seed))
    for name in ("sl2std", "nil3"):
        jobs.append(cli_job(pkg, f"quantize-{name}", [
            "quantize-check", "--algebra", f"file:{paths[name]}",
            "--max-order", str(QUANTIZE_ORDER)], 0, _quantize_check,
            SEED0_SHA.get(f"quantize-{name}"), seed))
    jobs.append(cli_job(pkg, f"table3-{s1}", [
        "deform-check", "--series", f"table3:{s1}", "--order", str(CHECK_ORDER)],
        1, _red_check, SEED0_SHA.get(f"table3-{s1}"), seed))
    return jobs


# nnz of d^0 .. d^top per (builtin, theory); seed-independent because a
# diagonal rescaling never creates or cancels an entry.
SWEEP_NNZ = {
    "kxk-poisson": (0, 8, 20, 60, 160),
    "kxk-quasi": (0, 8, 28, 68, 160),
    "kxk-omega": (12, 60, 160, 368, 832),
    "kxk-hochschild": (0, 8, 12, 36, 76),
    "kxk-ce": (0, 0, 0, 0, 0),
    "trivial2-poisson": (0, 5, 15, 47, 122),
    "trivial2-quasi": (0, 5, 20, 52, 122),
    "trivial2-omega": (10, 47, 122, 274, 602),
    "trivial2-hochschild": (0, 5, 10, 27, 58),
    "trivial2-ce": (0, 0, 0, 0, 0),
    "ut2-poisson": (4, 30, 206, 1038, 4044),
    "ut2-quasi": (8, 62, 284, 1108, 4064),
    "ut2-omega": (160, 1018, 4044, 14368, 49520),
    "ut2-hochschild": (4, 20, 76, 284, 1012),
    "ut2-ce": (4, 10, 6, 0, 0),
    "nil3-poisson": (2, 18, 115, 555, 2091),
    "nil3-quasi": (2, 28, 151, 594, 2104),
    "nil3-omega": (86, 542, 2091, 7160, 23872),
    "nil3-hochschild": (0, 13, 44, 157, 512),
    "nil3-ce": (2, 5, 3, 0, 0),
    "m2-poisson": (6, 130, 1172),
    "m2-quasi": (12, 196, 1460),
    "m2-omega": (830, 7282, 39458),
    "m2-hochschild": (6, 106, 594),
    "m2-ce": (6, 24, 24),
    "sl2std-poisson": (6, 49, 449),
    "sl2std-quasi": (6, 91, 620),
    "sl2std-omega": (350, 2965, 15566),
    "sl2std-hochschild": (0, 25, 114),
    "sl2std-ce": (6, 24, 24),
}


def _sweep_jobs(pkg, seed, algebras):
    jobs = []
    for name, top in SWEEP_TOP.items():
        alg = algebras[name]
        mod = pkg.regular_module(alg)
        for theory in pkg.cochain.THEORIES:
            def run(alg=alg, mod=mod, theory=theory, top=top):
                differential = pkg.complexes.differential
                prev = differential(alg, mod, theory, 0)
                nnz, composed = [prev.nnz], []
                for n in range(top):
                    nxt = differential(alg, mod, theory, n + 1)
                    composed.append(nxt.matmul(prev).nnz)
                    nnz.append(nxt.nnz)
                    prev = nxt
                return tuple(nnz), tuple(composed)

            def check(res, full, key=f"{name}-{theory}"):
                nnz, composed = res
                problems = [f"d o d has {c} nonzeros" for c in composed if c]
                if nnz != SWEEP_NNZ[key]:
                    problems.append(f"differential nnz {nnz}, expected {SWEEP_NNZ[key]}")
                return problems

            jobs.append(Job(f"{name}-{theory}", run, check))
    return jobs


# ---------------------------------------------------------------------------

COHOM_DIMS = (("m2", "hp", 4), ("sl2std", "hp", 4), ("m2", "omega", 2))
COHOM_REPS = (("ut2", "hp", 5), ("sl2std", "hp", 4))

WORKLOADS = ("cohom", "sweep-deform")

INPUTS = {
    "cohom": ("m2", "sl2std", "ut2"),
    "sweep-deform": tuple(SWEEP_TOP),
}


def write_inputs(pkg, workload: str, seed: int, directory: Path) -> dict:
    """Write the seeded algebras of a workload as ``file:`` JSON; returns
    name -> path."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name in INPUTS[workload]:
        path = directory / f"{name}.json"
        path.write_text(json.dumps(pkg.algebra.algebra_to_dict(rescaled(pkg, name, seed)),
                                   indent=1, sort_keys=True))
        paths[name] = str(path)
    return paths


def build_jobs(pkg, workload: str, seed: int, paths: dict) -> list[list[Job]]:
    """The workload's job groups, in the order a pass runs them."""
    if workload == "cohom":
        return [_cohomology_jobs(pkg, seed, paths, COHOM_DIMS, False),
                _cohomology_jobs(pkg, seed, paths, COHOM_REPS, True)]
    if workload == "sweep-deform":
        algebras = {name: pkg.load_algebra(p) for name, p in paths.items()}
        return [_sweep_jobs(pkg, seed, algebras),
                _deform_jobs(pkg, seed, paths)]
    raise ValueError(f"unknown workload {workload!r}")
