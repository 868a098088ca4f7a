"""Seeded job streams for the three workloads, their execution and output checks.

A job is one request a user would make: a ``construct`` command (closure), a
``check-ring`` plus ``verify`` pair with membership solves (certify), or a
``density`` command (density).  Every job goes through the in-process CLI
entry ``origami_rings.cli.run`` with generated argv, except the membership
solves, which call the public ``MembershipSolver`` directly.

Jobs are issued in rounds.  One round holds every pool entry as many times as
its weight says, in a seeded order, so every whole round has the same job
mix; the runner only stops at a round boundary.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import random
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from mpmath import ctx_iv

from origami_rings import (
    ConstructionConfig,
    MembershipSolver,
    Rational,
    closure_to_depth,
    intersect,
    nontrivial_monomials,
    projection_set,
    root_of_unity,
    scalar_from_obj,
    verify_certificate,
)
from origami_rings import analysis, cli
from origami_rings.analysis import certificate_from_obj
from origami_rings.anglespec import parse_angle_list

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"

EXAMPLE = "0,pi*1/6,pi*1/3,pi*1/2"
EXAMPLE_SIZES = [2, 8, 84]
PARAM = "0,param:1,param:2,param:3"
PARAM_ARG = "pi*1/7"

# A run measures whole rounds and at least MIN_JOBS jobs (see run.py), so the
# 75th percentile always has ten jobs beyond it.  The closure and certify
# rounds hold 40 jobs; the density round holds 24.

# (angles, depth, jobs per round).  Three-direction sets go to depth 3 and
# four- and five-direction sets to depth 2; ambient fields run from Q(zeta_12)
# to Q(zeta_120).  Depth 3 of the example set (about 100 s) stays out.
# Weights put the median in the middle of the example-set jobs, away from
# the edge of that block.
CLOSURE_POOL = [
    ("0,pi*1/6,pi*1/2", 3, 7),
    ("0,pi*1/6,pi*1/3", 3, 6),
    ("0,pi*1/4,pi*1/3", 3, 2),
    ("0,pi*1/12,pi*1/2", 3, 2),
    ("0,pi*1/12,pi*5/12", 3, 1),
    ("0,pi*1/5,pi*1/3", 3, 1),
    ("0,pi*1/10,pi*1/12", 3, 1),
    (EXAMPLE, 2, 12),
    ("0,pi*1/6,pi*1/3,pi*2/3", 2, 2),
    ("0,pi*1/12,pi*1/6,pi*1/4", 2, 1),
    ("0,pi*1/4,pi*1/3,pi*1/2", 2, 1),
    ("0,pi*1/6,pi*1/3,pi*1/2,pi*2/3", 2, 1),
    (PARAM, 2, 3),
]

# (angles, degree bound, verdict, jobs per round).  Verdicts are pinned: the
# example set is a ring, {pi/5, pi/4, pi/3} is unknown at degree 3 and
# {pi/6, pi/2} is not a ring.  Four-direction numeric ring sets also solve
# membership for a sample of their S_2 points.  Weights put the median in the
# middle of the example-set jobs and the 75th percentile inside the
# parametric and five-direction jobs, which cost about the same.
CERTIFY_POOL = [
    (EXAMPLE, 3, "ring", 14),
    ("0,pi*1/4,pi*1/2,pi*3/4", 3, "ring", 7),
    ("0,pi*1/5,pi*1/4,pi*1/3", 3, "unknown", 5),
    ("0,pi*1/6,pi*1/2,pi*5/6", 3, "unknown", 2),
    ("0,pi*1/3,pi*2/3", 3, "ring", 1),
    ("0,pi*1/4,pi*1/2", 3, "ring", 1),
    ("0,pi*1/6,pi*1/3", 3, "ring", 1),
    ("0,pi*1/3,pi*1/2", 3, "ring", 1),
    ("0,pi*1/6,pi*1/2", 3, "not_ring", 1),
    (PARAM, 2, "ring", 4),
    ("0,pi*1/6,pi*1/3,pi*1/2,pi*2/3", 2, "ring", 3),
]
SAMPLE_POINTS = 128  # drawn with replacement: S_2 of {pi/4, pi/2, 3pi/4} holds 39 points

# (angles, jobs per round): numeric four-direction sets of order 12 to 120.
# The example-set jobs, whose latency depends little on the target, hold the
# median; the latency of the order-24 sets varies by up to 70% with the
# target.  The 75th percentile falls among the {pi/12, pi/6, pi/4} jobs.  The
# order-40 and order-120 sets, at about 0.7 and 1.5 s a job, sit beyond it.
# A round lasts about 6 s, so a run holds three or more, and each grid point
# recurs once a round.
DENSITY_POOL = [
    (EXAMPLE, 14),
    ("0,pi*1/4,pi*1/3,pi*1/2", 2),
    ("0,pi*1/12,pi*1/6,pi*1/4", 6),
    ("0,pi*1/10,pi*1/4,pi*1/2", 1),
    ("0,pi*1/5,pi*1/4,pi*1/3", 1),
]
EPS_EXPONENTS = (1.0, 6.0)  # epsilon = 1/round(10**u), u spread over this range

# One or two cheap entries per workload, for the smoke tests.
TINY_POOLS = {
    "closure": [("0,pi*1/6,pi*1/3", 3, 1), (EXAMPLE, 2, 1)],
    "certify": [(EXAMPLE, 3, "ring", 1), ("0,pi*1/6,pi*1/2", 3, "not_ring", 1),
                ("0,pi*1/6,pi*1/2,pi*5/6", 3, "unknown", 1)],
    "density": [(EXAMPLE, 2)],
}

EXIT_CODES = {"ring": 0, "not_ring": 3, "unknown": 4}
VERIFY_CODES = {"ring": 0, "not_ring": 0, "unknown": 4}


@dataclass
class Job:
    kind: str  # pool entry label, e.g. "0,pi*1/6,pi*1/3@3"
    argv: list
    entry: dict  # the set-up state of the pool entry
    params: dict = field(default_factory=dict)


@dataclass
class Result:
    kind: str
    wall_s: float
    cpu_s: float
    artifact_bytes: int
    failure: str | None  # None when every output check passed


@dataclass
class Context:
    """Set-up state of one workload: parsed pool, prepared inputs, scratch path."""

    workload: str
    entries: list
    workdir: Path
    setup_failures: list = field(default_factory=list)


# -- shared helpers ------------------------------------------------------------


def clear_library_caches():
    """Drop every memo cache of the library so that each set-up starts cold."""
    for name, module in list(sys.modules.items()):
        if name == "origami_rings" or name.startswith("origami_rings."):
            for obj in list(vars(module).values()):
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()


def call_cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
        io.StringIO()
    ):
        return cli.run(list(argv))


def _generators(angles):
    """Module generators check-ring must report, derived from the angles alone."""
    nu = angles.non_unit()
    if len(angles) == 3:
        return [Rational(1), intersect(nu[0], nu[1], Rational(0), Rational(1))]
    return [Rational(1)] + [m.value for m in nontrivial_monomials(angles)]


def _keys(values):
    return [v.canonical_key() for v in values]


def load_digests() -> dict:
    with open(DIGESTS) as fh:
        return json.load(fh)


# -- set-up ---------------------------------------------------------------------


def setup(workload: str, workdir: Path, pools=None) -> Context:
    """Parse the pool and warm the library's caches; nothing here is timed per job."""
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "closure":
        return _setup_closure(workdir, pools or CLOSURE_POOL)
    if workload == "certify":
        return _setup_certify(workdir, pools or CERTIFY_POOL)
    if workload == "density":
        return _setup_density(workdir, pools or DENSITY_POOL)
    raise ValueError(f"unknown workload {workload!r}")


def _setup_closure(workdir, pool) -> Context:
    digests = load_digests()
    ctx = Context("closure", [], workdir)
    for spec, depth, weight in pool:
        angles, _ = parse_angle_list(spec)
        label = f"{spec}@{depth}"
        record = digests.get(label)
        if record is None:
            ctx.setup_failures.append(f"{label}: no recorded digest")
        # warm-up: depth 1 fills the field caches and lets S_0 <= S_1 be checked
        gens = closure_to_depth(ConstructionConfig(angles, max_depth=1))
        if not set(_keys(gens[0])) <= set(_keys(gens[1])):
            ctx.setup_failures.append(f"{label}: S_0 is not inside S_1")
        if record is not None and [len(g) for g in gens] != record["sizes"][:2]:
            ctx.setup_failures.append(f"{label}: |S_0|, |S_1| differ from the record")
        ctx.entries.append(
            {"label": label, "spec": spec, "depth": depth, "weight": weight,
             "record": record, "param": spec.startswith("0,param")}
        )
    return ctx


def _setup_certify(workdir, pool) -> Context:
    ctx = Context("certify", [], workdir)
    for spec, degree, verdict, weight in pool:
        angles, _ = parse_angle_list(spec)
        label = f"{spec}@{degree}"
        gens = _generators(angles)
        projs = [] if len(angles) == 3 else list(projection_set(angles).nontrivial)
        entry = {"label": label, "spec": spec, "degree": degree, "verdict": verdict,
                 "weight": weight, "generator_keys": _keys(gens),
                 "projection_keys": _keys(projs), "solver": None}
        if len(angles) == 4 and verdict == "ring" and not angles.is_parametric():
            chain = closure_to_depth(ConstructionConfig(angles, max_depth=2))
            for k in range(2):
                if not set(_keys(chain[k])) <= set(_keys(chain[k + 1])):
                    ctx.setup_failures.append(f"{label}: S_{k} is not inside S_{k + 1}")
            if spec == EXAMPLE and [len(g) for g in chain] != EXAMPLE_SIZES:
                ctx.setup_failures.append(f"{label}: |S_k| is not {EXAMPLE_SIZES}")
            solver = MembershipSolver(gens, projs, degree)
            solver.solve(chain[2].points[-1])  # builds the reusable row solver
            entry.update(solver=solver, s2=list(chain[2].points),
                         generators=gens, projections=projs)
        ctx.entries.append(entry)
    return ctx


def _setup_density(workdir, pool) -> Context:
    ctx = Context("density", [], workdir)
    for spec, weight in pool:
        parse_angle_list(spec)
        label = spec
        # warm-up: one coarse witness per set fills the field and interval caches
        path = workdir / "warmup.json"
        code = call_cli(["density", "--angles", spec, "--target=1/3,-1/2",
                         "--epsilon", "1/10", "--out", str(path)])
        if code != 0:
            ctx.setup_failures.append(f"{label}: warm-up witness exited {code}")
        ctx.entries.append({"label": label, "spec": spec, "weight": weight})
    return ctx


# -- job streams ----------------------------------------------------------------


def make_round(ctx: Context, rng: random.Random) -> list[Job]:
    """One round: each pool entry weight times, seeded inputs, seeded order."""
    jobs = []
    for entry in ctx.entries:
        n = entry["weight"]
        if ctx.workload == "closure":
            jobs.extend(_closure_job(ctx, entry) for _ in range(n))
        elif ctx.workload == "certify":
            jobs.extend(_certify_job(ctx, entry, rng) for _ in range(n))
        else:
            # each entry covers the exponent range on a fixed grid, so that
            # every round asks for the same spread of refinement depths
            lo, hi = EPS_EXPONENTS
            for i in range(n):
                u = lo + (hi - lo) * (i + 0.5) / n
                jobs.append(_density_job(ctx, entry, rng, u))
    rng.shuffle(jobs)
    return jobs


def _closure_job(ctx, entry) -> Job:
    out = ctx.workdir / "closure.csv"
    argv = ["construct", "--angles", entry["spec"], "--depth", str(entry["depth"]),
            "--format", "csv", "--out", str(out)]
    if entry["param"]:
        argv += ["--param-arg", PARAM_ARG]
    return Job(entry["label"], argv, entry, {"out": out})


def _certify_job(ctx, entry, rng) -> Job:
    out = ctx.workdir / "verdict.json"
    argv = ["check-ring", "--angles", entry["spec"], "--degree-bound",
            str(entry["degree"]), "--out", str(out)]
    sample = []
    if entry["solver"] is not None:
        sample = rng.choices(entry["s2"], k=SAMPLE_POINTS)
    return Job(entry["label"], argv, entry, {"out": out, "sample": sample})


def _density_job(ctx, entry, rng, u) -> Job:
    out = ctx.workdir / "witness.json"
    re = Fraction(rng.randint(-2000, 2000), 1000)
    im = Fraction(rng.randint(-2000, 2000), 1000)
    eps = Fraction(1, round(10**u))
    argv = ["density", "--angles", entry["spec"], f"--target={re},{im}",
            "--epsilon", str(eps), "--out", str(out)]
    return Job(entry["label"], argv, entry,
               {"out": out, "re": re, "im": im, "eps": eps})


# -- execution ------------------------------------------------------------------


def execute(ctx: Context, job: Job, tamper=None, on_checks=None) -> Result:
    """Run one job, time it, then check its outputs.

    ``tamper`` edits the emitted artifact before the checks (used by the
    smoke tests to show that corrupted outputs are caught).  ``on_checks``
    wraps the checking phase, so that tracing can pause around it.
    """
    out = job.params["out"]
    if out.exists():
        out.unlink()
    w0, c0 = time.perf_counter(), time.process_time()
    outcome = {}
    try:
        outcome["code"] = cli_code = call_cli(job.argv)
        if ctx.workload == "certify" and cli_code in (0, 3, 4):
            outcome["verify_code"] = call_cli(["verify", str(out)])
            entry = job.entry
            verified = []
            for point in job.params["sample"]:
                cert = entry["solver"].solve(point)
                verified.append(cert is not None and analysis.verify_certificate(
                    cert, entry["generators"], entry["projections"], expected=point
                ))
            outcome["sample"] = verified
    except Exception:  # a crashing job counts as failed, the run goes on
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        return Result(job.kind, wall, cpu, 0, "exception: " + traceback.format_exc(limit=3))
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    size = out.stat().st_size if out.exists() else 0
    if tamper is not None and out.exists():
        tamper(out)
    checker = {"closure": check_closure, "certify": check_certify,
               "density": check_density}[ctx.workload]
    with (on_checks() if on_checks else contextlib.nullcontext()):
        try:
            failure = checker(job, outcome)
        except Exception:
            failure = "check raised: " + traceback.format_exc(limit=3)
    return Result(job.kind, wall, cpu, size, failure)


# -- output checks ----------------------------------------------------------------


def check_closure(job, outcome) -> str | None:
    if outcome["code"] != 0:
        return f"construct exited {outcome['code']}"
    data = job.params["out"].read_bytes()
    record = job.entry["record"]
    if record is None:
        return "no recorded digest for this pool entry"
    lines = [line for line in data.decode().splitlines() if not line.startswith("#")]
    header, *body = csv.reader(lines)
    if header != ["re_lo", "re_hi", "im_lo", "im_hi", "canonical_key", "depth"]:
        return "unexpected CSV header"
    depth = job.entry["depth"]
    firsts = [int(row[5]) for row in body]
    if len({row[4] for row in body}) != len(body):
        return "duplicate canonical keys in the CSV"
    if any(d < 0 or d > depth for d in firsts):
        return "depth column out of range"
    sizes = [sum(1 for d in firsts if d <= k) for k in range(depth + 1)]
    if sizes != record["sizes"]:
        return f"|S_k| = {sizes}, recorded {record['sizes']}"
    if len(body) != sizes[-1]:
        return "row count differs from |S_depth|"
    if job.entry["spec"] == EXAMPLE and depth == 2 and sizes != EXAMPLE_SIZES:
        return f"example set gives |S_k| = {sizes}"
    if hashlib.sha256(data).hexdigest() != record["sha256"]:
        return "CSV digest differs from the recorded one"
    return None


def check_certify(job, outcome) -> str | None:
    entry = job.entry
    verdict = entry["verdict"]
    if outcome["code"] != EXIT_CODES[verdict]:
        return f"check-ring exited {outcome['code']}, expected {EXIT_CODES[verdict]}"
    if outcome.get("verify_code") != VERIFY_CODES[verdict]:
        return f"verify exited {outcome.get('verify_code')}"
    with open(job.params["out"]) as fh:
        obj = json.load(fh)
    if obj.get("verdict") != verdict:
        return f"verdict {obj.get('verdict')!r}, expected {verdict!r}"
    gens = [scalar_from_obj(g) for g in obj["generators"]]
    projs = [scalar_from_obj(p) for p in obj["projections"]]
    if _keys(gens) != entry["generator_keys"]:
        return "generators differ from those of the angle set"
    if _keys(projs) != entry["projection_keys"]:
        return "projections differ from those of the angle set"
    if verdict == "ring":
        certs = [certificate_from_obj(c) for c in obj["certificates"]]
        n = len(gens)
        wanted = {(i, j) for i in range(1, n) for j in range(i, n)}
        products = [tuple(c.product) for c in certs]
        if len(products) != len(wanted) or set(products) != wanted:
            return "not exactly one certificate per unordered generator pair"
        for cert in certs:
            if not verify_certificate(cert, gens, projs):
                return f"certificate {cert.product} fails verify_certificate"
    if verdict == "unknown" and not obj.get("unresolved"):
        return "unknown verdict names no unresolved pair"
    sample = outcome.get("sample", [])
    if not all(sample):
        return f"{sample.count(False)} of {len(sample)} S_2 points lack a verified certificate"
    return None


def check_density(job, outcome) -> str | None:
    if outcome["code"] != 0:
        return f"density exited {outcome['code']}"
    with open(job.params["out"]) as fh:
        obj = json.load(fh)
    p = job.params
    if (Fraction(obj["target"]["re"]), Fraction(obj["target"]["im"])) != (p["re"], p["im"]):
        return "witness names another target"
    if Fraction(obj["epsilon"]) != p["eps"]:
        return "witness names another epsilon"
    base, z = scalar_from_obj(obj["p"]), scalar_from_obj(obj["z"])
    a, b, n1, n2 = int(obj["a"]), int(obj["b"]), int(obj["n1"]), int(obj["n2"])
    w = a * base**n1 + b * base**n2 * z
    if w != scalar_from_obj(obj["value"]):
        return "a*p^n1 + b*p^n2*z differs from the stated value"
    err = w - (p["re"] + p["im"] * root_of_unity(4, 1))
    margin = p["eps"] ** 2 - err * err.conj()
    if not positive(margin):
        return "|w - target| < epsilon does not hold"
    return None


def positive(x) -> bool:
    """Exact sign test for a real cyclotomic value, independent of the
    library's own: interval sums of coefficient * cos(2*pi*j/n), refined
    until the enclosure leaves zero.  Exact zero counts as not positive."""
    obj = x.to_obj()
    if obj["backend"] == "rational":
        return Fraction(obj["value"]) > 0
    order = int(obj["order"])
    coeffs = [Fraction(c) for c in obj["coeffs"]]
    if not any(coeffs):
        return False
    bits = 64
    while bits <= 1 << 14:
        iv = ctx_iv.MPIntervalContext()
        iv.prec = bits
        total = iv.mpf(0)
        for j, c in enumerate(coeffs):
            if c:
                term = iv.mpf(c.numerator) / iv.mpf(c.denominator)
                total += term * iv.cos(2 * iv.pi * j / order)
        if total.a > 0:
            return True
        if total.b < 0:
            return False
        bits *= 2
    raise ValueError("sign did not resolve")
