"""Scalar-layer probe: time per add, mul, inv and canonical_key, per field.

Operands are points of the closures the workloads build: S_2 of the example
set (order 12, and its rational points for order 1), S_1 of an order-24, an
order-120 and the parametric set.
"""

from __future__ import annotations

import random
import statistics
import time

from origami_rings import ConstructionConfig, Rational, closure_to_depth
from origami_rings.anglespec import parse_angle_list

import jobs

SOURCES = {
    "o1": (jobs.EXAMPLE, 2),
    "o12": (jobs.EXAMPLE, 2),
    "o24": ("0,pi*1/12,pi*1/6,pi*1/4", 1),
    "o120": ("0,pi*1/10,pi*1/12", 1),
    "param": (jobs.PARAM, 1),
}
PAIRS = 16
BATCHES = 5


def operands(field: str) -> list:
    spec, depth = SOURCES[field]
    angles, _ = parse_angle_list(spec)
    points = closure_to_depth(ConstructionConfig(angles, max_depth=depth))[-1].points
    if field == "o1":
        return [Rational(p.as_fraction()) for p in points if p.is_rational() and p]
    return [p for p in points if not p.is_rational()]


def _per_op_us(pairs, op) -> float:
    """Median over batches of the mean time of one op, in microseconds."""
    samples = []
    for _ in range(BATCHES):
        if op == "canonical_key":
            fresh = [a * b for a, b in pairs]  # new values carry no cached key
            t0 = time.perf_counter()
            for v in fresh:
                v.canonical_key()
        elif op == "add":
            t0 = time.perf_counter()
            for a, b in pairs:
                a + b
        elif op == "mul":
            t0 = time.perf_counter()
            for a, b in pairs:
                a * b
        else:
            t0 = time.perf_counter()
            for a, _ in pairs:
                a.inv()
        samples.append((time.perf_counter() - t0) / len(pairs) * 1e6)
    return statistics.median(samples)


def run(seed: int) -> dict:
    """{"scalars.<op>.<field>_us": microseconds} for every op and field."""
    rng = random.Random(seed)
    out = {}
    for field in SOURCES:
        values = operands(field)
        pairs = [(rng.choice(values), rng.choice(values)) for _ in range(PAIRS)]
        for op in ("add", "mul", "inv", "canonical_key"):
            out[f"scalars.{op}.{field}_us"] = _per_op_us(pairs, op)
    return out
