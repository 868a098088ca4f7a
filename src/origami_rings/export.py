"""Serialization of constructed point sets: CSV, SVG and JSON objects.

Every export is deterministic: points are ordered by canonical key, interval
endpoints are printed at a pinned precision, and headers carry the run
configuration rather than timestamps.  One export shares its interval work
across its points (`enclosures`) and keeps none of it after it returns.
"""

from __future__ import annotations

import csv
import io
import logging
import math
import time

from .construction import GenerationSet
from .intervals import Enclosures
from .ratfunc import ParamRational

log = logging.getLogger(__name__)

# the longer side of an SVG canvas, in pixels
SVG_SIZE = 800


def enclosures(values, bits: int, t_arg, kind: str, strings: bool = True) -> list:
    """The enclosures of values at bits, as (re_lo, re_hi, im_lo, im_hi)
    endpoint strings, or as ComplexIntervals when strings is false.

    One `intervals.Enclosures` memo serves the whole call, so each distinct
    term, polynomial, ratio and endpoint string is computed once, and each
    enclosure has the bits of the value's own `to_interval`.  The memo is
    dropped on return.  Logs one DEBUG record to the
    ``origami_rings.export`` logger with the export kind, the points, the
    distinct cyclotomic terms, parametric polynomials and endpoint strings,
    and the seconds taken.
    """
    start = time.perf_counter()
    memo = Enclosures(bits, t_arg)
    out = [v.to_interval(bits, t_arg, memo) for v in values]
    if strings:
        out = [memo.endpoint_strings(iv) for iv in out]
    if log.isEnabledFor(logging.DEBUG):
        stats = {
            "kind": kind,
            "points": len(out),
            "terms": len(memo.terms),
            "polynomials": len(memo.polys),
            "endpoints": len(memo.strings),
            "seconds": time.perf_counter() - start,
        }
        log.debug(
            "%(kind)s export: %(points)d points, %(terms)d distinct terms, "
            "%(polynomials)d polynomials, %(endpoints)d endpoint strings, "
            "%(seconds).6f s",
            stats,
        )
    return out


def _first_appearance(gens: list[GenerationSet]):
    """(point, depth) pairs, each point at the first depth containing it."""
    seen = {}
    for gen in sorted(gens, key=lambda g: g.depth):
        for p in gen.points:
            k = p.canonical_key()
            if k not in seen:
                seen[k] = (p, gen.depth)
    return [seen[k] for k in sorted(seen)]


def generations_to_csv(
    gens: list[GenerationSet], bits: int, t_arg=None, header: dict | None = None
) -> str:
    """CSV with interval endpoints, canonical key and first depth per point."""
    buf = io.StringIO()
    for k, v in (header or {}).items():
        buf.write(f"# {k}={v}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["re_lo", "re_hi", "im_lo", "im_hi", "canonical_key", "depth"])
    rows = _first_appearance(gens)
    ends = enclosures([p for p, _ in rows], bits, t_arg, "csv")
    for (point, depth), (re_lo, re_hi, im_lo, im_hi) in zip(rows, ends):
        writer.writerow([re_lo, re_hi, im_lo, im_hi, point.canonical_key().decode(), depth])
    return buf.getvalue()


def generations_to_obj(
    gens: list[GenerationSet], bits: int | None = None, t_arg=None
) -> dict:
    """JSON-ready description; intervals included when bits is given.

    Without a specialization angle, parametric points carry no interval; a
    bad specialization raises as in the CSV and SVG exports."""
    out, enclosed = [], []
    for gen in sorted(gens, key=lambda g: g.depth):
        points = []
        for p in gen.points:
            entry = {"value": p.to_obj(), "canonical_key": p.canonical_key().decode()}
            if bits is not None and (t_arg is not None or not isinstance(p, ParamRational)):
                enclosed.append((entry, p))
            points.append(entry)
        out.append({"depth": gen.depth, "size": len(gen.points), "points": points})
    if bits is not None:
        ends = enclosures([p for _, p in enclosed], bits, t_arg, "json")
        for (entry, _), (re_lo, re_hi, im_lo, im_hi) in zip(enclosed, ends):
            entry["interval"] = {"re": [re_lo, re_hi], "im": [im_lo, im_hi]}
    return {"generations": out}


def points_to_svg(
    gens: list[GenerationSet],
    bits: int,
    t_arg=None,
    radius: float = 0.02,
    viewport: tuple[float, float, float, float] = (-3.0, 4.0, -3.0, 3.0),
    header: dict | None = None,
) -> str:
    """One circle per point, midpoint placement, a canvas whose longer side
    is SVG_SIZE pixels.

    viewport is (re_min, re_max, im_min, im_max) in point coordinates; the
    vertical axis is flipped into screen coordinates.  Bounds, extents and
    the radius in pixels that are not finite, an empty extent and a radius
    that is not positive raise ValueError.
    """
    re_min, re_max, im_min, im_max = (float(v) for v in viewport)
    extents = (re_max - re_min, im_max - im_min)
    if not all(map(math.isfinite, (re_min, re_max, im_min, im_max, *extents))):
        raise ValueError("viewport bounds and extents must be finite")
    if not min(extents) > 0:
        raise ValueError("viewport must have positive extent")
    scale = SVG_SIZE / max(extents)
    width, height = (e * scale for e in extents)
    r = radius * scale
    if not (radius > 0 and math.isfinite(r)):
        raise ValueError("radius must be positive and, in pixels, finite")
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.1f}" '
        f'height="{height:.1f}" viewBox="0 0 {width:.1f} {height:.1f}">'
    ]
    for k, v in (header or {}).items():
        lines.append(f"<!-- {k}={v} -->")
    lines.append(f'<rect width="{width:.1f}" height="{height:.1f}" fill="white"/>')
    rows = _first_appearance(gens)
    rects = enclosures([p for p, _ in rows], bits, t_arg, "svg", strings=False)
    for (point, depth), iv in zip(rows, rects):
        mid = iv.midpoint()
        if not (re_min <= mid.real <= re_max and im_min <= mid.imag <= im_max):
            continue
        cx = (mid.real - re_min) * scale
        cy = (im_max - mid.imag) * scale
        lines.append(
            f'<circle cx="{cx:.3f}" cy="{cy:.3f}" r="{r:.3f}" '
            f'fill="black" fill-opacity="0.7"><title>depth {depth}: '
            f"{point.canonical_key().decode()}</title></circle>"
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
