"""Serialization of constructed point sets: CSV, SVG and JSON objects.

Every export is deterministic: points are ordered by canonical key, interval
endpoints are printed at a pinned precision, and headers carry the run
configuration rather than timestamps.
"""

from __future__ import annotations

import csv
import io

from .construction import GenerationSet
from .ratfunc import ParamRational

# the longer side of an SVG canvas, in pixels
SVG_SIZE = 800


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
    for point, depth in _first_appearance(gens):
        iv = point.to_interval(bits, t_arg)
        re_lo, re_hi, im_lo, im_hi = iv.endpoint_strings()
        writer.writerow([re_lo, re_hi, im_lo, im_hi, point.canonical_key().decode(), depth])
    return buf.getvalue()


def generations_to_obj(
    gens: list[GenerationSet], bits: int | None = None, t_arg=None
) -> dict:
    """JSON-ready description; intervals included when bits is given.

    Without a specialization angle, parametric points carry no interval; a
    bad specialization raises as in the CSV and SVG exports."""
    out = []
    for gen in sorted(gens, key=lambda g: g.depth):
        points = []
        for p in gen.points:
            entry = {"value": p.to_obj(), "canonical_key": p.canonical_key().decode()}
            if bits is not None and (t_arg is not None or not isinstance(p, ParamRational)):
                iv = p.to_interval(bits, t_arg)
                re_lo, re_hi, im_lo, im_hi = iv.endpoint_strings()
                entry["interval"] = {"re": [re_lo, re_hi], "im": [im_lo, im_hi]}
            points.append(entry)
        out.append({"depth": gen.depth, "size": len(gen.points), "points": points})
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
    vertical axis is flipped into screen coordinates.
    """
    re_min, re_max, im_min, im_max = (float(v) for v in viewport)
    if not (re_max > re_min and im_max > im_min):
        raise ValueError("viewport must have positive extent")
    scale = SVG_SIZE / max(re_max - re_min, im_max - im_min)
    width = (re_max - re_min) * scale
    height = (im_max - im_min) * scale
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.1f}" '
        f'height="{height:.1f}" viewBox="0 0 {width:.1f} {height:.1f}">'
    ]
    for k, v in (header or {}).items():
        lines.append(f"<!-- {k}={v} -->")
    lines.append(f'<rect width="{width:.1f}" height="{height:.1f}" fill="white"/>')
    r = radius * scale
    for point, depth in _first_appearance(gens):
        iv = point.to_interval(bits, t_arg)
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
