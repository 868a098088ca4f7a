"""Command-line surface: construct, analyze, certify, approximate, export.

Exit codes: 0 success or affirmative verdict, 2 usage or unsupported
configuration, 3 negative verdict (not a ring, unequal lattices, failed
verification), 4 unknown verdict, 5 enumeration cap exceeded.  Outputs are
deterministic for a fixed command line: intervals are printed at the pinned
precision, JSON keys are sorted, and headers carry the configuration, never
a timestamp.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import __version__
from .analysis import (
    certificate_from_obj,
    check_ring,
    ring_context,
    same_lattice,
    verdict_to_obj,
    verify_certificate,
)
from .anglespec import parse_angle_list, parse_value_spec
from .construction import (
    ConstructionConfig,
    closure_to_depth,
    elementary_monomials,
    nontrivial_monomials,
    projection_set,
)
from .density import approximate
from .errors import (
    BackendMismatchError,
    CapExceededError,
    PrecisionError,
    UnsupportedConfigurationError,
)
from .export import enclosures, generations_to_csv, generations_to_obj, points_to_svg
from .intervals import check_precision
from .ratfunc import bulk_field, pi_multiple
from .scalars import scalar_from_obj


def _config_header(args, command: str) -> dict:
    skip = {"func", "out", "command"}
    cfg = {
        k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None
    }
    return {"tool": "origami-rings", "version": __version__, "command": command, "config": cfg}


def _flat_header(meta: dict) -> dict:
    flat = {k: v for k, v in meta.items() if k != "config"}
    for k, v in meta["config"].items():
        flat[f"config.{k}"] = v
    return flat


def _emit(text: str, out: str | None):
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _emit_json(obj: dict, out: str | None):
    _emit(json.dumps(obj, indent=2, sort_keys=True) + "\n", out)


def _angles_arg(args):
    if args.angles is None:
        return None
    angle_set, normalized = parse_angle_list(args.angles)
    args.angles = ",".join(normalized)  # normalized form into the header
    return angle_set


def _check_interval_flags(args):
    """Refuse a --precision or --param-arg that no enclosure could use, on
    every command that takes them, whether or not it encloses anything."""
    if getattr(args, "precision", None) is not None:
        check_precision(args.precision)
    if getattr(args, "param_arg", None) is not None:
        pi_multiple(args.param_arg)


def _interval_args(args, angle_set):
    """Keyword arguments routing the specialization angle when parametric."""
    if angle_set is not None and angle_set.is_parametric():
        if args.param_arg is None:
            return None
        return {"t_arg": args.param_arg}
    return {}


def cmd_construct(args) -> int:
    angle_set = _angles_arg(args)
    if angle_set is None and args.depth > 0:
        print("error: --angles is required for depth > 0", file=sys.stderr)
        return 2
    # without angles the config still checks the limits, and S_0 needs no angles
    config = ConstructionConfig(angle_set, args.depth, args.max_points)
    try:
        gens, code = closure_to_depth(config), 0
    except CapExceededError as err:
        gens, code = err.partial, 5
        print(f"warning: {err}; writing partial result", file=sys.stderr)
    meta = _config_header(args, "construct")
    ivkw = _interval_args(args, angle_set)
    if args.format in ("csv", "svg") and ivkw is None:
        print(
            "error: parametric angles need --param-arg for interval output",
            file=sys.stderr,
        )
        return 2
    if args.format == "csv":
        text = generations_to_csv(
            gens, args.precision, header=_flat_header(meta), **ivkw
        )
        _emit(text, args.out)
    elif args.format == "svg":
        text = points_to_svg(
            gens,
            args.precision,
            radius=args.radius,
            viewport=_parse_viewport(args.viewport),
            header=_flat_header(meta),
            **ivkw,
        )
        _emit(text, args.out)
    else:
        body = generations_to_obj(
            gens, args.precision, **(ivkw if ivkw is not None else {})
        )
        _emit_json({"meta": meta, **body}, args.out)
    return code


def cmd_elementary(args) -> int:
    angle_set = _angles_arg(args)
    meta = _config_header(args, "elementary")
    ivkw = _interval_args(args, angle_set)
    nontrivial = {m.value for m in nontrivial_monomials(angle_set)}
    elementary = elementary_monomials(angle_set)
    monomials = [
        {
            "alpha": m.alpha.value.to_obj(),
            "beta": m.beta.value.to_obj(),
            "value": m.value.to_obj(),
            "canonical_key": m.value.canonical_key().decode(),
            "nontrivial": m.value in nontrivial,
        }
        for m in elementary
    ]
    if ivkw is not None:
        values = [m.value for m in elementary]
        ends = enclosures(values, args.precision, ivkw.get("t_arg"), "elementary")
        for entry, (re_lo, re_hi, im_lo, im_hi) in zip(monomials, ends):
            entry["interval"] = {"re": [re_lo, re_hi], "im": [im_lo, im_hi]}
    _emit_json({"meta": meta, "monomials": monomials}, args.out)
    return 0


def cmd_projections(args) -> int:
    angle_set = _angles_arg(args)
    meta = _config_header(args, "projections")
    ps = projection_set(angle_set)
    obj = {
        "meta": meta,
        "projections": [p.to_obj() for p in ps.projections],
        "nontrivial": [p.to_obj() for p in ps.nontrivial],
        "x": ps.x.to_obj() if ps.x is not None else None,
        "family": [f.to_obj() for f in ps.family] if ps.family is not None else None,
    }
    _emit_json(obj, args.out)
    return 0


def cmd_check_ring(args) -> int:
    angle_set = _angles_arg(args)
    verdict = check_ring(angle_set, degree_bound=args.degree_bound)
    meta = _config_header(args, "check-ring")
    _emit_json({"meta": meta, **verdict_to_obj(verdict)}, args.out)
    return {"ring": 0, "not_ring": 3, "unknown": 4}[verdict.verdict]


def _declared_scalar(value):
    """A trace or norm field: a fraction string or a scalar object."""
    if isinstance(value, str):
        value = {"backend": "rational", "value": value}
    return scalar_from_obj(value)


def _spec_angles(obj):
    """The angle set of a verdict file's meta.config.angles; a missing or
    unparsable list raises (exit 2)."""
    spec = obj["meta"]["config"]["angles"]
    if not isinstance(spec, str):
        raise ValueError(f"meta.config.angles is not an angle list: {spec!r}")
    return parse_angle_list(spec)[0]


def _outside_field(objs, angle_set) -> bool:
    """Whether a stored cyclotomic object's order fails to divide the order
    of the angles' field, read before the costly build of any object.  An
    order that is no positive JSON integer raises ValueError, and a
    cyclotomic object among parametric angles BackendMismatchError."""
    ambient = bulk_field(a.value for a in angle_set).order
    for obj in objs:
        if isinstance(obj, dict) and obj.get("backend") == "cyclotomic":
            order = obj.get("order")
            if type(order) is not int or order < 1:
                raise ValueError(f"cyclotomic order {order!r} is not a positive integer")
            if ambient is None:
                raise BackendMismatchError("cyclotomic value among parametric angles")
            if ambient % order:
                return True
    return False


def cmd_verify(args) -> int:
    with (sys.stdin if args.path == "-" else open(args.path)) as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError("a verdict file holds one JSON object")
    verdict = obj.get("verdict")
    if verdict == "ring":
        context = ring_context(_spec_angles(obj))
        generators, projections = context.generators, context.projections
        if _outside_field([*obj["generators"], *obj["projections"]], context.angles):
            print("stored values lie outside the field rebuilt from the angles", file=sys.stderr)
            return 3
        stored = {
            name: [scalar_from_obj(v) for v in obj[name]] for name in ("generators", "projections")
        }
        # a parametric value among cyclotomic ones is malformed (exit 2)
        bulk_field([*generators, *projections, *stored["generators"], *stored["projections"]])
        for name, rebuilt in (("generators", generators), ("projections", projections)):
            if stored[name] != list(rebuilt):
                print(f"stored {name} differ from those rebuilt from the angles", file=sys.stderr)
                return 3
        certs = [certificate_from_obj(c) for c in obj.get("certificates", [])]
        if not certs:
            print("error: ring verdict without certificates", file=sys.stderr)
            return 3
        pairs = [(i, j) for i in range(1, len(generators)) for j in range(i, len(generators))]
        if sorted(c.product or () for c in certs) != pairs:
            print(
                "certificates must cover each generator pair (i, j), "
                f"1 <= i <= j < {len(generators)}, exactly once",
                file=sys.stderr,
            )
            return 3
        for idx, cert in enumerate(certs):
            if not verify_certificate(cert, generators, projections):
                print(f"certificate {idx} FAILED re-verification", file=sys.stderr)
                return 3
        print(f"verified: {len(certs)} certificates re-evaluate exactly")
        return 0
    if verdict == "not_ring":
        angle_set = _spec_angles(obj)
        three = len(angle_set) == 3 and angle_set.contains_one()
        rebuilt = check_ring(angle_set, degree_bound=0) if three else None
        if (rebuilt is None or _outside_field([obj["witness"]], angle_set)
                or scalar_from_obj(obj["witness"]) != rebuilt.context.generators[1]):
            print("witness is not the intersection rebuilt from the angles, "
                  "which must be three directions, one the real axis", file=sys.stderr)
            return 3
        if rebuilt.verdict == "ring":
            print("witness is a quadratic integer after all", file=sys.stderr)
            return 3
        declared = [obj["trace"], obj["norm"]]
        if _outside_field(declared, angle_set) or [rebuilt.trace, rebuilt.norm] != list(
                map(_declared_scalar, declared)):
            print("witness trace/norm mismatch", file=sys.stderr)
            return 3
        print("verified: witness is not a quadratic integer")
        return 0
    if verdict == "unknown":
        print("nothing to verify: bounded search was inconclusive")
        return 4
    print(f"error: unrecognized verdict {verdict!r}", file=sys.stderr)
    return 2


def cmd_lattice_eq(args) -> int:
    x = parse_value_spec(args.left)
    y = parse_value_spec(args.right)
    equal = same_lattice(x, y)
    meta = _config_header(args, "lattice-eq")
    _emit_json(
        {"meta": meta, "equal": equal, "x": x.to_obj(), "y": y.to_obj()}, args.out
    )
    return 0 if equal else 3


def _rational_flag(flag: str, text: str, part: str) -> Fraction:
    """Fraction(part), where part is read from the value text of flag; a
    value Fraction refuses raises ValueError naming the flag."""
    try:
        return Fraction(part)
    except (ValueError, ZeroDivisionError) as err:
        raise ValueError(f"bad rational in {flag} {text!r}") from err


def cmd_density(args) -> int:
    angle_set = _angles_arg(args)
    parts = args.target.split(",")
    if len(parts) != 2:
        print(f"error: --target must be 're,im', got {args.target!r}", file=sys.stderr)
        return 2
    target = [_rational_flag("--target", args.target, part) for part in parts]
    epsilon = _rational_flag("--epsilon", args.epsilon, args.epsilon)
    witness = approximate(*target, epsilon, angle_set)
    meta = _config_header(args, "density")
    obj = witness.to_obj()
    re_lo, re_hi, im_lo, im_hi = witness.value_interval(args.precision).endpoint_strings()
    obj["value_interval"] = {"re": [re_lo, re_hi], "im": [im_lo, im_hi]}
    _emit_json({"meta": meta, **obj}, args.out)
    return 0


def _parse_viewport(text: str):
    parts = [float(v) for v in text.split(",")]
    if len(parts) != 4:
        raise ValueError("viewport must be re_min,re_max,im_min,im_max")
    return tuple(parts)


def _add_common(sub, angles_required=True):
    if angles_required:
        sub.add_argument("--angles", required=True, help="comma-separated angle specs")
    else:
        sub.add_argument("--angles", help="comma-separated angle specs")
    sub.add_argument("--precision", type=int, default=64, help="interval bits")
    sub.add_argument(
        "--param-arg",
        help="specialization angle pi*p/q for parametric sets, with p/q a "
        "rational, so that t = exp(i*pi*p/q) (e.g. pi*1/7)",
    )
    sub.add_argument("--out", help="output path (default stdout)")


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it unchanged,
    since every parse fills a fresh namespace and argparse looks up
    sys.stdout and sys.stderr when it writes."""
    parser = argparse.ArgumentParser(
        prog="origami-rings",
        description="exact intersection closures, their rings, and approximations",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build S_0..S_depth and export")
    _add_common(p, angles_required=False)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--max-points", type=int, default=250_000)
    p.add_argument("--format", choices=("csv", "json", "svg"), default="csv")
    p.add_argument("--radius", type=float, default=0.02, help="svg point radius")
    p.add_argument("--viewport", default="-3,4,-3,3", help="svg re_min,re_max,im_min,im_max")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("elementary", help="list elementary monomials")
    _add_common(p)
    p.set_defaults(func=cmd_elementary)

    p = sub.add_parser("projections", help="list projection values and the x-family")
    _add_common(p)
    p.set_defaults(func=cmd_projections)

    p = sub.add_parser("check-ring", help="decide or certify ring-ness")
    _add_common(p)
    p.add_argument("--degree-bound", type=int, default=3)
    p.set_defaults(func=cmd_check_ring)

    p = sub.add_parser("verify", help="re-verify an emitted verdict JSON")
    p.add_argument("path", help="verdict JSON path, or - for stdin")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("lattice-eq", help="compare lattices Z + xZ")
    p.add_argument("left", help="'re,im' or 'angles:<specs>'")
    p.add_argument("right", help="'re,im' or 'angles:<specs>'")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_lattice_eq)

    p = sub.add_parser("density", help="approximate a target by a closure point")
    _add_common(p)
    p.add_argument("--target", required=True, help="'re,im' rationals")
    p.add_argument("--epsilon", required=True, help="positive rational")
    p.set_defaults(func=cmd_density)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return err.code if isinstance(err.code, int) else 2
    try:
        _check_interval_flags(args)
        return args.func(args)
    except CapExceededError as err:
        print(f"error: {err}", file=sys.stderr)
        return 5
    except (
        ValueError,
        ZeroDivisionError,
        TypeError,
        OSError,
        KeyError,
        json.JSONDecodeError,
        BackendMismatchError,
        UnsupportedConfigurationError,
        PrecisionError,
    ) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def main(argv=None):
    sys.exit(run(argv))


if __name__ == "__main__":
    main()
