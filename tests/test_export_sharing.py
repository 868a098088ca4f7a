"""One export shares its interval work and keeps the bytes of the per-point path.

Each export (`construct` CSV, JSON and SVG, and `elementary`) encloses its
values through one memo (`export.enclosures`): every distinct cyclotomic
term, parametric polynomial, ratio and endpoint string is computed once per
call, and nothing is kept after it.  The outputs are compared by sha256 with
the same commands run through each value's own `to_interval`, whose
endpoints `test_interval_kernels` ties to the ivmpf oracle.
"""

import hashlib
import logging
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import origami_rings
from origami_rings import (
    CyclotomicElement,
    ParamRational,
    Rational,
    cli,
    cyclotomic,
    export,
    intervals,
    ratfunc,
    root_of_unity,
)
from origami_rings.anglespec import parse_angle_list
from origami_rings.construction import ConstructionConfig, closure_to_depth

EXAMPLE = "0,pi*1/6,pi*1/3,pi*1/2"
PARAM = "0,param:1,param:2,param:3"
PARAM_ARG = "pi*1/7"
# the sets and depths of the closure benchmark
CLOSURE_SETS = [
    ("0,pi*1/6,pi*1/2", 3),
    ("0,pi*1/6,pi*1/3", 3),
    ("0,pi*1/4,pi*1/3", 3),
    ("0,pi*1/12,pi*1/2", 3),
    ("0,pi*1/12,pi*5/12", 3),
    ("0,pi*1/5,pi*1/3", 3),
    ("0,pi*1/10,pi*1/12", 3),
    (EXAMPLE, 2),
    ("0,pi*1/6,pi*1/3,pi*2/3", 2),
    ("0,pi*1/12,pi*1/6,pi*1/4", 2),
    ("0,pi*1/4,pi*1/3,pi*1/2", 2),
    ("0,pi*1/6,pi*1/3,pi*1/2,pi*2/3", 2),
    (PARAM, 2),
]


def per_point(values, bits, t_arg, kind, strings=True):
    """The export path without sharing: each value's own `to_interval`."""
    ivs = [v.to_interval(bits, t_arg) for v in values]
    return [iv.endpoint_strings() for iv in ivs] if strings else ivs


def commands(spec, depth, bits):
    """construct in every format, and elementary, at bits."""
    common = ["--angles", spec, "--precision", str(bits)]
    if "param" in spec:
        common += ["--param-arg", PARAM_ARG]
    construct = ["construct", "--depth", str(depth)]
    return [construct + ["--format", fmt] + common for fmt in ("csv", "json", "svg")] + [
        ["elementary"] + common
    ]


def digest(argv, capsys):
    assert cli.run(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def gens_of(spec, depth):
    return closure_to_depth(ConstructionConfig(parse_angle_list(spec)[0], depth))


@pytest.mark.parametrize("bits", [64, 113, 200])
@pytest.mark.parametrize("spec, depth", CLOSURE_SETS)
def test_exports_match_per_point_path(spec, depth, bits, capsys, monkeypatch):
    shared = [digest(argv, capsys) for argv in commands(spec, depth, bits)]
    monkeypatch.setattr(export, "enclosures", per_point)
    monkeypatch.setattr(cli, "enclosures", per_point)
    assert [digest(argv, capsys) for argv in commands(spec, depth, bits)] == shared


def test_values_sharing_coefficients_keep_their_own_enclosures():
    # equal coefficient lists over different leading coefficients, equal
    # exponents and coefficients at different orders, and one term written
    # over different denominators
    t = ParamRational.t_power
    params = [t(1) / 2, t(1) / 3, (t(1) + 1) / (2 * t(2)), (t(1) + 1) / 3, 1 / (2 * t(1)), t(1)]
    numeric = [root_of_unity(3, 1), root_of_unity(4, 1), root_of_unity(12, 1) / 2,
               CyclotomicElement(12, [0, Fraction(2, 4), Fraction(1, 3)]), Rational(Fraction(1, 2))]
    for bits in (8, 64, 200):
        for values, t_arg in [(params, PARAM_ARG), (numeric, None)]:
            for strings in (True, False):
                shared = export.enclosures(values, bits, t_arg, "csv", strings)
                alone = per_point(values, bits, t_arg, "csv", strings)
                if not strings:
                    shared = [(iv._re, iv._im) for iv in shared]
                    alone = [(iv._re, iv._im) for iv in alone]
                assert shared == alone, (bits, t_arg)


def counting(calls, fn):
    def wrapper(*args):
        calls.append(args)
        return fn(*args)

    return wrapper


def test_csv_export_computes_each_distinct_piece_once(monkeypatch):
    gens = gens_of(EXAMPLE, 2)
    expected = export.generations_to_csv(gens, 64)
    points = [p for p, _ in export._first_appearance(gens)]
    terms = {
        (p.order, j, c)
        for p in points
        if isinstance(p, CyclotomicElement)
        for j, c in enumerate(p.coeffs)
        if c
    }
    # the seeds 0 and 1 are Rationals: their real parts and the imaginary 0
    ratios = {p.as_fraction() for p in points if isinstance(p, Rational)} | {Fraction(0)}
    ends = set()
    for p in points:
        iv = p.to_interval(64)
        ends.update(iv._re + iv._im)
    assert (len(points), len(terms), len(ratios), len(ends)) == (84, 46, 2, 152)

    ratio_calls, str_calls = [], []
    ratio = counting(ratio_calls, intervals.ratio_to_mpi)
    monkeypatch.setattr(cyclotomic, "ratio_to_mpi", ratio)
    monkeypatch.setattr(intervals, "ratio_to_mpi", ratio)
    monkeypatch.setattr(intervals, "endpoint_str", counting(str_calls, intervals.endpoint_str))
    assert export.generations_to_csv(gens, 64) == expected
    assert len(ratio_calls) == len(terms) + len(ratios)
    assert len(str_calls) == len(ends)


def test_parametric_export_encloses_each_polynomial_once(monkeypatch):
    gens = gens_of(PARAM, 2)
    expected = export.generations_to_csv(gens, 64, t_arg=PARAM_ARG)
    points = [p for p, _ in export._first_appearance(gens)]
    # N and D over the leading coefficient of D, as monic rational polynomials
    polys = {q for p in points if not isinstance(p, Rational) for q in (p.num, p.den)}
    dens = {p.den for p in points if not isinstance(p, Rational)}
    assert (len(points), len(dens), len(polys)) == (88, 7, 65)
    # the export encloses t once, in its memo, for all its Horner evaluations
    evaluations = []
    monkeypatch.setattr(ratfunc, "_unit_point", counting(evaluations, ratfunc._unit_point))
    assert export.generations_to_csv(gens, 64, t_arg=PARAM_ARG) == expected
    assert len(evaluations) == 1


def fresh_run(argv):
    """The command's stdout from a new interpreter."""
    src = str(Path(origami_rings.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "origami_rings.cli", *argv],
        capture_output=True, text=True, env=env, check=True,
    )
    return hashlib.sha256(proc.stdout.encode()).hexdigest()


@pytest.mark.parametrize("spec", [EXAMPLE, PARAM])
def test_exports_in_a_row_equal_fresh_runs(spec, capsys):
    argvs = [commands(spec, 2, bits)[0] for bits in (200, 64)]
    in_a_row = [digest(argv, capsys) for argv in argvs]
    assert in_a_row == [fresh_run(argv) for argv in argvs]


def export_records(caplog, run):
    with caplog.at_level(logging.DEBUG, logger="origami_rings.export"):
        out = run()
    return out, [r.args for r in caplog.records if r.name == "origami_rings.export"]


def test_export_logs_one_record_with_hand_counts(caplog):
    gens = gens_of(EXAMPLE, 2)
    quiet = export.generations_to_csv(gens, 64)
    text, records = export_records(caplog, lambda: export.generations_to_csv(gens, 64))
    assert text == quiet
    assert len(records) == 1
    stats = records[0]
    # 84 points: 82 cyclotomic ones with 150 terms, 46 distinct, and the
    # seeds; 336 endpoints, 152 distinct
    counts = {k: stats[k] for k in ("kind", "points", "terms", "polynomials", "endpoints")}
    assert counts == {"kind": "csv", "points": 84, "terms": 46, "polynomials": 0, "endpoints": 152}
    assert stats["seconds"] >= 0


@pytest.mark.parametrize("kind", ["json", "svg", "elementary"])
def test_every_export_kind_logs_once(kind, caplog, capsys):
    argv = dict(zip(["csv", "json", "svg", "elementary"], commands(EXAMPLE, 1, 64)))[kind]
    quiet = digest(argv, capsys)
    loud, records = export_records(caplog, lambda: digest(argv, capsys))
    assert loud == quiet
    assert [r["kind"] for r in records] == [kind]


@pytest.mark.parametrize(
    "value, bits, t_arg, memo_bits, memo_t_arg",
    [
        (ParamRational.t_power(1) + 1, 128, "pi*1/5", 128, "pi*1/7"),
        (ParamRational.t_power(1) + 1, 64, "pi*1/5", 128, "pi*1/5"),
        (Rational(Fraction(1, 3)), 64, None, 128, None),
        (Rational(Fraction(1, 3)), 64, "pi*1/5", 64, None),
        (root_of_unity(5, 1) + Fraction(1, 3), 64, None, 128, None),
        (root_of_unity(5, 1) + Fraction(1, 3), 64, None, 64, "pi*1/5"),
    ],
)
def test_to_interval_refuses_a_memo_for_other_arguments(value, bits, t_arg, memo_bits, memo_t_arg):
    # a memo's tables hold enclosures at its own bits and t_arg
    memo = intervals.Enclosures(memo_bits, memo_t_arg)
    with pytest.raises(ValueError):
        value.to_interval(bits, t_arg, memo)
    shared = value.to_interval(bits, t_arg, intervals.Enclosures(bits, t_arg))
    alone = value.to_interval(bits, t_arg)
    assert shared.prec == alone.prec == bits
    assert shared.endpoint_strings() == alone.endpoint_strings()
