"""Command line interface: subcommands, exit codes, deterministic output."""

import csv
import io
import json
import subprocess
import sys
import time

import pytest

from origami_rings import analysis, cli
from origami_rings.cli import run

EXAMPLE = "0,pi*1/6,pi*1/3,pi*1/2"
THREE_RING = "0,pi*1/3,pi*2/3"
THREE_NOT = "0,pi*1/6,pi*1/2"
PARAM = "0,param:1,param:2,param:3"


def invoke(argv, capsys):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_rows(text):
    body = [l for l in text.splitlines() if not l.startswith("#")]
    return list(csv.reader(io.StringIO("\n".join(body))))


# --- construct -------------------------------------------------------------------


def test_construct_csv(capsys, tmp_path):
    out = tmp_path / "pts.csv"
    code, stdout, _ = invoke(
        ["construct", "--angles", EXAMPLE, "--depth", "2", "--out", str(out)], capsys
    )
    assert code == 0
    text = out.read_text()
    rows = read_rows(text)
    assert rows[0] == ["re_lo", "re_hi", "im_lo", "im_hi", "canonical_key", "depth"]
    assert len(rows) - 1 == 84
    # config header carries the normalized angle list
    assert any("angles=0,pi*1/6,pi*1/3,pi*1/2" in l for l in text.splitlines() if l.startswith("#"))


def test_construct_deterministic(capsys):
    a = invoke(["construct", "--angles", EXAMPLE, "--depth", "1"], capsys)
    b = invoke(["construct", "--angles", EXAMPLE, "--depth", "1"], capsys)
    assert a == b
    assert a[0] == 0 and a[1]


def test_construct_depth_zero_without_angles(capsys):
    code, stdout, _ = invoke(["construct", "--depth", "0"], capsys)
    assert code == 0
    rows = read_rows(stdout)
    assert len(rows) - 1 == 2  # seeds only


def test_construct_requires_angles_for_positive_depth(capsys):
    code, _, err = invoke(["construct", "--depth", "1"], capsys)
    assert code == 2
    assert "angles" in err


@pytest.mark.parametrize("angles", [[], ["--angles", EXAMPLE]], ids=["no-angles", "angles"])
@pytest.mark.parametrize(
    "limits, message",
    [
        ("--depth -2", "max_depth must be nonnegative"),
        ("--max-points 1 --depth 0", "max_points must allow at least the seed points"),
    ],
)
def test_construct_refuses_bad_limits(capsys, angles, limits, message):
    code, stdout, err = invoke(["construct", *angles, *limits.split()], capsys)
    assert code == 2
    assert not stdout
    assert err == f"error: {message}\n"


def test_construct_json(capsys):
    code, stdout, _ = invoke(
        ["construct", "--angles", EXAMPLE, "--depth", "1", "--format", "json"], capsys
    )
    assert code == 0
    obj = json.loads(stdout)
    assert obj["meta"]["command"] == "construct"
    assert [g["size"] for g in obj["generations"]] == [2, 8]


def test_construct_svg(capsys):
    code, stdout, _ = invoke(
        ["construct", "--angles", EXAMPLE, "--depth", "1", "--format", "svg"], capsys
    )
    assert code == 0
    assert stdout.startswith("<svg ") and stdout.rstrip().endswith("</svg>")


@pytest.mark.parametrize(
    "options",
    [
        "--viewport=-inf,inf,-1,1",  # infinite bounds: a width of nan
        "--viewport=0,1e308,-1e308,1e308",  # the height overflows to inf
        "--viewport=0,1,nan,1",
        "--radius=-1",
        "--radius=0",
        "--radius=nan",
        "--radius=inf",
        # finite inputs whose radius overflows in pixels
        "--viewport=0,5e-324,0,5e-324",
        "--radius=1e308 --viewport=0,1e-10,0,1e-10",
    ],
)
def test_construct_svg_refuses_a_canvas_that_is_not_finite(capsys, options):
    code, stdout, err = invoke(
        ["construct", "--angles", EXAMPLE, "--depth", "1", "--format", "svg", *options.split()],
        capsys,
    )
    assert code == 2
    assert stdout == "" and err.startswith("error:")


def test_construct_cap_exit_code(capsys, tmp_path):
    out = tmp_path / "partial.csv"
    code, _, err = invoke(
        [
            "construct", "--angles", EXAMPLE, "--depth", "2",
            "--max-points", "50", "--out", str(out),
        ],
        capsys,
    )
    assert code == 5
    assert "partial" in err
    assert len(read_rows(out.read_text())) > 50  # partial rows were written


def test_construct_param_needs_specialization(capsys):
    code, _, err = invoke(["construct", "--angles", PARAM, "--depth", "1"], capsys)
    assert code == 2
    assert "param-arg" in err
    code, stdout, _ = invoke(
        ["construct", "--angles", PARAM, "--depth", "1", "--param-arg", "pi*1/5"],
        capsys,
    )
    assert code == 0
    assert "canonical_key" in stdout
    # json works without specialization (intervals omitted)
    code, stdout, _ = invoke(
        ["construct", "--angles", PARAM, "--depth", "1", "--format", "json"], capsys
    )
    assert code == 0
    json.loads(stdout)


@pytest.mark.parametrize("fmt", ["csv", "json", "svg"])
@pytest.mark.parametrize("arg", ["0.3", "1/3", "pi*x"])
def test_construct_param_bad_specialization(capsys, fmt, arg):
    # only pi*p/q is accepted; every format refuses the rest with exit 2
    code, stdout, err = invoke(
        ["construct", "--angles", PARAM, "--depth", "1", "--format", fmt, "--param-arg", arg],
        capsys,
    )
    assert code == 2
    assert stdout == ""
    assert err.startswith("error:")
    code, stdout, _ = invoke(
        ["construct", "--angles", PARAM, "--depth", "1", "--format", fmt,
         "--param-arg", "pi*1/3"],
        capsys,
    )
    assert code == 0 and stdout


INTERVAL_COMMANDS = [
    ["construct", "--angles", EXAMPLE, "--depth", "1"],
    ["construct", "--angles", EXAMPLE, "--depth", "1", "--format", "json"],
    ["construct", "--angles", PARAM, "--depth", "1", "--format", "json"],
    ["elementary", "--angles", EXAMPLE],
    ["projections", "--angles", EXAMPLE],
    ["check-ring", "--angles", THREE_RING],
    ["density", "--angles", EXAMPLE, "--target", "1/3,1/2", "--epsilon", "1/10"],
]


@pytest.mark.parametrize("argv", INTERVAL_COMMANDS, ids=lambda argv: "-".join(argv[:1] + argv[-2:]))
@pytest.mark.parametrize(
    "flags, message",
    [
        (["--precision", "0"], "interval precision below 8 bits"),
        (["--precision", "7"], "interval precision below 8 bits"),
        (["--param-arg", "garbage"], "bad specialization 'garbage'"),
        (["--param-arg", "0.3"], "bad specialization '0.3'"),
        (["--param-arg", "pi*x"], "bad specialization 'pi*x'"),
        (["--param-arg", "pi* 1e-1"], "bad specialization 'pi* 1e-1'"),
        (["--param-arg", "pi*0.5"], "bad specialization 'pi*0.5'"),
        (["--param-arg", "pi*1/0"], "bad specialization 'pi*1/0'"),
    ],
)
def test_every_command_refuses_unusable_interval_flags(capsys, argv, flags, message):
    # whether or not the command encloses anything, it writes nothing and
    # exits 2; the same command line with a usable value still runs
    code, stdout, err = invoke(argv + flags, capsys)
    assert (code, stdout) == (2, "")
    assert err.startswith("error:") and message in err
    usable = ["--precision", "8"] if flags[0] == "--precision" else ["--param-arg", "pi*1/7"]
    code, stdout, _ = invoke(argv + usable, capsys)
    assert code == 0 and stdout


def test_param_arg_help_states_grammar(capsys):
    code, stdout, _ = invoke(["construct", "--help"], capsys)
    assert code == 0
    assert "pi*p/q" in stdout


# --- elementary / projections -------------------------------------------------------


def test_elementary_json(capsys):
    code, stdout, _ = invoke(["elementary", "--angles", EXAMPLE], capsys)
    assert code == 0
    obj = json.loads(stdout)
    assert obj["meta"]["command"] == "elementary"
    values = {m["canonical_key"] for m in obj["monomials"]}
    assert "Q:0" in values and "Q:1" in values
    nontrivial = [m for m in obj["monomials"] if m["nontrivial"]]
    assert len(nontrivial) == 3
    for m in obj["monomials"]:
        assert "interval" in m


def test_projections_json(capsys):
    code, stdout, _ = invoke(["projections", "--angles", EXAMPLE], capsys)
    assert code == 0
    obj = json.loads(stdout)
    vals = {p["value"] for p in obj["projections"] if p["backend"] == "rational"}
    assert {"0", "1", "2/3", "3/2", "-2", "1/3", "-1/2", "3"} == vals
    assert obj["x"]["value"] == "2/3"
    assert obj["family"]


# --- check-ring / verify ---------------------------------------------------------


def test_check_ring_positive_exit(capsys):
    code, stdout, _ = invoke(["check-ring", "--angles", THREE_RING], capsys)
    assert code == 0
    obj = json.loads(stdout)
    assert obj["verdict"] == "ring"


def test_check_ring_negative_exit(capsys):
    code, stdout, _ = invoke(["check-ring", "--angles", THREE_NOT], capsys)
    assert code == 3
    assert json.loads(stdout)["verdict"] == "not_ring"


def test_check_ring_unknown_exit(capsys):
    code, stdout, _ = invoke(
        ["check-ring", "--angles", "0,pi*1/5,pi*1/4,pi*1/3", "--degree-bound", "1"],
        capsys,
    )
    assert code == 4
    obj = json.loads(stdout)
    assert obj["verdict"] == "unknown"
    assert obj["unresolved"]


def test_check_ring_example_and_verify_round_trip(capsys, tmp_path):
    out = tmp_path / "verdict.json"
    code, _, _ = invoke(
        [
            "check-ring", "--angles", EXAMPLE,
            "--degree-bound", "2", "--out", str(out),
        ],
        capsys,
    )
    assert code == 0
    code, stdout, _ = invoke(["verify", str(out)], capsys)
    assert code == 0
    assert "verified" in stdout

    # corrupt one coefficient: verification must fail with exit 3
    obj = json.loads(out.read_text())
    obj["certificates"][0]["terms"][0]["coefficient"] = str(
        int(obj["certificates"][0]["terms"][0]["coefficient"]) + 1
    )
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code, _, err = invoke(["verify", str(bad)], capsys)
    assert code == 3
    assert "FAILED" in err


def test_verify_not_ring_and_unknown(capsys, tmp_path):
    out = tmp_path / "nr.json"
    invoke(["check-ring", "--angles", THREE_NOT, "--out", str(out)], capsys)
    code, stdout, _ = invoke(["verify", str(out)], capsys)
    assert code == 0
    assert "not a quadratic integer" in stdout

    out2 = tmp_path / "unk.json"
    invoke(
        [
            "check-ring", "--angles", "0,pi*1/5,pi*1/4,pi*1/3",
            "--degree-bound", "1", "--out", str(out2),
        ],
        capsys,
    )
    code, _, _ = invoke(["verify", str(out2)], capsys)
    assert code == 4


def example_ring_file(capsys, tmp_path):
    out = tmp_path / "ring.json"
    code, _, _ = invoke(
        ["check-ring", "--angles", EXAMPLE, "--degree-bound", "2", "--out", str(out)],
        capsys,
    )
    assert code == 0
    return json.loads(out.read_text())


def verify_obj(obj, capsys, tmp_path):
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(obj))
    return invoke(["verify", str(path)], capsys)


def test_verify_rejects_dropped_certificate(capsys, tmp_path):
    obj = example_ring_file(capsys, tmp_path)
    assert len(obj["certificates"]) == 6
    obj["certificates"] = obj["certificates"][:1]
    code, stdout, err = verify_obj(obj, capsys, tmp_path)
    assert code == 3
    assert "verified" not in stdout
    assert "exactly once" in err


def test_verify_rejects_duplicated_certificate(capsys, tmp_path):
    obj = example_ring_file(capsys, tmp_path)
    obj["certificates"][1] = obj["certificates"][0]
    code, _, err = verify_obj(obj, capsys, tmp_path)
    assert code == 3
    assert "exactly once" in err


def test_verify_rejects_out_of_range_product(capsys, tmp_path):
    obj = example_ring_file(capsys, tmp_path)
    n = len(obj["generators"])
    obj["certificates"][-1]["product"] = [1, n]
    code, _, err = verify_obj(obj, capsys, tmp_path)
    assert code == 3
    assert "exactly once" in err
    # a certificate for the trivial generator 1 is not one of the pairs either
    obj = example_ring_file(capsys, tmp_path)
    obj["certificates"][0]["product"] = [0, 1]
    code, _, _ = verify_obj(obj, capsys, tmp_path)
    assert code == 3


def _forge_generators(obj):
    """Generators 1 and 2, no projections, and one certificate (1, 1) = 4*g_0,
    which holds for those values."""
    obj["generators"] = [{"backend": "rational", "value": "1"},
                         {"backend": "rational", "value": "2"}]
    obj["projections"] = []
    obj["certificates"] = [{"product": [1, 1], "degree_bound": 0, "terms": [
        {"generator": 0, "monomial": {}, "coefficient": "4"}]}]


def _swap_generators(obj):
    g = obj["generators"]
    g[1], g[2] = g[2], g[1]


@pytest.mark.parametrize(
    "edit",
    [
        # {pi/6, pi/2, 5pi/6} is no ring at degree 2 (ROADMAP item 2)
        pytest.param(lambda obj: obj["meta"]["config"].update(angles="0,pi*1/6,pi*1/2,pi*5/6"),
                     id="relabelled-angles"),
        pytest.param(_forge_generators, id="forged-generators"),
        pytest.param(_swap_generators, id="swapped-generators"),
        pytest.param(lambda obj: obj["generators"].__setitem__(1, {"backend": "rational", "value": "3"}),
                     id="altered-generator"),
        pytest.param(lambda obj: obj["projections"].pop(), id="dropped-projection"),
        pytest.param(lambda obj: obj["projections"].append({"backend": "rational", "value": "5"}),
                     id="extra-projection"),
    ],
)
def test_verify_rebuilds_ring_context(capsys, tmp_path, edit):
    obj = example_ring_file(capsys, tmp_path)
    edit(obj)
    code, stdout, err = verify_obj(obj, capsys, tmp_path)
    assert code == 3
    assert "verified" not in stdout
    assert "rebuilt from the angles" in err


def test_verify_ring_without_parsable_angles_is_usage_error(capsys, tmp_path):
    for angles in (None, "pi*1/x", 6):
        obj = example_ring_file(capsys, tmp_path)
        if angles is None:
            del obj["meta"]["config"]["angles"]
        else:
            obj["meta"]["config"]["angles"] = angles
        code, stdout, err = verify_obj(obj, capsys, tmp_path)
        assert code == 2
        assert "verified" not in stdout and err.startswith("error:")


def test_not_ring_with_irrational_trace(capsys, tmp_path):
    out = tmp_path / "nr.json"
    code, _, _ = invoke(
        ["check-ring", "--angles", "0,pi*1/4,pi*1/3", "--out", str(out)], capsys
    )
    assert code == 3
    obj = json.loads(out.read_text())
    assert obj["verdict"] == "not_ring"
    assert obj["trace"]["backend"] == "cyclotomic"
    code, stdout, _ = invoke(["verify", str(out)], capsys)
    assert code == 0
    assert "not a quadratic integer" in stdout
    # a declared trace that differs from the witness's is caught exactly
    obj["trace"]["coeffs"][0] = str(int(obj["trace"]["coeffs"][0]) + 1)
    code, _, err = verify_obj(obj, capsys, tmp_path)
    assert code == 3
    assert "mismatch" in err


def forged_not_ring_file(capsys, tmp_path):
    """The not_ring file of THREE_NOT with its witness swapped for 1/3 + i/2,
    whose declared trace 2/3 and norm 13/36 match it and are not integers."""
    out = tmp_path / "nr.json"
    code, _, _ = invoke(["check-ring", "--angles", THREE_NOT, "--out", str(out)], capsys)
    assert code == 3
    obj = json.loads(out.read_text())
    obj["witness"] = {"backend": "cyclotomic", "order": 4, "coeffs": ["1/3", "1/2"]}
    obj["trace"], obj["norm"] = "2/3", "13/36"
    return obj


def test_verify_rebuilds_not_ring_witness_from_angles(capsys, tmp_path):
    obj = forged_not_ring_file(capsys, tmp_path)
    code, stdout, err = verify_obj(obj, capsys, tmp_path)
    assert code == 3
    assert "verified" not in stdout
    assert "rebuilt from the angles" in err


def test_verify_refuses_a_not_ring_label_on_a_ring(capsys, tmp_path):
    # the ring verdict of THREE_RING relabelled not_ring, with its true
    # witness x = e^{i pi/3}, trace 1 and norm 1: x is a quadratic integer
    out = tmp_path / "ring.json"
    code, _, _ = invoke(["check-ring", "--angles", THREE_RING, "--out", str(out)], capsys)
    assert code == 0
    obj = json.loads(out.read_text())
    obj["verdict"] = "not_ring"
    obj["witness"] = obj["generators"][1]
    obj["trace"], obj["norm"] = "1", "1"
    del obj["certificates"]
    code, stdout, err = verify_obj(obj, capsys, tmp_path)
    assert code == 3
    assert "verified" not in stdout
    assert err == "witness is a quadratic integer after all\n"


def test_verify_not_ring_needs_three_directions(capsys, tmp_path):
    obj = forged_not_ring_file(capsys, tmp_path)
    obj["meta"]["config"]["angles"] = EXAMPLE
    code, stdout, err = verify_obj(obj, capsys, tmp_path)
    assert code == 3
    assert "verified" not in stdout
    assert "three directions" in err


def test_verify_not_ring_without_parsable_angles_is_usage_error(capsys, tmp_path):
    for angles in (None, "pi*1/x", 6):
        obj = forged_not_ring_file(capsys, tmp_path)
        if angles is None:
            del obj["meta"]["config"]["angles"]
        else:
            obj["meta"]["config"]["angles"] = angles
        code, stdout, err = verify_obj(obj, capsys, tmp_path)
        assert code == 2
        assert "verified" not in stdout
        assert err.startswith("error:")


def test_verify_rejects_malformed_terms(capsys, tmp_path):
    # an inverse power of a projection, added with its negation so the value
    # stays the same, and a negative generator id with coefficient 0: the
    # certificate would still evaluate to the product, but it is no Z[P]
    # combination
    out = tmp_path / "ring.json"
    code, _, _ = invoke(
        ["check-ring", "--angles", EXAMPLE, "--degree-bound", "3", "--out", str(out)],
        capsys,
    )
    assert code == 0
    obj = json.loads(out.read_text())
    obj["certificates"][0]["terms"] += [
        {"generator": 1, "monomial": {"0": -2}, "coefficient": "5"},
        {"generator": 1, "monomial": {"0": -2}, "coefficient": "-5"},
        {"generator": -1, "monomial": {}, "coefficient": "0"},
    ]
    code, stdout, err = verify_obj(obj, capsys, tmp_path)
    assert code == 2
    assert "verified" not in stdout
    assert err.startswith("error:")


def test_verify_bounds_its_work(capsys, tmp_path):
    # a zero term with exponent 200000 leaves the value unchanged, and one
    # with coefficient 1 under a raised degree bound does not; both are
    # refused before any power is formed, where they ran without bound
    obj = example_ring_file(capsys, tmp_path)
    cert = obj["certificates"][0]
    cert["terms"].append({"generator": 1, "monomial": {"0": 200000}, "coefficient": "0"})
    start = time.perf_counter()
    code, stdout, err = verify_obj(obj, capsys, tmp_path)
    assert code == 2
    assert "verified" not in stdout and err.startswith("error:")
    cert["terms"][-1]["coefficient"] = "1"
    cert["degree_bound"] = 200000
    code, stdout, err = verify_obj(obj, capsys, tmp_path)
    assert code == 5
    assert "verified" not in stdout and err.startswith("error:")
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda terms: terms.append(
            {"generator": 1, "monomial": {}, "coefficient": "0"}), id="zero-coefficient"),
        pytest.param(lambda terms: terms.append(dict(terms[0])), id="repeated-term"),
        pytest.param(lambda terms: terms.append(
            {"generator": 1, "monomial": {"0": 3}, "coefficient": "1"}), id="above-degree-bound"),
        # "00" also names projection 0: the term is p_0**2 * g_1 in disguise
        pytest.param(lambda terms: terms.append(
            {"generator": 1, "monomial": {"0": 1, "00": 1}, "coefficient": "1"}),
            id="projection-named-twice"),
    ],
)
def test_verify_rejects_forged_terms(capsys, tmp_path, edit):
    obj = example_ring_file(capsys, tmp_path)
    edit(obj["certificates"][0]["terms"])
    code, stdout, err = verify_obj(obj, capsys, tmp_path)
    assert code == 2
    assert "verified" not in stdout and err.startswith("error:")


@pytest.mark.parametrize("spec", [THREE_RING, EXAMPLE])
def test_check_ring_refuses_a_negative_degree_bound(capsys, spec):
    code, stdout, err = invoke(["check-ring", "--angles", spec, "--degree-bound=-1"], capsys)
    assert code == 2
    assert stdout == "" and "degree bound must be nonnegative" in err


@pytest.mark.parametrize("spec", [THREE_RING, EXAMPLE])
def test_verify_refuses_a_negative_degree_bound(capsys, tmp_path, spec):
    out = tmp_path / "ring.json"
    assert invoke(["check-ring", "--angles", spec, "--out", str(out)], capsys)[0] == 0
    obj = json.loads(out.read_text())
    obj["certificates"][0]["degree_bound"] = -1
    code, stdout, err = verify_obj(obj, capsys, tmp_path)
    assert code == 2
    assert "verified" not in stdout and "degree bound must be nonnegative" in err


def test_check_ring_refuses_degree_above_ceiling(capsys):
    code, stdout, err = invoke(
        ["check-ring", "--angles", EXAMPLE, "--degree-bound",
         str(analysis._MAX_CERT_DEGREE + 1)],
        capsys,
    )
    assert code == 5
    assert stdout == "" and err.startswith("error:")


def test_verify_garbage_is_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"verdict": "sideways"}')
    code, _, _ = invoke(["verify", str(bad)], capsys)
    assert code == 2
    missing = tmp_path / "missing.json"
    code, _, _ = invoke(["verify", str(missing)], capsys)
    assert code == 2


def test_verify_rejects_mixed_backends(capsys, tmp_path):
    # projection 0 becomes the parameter t among cyclotomic values; the
    # certificates name only projections 1 and 2, yet the file mixes two
    # backends and is refused
    obj = example_ring_file(capsys, tmp_path)
    assert len(obj["projections"]) == 3
    assert all("0" not in t["monomial"] for c in obj["certificates"] for t in c["terms"])
    obj["projections"][0] = {"backend": "param", "num": ["0", "1"], "den": ["1"]}
    code, stdout, err = verify_obj(obj, capsys, tmp_path)
    assert code == 2
    assert "verified" not in stdout and err.startswith("error:")


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda obj: [obj], id="top-level-list"),
        pytest.param(lambda obj: obj["certificates"][0]["terms"][0].update(monomial=[]),
                     id="monomial-list"),
        pytest.param(lambda obj: obj["generators"].__setitem__(0, [1]), id="generator-list"),
    ],
)
def test_verify_wrong_json_shape_is_usage_error(capsys, tmp_path, edit):
    obj = example_ring_file(capsys, tmp_path)
    obj = edit(obj) or obj
    code, stdout, err = verify_obj(obj, capsys, tmp_path)
    assert code == 2
    assert "verified" not in stdout
    assert err.startswith("error:") and "Traceback" not in err


def test_verify_non_numeric_field_is_usage_error(capsys, tmp_path):
    obj = example_ring_file(capsys, tmp_path)
    obj["certificates"][0]["terms"][0]["coefficient"] = []
    code, _, err = verify_obj(obj, capsys, tmp_path)
    assert code == 2
    assert err.startswith("error:")


def _first_term(obj):
    return obj["certificates"][0]["terms"][0]


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda obj: _first_term(obj).update(coefficient=4104.5),
                     id="float-coefficient"),
        pytest.param(lambda obj: _first_term(obj).update(coefficient="4_104"),
                     id="underscored-coefficient"),
        pytest.param(lambda obj: _first_term(obj).update(generator=3.7), id="float-generator"),
        pytest.param(lambda obj: _first_term(obj).update(monomial={"1": 2.5}),
                     id="float-exponent"),
        pytest.param(lambda obj: obj["certificates"][0].update(degree_bound=2.9),
                     id="float-degree-bound"),
        pytest.param(lambda obj: obj["certificates"][0].update(product=[1.2, 1]),
                     id="float-product"),
    ],
)
def test_verify_rejects_non_integer_numbers(capsys, tmp_path, edit):
    # each edit truncates to the honest value (coefficient 4104 of generator
    # 3 times p_1**2, product (1, 1), degree bound 2), so only the number's
    # type tells the forged file from the honest one
    obj = example_ring_file(capsys, tmp_path)
    assert _first_term(obj) == {"generator": 3, "monomial": {"1": 2}, "coefficient": "4104"}
    assert obj["certificates"][0]["product"] == [1, 1]
    edit(obj)
    code, stdout, err = verify_obj(obj, capsys, tmp_path)
    assert code == 2
    assert "verified" not in stdout and err.startswith("error:")


def _generator_coeffs(obj, *coeffs):
    obj["generators"][1]["coeffs"] = list(coeffs)


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda obj: _generator_coeffs(obj, 1.0, "0", "1", "0"), id="float-coeff"),
        pytest.param(lambda obj: _generator_coeffs(obj, "1", 0, "1", "0"), id="int-coeff"),
        pytest.param(lambda obj: _generator_coeffs(obj, "1e0", "0", "1", "0"),
                     id="exponent-string"),
        pytest.param(lambda obj: _generator_coeffs(obj, " 1.0 ", "0", "1", "0"),
                     id="padded-decimal-string"),
        pytest.param(lambda obj: obj["generators"][1].update(coeffs="1010"), id="coeffs-string"),
        pytest.param(lambda obj: obj["generators"].__setitem__(
            0, {"backend": "rational", "value": 1.0}), id="float-value"),
    ],
)
def test_verify_rejects_loose_scalar_numbers(capsys, tmp_path, edit):
    # every edit keeps the value of the honest file; only the JSON form of a
    # number differs from what the emitter writes (fraction strings)
    obj = example_ring_file(capsys, tmp_path)
    assert obj["generators"][0] == {"backend": "rational", "value": "1"}
    assert obj["generators"][1]["coeffs"] == ["1", "0", "1", "0"]
    edit(obj)
    code, stdout, err = verify_obj(obj, capsys, tmp_path)
    assert code == 2
    assert "verified" not in stdout and err.startswith("error:")


def test_verify_rejects_a_decimal_declared_trace(capsys, tmp_path):
    out = tmp_path / "nr.json"
    invoke(["check-ring", "--angles", THREE_NOT, "--out", str(out)], capsys)
    obj = json.loads(out.read_text())
    assert obj["trace"] == "2"
    obj["trace"] = "2.0"
    code, stdout, err = verify_obj(obj, capsys, tmp_path)
    assert code == 2
    assert "verified" not in stdout and err.startswith("error:")


HUGE_ORDER = {"backend": "cyclotomic", "order": 100000, "coeffs": ["1"]}


def test_verify_refuses_values_outside_the_field_before_building_them(capsys, tmp_path):
    # building a value of order 100000 (Phi_n and its power table) ran past
    # 20 s; an order that does not divide the angles' order 12 is refused first
    obj = example_ring_file(capsys, tmp_path)
    obj["generators"][1] = HUGE_ORDER
    start = time.perf_counter()
    code, stdout, err = verify_obj(obj, capsys, tmp_path)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert "verified" not in stdout and "rebuilt from the angles" in err
    out = tmp_path / "nr.json"
    invoke(["check-ring", "--angles", THREE_NOT, "--out", str(out)], capsys)
    for field in ("witness", "trace", "norm"):
        obj = json.loads(out.read_text())
        obj[field] = HUGE_ORDER
        start = time.perf_counter()
        code, stdout, err = verify_obj(obj, capsys, tmp_path)
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert "verified" not in stdout


def test_verify_stored_order_must_be_a_positive_integer(capsys, tmp_path):
    for order in ("12", 12.0, 0, True):
        obj = example_ring_file(capsys, tmp_path)
        obj["generators"][1]["order"] = order
        code, stdout, err = verify_obj(obj, capsys, tmp_path)
        assert code == 2
        assert "verified" not in stdout and err.startswith("error:")


# --- lattice-eq -------------------------------------------------------------------


def test_lattice_eq_exit_codes(capsys):
    code, stdout, _ = invoke(["lattice-eq", "1/2,3", "3/2,3"], capsys)
    assert code == 0
    assert json.loads(stdout)["equal"] is True
    code, stdout, _ = invoke(["lattice-eq", "0,1", "0,2"], capsys)
    assert code == 3
    assert json.loads(stdout)["equal"] is False
    code, _, _ = invoke(
        ["lattice-eq", "angles:0,pi*1/3,pi*2/3", "angles:0,pi*1/3,pi*2/3"], capsys
    )
    assert code == 0


def test_lattice_eq_rejects_real_generator(capsys):
    for left, right in (("1,0", "0,1"), ("1/2,3", "1/2,0")):
        code, _, err = invoke(["lattice-eq", left, right], capsys)
        assert code == 2
        assert "degenerate" in err


# --- density ----------------------------------------------------------------------


def test_density_witness(capsys):
    code, stdout, _ = invoke(
        [
            "density", "--angles", EXAMPLE,
            "--target", "1/3,-1/2", "--epsilon", "1/100",
        ],
        capsys,
    )
    assert code == 0
    obj = json.loads(stdout)
    assert obj["target"] == {"re": "1/3", "im": "-1/2"}
    assert obj["p"]["value"] == "2/3"
    assert "value_interval" in obj
    lo, hi = (float(v) for v in obj["value_interval"]["re"])
    assert abs((lo + hi) / 2 - 1 / 3) < 0.01 + 1e-9


def test_density_needs_four_angles(capsys):
    code, _, _ = invoke(
        ["density", "--angles", THREE_RING, "--target", "0,0", "--epsilon", "1/10"],
        capsys,
    )
    assert code == 2


def test_density_bad_target(capsys):
    code, _, _ = invoke(
        ["density", "--angles", EXAMPLE, "--target", "1;2", "--epsilon", "1/10"],
        capsys,
    )
    assert code == 2


def test_density_bad_rational_names_its_flag(capsys):
    for target, epsilon, err in (
        ("1/3,1/2", "1/0", "bad rational in --epsilon '1/0'"),
        ("1/3,1/2", "inf", "bad rational in --epsilon 'inf'"),
        ("1/3,1/2", "", "bad rational in --epsilon ''"),
        ("1/3,1/0", "1/10", "bad rational in --target '1/3,1/0'"),
        ("1/0,1/3", "1/10", "bad rational in --target '1/0,1/3'"),
        ("x,1", "1/10", "bad rational in --target 'x,1'"),
    ):
        argv = ["density", "--angles", EXAMPLE, f"--target={target}", f"--epsilon={epsilon}"]
        assert invoke(argv, capsys) == (2, "", f"error: {err}\n")


def test_density_takes_every_fraction_literal(capsys):
    # the spellings Fraction() accepts name the same witness as n/d
    want = invoke(
        ["density", "--angles", EXAMPLE, "--target=1/3,-1/2", "--epsilon=1/1000"], capsys
    )
    for target, epsilon in ((" 1/3 ,-0.5", "1e-3"), ("+1/3,-5e-1", " 0.001 "), ("2/6,-1/2", "+.001")):
        code, stdout, _ = invoke(
            ["density", "--angles", EXAMPLE, f"--target={target}", f"--epsilon={epsilon}"], capsys
        )
        assert code == 0
        drop_meta = lambda text: {k: v for k, v in json.loads(text).items() if k != "meta"}
        assert drop_meta(stdout) == drop_meta(want[1])


# --- generic ----------------------------------------------------------------------


def test_bad_angle_spec_is_usage_error(capsys):
    code, _, err = invoke(["construct", "--angles", "tau*1/2", "--depth", "1"], capsys)
    assert code == 2


def test_unknown_subcommand(capsys):
    assert invoke(["frobnicate"], capsys)[0] == 2


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "origami_rings.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0


def test_sorted_json_keys(capsys):
    _, stdout, _ = invoke(["projections", "--angles", EXAMPLE], capsys)
    obj = json.loads(stdout)
    assert list(obj.keys()) == sorted(obj.keys())


# --- parser reuse ----------------------------------------------------------------


def test_parser_reuse_is_stateless(capsys, tmp_path):
    """One process builds the parser once; each run of a sequence through it
    gives the exit code, stdout, stderr and --out bytes it gives on a fresh
    parser."""
    sequence = [
        ["density", "--angles", EXAMPLE, "--target=1/3,-1/2", "--epsilon", "1/1000", "--out"],
        ["density", "--angles", EXAMPLE, "--epsilon", "1/1000"],  # no --target
        ["--version"],
        ["check-ring", "--angles", EXAMPLE, "--degree-bound", "2", "--out"],
    ]

    def results(fresh):
        cli.build_parser.cache_clear()
        out = []
        for i, argv in enumerate(sequence):
            if fresh:
                cli.build_parser.cache_clear()
            path = tmp_path / f"{fresh}-{i}.json"
            argv = argv + [str(path)] if argv[-1] == "--out" else argv
            code, stdout, err = invoke(argv, capsys)
            out.append((code, stdout, err, path.read_bytes() if path.exists() else None))
        return out

    reused = results(fresh=False)
    assert cli.build_parser.cache_info().misses == 1
    assert [r[0] for r in reused] == [0, 2, 0, 0]
    assert "--target" in reused[1][2]
    assert reused[0][3] and reused[3][3]
    assert results(fresh=True) == reused

