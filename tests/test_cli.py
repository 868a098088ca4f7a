"""Command line interface: subcommands, exit codes, deterministic output."""

import csv
import io
import json
import subprocess
import sys

import pytest

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


def test_verify_garbage_is_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"verdict": "sideways"}')
    code, _, _ = invoke(["verify", str(bad)], capsys)
    assert code == 2
    missing = tmp_path / "missing.json"
    code, _, _ = invoke(["verify", str(missing)], capsys)
    assert code == 2


def test_verify_non_numeric_field_is_usage_error(capsys, tmp_path):
    obj = example_ring_file(capsys, tmp_path)
    obj["certificates"][0]["terms"][0]["coefficient"] = []
    code, _, err = verify_obj(obj, capsys, tmp_path)
    assert code == 2
    assert err.startswith("error:")


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
    code, _, err = invoke(["lattice-eq", "1,0", "0,1"], capsys)
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
