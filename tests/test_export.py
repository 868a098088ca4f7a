"""CSV, SVG and JSON exports of constructed point sets."""

import csv
import io
import json
from fractions import Fraction

import pytest

from origami_rings import AngleSet, ConstructionConfig, ParamRational, UnitAngle, closure_to_depth, root_of_unity
from origami_rings.export import generations_to_csv, generations_to_obj, points_to_svg


def ua(order, k):
    return UnitAngle(root_of_unity(order, k))


def example_gens(depth=1):
    angles = AngleSet([ua(1, 0), ua(12, 1), ua(6, 1), ua(4, 1)])
    return closure_to_depth(ConstructionConfig(angles, max_depth=depth))


def param_gens(depth=1):
    t = ParamRational.t_power
    angles = AngleSet(
        [UnitAngle(ParamRational.from_rational(Fraction(1)))]
        + [UnitAngle(t(k)) for k in (1, 2, 3)]
    )
    return closure_to_depth(ConstructionConfig(angles, max_depth=depth))


def test_csv_schema_and_rows():
    gens = example_gens()
    text = generations_to_csv(gens, 64, header={"angles": "a,b", "depth": 1})
    comment_lines = [l for l in text.splitlines() if l.startswith("#")]
    assert comment_lines == ["# angles=a,b", "# depth=1"]
    body = [l for l in text.splitlines() if not l.startswith("#")]
    rows = list(csv.reader(io.StringIO("\n".join(body))))
    assert rows[0] == ["re_lo", "re_hi", "im_lo", "im_hi", "canonical_key", "depth"]
    # one row per distinct point
    assert len(rows) - 1 == len(gens[-1])
    # depth column records first appearance: seeds at 0
    depth_by_key = {r[4]: int(r[5]) for r in rows[1:]}
    assert depth_by_key["Q:0"] == 0
    assert depth_by_key["Q:1"] == 0
    assert set(depth_by_key.values()) == {0, 1}
    # endpoints parse as decimals and bracket each other
    for r in rows[1:]:
        assert float(r[0]) <= float(r[1])
        assert float(r[2]) <= float(r[3])


def test_csv_deterministic():
    gens = example_gens()
    a = generations_to_csv(gens, 64)
    b = generations_to_csv(example_gens(), 64)
    assert a == b


def test_csv_param_requires_specialization():
    gens = param_gens()
    with pytest.raises(ValueError):
        generations_to_csv(gens, 64)
    text = generations_to_csv(gens, 64, t_arg="pi*1/5")
    assert "canonical_key" in text


def test_obj_structure():
    gens = example_gens()
    obj = generations_to_obj(gens, bits=64)
    assert [g["depth"] for g in obj["generations"]] == [0, 1]
    sizes = [g["size"] for g in obj["generations"]]
    assert sizes == [2, 8]
    for g in obj["generations"]:
        for entry in g["points"]:
            assert "value" in entry and "canonical_key" in entry
            assert "interval" in entry
            json.dumps(entry)  # serializable


def test_obj_param_without_specialization_omits_intervals():
    gens = param_gens()
    obj = generations_to_obj(gens, bits=64)
    entries = [e for g in obj["generations"] for e in g["points"]]
    # constants still get intervals; genuinely parametric values skip them
    assert any("interval" not in e for e in entries)
    obj2 = generations_to_obj(gens, bits=64, t_arg="pi*1/5")
    entries2 = [e for g in obj2["generations"] for e in g["points"]]
    assert all("interval" in e for e in entries2)


def test_obj_bad_specialization_raises():
    gens = param_gens()
    with pytest.raises(ValueError):
        generations_to_obj(gens, bits=64, t_arg="0.3")


def test_svg_output():
    gens = example_gens()
    svg = points_to_svg(gens, 64, header={"angles": "x"})
    assert svg.startswith("<svg ")
    assert svg.rstrip().endswith("</svg>")
    assert "<!-- angles=x -->" in svg
    assert svg.count("<circle") == len(gens[-1])
    # deterministic
    assert svg == points_to_svg(example_gens(), 64, header={"angles": "x"})


def test_svg_viewport_filters():
    gens = example_gens()
    # a tiny viewport around the origin keeps only 0 and 1
    svg = points_to_svg(gens, 64, viewport=(-0.1, 1.1, -0.1, 0.1))
    assert svg.count("<circle") == 2
    with pytest.raises(ValueError):
        points_to_svg(gens, 64, viewport=(1.0, -1.0, -1.0, 1.0))
