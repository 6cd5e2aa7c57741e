import dataclasses
import json

import pytest

from exoload.anthropometry import (
    AnthropometricProfile,
    CoefficientTable,
    SegmentCoefficients,
    default_table,
    load_table_file,
    parse_table,
)
from exoload.errors import ValidationError
from exoload.skeleton import build_model


def test_default_table_mass_fractions_sum_to_one():
    table = default_table()
    assert abs(sum(c.mass_fraction for c in table.segments.values()) - 1.0) < 1e-9
    assert len(table.segments) == 19


def test_profile_rejects_non_positive_dimensions():
    with pytest.raises(ValidationError):
        AnthropometricProfile(0.0, 70.0)
    with pytest.raises(ValidationError):
        AnthropometricProfile(1.75, -1.0)


@pytest.mark.parametrize("height, mass", [(float("nan"), 70.0), (float("inf"), 70.0), (1.75, float("nan"))])
def test_profile_rejects_non_finite_dimensions(height, mass):
    with pytest.raises(ValidationError, match="positive and finite"):
        AnthropometricProfile(height, mass)


def test_table_rejects_bad_mass_fractions():
    table = default_table()
    segments = dict(table.segments)
    first = next(iter(segments))
    bad = SegmentCoefficients(
        length_fraction=segments[first].length_fraction,
        mass_fraction=segments[first].mass_fraction + 0.01,
        com_fraction=segments[first].com_fraction,
        gyration_fractions=segments[first].gyration_fractions,
    )
    segments[first] = bad
    with pytest.raises(ValidationError, match="mass fractions sum"):
        CoefficientTable("broken", segments)


def test_model_accepts_every_table_its_fraction_check_accepts():
    """A table whose mass fractions pass the table's 1e-9 check builds a
    model: the model's mass check scales that tolerance by the body mass.
    A table off by more is still rejected."""
    table = default_table()

    def shifted(offset):
        segments = dict(table.segments)
        segments["thorax"] = dataclasses.replace(
            segments["thorax"], mass_fraction=segments["thorax"].mass_fraction + offset
        )
        return CoefficientTable("shifted", segments)

    model = build_model(AnthropometricProfile(1.75, 70.0), shifted(5e-10))
    assert model.total_mass == pytest.approx(70.0, rel=1e-9)
    with pytest.raises(ValidationError, match="mass fractions sum"):
        shifted(2e-9)


def test_model_total_mass_matches_profile():
    for mass in (55.0, 70.0, 101.5):
        model = build_model(AnthropometricProfile(1.75, mass))
        assert abs(model.total_mass - mass) < 1e-9


def test_height_doubling_doubles_every_segment_length():
    m1 = build_model(AnthropometricProfile(1.75, 70.0))
    m2 = build_model(AnthropometricProfile(3.50, 70.0))
    for s1, s2 in zip(m1.segments, m2.segments):
        assert s2.length == 2.0 * s1.length
        assert s2.mass == s1.mass


def test_table_file_round_trip(tmp_path):
    payload = {
        "table_id": "custom",
        "segments": [
            {
                "name": name,
                "length_fraction": c.length_fraction,
                "mass_fraction": c.mass_fraction,
                "com_fraction": c.com_fraction,
                "gyration_fractions": list(c.gyration_fractions),
            }
            for name, c in default_table().segments.items()
        ],
    }
    path = tmp_path / "table.json"
    path.write_text(json.dumps(payload))
    table = load_table_file(path)
    assert table.table_id == "custom"
    model = build_model(AnthropometricProfile(1.75, 70.0), table)
    assert model.n_joint_dofs == 43


def test_malformed_table_payload():
    with pytest.raises(ValidationError):
        parse_table({"segments": []})
    with pytest.raises(ValidationError):
        parse_table({"table_id": "x", "segments": [{"name": "pelvis"}]})
