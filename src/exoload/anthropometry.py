"""Anthropometric profiles and segment coefficient tables.

A coefficient table maps each of the 19 canonical segments to fractions of
body height (segment length), body mass (segment mass), segment length
(CoM location along the segment axis) and segment length (radii of gyration).
One table ships with the package (``default_table``); a session may load
another from a file instead.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import JsonFields, ValidationError, load_json_file, parse_json, prefixed

MASS_FRACTION_TOL = 1e-9


@dataclass(frozen=True)
class SegmentCoefficients:
    """One segment's row of a coefficient table: length, mass, CoM and gyration fractions."""

    length_fraction: float
    mass_fraction: float
    com_fraction: float
    gyration_fractions: tuple[float, float, float]


@dataclass(frozen=True)
class CoefficientTable:
    """A named table of segment coefficients whose mass fractions sum to 1."""

    table_id: str
    segments: dict[str, SegmentCoefficients]

    def __post_init__(self) -> None:
        total = sum(c.mass_fraction for c in self.segments.values())
        if abs(total - 1.0) > MASS_FRACTION_TOL:
            raise ValidationError(
                f"coefficient table {self.table_id!r}: mass fractions sum to "
                f"{total!r}, expected 1.0 within {MASS_FRACTION_TOL}"
            )
        for name, c in self.segments.items():
            if c.length_fraction <= 0.0 or c.mass_fraction <= 0.0:
                raise ValidationError(
                    f"coefficient table {self.table_id!r}: segment {name!r} has "
                    "non-positive length or mass fraction"
                )
            if not 0.0 <= c.com_fraction <= 1.0:
                raise ValidationError(
                    f"coefficient table {self.table_id!r}: segment {name!r} has "
                    "CoM fraction outside [0, 1]"
                )
            # a zero radius of gyration would leave the segment inertia singular
            if len(c.gyration_fractions) != 3 or any(g <= 0.0 for g in c.gyration_fractions):
                raise ValidationError(
                    f"coefficient table {self.table_id!r}: segment {name!r} needs three "
                    f"gyration fractions above zero, got {list(c.gyration_fractions)}"
                )


@dataclass(frozen=True)
class AnthropometricProfile:
    """Subject height and mass, the two figures a coefficient table scales."""

    height_m: float
    mass_kg: float

    def __post_init__(self) -> None:
        # written so that NaN fails too
        if not 0.0 < self.height_m < float("inf"):
            raise ValidationError(f"height must be positive and finite, got {self.height_m}")
        if not 0.0 < self.mass_kg < float("inf"):
            raise ValidationError(f"mass must be positive and finite, got {self.mass_kg}")


def parse_table(payload: object, where: str | Path = "coefficient table") -> CoefficientTable:
    """A coefficient table from its JSON object, with ``where`` naming the
    source in error messages. Any field not read here but ``comment`` is an error."""
    fields = JsonFields(payload, where)
    fields.get("comment", str, "")
    segments = {}
    for row in fields.get_list("segments", dict):
        segments[row.get("name", str)] = SegmentCoefficients(
            length_fraction=row.get("length_fraction", float),
            mass_fraction=row.get("mass_fraction", float),
            com_fraction=row.get("com_fraction", float),
            gyration_fractions=tuple(row.get_list("gyration_fractions", float)),
        )
    table_id = fields.get("table_id", str)
    fields.reject_unread()
    with prefixed(where):  # the table's own checks name no file
        return CoefficientTable(table_id=table_id, segments=segments)


def load_table_file(path: str | Path) -> CoefficientTable:
    return parse_table(load_json_file(path), path)


@functools.cache
def default_table() -> CoefficientTable:
    """The table that ships with the package."""
    name = "coefficients_default.json"
    text = resources.files("exoload.data").joinpath(name).read_text("utf-8")
    return parse_table(parse_json(text, name), name)
