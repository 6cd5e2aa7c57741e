"""Questionnaire schemas, response validation, reverse-item handling,
construct scores and perceived-effort (Borg CR10) summaries.

Five questionnaires ship as machine-readable JSON schemas (ids A-E): the
participant human-factors profile, the exoskeleton acceptance evaluation, the
per-maneuver effort body map, the in-ICU usage log with per-zone Borg CR10
ratings, and the colleagues' questionnaire. Construct membership is data, not
code: the default item-to-construct mapping lives in the schema files and can
be revised without touching the scoring engine.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources
from typing import Iterable, Mapping

from .errors import JsonFields, ValidationError

QUESTIONNAIRE_IDS = ("A", "B", "C", "D", "E")
ANSWER_KINDS = ("likert5_A", "likert5_B", "borg_cr10", "numeric", "free_text", "choice")
EXOSKELETON_TYPES = ("Laevo", "Corfor", "CrayX", "BackX", "none")
POSITIONS = ("head", "side")

LIKERT_MIN, LIKERT_MAX = 1, 5
BORG_VALUES = (0.0, 0.5) + tuple(float(v) for v in range(1, 11))


@dataclass(frozen=True)
class Item:
    item_id: str
    text_key: str
    kind: str
    reverse: bool = False
    icu_only: bool = False
    choices: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ANSWER_KINDS:
            raise ValidationError(f"item {self.item_id!r}: unknown answer kind {self.kind!r}")
        if self.reverse and self.kind not in ("likert5_A", "likert5_B"):
            raise ValidationError(f"item {self.item_id!r}: reverse only applies to likert items")
        if self.kind == "choice" and not self.choices:
            raise ValidationError(f"item {self.item_id!r}: choice item needs choices")


@dataclass(frozen=True)
class QuestionnaireSchema:
    schema_id: str
    title: str
    items: tuple[Item, ...]
    constructs: Mapping[str, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.schema_id not in QUESTIONNAIRE_IDS:
            raise ValidationError(
                f"questionnaire id {self.schema_id!r} not in {QUESTIONNAIRE_IDS}"
            )
        ids = [i.item_id for i in self.items]
        if len(set(ids)) != len(ids):
            raise ValidationError(f"questionnaire {self.schema_id!r}: duplicate item ids")
        by_id = {i.item_id: i for i in self.items}
        for construct, members in self.constructs.items():
            for member in members:
                if member not in by_id:
                    raise ValidationError(
                        f"construct {construct!r} references unknown item {member!r}"
                    )
                if by_id[member].kind not in ("likert5_A", "likert5_B"):
                    raise ValidationError(
                        f"construct {construct!r}: item {member!r} is not a likert item"
                    )

    def item(self, item_id: str) -> Item:
        for i in self.items:
            if i.item_id == item_id:
                return i
        raise ValidationError(f"questionnaire {self.schema_id!r}: no item {item_id!r}")


@dataclass(frozen=True)
class ResponseContext:
    exoskeleton: str = "none"
    position: str | None = None
    pp_index: int | None = None
    icu: bool = False

    def __post_init__(self) -> None:
        if self.exoskeleton not in EXOSKELETON_TYPES:
            raise ValidationError(
                f"unknown exoskeleton type {self.exoskeleton!r}; expected {EXOSKELETON_TYPES}"
            )
        if self.position is not None and self.position not in POSITIONS:
            raise ValidationError(f"unknown position {self.position!r}; expected {POSITIONS}")


@dataclass(frozen=True)
class ResponseSet:
    respondent_id: str
    questionnaire_id: str
    answers: Mapping[str, object]
    context: ResponseContext = ResponseContext()


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]
    missing: tuple[str, ...]  # informational, never fatal

    @property
    def ok(self) -> bool:
        return not self.violations


def apply_reverse(value: int) -> int:
    """Reverse-coded 5-point item: score' = 6 - score."""
    value = _as_likert(value)
    return 6 - value


def _as_likert(value: object) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"likert answer must be a number, got {value!r}")
    if float(value) != int(value):
        raise ValidationError(f"likert answer must be integral, got {value!r}")
    ivalue = int(value)
    if not LIKERT_MIN <= ivalue <= LIKERT_MAX:
        raise ValidationError(f"likert answer {value!r} outside 1..5")
    return ivalue


def _check_answer(item: Item, value: object) -> str | None:
    """Violation message for a single answered item, or None."""
    if item.kind in ("likert5_A", "likert5_B"):
        try:
            _as_likert(value)
        except ValidationError:
            return f"item {item.item_id}: answer {value!r} out of scale 1..5"
    elif item.kind == "borg_cr10":
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            return f"item {item.item_id}: Borg answer {value!r} is not a number"
        if float(value) not in BORG_VALUES:
            return f"item {item.item_id}: Borg answer {value!r} not on the CR10 scale"
    elif item.kind == "numeric":
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            return f"item {item.item_id}: expected a number, got {value!r}"
        if not math.isfinite(float(value)):
            return f"item {item.item_id}: non-finite number"
    elif item.kind == "free_text":
        if not isinstance(value, str):
            return f"item {item.item_id}: expected text, got {value!r}"
    elif item.kind == "choice":
        if value not in item.choices:
            return f"item {item.item_id}: {value!r} not among choices {item.choices}"
    return None


def validate(schema: QuestionnaireSchema, response: ResponseSet) -> ValidationReport:
    """Type-check every answered item; flag ICU-only items answered outside an
    ICU session; list missing items (informational, not fatal)."""
    if response.questionnaire_id != schema.schema_id:
        raise ValidationError(
            f"response targets questionnaire {response.questionnaire_id!r}, "
            f"schema is {schema.schema_id!r}"
        )
    violations: list[str] = []
    known = {i.item_id: i for i in schema.items}
    for item_id, value in response.answers.items():
        item = known.get(item_id)
        if item is None:
            violations.append(f"unknown item {item_id!r}")
            continue
        if item.icu_only and not response.context.icu:
            violations.append(f"item {item_id}: ICU-only item answered outside an ICU session")
        message = _check_answer(item, value)
        if message is not None:
            violations.append(message)
    missing = [
        f"item {i.item_id} unanswered"
        for i in schema.items
        if i.item_id not in response.answers and (response.context.icu or not i.icu_only)
    ]
    return ValidationReport(violations=tuple(violations), missing=tuple(missing))


@dataclass(frozen=True)
class ConstructScore:
    construct: str
    mean: float
    stdev: float  # sample (n-1); 0.0 when n == 1
    n: int


def _mean_stdev(values: list[float]) -> tuple[float, float]:
    n = len(values)
    mean = sum(values) / n
    if n == 1:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var)


def construct_scores(
    schema: QuestionnaireSchema,
    responses: Iterable[ResponseSet],
    skip_empty: bool = False,
) -> list[ConstructScore]:
    """Reverse items flipped, then item values pooled over respondents per
    construct; missing answers are excluded (no imputation). A construct with
    no pooled answers is an error unless ``skip_empty`` drops its row."""
    responses = list(responses)
    if not responses:
        raise ValidationError("construct scoring needs at least one response")
    out = []
    for construct, members in schema.constructs.items():
        pooled: list[float] = []
        for response in responses:
            for member in members:
                if member not in response.answers:
                    continue
                value = _as_likert(response.answers[member])
                if schema.item(member).reverse:
                    value = apply_reverse(value)
                pooled.append(float(value))
        if not pooled:
            if skip_empty:
                continue
            raise ValidationError(f"construct {construct!r}: no answers pooled")
        mean, stdev = _mean_stdev(pooled)
        out.append(ConstructScore(construct=construct, mean=mean, stdev=stdev, n=len(pooled)))
    return out


@dataclass(frozen=True)
class BorgSummary:
    zone: str
    position: str
    mean: float
    stdev: float
    n: int


def borg_zone_of(item: Item) -> str:
    return item.text_key[len("borg_") :] if item.text_key.startswith("borg_") else item.text_key


def borg_summary(
    schema: QuestionnaireSchema, responses: Iterable[ResponseSet]
) -> list[BorgSummary]:
    """Mean and sample stdev of the Borg CR10 ratings pooled per body zone and
    working position over the supplied (pre-filtered) responses."""
    responses = list(responses)
    if not responses:
        raise ValidationError("Borg summary needs at least one response")
    borg_items = [i for i in schema.items if i.kind == "borg_cr10"]
    pooled: dict[tuple[str, str], list[float]] = {}
    for response in responses:
        position = response.context.position or "unspecified"
        for item in borg_items:
            if item.item_id not in response.answers:
                continue
            value = response.answers[item.item_id]
            message = _check_answer(item, value)
            if message is not None:
                raise ValidationError(message)
            pooled.setdefault((borg_zone_of(item), position), []).append(float(value))
    if not pooled:
        raise ValidationError("no Borg answers matched the filter")
    out = []
    for (zone, position), values in pooled.items():
        mean, stdev = _mean_stdev(values)
        out.append(BorgSummary(zone=zone, position=position, mean=mean, stdev=stdev, n=len(values)))
    out.sort(key=lambda s: (s.zone, s.position))
    return out


def format_mean_stdev(mean: float, stdev: float) -> str:
    """One-decimal display form; stored values keep full precision."""
    return f"{mean:.1f}±{stdev:.1f}"


# -- schema loading ----------------------------------------------------------


def parse_schema(payload: object, where: str = "questionnaire schema") -> QuestionnaireSchema:
    fields = JsonFields(payload, where)
    items = tuple(
        Item(
            item_id=row.get("id", str),
            text_key=row.get("text_key", str),
            kind=row.get("kind", str),
            reverse=row.get("reverse", bool, False),
            icu_only=row.get("icu_only", bool, False),
            choices=tuple(row.get_list("choices", str, [])),
        )
        for row in fields.get_list("items", dict)
    )
    constructs = fields.get("constructs", dict, {})
    return QuestionnaireSchema(
        schema_id=fields.get("id", str),
        title=fields.get("title", str, ""),
        items=items,
        constructs={name: tuple(constructs.get_list(name, str)) for name in constructs.data},
    )


def load_schema(questionnaire_id: str) -> QuestionnaireSchema:
    """Bundled schema by id (A-E)."""
    if questionnaire_id not in QUESTIONNAIRE_IDS:
        raise ValidationError(f"unknown questionnaire id {questionnaire_id!r}")
    name = f"questionnaire_{questionnaire_id.lower()}.json"
    text = resources.files("exoload.data").joinpath(name).read_text("utf-8")
    return parse_schema(json.loads(text), name)


def parse_response(payload: object, where: str = "response record") -> ResponseSet:
    """One response record. ``where`` names it in error messages, such as
    the file and line it came from."""
    fields = JsonFields(payload, where)
    context = fields.get("context", dict, {})
    return ResponseSet(
        respondent_id=fields.get("respondent_id", str),
        questionnaire_id=fields.get("questionnaire_id", str),
        answers=fields.get("answers", dict).data,
        context=ResponseContext(
            exoskeleton=context.get("exoskeleton", str, "none"),
            position=context.get("position", str, None),
            pp_index=context.get("pp_index", int, None),
            icu=context.get("icu", bool, False),
        ),
    )
