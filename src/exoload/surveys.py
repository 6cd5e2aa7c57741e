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

import functools
import reprlib
from dataclasses import dataclass, field
from importlib import resources
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import JsonFields, ValidationError, finite_number, parse_json, prefixed
from .posture import summarize

QUESTIONNAIRE_IDS = ("A", "B", "C", "D", "E")
ANSWER_KINDS = ("likert5_A", "likert5_B", "borg_cr10", "numeric", "free_text", "choice")
EXOSKELETON_TYPES = ("Laevo", "Corfor", "CrayX", "BackX", "none")
POSITIONS = ("head", "side")

LIKERT_MIN, LIKERT_MAX = 1, 5
LIKERT_VALUES = tuple(float(v) for v in range(LIKERT_MIN, LIKERT_MAX + 1))
BORG_VALUES = (0.0, 0.5) + tuple(float(v) for v in range(1, 11))


@dataclass(frozen=True)
class Item:
    """One questionnaire item: its id, text key, answer kind and scoring flags."""

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
    """One questionnaire: its items and the item-to-construct mapping."""

    schema_id: str
    title: str
    items: tuple[Item, ...]
    constructs: Mapping[str, tuple[str, ...]] = field(default_factory=dict)
    by_id: Mapping[str, Item] = field(init=False, repr=False, compare=False)  # item id -> item

    def __post_init__(self) -> None:
        if self.schema_id not in QUESTIONNAIRE_IDS:
            raise ValidationError(
                f"questionnaire id {self.schema_id!r} not in {QUESTIONNAIRE_IDS}"
            )
        by_id = MappingProxyType({i.item_id: i for i in self.items})
        if len(by_id) != len(self.items):
            raise ValidationError(f"questionnaire {self.schema_id!r}: duplicate item ids")
        object.__setattr__(self, "by_id", by_id)
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


@dataclass(frozen=True)
class ResponseContext:
    """The session a response was given in: exoskeleton, position, index and ICU flag."""

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
    """One respondent's answers to one questionnaire, by item id."""

    respondent_id: str
    questionnaire_id: str
    answers: Mapping[str, object]
    context: ResponseContext = ResponseContext()


def _reverse_coded(score: float) -> float:
    """Reverse-coded 5-point score: score' = 6 - score."""
    return LIKERT_MIN + LIKERT_MAX - score


def apply_reverse(value: object) -> float:
    """A likert answer, checked to lie on the 5-point scale, reverse-coded."""
    score = finite_number(value)
    if score not in LIKERT_VALUES:
        raise ValidationError(f"likert answer {reprlib.repr(value)} outside 1..5")
    return _reverse_coded(score)


def _check_answer(item: Item, value: object) -> str | None:
    """Violation message for a single answered item, or None."""
    if item.kind in ("likert5_A", "likert5_B"):
        ok, problem = finite_number(value) in LIKERT_VALUES, "out of scale 1..5"
    elif item.kind == "borg_cr10":
        ok, problem = finite_number(value) in BORG_VALUES, "not on the CR10 scale"
    elif item.kind == "numeric":
        ok, problem = finite_number(value) is not None, "is not a finite number"
    elif item.kind == "free_text":
        ok, problem = isinstance(value, str), "is not text"
    else:
        ok, problem = value in item.choices, f"not among choices {item.choices}"
    return None if ok else f"item {item.item_id}: answer {reprlib.repr(value)} {problem}"


def validate(schema: QuestionnaireSchema, response: ResponseSet) -> None:
    """Type-check every answered item and flag ICU-only items answered
    outside an ICU session; one ``ValidationError`` lists every violation.
    Unanswered items are no violation."""
    if response.questionnaire_id != schema.schema_id:
        raise ValidationError(
            f"response targets questionnaire {response.questionnaire_id!r}, "
            f"schema is {schema.schema_id!r}"
        )
    violations: list[str] = []
    for item_id, value in response.answers.items():
        item = schema.by_id.get(item_id)
        if item is None:
            violations.append(f"unknown item {item_id!r}")
            continue
        if item.icu_only and not response.context.icu:
            violations.append(f"item {item_id}: ICU-only item answered outside an ICU session")
        message = _check_answer(item, value)
        if message is not None:
            violations.append(message)
    if violations:
        raise ValidationError("; ".join(violations))


@dataclass(frozen=True)
class ConstructScore:
    """Mean and sample standard deviation of one construct's pooled item values."""

    construct: str
    mean: float
    stdev: float  # sample (n-1); 0.0 when n == 1
    n: int


def construct_scores(
    schema: QuestionnaireSchema,
    responses: Iterable[ResponseSet],
    skip_empty: bool = False,
) -> list[ConstructScore]:
    """Reverse items flipped, then item values pooled over respondents per
    construct; missing answers are excluded (no imputation). A construct with
    no pooled answers is an error unless ``skip_empty`` drops its row. The
    responses are ones ``validate`` accepts: no answer is checked again."""
    responses = list(responses)
    if not responses:
        raise ValidationError("construct scoring needs at least one response")
    out = []
    for construct, members in schema.constructs.items():
        flags = [(member, schema.by_id[member].reverse) for member in members]
        pooled: list[float] = []
        for response in responses:
            for member, reverse in flags:
                if member in response.answers:
                    score = float(response.answers[member])
                    pooled.append(_reverse_coded(score) if reverse else score)
        if not pooled:
            if skip_empty:
                continue
            raise ValidationError(f"construct {construct!r}: no answers pooled")
        s = summarize(pooled)
        out.append(ConstructScore(construct=construct, mean=s.mean, stdev=s.stdev, n=s.n))
    return out


@dataclass(frozen=True)
class BorgSummary:
    """Mean and sample standard deviation of the Borg CR10 ratings of one zone and position."""

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
    working position over the supplied responses, which are ones ``validate``
    accepts: no answer is checked again. Responses without a Borg answer pool
    nothing, and no pooled answer gives no row."""
    zones = [(i.item_id, borg_zone_of(i)) for i in schema.items if i.kind == "borg_cr10"]
    pooled: dict[tuple[str, str], list[float]] = {}
    for response in responses:
        position = response.context.position or "unspecified"
        for item_id, zone in zones:
            if item_id in response.answers:
                pooled.setdefault((zone, position), []).append(float(response.answers[item_id]))
    out = []
    for (zone, position), values in pooled.items():
        s = summarize(values)
        out.append(BorgSummary(zone=zone, position=position, mean=s.mean, stdev=s.stdev, n=s.n))
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
        constructs=MappingProxyType(
            {name: tuple(constructs.get_list(name, str)) for name in constructs.data}
        ),
    )


@functools.cache
def load_schema(questionnaire_id: str) -> QuestionnaireSchema:
    """Bundled schema by id (A-E). Schemas are frozen, so each is read once
    and shared."""
    if questionnaire_id not in QUESTIONNAIRE_IDS:
        raise ValidationError(
            f"unknown questionnaire_id {questionnaire_id!r}; expected one of {QUESTIONNAIRE_IDS}"
        )
    name = f"questionnaire_{questionnaire_id.lower()}.json"
    text = resources.files("exoload.data").joinpath(name).read_text("utf-8")
    return parse_schema(parse_json(text, name), name)


def parse_response(payload: object, where: str = "response record") -> ResponseSet:
    """One response record, checked against its questionnaire by
    ``validate``. ``where`` names it in error messages, such as the file and
    line it came from. The record may carry fields of its own, but its
    ``context`` only the four that group the answers."""
    fields = JsonFields(payload, where)
    context = fields.get("context", dict, {})
    respondent_id = fields.get("respondent_id", str)
    questionnaire_id = fields.get("questionnaire_id", str)
    answers = fields.get("answers", dict).data
    exoskeleton = context.get("exoskeleton", str, "none")
    position = context.get("position", str, None)
    pp_index = context.get("pp_index", int, None)
    icu = context.get("icu", bool, False)
    context.reject_unread()
    with prefixed(where):
        response = ResponseSet(
            respondent_id, questionnaire_id, answers, ResponseContext(exoskeleton, position, pp_index, icu)
        )
        validate(load_schema(questionnaire_id), response)
    return response
