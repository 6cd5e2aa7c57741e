import pytest
from hypothesis import given
from hypothesis import strategies as st

from exoload.errors import ValidationError
from exoload.surveys import (
    BORG_VALUES,
    ConstructScore,
    QUESTIONNAIRE_IDS,
    ResponseContext,
    ResponseSet,
    apply_reverse,
    borg_summary,
    construct_scores,
    format_mean_stdev,
    load_schema,
    parse_response,
    validate,
)


def test_all_bundled_schemas_load():
    for qid in QUESTIONNAIRE_IDS:
        schema = load_schema(qid)
        assert schema.schema_id == qid
        assert schema.items
    assert len(load_schema("B").items) == 22


def test_apply_reverse_examples():
    assert apply_reverse(2) == 4
    assert apply_reverse(3) == 3
    assert apply_reverse(1) == 5
    with pytest.raises(ValidationError):
        apply_reverse(0)
    with pytest.raises(ValidationError):
        apply_reverse(6)


@given(st.integers(min_value=1, max_value=5))
def test_apply_reverse_is_an_involution(value):
    assert apply_reverse(apply_reverse(value)) == value


def test_validate_likert_out_of_scale():
    schema = load_schema("B")
    with pytest.raises(ValidationError, match="out of scale"):
        validate(schema, ResponseSet("p", "B", {"2": 7}))
    # one error lists every violation of the response
    with pytest.raises(ValidationError, match=r"^item 2: answer 7 out of scale 1\.\.5; item 3: answer 2\.5 "):
        validate(schema, ResponseSet("p", "B", {"2": 7, "1": 4, "3": 2.5}))


def test_validate_borg_half_point_is_valid():
    schema = load_schema("D")
    validate(schema, ResponseSet("p", "D", {"borg_neck": 0.5}))
    with pytest.raises(ValidationError, match="CR10"):
        validate(schema, ResponseSet("p", "D", {"borg_neck": 0.7}))
    assert 0.5 in BORG_VALUES and 7.5 not in BORG_VALUES


def test_validate_icu_only_rule():
    schema = load_schema("B")
    with pytest.raises(ValidationError, match="ICU-only"):
        validate(schema, ResponseSet("p", "B", {"10": 3}))
    validate(schema, ResponseSet("p", "B", {"10": 3}, ResponseContext(exoskeleton="Laevo", icu=True)))


def test_validate_missing_items_are_informational():
    schema = load_schema("B")
    validate(schema, ResponseSet("p", "B", {"1": 4}))  # everything else unanswered


def test_validate_unknown_questionnaire():
    schema = load_schema("B")
    with pytest.raises(ValidationError):
        validate(schema, ResponseSet("p", "A", {"age": 30}))


def test_construct_scores_fixture_pair():
    schema = load_schema("B")
    responses = [ResponseSet("p1", "B", {"1": 4}), ResponseSet("p2", "B", {"1": 5})]
    scores = construct_scores(schema, responses, skip_empty=True)
    row = {s.construct: s for s in scores}["Easiness to install"]
    assert format_mean_stdev(row.mean, row.stdev) == "4.5±0.7"
    assert row.n == 2


def test_construct_scores_zero_spread():
    schema = load_schema("B")
    responses = [ResponseSet("p1", "B", {"13": 2}), ResponseSet("p2", "B", {"13": 2})]
    scores = construct_scores(schema, responses, skip_empty=True)
    row = {s.construct: s for s in scores}["Reduction of physical effort"]
    # item 13 is reverse coded: raw 2 pools as 4
    assert row.mean == 4.0 and row.stdev == 0.0
    assert format_mean_stdev(row.mean, row.stdev) == "4.0±0.0"


def test_construct_scores_single_value():
    schema = load_schema("B")
    scores = construct_scores(schema, [ResponseSet("p", "B", {"20": 3})], skip_empty=True)
    row = {s.construct: s for s in scores}["Intention to use"]
    assert row.mean == 3.0 and row.stdev == 0.0 and row.n == 1


def test_construct_scores_errors():
    schema = load_schema("B")
    with pytest.raises(ValidationError, match="at least one response"):
        construct_scores(schema, [])
    with pytest.raises(ValidationError, match="no answers pooled"):
        construct_scores(schema, [ResponseSet("p", "B", {"2": 3})])


def test_construct_scores_respondent_order_invariant():
    schema = load_schema("B")
    r = [
        ResponseSet("p1", "B", {"15": 4, "16": 2, "17": 1, "18": 5}),
        ResponseSet("p2", "B", {"15": 5, "16": 1, "17": 2, "18": 4}),
    ]
    a = construct_scores(schema, r, skip_empty=True)
    b = construct_scores(schema, list(reversed(r)), skip_empty=True)
    assert {(s.construct, s.mean, s.n) for s in a} == {(s.construct, s.mean, s.n) for s in b}


def test_borg_summary_fixture():
    schema = load_schema("D")
    responses = [
        ResponseSet(
            "p1",
            "D",
            {"borg_lower_back": v},
            ResponseContext(exoskeleton="Laevo", position="head", pp_index=i, icu=True),
        )
        for i, v in enumerate([2, 2, 2, 1, 2])
    ]
    rows = borg_summary(schema, responses)
    assert len(rows) == 1
    row = rows[0]
    assert (row.zone, row.position, row.n) == ("lower_back", "head", 5)
    assert row.mean == pytest.approx(1.8)
    assert row.stdev == pytest.approx(0.4472135954999579)
    assert format_mean_stdev(row.mean, row.stdev) == "1.8±0.4"


def test_borg_summary_single_and_empty():
    schema = load_schema("D")
    single = borg_summary(
        schema,
        [ResponseSet("p", "D", {"borg_neck": 3}, ResponseContext("Laevo", "side", 1))],
    )
    assert single[0].mean == 3.0 and single[0].stdev == 0.0
    # no response, or responses without a Borg answer, pool nothing: no row
    assert borg_summary(schema, []) == []
    assert borg_summary(schema, [ResponseSet("p", "D", {})]) == []


def test_context_validation():
    with pytest.raises(ValidationError, match="exoskeleton"):
        ResponseContext(exoskeleton="PoweredLifter")
    with pytest.raises(ValidationError, match="position"):
        ResponseContext(exoskeleton="Laevo", position="overhead")


def test_parse_response_payload():
    payload = {
        "respondent_id": "p9",
        "questionnaire_id": "D",
        "answers": {"borg_neck": 1},
        "context": {"exoskeleton": "Laevo", "position": "side", "pp_index": 3, "icu": True},
    }
    r = parse_response(payload)
    assert r.context.position == "side" and r.context.icu
    with pytest.raises(ValidationError):
        parse_response({"respondent_id": "x"})


def test_response_context_rejects_fields_it_does_not_define():
    """A misspelled context key is an error, not answers filed under the
    ``none`` exoskeleton; the record itself may carry extra fields."""
    payload = {
        "respondent_id": "p9",
        "questionnaire_id": "B",
        "answers": {"1": 4},
        "context": {"exoskelton": "Laevo", "icu": True},
        "note": "extra fields of the record are allowed",
    }
    where = "responses.jsonl: line 3"
    message = r"^responses\.jsonl: line 3: unknown field\(s\) context\.exoskelton$"
    with pytest.raises(ValidationError, match=message):
        parse_response(payload, where)
    payload["context"] = {"exoskeleton": "Laevo", "icu": True}
    assert parse_response(payload, where).context.exoskeleton == "Laevo"


def test_rounding_is_display_only():
    score = ConstructScore("x", 4.4444, 0.0707, 2)
    assert format_mean_stdev(score.mean, score.stdev) == "4.4±0.1"
    assert score.mean == 4.4444  # stored value keeps full precision
