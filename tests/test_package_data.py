"""The bundled data files are exactly the ones the package loads."""

from pathlib import Path

import exoload
from exoload.anthropometry import default_table
from exoload.surveys import QUESTIONNAIRE_IDS, load_schema


def test_every_bundled_data_file_is_loaded():
    data = Path(exoload.__file__).parent / "data"
    present = {p.name for p in data.iterdir() if p.name != "__pycache__"}
    expected = {"coefficients_default.json"} | {
        f"questionnaire_{qid.lower()}.json" for qid in QUESTIONNAIRE_IDS
    }
    assert present == expected, f"unreferenced: {sorted(present - expected)}"
    assert default_table().table_id == "default-v1"
    assert [load_schema(qid).schema_id for qid in QUESTIONNAIRE_IDS] == list(QUESTIONNAIRE_IDS)
