import json

from hilbcheck.reportschema import VERIFY_REPORT_SCHEMA, validate
from hilbcheck.verify import CASE_NAMES, run_case, run_suite


def test_case_registry_names_unique():
    assert len(CASE_NAMES) == len(set(CASE_NAMES))
    assert "curve16" in CASE_NAMES


def test_quick_cases_pass():
    for name in ("tangent-21", "dimension-formulas", "initial-axis-100",
                 "pfaffian-salmon", "census", "pfaffian-ratio", "pfaffian-covariance"):
        res = run_case(name)
        assert res.status == "PASS", (name, res.value, res.note)
    # the ratio prints as a plain rational, not as a backend repr
    assert run_case("pfaffian-ratio").value == "ratio 1"


def test_report_rendering_and_schema():
    rep = run_suite(case_filter="tangent-2")
    text = rep.to_text()
    assert text.splitlines()[0].startswith("verification suite")
    assert text.endswith("cases pass\n")
    obj = rep.to_json_obj()
    validate(obj, VERIFY_REPORT_SCHEMA)
    json.dumps(obj)   # serializable

