"""Run the vendored gie conformance corpus.

Pass criteria: every case whose operations are implemented must pass at
the reference's own tolerances (50 nm for tmerc/etmerc, 0.5 mm default,
0.03 m GIGS — see tests/data/gie_cases.json, extracted by
tools/extract_gie.py from the reference corpus).
"""

import json
import os

import pytest

from proj_ray.gie import load_cases, run_cases

CASES_PATH = os.path.join(os.path.dirname(__file__), "data", "gie_cases.json")

# every operation currently implemented must keep its gie cases green;
# this floor ratchets up as operations land
MIN_SUPPORTED_CASES = 7439


def test_gie_corpus():
    cases = load_cases(CASES_PATH)
    res = run_cases(cases)
    detail = json.dumps(res.fail_cases[:15], indent=2)
    assert res.failed == 0, f"{res.failed} gie failures:\n{detail}"
    supported = res.passed
    assert supported >= MIN_SUPPORTED_CASES, (
        f"supported gie case count regressed: {supported} < "
        f"{MIN_SUPPORTED_CASES}"
    )


def test_extract_require_grid_skips_block_if_any_grid_missing(
        tmp_path, monkeypatch):
    """gie semantics: a block runs only when EVERY grid it requires is
    available, so a missing grid listed before an available one still
    drops the block."""
    import proj_ray.ops.gridshift as gridshift
    from tools.extract_gie import extract

    monkeypatch.setattr(
        gridshift, "resolve_grid_path",
        lambda name: f"grids/{name}" if name == "have.gsb" else None)
    gie = tmp_path / "t.gie"
    gie.write_text(
        "<gie>\n"
        "operation +proj=merc +ellps=GRS80\n"
        "require_grid missing.gsb\n"
        "require_grid have.gsb\n"
        "accept 12 55\n"
        "expect 1335833.8895 7326837.7149\n"
        "\n"
        "operation +proj=merc +ellps=GRS80\n"
        "require_grid have.gsb\n"
        "accept 12 55\n"
        "expect 1335833.8895 7326837.7149\n"
        "</gie>\n")
    cases, drops = extract(str(gie), "t.gie")
    assert drops == {"require_grid": 1}
    assert [c["case_id"] for c in cases] == ["t.gie:11"]
