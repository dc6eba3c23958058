"""Run the vendored gie conformance corpus.

Pass criteria: every case whose operations are implemented must pass at
the reference's own tolerances (50 nm for tmerc/etmerc, 0.5 mm default,
0.03 m GIGS — see tests/data/gie_cases.json, extracted by
tools/extract_gie.py from the reference corpus).  A case whose grid,
model or TIN file is absent on this host is skipped and counted, as
gie's `require_grid` does; with every file present nothing is skipped.
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
    assert supported >= MIN_SUPPORTED_CASES - res.skipped, (
        f"supported gie case count regressed: {supported} < "
        f"{MIN_SUPPORTED_CASES} - {res.skipped} skipped for missing files "
        f"{sorted(res.skipped_files)}"
    )


def _merc_case(case_id):
    return {"case_id": case_id, "operation": "+proj=merc +ellps=GRS80",
            "direction": "forward", "accept": [12, 55, 0, 0],
            "expect": [1335833.8895, 7326837.7149, 0, 0],
            "expect_dims": 2, "tolerance_m": 1e-4}


def test_transform_error_fails_case_and_run_continues(monkeypatch):
    """A ProjError raised while transforming (setup accepted the
    operation) is one failed case with its message, not the end of the
    run."""
    import proj_ray.ops.gridshift as gridshift
    from proj_ray.ops.base import ProjError

    def no_grid(spec, vertical=False):
        raise ProjError(f"gridshift: no usable grid in {spec!r}")

    monkeypatch.setattr(gridshift, "load_grids", no_grid)
    raising = dict(_merc_case("t.gie:1"),
                   operation="+proj=hgridshift +grids=synth:3,0,40,1,30,20",
                   expect=[12, 55, 0, 0])
    res = run_cases([raising, _merc_case("t.gie:2")])
    assert (res.total, res.passed, res.failed) == (2, 1, 1)
    assert res.fail_cases[0]["case"] == "t.gie:1"
    assert "no usable grid" in res.fail_cases[0]["detail"]


def test_case_with_missing_file_is_skipped_and_counted():
    cases = [dict(_merc_case("t.gie:1"),
                  operation="+proj=hgridshift +grids=no_such.gsb"),
             dict(_merc_case("t.gie:2"),
                  operation="+proj=longlat +ellps=GRS80 "
                            "+nadgrids=no_such.gsb,@no_such_2.gsb"),
             _merc_case("t.gie:3")]
    res = run_cases(cases)
    assert (res.total, res.passed, res.failed, res.skipped) == (3, 1, 0, 2)
    assert res.skipped_files == {"no_such.gsb": 2, "no_such_2.gsb": 1}


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


def _extract_gie_tool():
    import importlib.util

    path = os.path.join(os.path.dirname(__file__), "..", "tools",
                        "extract_gie.py")
    spec = importlib.util.spec_from_file_location("extract_gie", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod, path


def test_extract_gie_missing_reference_is_one_line(tmp_path):
    import subprocess
    import sys

    _, path = _extract_gie_tool()
    missing = str(tmp_path / "no-such-dir")
    r = subprocess.run([sys.executable, path, "--ref", missing],
                       capture_output=True, text=True)
    assert r.returncode != 0
    assert r.stdout == ""
    assert r.stderr.strip().splitlines() == [
        f"extract_gie: no reference test directory; searched: {missing}"]


def test_extract_gie_reference_search_order(monkeypatch):
    mod, _ = _extract_gie_tool()
    assert mod.ref_candidates("/x/test") == ["/x/test"]
    monkeypatch.delenv("PROJ_REFERENCE", raising=False)
    assert mod.ref_candidates() == [mod.REF]
    monkeypatch.setenv("PROJ_REFERENCE", "proj-src")
    assert mod.ref_candidates() == [os.path.join("proj-src", "test"),
                                    mod.REF]
