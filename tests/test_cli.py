"""End-to-end CLI checks, run in process through main()."""
import json

import pytest

from minmod import parse_exact
from minmod.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert err == ""
    return code, json.loads(out)


def assert_schema(report):
    assert set(report) == {"command", "checks", "elapsed_ms"}
    assert isinstance(report["elapsed_ms"], int)
    for check in report["checks"]:
        assert set(check) == {"name", "status", "exact", "approx"}
        assert check["status"] in ("pass", "fail", "info")
        if check["exact"]:
            parse_exact(check["exact"])


def test_info_7_8(capsys):
    code, report = run_json(capsys, "info", "--p", "7", "--q", "8")
    assert code == 0
    assert_schema(report)
    assert report["command"] == "info (7,8)"
    assert len(report["checks"]) == 22
    charge = report["checks"][0]
    assert charge["name"] == "central charge"
    assert charge["exact"] == "25/28"
    names = [c["name"] for c in report["checks"][1:]]
    assert names[0] == "(1,1)"
    assert "(1,7)" in names and "(2,7)" in names


def test_info_2_3(capsys):
    code, report = run_json(capsys, "info", "--p", "2", "--q", "3")
    assert code == 0
    assert len(report["checks"]) == 2
    assert report["checks"][0]["exact"] == "0"


def test_info_rejects_bad_model(capsys):
    code, out, err = run(capsys, "info", "--p", "4", "--q", "6")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_fusion_example(capsys):
    code, report = run_json(
        capsys, "fusion", "--p", "7", "--q", "8", "--a", "1,3", "--b", "1,3"
    )
    assert code == 0
    names = [c["name"] for c in report["checks"]]
    assert names == ["(1,1)", "(1,3)", "(1,5)"]


def test_fusion_multiplicity_rendering(capsys):
    # (2,2)x(2,2) at (3,4) is multiplicity free; pick one that is not
    code, report = run_json(
        capsys, "fusion", "--p", "11", "--q", "12", "--a", "5,5", "--b", "5,5"
    )
    assert code == 0
    for check in report["checks"]:
        assert check["status"] == "info"


def test_qdim_example(capsys):
    code, out, err = run(
        capsys, "qdim", "--p", "11", "--q", "12", "--label", "1,7"
    )
    assert code == 0
    assert "= 2 + sqrt(3)" in out
    assert "3.73205081" in out


def test_braid_entry_example(capsys):
    code, out, err = run(
        capsys,
        "braid", "--p", "7", "--q", "8", "--ext", "3,3,4,4", "--entry", "2,3",
    )
    assert code == 0
    assert "0.20710678 + 0.20710678i" in out


def test_braid_named_and_kac_externals_agree(capsys):
    code_a, rep_a = run_json(
        capsys,
        "braid", "--p", "7", "--q", "8", "--ext", "3,3,4,4", "--entry", "2,3",
    )
    code_b, rep_b = run_json(
        capsys,
        "braid", "--p", "7", "--q", "8",
        "--ext", "1,3,1,3,1,5,1,5", "--entry", "1,7,1,3",
    )
    assert code_a == code_b == 0
    assert rep_a["checks"][0]["exact"] == rep_b["checks"][0]["exact"]


def test_braid_full_matrix(capsys):
    code, report = run_json(
        capsys, "braid", "--p", "7", "--q", "8", "--ext", "3,3,4,4"
    )
    assert code == 0
    names = [c["name"] for c in report["checks"]]
    assert len(names) == 10
    assert sum(1 for n in names if n.startswith("B[")) == 9
    assert names[-1] == "det"
    det = report["checks"][-1]
    assert parse_exact(det["exact"]) is not None


def test_braid_rejects_unknown_named_index(capsys):
    code, out, err = run(
        capsys, "braid", "--p", "7", "--q", "8", "--ext", "9,9,9,9"
    )
    assert code == 2
    assert err.startswith("error: no named module")


@pytest.mark.parametrize(
    "target",
    [
        "lemma-5a", "lemma-3c", "uniqueness-5a", "uniqueness-3c",
        "chains-5a", "chains-3c", "fusion-5a", "fusion-3c",
    ],
)
def test_verify_targets_pass(capsys, target):
    code, report = run_json(capsys, "verify", target)
    assert code == 0
    assert_schema(report)
    statuses = {c["status"] for c in report["checks"]}
    assert "fail" not in statuses
    assert "pass" in statuses


def test_verify_all(capsys):
    code, report = run_json(capsys, "verify", "all")
    assert code == 0
    names = [c["name"] for c in report["checks"]]
    for prefix in ("lemma-5a:", "uniqueness-3c:", "fusion-3c:"):
        assert any(n.startswith(prefix) for n in names), prefix


def test_verify_inject_failure(capsys):
    code, report = run_json(capsys, "verify", "lemma-5a", "--inject-failure")
    assert code == 1
    assert report["checks"][-1]["status"] == "fail"
    assert report["checks"][-1]["name"] == "injected failure"


def test_verify_uniqueness_3c_claim(capsys):
    code, report = run_json(capsys, "verify", "uniqueness-3c")
    assert code == 0
    claims = [c for c in report["checks"] if c["status"] == "pass"]
    assert claims[0]["name"] == "unique solution: lambda^2 = 1"
    assert any(c["status"] == "info" for c in report["checks"])


def test_verify_uniqueness_5a_residuals(capsys):
    code, report = run_json(capsys, "verify", "uniqueness-5a")
    assert code == 0
    residuals = [
        c for c in report["checks"] if c["name"].startswith("closure residual")
    ]
    assert len(residuals) == 9
    for check in residuals:
        assert check["status"] == "info"
        assert check["exact"]
        parse_exact(check["exact"])
    passes = [c["name"] for c in report["checks"] if c["status"] == "pass"]
    assert "unique solution: mu^2 = 1 and gamma^2 = 1" in passes
    assert "even-sector coefficient forced nonzero" in passes


def test_verify_rejects_unknown_target(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "lemma-9x"])
    assert exc.value.code == 2


def test_decompose_5a(capsys):
    code, report = run_json(capsys, "decompose", "5a")
    assert code == 0
    assert report["command"] == "decompose 5A"
    assert len(report["checks"]) == 12
    assert report["checks"][0]["name"].startswith("U1 =")


def test_decompose_3c(capsys):
    code, report = run_json(capsys, "decompose", "3c")
    assert code == 0
    assert len(report["checks"]) == 6


def test_decompose_3c_module(capsys):
    code, report = run_json(capsys, "decompose", "3c", "--module", "4")
    assert code == 0
    assert report["command"] == "decompose 3C module 4"
    assert len(report["checks"]) == 6
    assert any("85/176" in c["name"] for c in report["checks"])


def test_decompose_vacuum_module_is_sector_listing(capsys):
    code_a, rep_a = run_json(capsys, "decompose", "5a", "--module", "1,1")
    code_b, rep_b = run_json(capsys, "decompose", "5a")
    assert code_a == code_b == 0
    assert rep_a["checks"] == rep_b["checks"]


def test_decompose_rejects_bad_input(capsys):
    code, out, err = run(capsys, "decompose", "6a")
    assert code == 2
    code, out, err = run(capsys, "decompose", "3c", "--module", "3")
    assert code == 2
    code, out, err = run(capsys, "decompose", "5a", "--module", "2,2")
    assert code == 2


def test_table_format_footer(capsys):
    code, out, err = run(capsys, "verify", "lemma-3c")
    assert code == 0
    footer = out.strip().splitlines()[-1]
    assert "pass" in footer and "ms" in footer
    assert "verify lemma-3c" in footer


def test_precision_flag_widens_output(capsys):
    code, out, err = run(
        capsys,
        "qdim", "--p", "11", "--q", "12", "--label", "1,7",
        "--precision", "200",
    )
    assert code == 0
    assert "3.732050807568878" in out


def test_braid_half_integral_sign_exponent_is_a_usage_error(capsys):
    code, out, err = run(
        capsys, "braid", "--p", "7", "--q", "8", "--ext", "2,3,2,7,3,3,3,5"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: sign exponent ")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("bits", ["0", "-5", "x"])
def test_precision_below_one_is_rejected(capsys, bits):
    with pytest.raises(SystemExit) as exc:
        main(["qdim", "--p", "7", "--q", "8", "--label", "1,3", "--precision", bits])
    assert exc.value.code == 2
    assert "--precision" in capsys.readouterr().err


def test_precision_one_is_accepted(capsys):
    code, out, err = run(
        capsys, "qdim", "--p", "7", "--q", "8", "--label", "1,3", "--precision", "1"
    )
    assert code == 0
