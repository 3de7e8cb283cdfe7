import json

import numpy as np
import pytest

from conftest import random_decoration
from divalg import verify
from divalg.cli import main
from divalg.core import Algebra, classical
from divalg.io import algebra_to_dict, decorated_from_dict, \
    decorated_to_dict, normal_form_to_dict, pair_to_dict, write_algebra, \
    write_json
from divalg.samples import e_quadratic_corpus, random_normal_form_many, \
    random_quat_pair
from divalg.verify import check_names


@pytest.fixture
def h_file(tmp_path):
    path = tmp_path / "h.json"
    write_algebra(classical("H"), path)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_sign_pair_quaternions(capsys, h_file):
    code, out = run(capsys, "sign-pair", h_file)
    assert code == 0
    assert out.strip() == "++"


def test_sign_pair_json(capsys, h_file):
    code, out = run(capsys, "sign-pair", h_file, "--json")
    doc = json.loads(out)
    assert code == 0
    assert (doc["ell"], doc["r"], doc["block"]) == (1, 1, "++")


def test_block_command(capsys, h_file):
    code, out = run(capsys, "block", h_file)
    assert code == 0
    assert out.strip() == "dim 4: ++"


def test_missing_file_is_input_error(capsys):
    assert main(["sign-pair", "/no/such/file.json"]) == 2


def test_bad_document_is_input_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"dim": 2}')
    assert main(["sign-pair", str(path)]) == 2


def test_degenerate_input_is_numerical_error(capsys, tmp_path):
    c = np.zeros((2, 2, 2))
    c[0, 0, 0] = c[1, 1, 1] = 1.0      # componentwise product, det L_e1 = 0
    path = tmp_path / "cw.json"
    write_algebra(Algebra(c), path)
    assert main(["sign-pair", str(path)]) == 3


def test_opposite_writes_algebra(capsys, h_file, tmp_path):
    out_path = tmp_path / "opp.json"
    code, _ = run(capsys, "opposite", h_file, "-o", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert np.array_equal(np.asarray(doc["structure"]),
                          classical("H").c.transpose(1, 0, 2))


def test_isotope_command(capsys, h_file, tmp_path):
    pair_path = tmp_path / "pair.json"
    write_json(pair_to_dict(np.eye(4), np.eye(4)), pair_path)
    code, out = run(capsys, "isotope", h_file, str(pair_path))
    assert code == 0
    doc = json.loads(out)
    assert np.allclose(np.asarray(doc["structure"]), classical("H").c)


def test_divcheck_exact2d(capsys, tmp_path):
    path = tmp_path / "c.json"
    write_algebra(classical("C"), path)
    code, out = run(capsys, "divcheck", str(path), "--mode", "exact2d")
    assert code == 0
    assert out.strip() == "division"


@pytest.mark.parametrize("name", ["H", "O"])
def test_huge_algebra_gets_its_sign_without_a_warning(capsys, tmp_path, name):
    # every determinant overflows to +inf, which is a sign; the tests turn
    # a RuntimeWarning into an error, as python -W error does
    path = tmp_path / "big.json"
    write_algebra(Algebra(1e80 * classical(name).c), path)
    assert run(capsys, "sign-pair", str(path)) == (0, "++\n")
    assert run(capsys, "divcheck", str(path)) == (0, "probably_division\n")


def test_equad_quaternions(capsys, h_file):
    code, out = run(capsys, "equad", h_file, "--json")
    doc = json.loads(out)
    assert code == 0
    assert np.allclose(doc["idempotent"], [1, 0, 0, 0], atol=1e-10)
    assert doc["block"] == "++"


@pytest.mark.parametrize("lam", [1.0, 1e12, 1e80])
def test_equad_text_idempotent_matches_the_json_one(capsys, tmp_path, lam):
    # 6 significant digits of the largest entry at every scale: at 6
    # decimals the idempotents of 1e12 and 1e80 times it printed as zeros
    path = tmp_path / "a.json"
    write_algebra(Algebra(lam * e_quadratic_corpus(4, 1)[3].c), path)
    text = run(capsys, "equad", str(path))[1]
    want = np.array(json.loads(run(capsys, "equad", str(path),
                                   "--json")[1])["idempotent"])
    got = np.array(text[text.index("[") + 1:text.index("]")].split(),
                   dtype=float)
    assert np.max(np.abs(got - want)) <= 5e-6 * np.max(np.abs(want))


def test_classify2d(capsys, tmp_path):
    path = tmp_path / "c.json"
    write_algebra(classical("C"), path)
    code, out = run(capsys, "classify2d", str(path), "--json")
    doc = json.loads(out)
    assert code == 0
    assert (doc["i"], doc["j"]) == (0, 0)
    assert doc["residual"] <= 1e-10


def test_hom2d_identity_d3_pair(capsys, tmp_path):
    path = tmp_path / "nf.json"
    path.write_text(json.dumps({"i": 1, "j": 1,
                                "A": np.eye(2).tolist(),
                                "B": np.eye(2).tolist()}))
    code, out = run(capsys, "hom2d", str(path), str(path), "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["count"] == 6
    assert doc["group"] == "D3"
    assert len(doc["morphisms"]) == 6


def test_hom2d_accepts_algebra_documents(capsys, tmp_path):
    path = tmp_path / "c.json"
    write_algebra(classical("C"), path)
    code, out = run(capsys, "hom2d", str(path), str(path), "--json")
    assert code == 0
    assert json.loads(out)["count"] >= 1


def test_quat_normal_form_command(capsys, tmp_path):
    pair_path = tmp_path / "pair.json"
    write_json(pair_to_dict(*random_quat_pair(3)), pair_path)
    code, out = run(capsys, "quat", "normal-form", str(pair_path), "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["alpha"] in (1, -1) and doc["beta"] in (1, -1)
    assert doc["residual"] <= 1e-8


def test_quat_normal_form_singular_pair(capsys, tmp_path):
    pair_path = tmp_path / "pair.json"
    write_json(pair_to_dict(np.zeros((4, 4)), np.eye(4)), pair_path)
    assert main(["quat", "normal-form", str(pair_path)]) == 2


def test_gen_is_deterministic(capsys):
    code1, out1 = run(capsys, "gen", "random2d", "--seed", "5")
    code2, out2 = run(capsys, "gen", "random2d", "--seed", "5")
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert np.asarray(doc["structure"]).shape == (2, 2, 2)


def test_gen_kinds(capsys, tmp_path):
    for kind in ("classical", "random2d", "isotope", "decorated", "pair"):
        out_path = tmp_path / f"{kind}.json"
        assert main(["gen", kind, "-o", str(out_path)]) == 0
        json.loads(out_path.read_text())


def test_verify_reports_are_byte_identical(capsys):
    code1, out1 = run(capsys, "verify", "--seed", "42", "--samples", "100",
                      "--json")
    code2, out2 = run(capsys, "verify", "--seed", "42", "--samples", "100",
                      "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["passed"] is True
    assert doc["failures"] == []


def test_verify_text_subset(capsys):
    code, out = run(capsys, "verify", "--only",
                    "matkit-sign-multiplicative,cli-coverage")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1].startswith("2 checks, 0 failures")
    assert all(line.startswith("PASS") for line in lines[1:-1])


def test_verify_coverage_names_a_missing_check(monkeypatch):
    # the check named quat-normal-form is the only one that covers
    # quat:normal-form
    monkeypatch.setattr(verify, "_REGISTRY", [
        chk for chk in verify._REGISTRY if chk.name != "quat-normal-form"])
    (result,) = verify.run_verify(names=["cli-coverage"]).results
    assert not result.passed
    assert result.detail == "missing quat:normal-form"


def test_verify_text_report_aligns_the_residual_column(capsys):
    code, out = run(capsys, "verify", "--samples", "5")
    assert code == 0
    lines = out.strip().splitlines()[1:-1]
    assert len(lines) == len(check_names())
    assert len({line.index("residual=") for line in lines}) == 1


@pytest.mark.parametrize("only", ["no-such-check", "core-opposition,typo"])
def test_verify_unknown_check_is_input_error(capsys, only):
    code = main(["verify", "--only", only])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert only.split(",")[-1] in captured.err


def test_failing_check_exits_one(capsys):
    code, out = run(capsys, "verify", "--only", "dim2-separation",
                    "--tol", "1e-30")
    assert code == 1
    lines = out.strip().splitlines()
    assert lines[1].startswith("FAIL  dim2-separation")
    assert lines[-1].startswith("1 checks, 1 failures: dim2-separation")


@pytest.mark.parametrize("tol, only, raised", [
    # returns a failed verdict, and raises NotEQuadratic
    ("1e-30", "dim2-separation,equad-decomposition", "NotEQuadratic"),
    # raises DegenerateSign, and raises NotDivision
    ("1e-2", "core-sign-constancy,dim2-density", "DegenerateSign"),
])
def test_raising_check_exits_one(capsys, tol, only, raised):
    code, out = run(capsys, "verify", "--only", only, "--tol", tol, "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["exit_code"] == 1
    assert sorted(doc["failures"]) == sorted(only.split(","))
    details = [c["detail"] for c in doc["checks"]]
    assert any(d.startswith(raised + ": ") for d in details)


@pytest.mark.parametrize("labels", [None, 7, "abc"])
def test_labels_that_are_not_a_list_of_strings_are_input_errors(
        capsys, tmp_path, labels):
    doc = algebra_to_dict(classical("C"))
    doc["labels"] = labels
    path = tmp_path / "labels.json"
    write_json(doc, path)
    assert main(["sign-pair", str(path)]) == 2
    assert "labels must be a list of strings" in capsys.readouterr().err


@pytest.mark.parametrize("dim, structure", [
    # int() would read these as 2, 2 and 1, each matching its structure
    (2.9, classical("C").c.tolist()), ("2", classical("C").c.tolist()),
    (True, [[[1.0]]])])
def test_dim_that_is_not_an_integer_is_input_error(
        capsys, tmp_path, dim, structure):
    doc = {"dim": dim, "structure": structure}
    path = tmp_path / "dim.json"
    write_json(doc, path)
    assert main(["sign-pair", str(path)]) == 2
    assert "dim must be an integer" in capsys.readouterr().err


# np.asarray(..., dtype=float) would read "2" as 2.0 and true as 1.0, and
# each command would run on the document
@pytest.mark.parametrize("leaf", ["2", True])
def test_structure_entry_that_is_not_a_number_is_input_error(
        capsys, tmp_path, leaf):
    path = tmp_path / "alg.json"
    write_json({"dim": 1, "structure": [[[leaf]]]}, path)
    assert main(["divcheck", str(path)]) == 2
    assert "structure must hold JSON numbers only" in capsys.readouterr().err


def test_pair_entry_that_is_not_a_number_is_input_error(capsys, tmp_path):
    doc = pair_to_dict(*random_quat_pair(3))
    doc["T"][2][1] = str(doc["T"][2][1])
    path = tmp_path / "pair.json"
    write_json(doc, path)
    assert main(["quat", "normal-form", str(path)]) == 2
    assert "T must hold JSON numbers only" in capsys.readouterr().err


def test_normal_form_entry_that_is_not_a_number_is_input_error(
        capsys, tmp_path):
    doc = normal_form_to_dict(random_normal_form_many(1, 4, block=(1, 0))[0])
    doc["B"] = [["1", 0], [0, True]]
    path = tmp_path / "nf.json"
    write_json(doc, path)
    assert main(["hom2d", str(path), str(path)]) == 2
    assert "B must hold JSON numbers only" in capsys.readouterr().err


def test_decoration_entry_that_is_not_a_number_is_input_error():
    # no command reads a decorated document; verify's round trip does
    doc = decorated_to_dict(random_decoration(classical("H"), 3))
    doc["V"][0][1] = True
    with pytest.raises(ValueError, match="^V must hold JSON numbers only"):
        decorated_from_dict(doc)


@pytest.mark.parametrize("exponent", [1.7, True])
def test_exponent_that_is_not_the_integer_0_or_1_is_input_error(
        capsys, tmp_path, exponent):
    doc = normal_form_to_dict(random_normal_form_many(1, 4, block=(1, 0))[0])
    doc["i"] = exponent
    path = tmp_path / "nf.json"
    write_json(doc, path)
    assert main(["hom2d", str(path), str(path)]) == 2
    assert "exponents i and j" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["sign-pair"], ["divcheck"]])
@pytest.mark.parametrize("option, value", [
    ("--tol", "nan"), ("--tol", "inf"), ("--tol", "-1e-9"),
    ("--samples", "-1")])
def test_bad_tolerance_or_sample_count_is_usage_error(
        capsys, h_file, command, option, value):
    with pytest.raises(SystemExit) as exc:
        main(command + [h_file, option, value])
    assert exc.value.code == 2
    assert option in capsys.readouterr().err


def test_zero_tolerance_and_sample_count_are_allowed(capsys, h_file):
    code, out = run(capsys, "sign-pair", h_file, "--tol", "0",
                    "--samples", "0")
    assert (code, out.strip()) == (0, "++")
