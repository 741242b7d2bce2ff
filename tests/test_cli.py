import json
import math
import os

import pytest

from hdx.cli import main
from hdx.generators import load_complex


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_generate_and_spectrum_pipeline(tmp_path, capsys):
    cx = os.path.join(tmp_path, "pg23.cx")
    ty = os.path.join(tmp_path, "pg23.types")
    code, out = run_cli(
        capsys, "generate", "--kind", "projective_flag", "--q", "2", "--n", "3",
        "--out", cx, "--types-out", ty,
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["schema"] == "hdx-report/1"
    assert rep["result"]["f_vector"] == [14, 21]
    assert os.path.exists(cx) and os.path.exists(ty)

    code, out = run_cli(capsys, "spectrum", cx, "--types", ty)
    assert code == 0
    rep = json.loads(out)
    assert abs(rep["result"]["lambda_max"] - math.sqrt(2) / 3) < 1e-9


def test_cosystole_verb(tmp_path, capsys):
    cx = os.path.join(tmp_path, "c8.cx")
    run_cli(capsys, "generate", "--kind", "cycle", "--n", "8", "--out", cx)
    code, out = run_cli(capsys, "cosystole", "--k", "1", cx)
    assert code == 0
    assert json.loads(out)["result"]["value"] == {"num": 1, "den": 8}


def test_expansion_verb(tmp_path, capsys):
    cx = os.path.join(tmp_path, "edge.cx")
    with open(cx, "w") as fh:
        fh.write("u v\n")
    code, out = run_cli(capsys, "expansion", "--k", "0", "--mode", "coboundary", cx)
    assert code == 0
    assert json.loads(out)["result"]["value"] == {"num": 2, "den": 1}


def test_info_minimize_fat_seep(tmp_path, capsys):
    cx = os.path.join(tmp_path, "k52.cx")
    run_cli(capsys, "generate", "--kind", "complete", "--n", "5", "--d", "2", "--out", cx)

    code, out = run_cli(capsys, "info", cx)
    assert code == 0
    rep = json.loads(out)["result"]
    assert rep["Q"] == 11 and rep["weight_sums_exact"]

    code, out = run_cli(capsys, "minimize", "--k", "1", "--cochain", "0,1,2,3", cx)
    assert code == 0
    rep = json.loads(out)["result"]
    assert rep["final_norm"]["num"] >= 0

    code, out = run_cli(
        capsys, "fat-profile", "--k", "1", "--eta", "1/3", "--cochain", "0,1,2", cx
    )
    assert code == 0
    rep = json.loads(out)["result"]
    assert rep["eta"] == {"num": 1, "den": 3}
    assert any(level["faces"] for level in rep["levels"])

    # locally minimize first, then seep-check its output
    code, out = run_cli(capsys, "minimize", "--k", "1", "--cochain", "0,4,7", cx)
    final = json.loads(out)["result"]["final"]["faces"]
    cochain = ",".join(str(i) for i in final)
    code, out = run_cli(
        capsys, "seep-check", "--k", "1", "--eta", "1/3", "--cochain", cochain, cx
    )
    assert code == 0
    assert json.loads(out)["result"]["passed"]


def test_mixing_and_alpha_verbs(tmp_path, capsys):
    cx = os.path.join(tmp_path, "kp.cx")
    run_cli(capsys, "generate", "--kind", "complete_partite", "--d", "1", "--m", "2",
            "--out", cx, "--types-out", os.path.join(tmp_path, "kp.types"))
    code, out = run_cli(capsys, "mixing-check", "--a", "0:0,0:1", "--b", "1:0,1:1", cx)
    assert code == 0
    assert json.loads(out)["result"]["verdict"] in ("pass", "marginal")

    code, out = run_cli(capsys, "skeleton-alpha", cx)
    assert code == 0
    assert json.loads(out)["result"]["value"] == {"num": 0, "den": 1}


def test_constants_verb(capsys):
    code, out = run_cli(capsys, "constants", "--d", "2", "--beta", "1", "--Q", "100")
    assert code == 0
    rep = json.loads(out)["result"]
    assert rep["eps_bar"] == {"num": 1, "den": 12288}
    assert rep["theta_d"] == 7664025600


def test_criterion_exit_codes(tmp_path, capsys):
    cx = os.path.join(tmp_path, "k52.cx")
    run_cli(capsys, "generate", "--kind", "complete", "--n", "5", "--d", "2", "--out", cx)
    code, out = run_cli(capsys, "criterion", cx)
    assert code == 0
    assert json.loads(out)["result"]["hypotheses"]["verdict"] == "met"

    pg = os.path.join(tmp_path, "pg.cx")
    run_cli(capsys, "generate", "--kind", "projective_flag", "--q", "2", "--n", "3", "--out", pg)
    code, out = run_cli(capsys, "criterion", pg)
    assert code == 2
    assert json.loads(out)["result"]["hypotheses"]["verdict"] == "not_applicable"


def test_usage_error_exit_one(capsys):
    with pytest.raises(SystemExit) as info:
        main(["expansion", "--k", "0"])  # missing input path
    assert info.value.code == 1


def test_cap_override_needs_acknowledgment(tmp_path, capsys):
    cx = os.path.join(tmp_path, "c4.cx")
    run_cli(capsys, "generate", "--kind", "cycle", "--n", "4", "--out", cx)
    with pytest.raises(SystemExit) as info:
        main(["cosystole", "--k", "1", "--cap", str(1 << 30), cx])
    assert info.value.code == 1
    code, _ = run_cli(
        capsys, "cosystole", "--k", "1", "--cap", str(1 << 30),
        "--i-know-this-is-exponential", cx,
    )
    assert code == 0


def test_byte_identical_reruns(tmp_path, capsys):
    cx = os.path.join(tmp_path, "k52.cx")
    run_cli(capsys, "generate", "--kind", "complete", "--n", "5", "--d", "2", "--out", cx)
    outs = []
    for _ in range(2):
        code, out = run_cli(capsys, "expansion", "--k", "1", cx)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]

    # worker count must not influence output
    _, a = run_cli(capsys, "criterion", "--threads", "1", cx)
    _, b = run_cli(capsys, "criterion", "--threads", "4", cx)
    assert a == b


def test_non_regular_input_reports_with_exit_two(tmp_path, capsys):
    cx = os.path.join(tmp_path, "k4.cx")
    run_cli(capsys, "generate", "--kind", "complete", "--n", "4", "--d", "1", "--out", cx)
    code, out = run_cli(capsys, "spectrum", cx)
    assert code == 2
    rep = json.loads(out)["result"]
    assert rep["regular"] is False and rep["reason"] == "NoValidTyping"

    # typed but irregular: a path with alternating types
    path_cx = os.path.join(tmp_path, "path.cx")
    path_ty = os.path.join(tmp_path, "path.types")
    with open(path_cx, "w") as fh:
        fh.write("a b\nb c\nc d\n")
    with open(path_ty, "w") as fh:
        fh.write("a 0\nb 1\nc 0\nd 1\n")
    code, out = run_cli(capsys, "spectrum", path_cx, "--types", path_ty)
    assert code == 2
    rep = json.loads(out)["result"]
    assert rep["reason"] == "NotRegular" and "violation" in rep


def test_error_reporting(tmp_path, capsys):
    bad = os.path.join(tmp_path, "bad.cx")
    with open(bad, "w") as fh:
        fh.write("a b c\nc d\n")
    code = main(["info", bad])
    captured = capsys.readouterr()
    assert code == 1
    assert "error" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("case", ["missing-input", "not-utf8", "missing-types", "bad-out-dir"])
def test_io_errors_are_one_line(tmp_path, capsys, case):
    cx = os.path.join(tmp_path, "c4.cx")
    with open(cx, "w") as fh:
        fh.write("a b\nb c\nc d\nd a\n")
    binary = os.path.join(tmp_path, "binary.cx")
    with open(binary, "wb") as fh:
        fh.write(b"a b\n\xff c\n")
    missing = os.path.join(tmp_path, "nonexistent")
    argv, culprit = {
        "missing-input": (["info", missing + ".cx"], missing + ".cx"),
        "not-utf8": (["info", binary], binary),
        "missing-types": (["spectrum", cx, "--types", missing + ".types"], missing + ".types"),
        "bad-out-dir": (["info", cx, "--out", os.path.join(missing, "r.json")],
                        os.path.join(missing, "r.json")),
    }[case]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("hdx: error: ")
    assert captured.err.count("\n") == 1
    assert culprit in captured.err


def test_tsv_format(tmp_path, capsys):
    cx = os.path.join(tmp_path, "c5.cx")
    run_cli(capsys, "generate", "--kind", "cycle", "--n", "5", "--out", cx)
    code, out = run_cli(capsys, "cosystole", "--k", "1", "--format", "tsv", cx)
    assert code == 0
    assert "result.value.num\t1" in out
    assert "result.value.den\t5" in out


def test_report_to_file(tmp_path, capsys):
    cx = os.path.join(tmp_path, "c5.cx")
    run_cli(capsys, "generate", "--kind", "cycle", "--n", "5", "--out", cx)
    dest = os.path.join(tmp_path, "report.json")
    code, out = run_cli(capsys, "cosystole", "--k", "1", "--out", dest, cx)
    assert code == 0 and out == ""
    assert json.load(open(dest))["result"]["value"] == {"num": 1, "den": 5}


def test_lm_generate_reports_dropped(tmp_path, capsys):
    cx = os.path.join(tmp_path, "lm.cx")
    code, out = run_cli(
        capsys, "generate", "--kind", "linial_meshulam", "--n", "7", "--d", "2",
        "--p", "1/10", "--seed", "5", "--out", cx,
    )
    assert code == 0
    rep = json.loads(out)["result"]
    assert rep["kept_top_faces"] >= 1
    assert isinstance(rep["dropped_faces"], list)
    assert load_complex(cx).d == 2


def test_bad_hdx_threads_is_one_line(tmp_path, capsys, monkeypatch):
    cx = os.path.join(tmp_path, "c.cx")
    monkeypatch.setenv("HDX_THREADS", "abc")
    code = main(["generate", "--kind", "cycle", "--n", "4", "--out", cx])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == "" and not os.path.exists(cx)
    assert captured.err == "hdx: error: HDX_THREADS is not an integer: 'abc'\n"
    # an explicit --threads never reads the variable; the report ignores the count
    code, out = run_cli(capsys, "generate", "--kind", "cycle", "--n", "4", "--out", cx,
                        "--threads", "3")
    assert code == 0
    monkeypatch.setenv("HDX_THREADS", "2")
    assert run_cli(capsys, "info", cx) == run_cli(capsys, "info", cx, "--threads", "5")
