import hashlib
import json
import math
import os
import sys
from fractions import Fraction

import pytest

from hdx.cli import main
from hdx.criterion import constants
from hdx.generators import load_complex
from hdx.reportio import _any_int_size


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


@pytest.mark.parametrize("fmt", ["json", "tsv"])
def test_constants_writes_integers_of_any_size(capsys, fmt):
    # mu at d = 7 has a denominator of more digits than Python prints by default
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    code, out = run_cli(capsys, "constants", "--d", "7", "--beta", "1/2", "--Q", "3", "--format", fmt)
    assert code == 0
    # reading the integers back needs the limit lifted too
    if fmt == "json":
        mu = _any_int_size(json.loads, out)["result"]["mu"]
    else:
        rows = dict(line.split("\t") for line in out.splitlines())
        mu = {key: _any_int_size(int, rows[f"result.mu.{key}"]) for key in ("num", "den")}
    assert Fraction(mu["num"], mu["den"]) == constants(7, Fraction(1, 2), 3).mu
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit


def test_generate_over_cap_is_one_line(tmp_path, capsys):
    out = os.path.join(tmp_path, "pf27.cx")
    code = main(["generate", "--kind", "projective_flag", "--q", "2", "--n", "7", "--out", out])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == "" and not os.path.exists(out)
    assert captured.err.startswith("hdx: error: complete flags needs 78129765 elements")
    assert captured.err.count("\n") == 1


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
    err = capsys.readouterr().err
    assert err.startswith("usage: hdx cosystole ")
    assert err.endswith("hdx cosystole: error: raising --cap beyond the default "
                        "needs --i-know-this-is-exponential\n")
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


def test_vertex_typed_twice_is_one_line(tmp_path, capsys):
    cx = os.path.join(tmp_path, "c4.cx")
    ty = os.path.join(tmp_path, "c4.types")
    with open(cx, "w") as fh:
        fh.write("a b\nb c\nc d\nd a\n")
    with open(ty, "w") as fh:
        fh.write("a 0\nb 1\n# comment\nc 0\nd 1\nb 0\n")
    code = main(["spectrum", cx, "--types", ty])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == (
        "hdx: error: vertex 'b' listed twice, first on line 2 (line 6, column 1)\n"
    )


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
    # hdx is single-process: --threads is a usage error and HDX_THREADS is not read
    cx = os.path.join(tmp_path, "c.cx")
    with pytest.raises(SystemExit) as info:
        main(["generate", "--kind", "cycle", "--n", "4", "--out", cx, "--threads", "2"])
    captured = capsys.readouterr()
    assert info.value.code == 1 and captured.out == "" and not os.path.exists(cx)
    errors = [line for line in captured.err.splitlines() if "error" in line]
    assert errors == ["hdx generate: error: unrecognized arguments: --threads 2"]
    assert captured.err.startswith("usage: hdx generate ")
    assert captured.err.endswith(errors[0] + "\n")

    assert run_cli(capsys, "generate", "--kind", "cycle", "--n", "4", "--out", cx)[0] == 0
    plain = run_cli(capsys, "info", cx)
    monkeypatch.setenv("HDX_THREADS", "abc")
    assert run_cli(capsys, "info", cx) == plain
    assert capsys.readouterr().err == ""


def test_zero_dimensional_info_and_criterion(tmp_path, capsys):
    cx = os.path.join(tmp_path, "points.cx")
    with open(cx, "w", encoding="utf-8") as fh:
        fh.write("a\nb\nc\n")
    code, out = run_cli(capsys, "info", cx)
    assert code == 0 and json.loads(out)["result"]["Q"] == 1
    code, out = run_cli(capsys, "criterion", cx)
    assert code == 2
    assert json.loads(out)["result"]["hypotheses"]["verdict"] == "not_applicable"


def test_generate_requires_out(capsys):
    with pytest.raises(SystemExit) as info:
        main(["generate", "--kind", "cycle", "--n", "4"])
    captured = capsys.readouterr()
    assert info.value.code == 1 and captured.out == ""
    assert captured.err.endswith(
        "hdx generate: error: the following arguments are required: --out\n"
    )


def _pinned_digest(report: str, workdir: str) -> str:
    """SHA-256 of a report without its input path and with workdir cut from
    option paths, floats rounded to 9 places."""

    def canonical(obj):
        if isinstance(obj, dict):
            return {k: canonical(v) for k, v in obj.items()}
        if isinstance(obj, list):
            return [canonical(v) for v in obj]
        if isinstance(obj, float):
            return round(obj, 9) + 0.0  # + 0.0 turns -0.0 into 0.0
        return obj

    doc = json.loads(report.replace(workdir, ""))
    doc["input"].pop("path", None)
    text = json.dumps(canonical(doc), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# recorded before the minimality search and the CLI options were consolidated
_PINNED = {
    'info': (0, '07d928ac1cf92a9a977ce401ec4d86befe0a44d7df23a55affa76b52700d26f5'),
    'expansion-cob': (0, '161784c91268d1d30b3b39c38da95b9af18bd87b55a76ec857933f598a388028'),
    'expansion-coc': (0, '1707e34c13ce2b4b689dcd073cea5f0dcc0be10840b9d92eead0cfebaf9ebe80'),
    'cosystole': (0, '8507ca6718a36cd89041fb47d025b879432814ca40c6db7af7d11b9933f5659e'),
    'minimize': (0, 'c01f0f0a0624032158db60127831f69144cb8f0ef39feefa21ab81fbc6753040'),
    'fat-profile': (0, 'd73670e94db2f488b95a2e96aa308401c49311cd5073d03f2cabb991f77ede9b'),
    'seep-check': (0, '9d3b4c466760c2bdefc355be3d15578fe5f1025a10b7a278c8616fe8f294d898'),
    'spectrum': (0, 'f9ff95215d1aaf0e5280b21537762e7e23e25480e1c2b6532b68a5032dc7fa8d'),
    'mixing-check': (0, '9cb7f556e4d65d17318dc39a92e38287865572451809bf2e4bfbcf0bd6919dc8'),
    'skeleton-alpha': (0, '16a8273d48fd4f7d4ccbbab23feafdb0112707700715a46463a886e56db310dd'),
    'constants': (0, '1bf42700d7df251140d02fd160ecb2dc70c8d8aeec6f9d0fb09ea9ff571c63f5'),
    'criterion-k52': (0, 'e8faaff772528f8e28f866b0f024c7f6bc5ae3e89e62b5a9730331542dfe0e5d'),
    'criterion-pg': (2, 'ff19953423a890a096a739cabfdd34405719836f606b37f2ef01e54df210fbb9'),
    'minimize-pf34': (0, '655d2cd139066464d0c6d69e5350a53aae199dccde78001222b531c38efe6ffd'),
    'seep-check-pf24': (0, 'cd6eb53ef0ed74dd0b83f0d666cca7fe23a7ee577248df24a3ed4869cbbedd55'),
}


def test_cli_results_pinned(tmp_path, capsys):
    # the acceptance-8 invocations, plus a 30-move minimization on
    # projective_flag(3,4) and a seep-check with measured beta on projective_flag(2,4)
    cx, pg, ty, kp = (str(tmp_path / name) for name in ("k52.cx", "pg.cx", "pg.types", "kp.cx"))
    pf34, pf24 = str(tmp_path / "pf34.cx"), str(tmp_path / "pf24.cx")
    for argv in (
        ["--kind", "complete", "--n", "5", "--d", "2", "--out", cx],
        ["--kind", "projective_flag", "--q", "2", "--n", "3", "--out", pg, "--types-out", ty],
        ["--kind", "complete_partite", "--d", "1", "--m", "2", "--out", kp],
        ["--kind", "projective_flag", "--q", "3", "--n", "4", "--out", pf34],
        ["--kind", "projective_flag", "--q", "2", "--n", "4", "--out", pf24],
    ):
        assert run_cli(capsys, "generate", *argv)[0] == 0
    invocations = {
        "info": ["info", cx],
        "expansion-cob": ["expansion", "--k", "1", "--mode", "coboundary", cx],
        "expansion-coc": ["expansion", "--k", "0", "--mode", "cocycle", cx],
        "cosystole": ["cosystole", "--k", "1", cx],
        "minimize": ["minimize", "--k", "1", "--cochain", "0,1,2,5", cx],
        "fat-profile": ["fat-profile", "--k", "1", "--eta", "1/3", "--cochain", "0,2,4", cx],
        "seep-check": ["seep-check", "--k", "1", "--eta", "1/3", "--cochain", "0", cx],
        "spectrum": ["spectrum", pg, "--types", ty],
        "mixing-check": ["mixing-check", "--a", "0:0,0:1", "--b", "1:0,1:1", kp],
        "skeleton-alpha": ["skeleton-alpha", cx],
        "constants": ["constants", "--d", "3", "--beta", "4/3", "--Q", "121", "--q", "9"],
        "criterion-k52": ["criterion", cx],
        "criterion-pg": ["criterion", pg],
        "minimize-pf34": ["minimize", "--k", "1", "--cochain",
                          ",".join(map(str, range(400))), pf34],
        "seep-check-pf24": ["seep-check", "--k", "1", "--eta", "1/3", "--cochain", "0", pf24],
    }
    got = {}
    for name, argv in invocations.items():
        code, out = run_cli(capsys, *argv)
        got[name] = (code, _pinned_digest(out, str(tmp_path)))
    assert got == _PINNED
