import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from ncgen.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    return code, json.loads(out)


def test_lyndon_x_maxlen4(capsys):
    code, out = run_json(capsys, "--format", "json", "lyndon",
                         "--alphabet", "X", "--max-len", "4")
    assert code == 0
    assert out["count"] == 8
    assert "x0 x1" in out["words"]
    assert all(w == " ".join(sorted(w.split())) or True for w in out["words"])


def test_lyndon_text_lines(capsys):
    code, out, _ = run(capsys, "lyndon", "--alphabet", "X", "--max-len", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert "x0 x0 x1" in lines


def test_lyndon_y_needs_weight(capsys):
    code, _, err = run(capsys, "lyndon", "--alphabet", "Y")
    assert code == 2
    assert "max_weight" in err


def test_table_dual_bases_json(capsys):
    code, out = run_json(capsys, "--format", "json", "table", "dual-bases",
                         "--alphabet", "X", "--max-len", "3")
    assert code == 0
    rows = {r["lyndon"]: r for r in out["rows"]}
    # bracket form of the weight-2 word and its triangular dual
    p01 = {t["word"]: t["coef"] for t in rows["x0 x1"]["p"]}
    assert p01 == {"x0 x1": "1", "x1 x0": "-1"}
    assert rows["x0 x1"]["s"] == [{"word": "x0 x1", "coef": "1"}]


def test_table_cminus_row(capsys):
    code, out = run_json(capsys, "--format", "json", "table", "cminus",
                         "--max-weight", "3")
    assert code == 0
    rows = {r["word"]: r for r in out["rows"]}
    assert rows["y1 y2"]["c_minus"] == "1/15"
    assert rows["y1 y2"]["b_minus"] == "8"
    assert rows["y2 y1"]["degree"] == 5


def test_table_eulerian(capsys):
    code, out = run_json(capsys, "--format", "json", "table", "eulerian",
                         "--max-n", "4")
    assert code == 0
    assert out["rows"][3] == {"n": 4, "values": ["1", "11", "11", "1"]}


def test_table_pi_sigma(capsys):
    code, out = run_json(capsys, "--format", "json", "table", "pi-sigma",
                         "--max-weight", "2")
    assert code == 0
    rows = {r["word"]: r for r in out["rows"]}
    pi_y2 = {t["word"]: t["coef"] for t in rows["y2"]["pi"]}
    assert pi_y2 == {"y2": "1", "y1 y1": "-1/2"}
    sig_y1y1 = {t["word"]: t["coef"] for t in rows["y1 y1"]["sigma"]}
    assert sig_y1y1 == {"y1 y1": "1", "y2": "1/2"}


def test_verify_duality(capsys):
    code, out = run_json(capsys, "verify", "duality", "--depth", "4")
    assert code == 0
    assert out["pass"] is True
    assert out["max_abs_err"] == 0.0


def test_verify_duality_y(capsys):
    code, out = run_json(capsys, "verify", "duality", "--alphabet", "Y",
                         "--depth", "4")
    assert code == 0
    assert out["pass"] is True


def test_verify_grouplike(capsys):
    code, out = run_json(capsys, "verify", "grouplike", "--depth", "4")
    assert code == 0
    assert out["harmonic_err"] == 0.0
    assert out["max_abs_err"] < 1e-3


def test_verify_bridge(capsys):
    code, out = run_json(capsys, "verify", "bridge", "--depth", "3")
    assert code == 0
    assert out["identity"] == "bridge"
    assert out["max_abs_err"] < 1e-2


def test_verify_cminus_seeded(capsys):
    code, out = run_json(capsys, "--seed", "7", "verify", "cminus",
                         "--depth", "4")
    assert code == 0
    assert out["trials"] == 100


def test_verify_faulhaber(capsys):
    code, out = run_json(capsys, "verify", "faulhaber", "--depth", "5")
    assert code == 0
    assert out["words"] > 10


def test_verify_dynsys(capsys):
    code, out = run_json(capsys, "verify", "dynsys", "--depth", "4")
    assert code == 0
    assert out["rep_vs_fields_exact"] is True
    assert out["path_composition_err"] < 1e-8


def test_eval_li(capsys):
    code, out = run_json(capsys, "--format", "json", "eval", "li",
                         "--word", "x0 x1", "--z", "0.5", "--terms", "400")
    assert code == 0
    assert abs(out["value"] - 0.5822405264650125) < 1e-12


def test_eval_li_text(capsys):
    code, out, _ = run(capsys, "eval", "li", "--word", "y2", "--z", "0.5")
    assert code == 0
    assert "0.5822" in out


def test_eval_hneg_polynomial(capsys):
    code, out = run_json(capsys, "--format", "json", "eval", "hneg",
                         "--word", "y2 y1")
    assert code == 0
    assert out["polynomial"]["var"] == "N"
    assert out["polynomial"]["coefs"] == ["0", "-1/60", "-1/8", "-1/12",
                                          "1/8", "1/10"]


def test_eval_hneg_value(capsys):
    code, out = run_json(capsys, "--format", "json", "eval", "hneg",
                         "--word", "y2 y1", "--n", "4")
    assert code == 0
    # sum over 4 >= n1 > n2 >= 1 of n1^2 n2
    assert out["value"] == "127"


@pytest.mark.parametrize("word, want", [
    ("y0 y1", 0.693147180560),   # z/(1-z) (-log(1-z)) = log 2, not Li_2(1/2)
    ("y1 y0", 0.306852819440),   # z/(1-z) + log(1-z) = 1 - log 2
])
def test_eval_li_reads_the_y0_alphabet(capsys, word, want):
    code, out = run_json(capsys, "--format", "json", "eval", "li",
                         "--word", word, "--z", "0.5")
    assert code == 0
    assert out["value"] == want


def test_eval_hneg_past_the_recursion_limit(capsys):
    code, out = run_json(capsys, "--format", "json", "eval", "hneg",
                         "--word", "y2 y1", "--n", "3000")
    assert code == 0
    assert out["value"] == "24310122748874950"


@pytest.mark.parametrize("argv", [
    ["verify", "duality", "--depth", "-1"],
    ["verify", "duality", "--depth", "0"],
    ["lyndon", "--max-len", "0"],
    ["table", "eulerian", "--max-n", "-2"],
    ["table", "pi-sigma", "--max-weight", "0"],
    ["eval", "li", "--word", "x1", "--z", "0.5", "--terms", "-3"],
    ["eval", "li", "--word", "x1", "--z", "nan"],
    ["eval", "li", "--word", "x1", "--z=-inf"],
    ["eval", "hneg", "--word", "y1", "--n", "-1"],
    ["--precision", "-1", "lyndon", "--max-len", "2"],
])
def test_bad_numbers_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "must be" in err


def test_eval_li_tail_bound_overflow_exits_2(capsys):
    # (T+1)^|w| in the tail bound overflows a float for a 200-letter word
    code, _, err = run(capsys, "eval", "li", "--word", " ".join(["y1"] * 200),
                       "--z", "0.5")
    assert code == 2
    assert err.startswith("error:")


def test_eval_li_terms_above_bound_exits_2(capsys):
    # numpy refuses an array of 10^13 floats without allocating it
    code, out, err = run(capsys, "eval", "li", "--word", "x0 x1", "--z", "0.5",
                         "--terms", "10000000000000")
    assert code == 2 and out == ""
    assert err == "error: terms must be <= 400000, got 10000000000000\n"


def test_bad_depth_cap_env(capsys, monkeypatch):
    for cap in ("abc", "0", "-3"):
        monkeypatch.setenv("NCGEN_MAX_DEPTH", cap)
        code, _, err = run(capsys, "lyndon", "--max-len", "2")
        assert code == 2
        assert err == "error: NCGEN_MAX_DEPTH must be a positive integer, " \
                      "got %r\n" % cap


def test_bad_controls(tmp_path, capsys):
    path = tmp_path / "osc.json"
    path.write_text(json.dumps({"builtin": "oscillator",
                                "params": {"k1": "1", "k2": "2"}, "q0": ["1"]}))
    code, _, err = run(capsys, "simulate", "--system", str(path),
                       "--T", "0.1", "--controls", "1.0,abc")
    assert code == 2
    assert err.startswith("error: bad --controls")


_NUMBERS = ["-3", "0", "1", "3", "2.5", "abc"]
# (positional choices, {option: values}); each option is drawn or left out
_FUZZ_COMMANDS = {
    "eval": (["li", "hneg"],
             {"--word": ["y0 y1", "y1 y0", "y2 y1", "x0 x1", "x1 x0", "e",
                         "y", "x0 y1"],
              "--z": ["0.5", "-0.9", "1", "inf", "nan", "abc"],
              "--terms": ["-3", "0", "1", "40", "abc"],
              "--n": ["-1", "0", "7", "3000", "abc"]}),
    "lyndon": ([], {"--alphabet": ["X", "Y", "Y0", "Z"],
                    "--max-len": _NUMBERS, "--max-weight": _NUMBERS}),
    "table": (["dual-bases", "pi-sigma", "cminus", "eulerian"],
              {"--alphabet": ["X", "Y"], "--max-len": _NUMBERS,
               "--max-weight": _NUMBERS, "--max-n": _NUMBERS}),
}


@st.composite
def _argvs(draw):
    argv = []
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["text", "json"]))]
    if draw(st.booleans()):
        argv += ["--precision", draw(st.sampled_from(_NUMBERS))]
    command = draw(st.sampled_from(sorted(_FUZZ_COMMANDS)))
    which, options = _FUZZ_COMMANDS[command]
    argv.append(command)
    if which:
        argv.append(draw(st.sampled_from(which)))
    for name, values in options.items():
        if draw(st.booleans()):
            argv += [name, draw(st.sampled_from(values))]
    return argv


@settings(max_examples=200, deadline=None)
@given(_argvs())
def test_cli_fuzz_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv


def test_eval_bad_word(capsys):
    code, _, err = run(capsys, "eval", "li", "--word", "zz", "--z", "0.5")
    assert code == 2
    assert "error" in err


def test_simulate_drift(tmp_path, capsys):
    path = tmp_path / "osc.json"
    path.write_text(json.dumps({
        "builtin": "oscillator",
        "params": {"k1": "1", "k2": "2"},
        "q0": ["1"],
    }))
    code, out = run_json(capsys, "--format", "json", "simulate",
                         "--system", str(path), "--T", "0.1",
                         "--controls", "1.0,0.5", "--depth", "8")
    assert code == 0
    assert abs(out["output"] - 0.8006639) < 1e-4


def test_simulate_forms(tmp_path, capsys):
    path = tmp_path / "hyp.json"
    path.write_text(json.dumps({
        "builtin": "hypergeometric",
        "params": {"t0": "1/4", "t1": "1/4", "t2": "1/3"},
        "q0": ["1", "0"],
        "z0": 0.2,
    }))
    code, out = run_json(capsys, "--format", "json", "simulate",
                         "--system", str(path), "--z", "0.4", "--depth", "8")
    assert code == 0
    assert out["z0"] == 0.2
    assert 1.0 < out["output"] < 1.05


def test_simulate_missing_mode(tmp_path, capsys):
    path = tmp_path / "osc.json"
    path.write_text(json.dumps({
        "builtin": "oscillator",
        "params": {"k1": "1", "k2": "2"},
        "q0": ["1"],
    }))
    code, _, err = run(capsys, "simulate", "--system", str(path))
    assert code == 2
    assert "--z or --T" in err


def test_depth_cap_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NCGEN_MAX_DEPTH", "3")
    path = tmp_path / "osc.json"
    path.write_text(json.dumps({
        "builtin": "oscillator",
        "params": {"k1": "1", "k2": "2"},
        "q0": ["1"],
    }))
    code, _, err = run(capsys, "simulate", "--system", str(path),
                       "--T", "0.1", "--depth", "8")
    assert code == 2
    assert "NCGEN_MAX_DEPTH" in err
    code, _, _ = run(capsys, "lyndon", "--alphabet", "X", "--max-len", "2")
    assert code == 0


def test_bad_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nosuch"])
    assert exc.value.code == 2


def test_precision_flag(capsys):
    code, out = run_json(capsys, "--format", "json", "--precision", "3",
                         "eval", "li", "--word", "x1", "--z", "0.5")
    assert code == 0
    # -log(1-z) at z=0.5, rounded to 3 significant digits
    assert out["value"] == 0.693
