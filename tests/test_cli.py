import contextlib
import hashlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from ncgen import asymptotics, negpolylog
from ncgen.cli import _to_json, main
from ncgen.ncpoly import NCPoly
from ncgen.negpolylog import QPoly
from ncgen.polylog import auto_terms
from ncgen.words import X, Y, Y0


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


def test_lyndon_applies_every_bound(capsys):
    code, out, _ = run(capsys, "lyndon", "--alphabet", "Y",
                       "--max-weight", "4", "--max-len", "2")
    assert code == 0
    assert out.splitlines() == ["y4", "y3", "y3 y1", "y2", "y2 y1", "y1"]
    code, out, _ = run(capsys, "lyndon", "--alphabet", "X",
                       "--max-len", "3", "--max-weight", "1")
    assert code == 0
    assert out.splitlines() == ["x0", "x1"]
    code, out = run_json(capsys, "--format", "json", "table", "dual-bases",
                         "--alphabet", "X", "--max-len", "3",
                         "--max-weight", "2")
    assert code == 0
    assert [r["lyndon"] for r in out["rows"]] == ["x0", "x0 x1", "x1"]


def test_lyndon_y0_past_the_recursion_limit(capsys):
    code, out = run_json(capsys, "--format", "json", "lyndon", "--alphabet",
                         "Y0", "--max-weight", "1", "--max-len", "2000")
    assert code == 0
    assert out["count"] == 2001
    assert out["words"][-2:] == ["y1" + " y0" * 1999, "y0"]


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
    assert out["max_abs_err"] < 1e-13  # float rounding: 1.3e-15


def test_verify_bridge(capsys):
    code, out = run_json(capsys, "verify", "bridge", "--depth", "3")
    assert code == 0
    assert out["identity"] == "bridge"
    assert out["max_abs_err"] < 1e-13  # float rounding: 4.4e-16


def test_verify_cminus_seeded(capsys):
    code, out = run_json(capsys, "--seed", "7", "verify", "cminus",
                         "--depth", "4")
    assert code == 0
    assert out["trials"] == 100


def test_verify_faulhaber(capsys):
    code, out = run_json(capsys, "verify", "faulhaber", "--depth", "5")
    assert code == 0
    assert out["words"] > 10


# one wrong ingredient each: beta_w off by N or by 1, H^-_w off by 1, and
# C^-_w scaled by |w| + 1, which is then no character
_BROKEN = [
    ("faulhaber", negpolylog, "beta_poly", lambda c, w: c + QPoly([0, 1])),
    ("faulhaber", negpolylog, "beta_poly", lambda c, w: c + QPoly([1])),
    ("faulhaber", negpolylog, "h_neg", lambda c, w: c + QPoly([1])),
    ("cminus", asymptotics, "c_minus", lambda c, w: c * (len(w) + 1)),
]


@pytest.mark.parametrize("identity, module, name, wrong", _BROKEN,
                         ids=["beta+N", "beta+1", "h_neg+1", "c_minus*(|w|+1)"])
def test_verify_faulhaber_and_cminus_catch_a_broken_ingredient(
        capsys, monkeypatch, identity, module, name, wrong):
    f = getattr(module, name)
    monkeypatch.setattr(module, name, lambda w: wrong(f(w), w))
    code, out = run_json(capsys, "verify", identity, "--depth", "4")
    assert code == 1
    assert out["pass"] is False and out["max_abs_err"] == 1.0


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


def test_eval_li_counts_its_own_terms(capsys):
    # the automatic count near z = 1, reported as the count summed
    code, out = run_json(capsys, "--format", "json", "--precision", "17",
                         "eval", "li", "--word", "y1", "--z", "0.999")
    assert code == 0
    assert abs(out["value"] + math.log(0.001)) < 1e-13
    assert out["terms"] == auto_terms(0.999)


def test_eval_li_text_prints_z_as_given(capsys):
    code, out, _ = run(capsys, "eval", "li", "--word", "y1", "--z",
                       "-0.99999999")
    assert code == 0
    assert out.startswith("Li_{y1}(-0.99999999) = ")


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


@pytest.mark.parametrize("extra, text, key, want", [
    ([], "H^-_{e}(N): coefs ['1']", "polynomial", {"var": "N", "coefs": ["1"]}),
    (["--n", "5"], "H^-_{e}(5) = 1", "value", "1"),
])
def test_eval_hneg_of_the_empty_word_is_one(capsys, extra, text, key, want):
    # "e" parses as the empty X-word; H^- of the empty word is 1
    code, out, err = run(capsys, "eval", "hneg", "--word", "e", *extra)
    assert (code, out, err) == (0, text + "\n", "")
    code, out = run_json(capsys, "--format", "json", "eval", "hneg",
                         "--word", "e", *extra)
    assert code == 0 and out[key] == want and out["word"] == "e"


def test_eval_hneg_refuses_a_nonempty_x_word(capsys):
    code, out, err = run(capsys, "eval", "hneg", "--word", "x0 x1")
    assert code == 2 and out == ""
    assert err.strip() == "error: hneg expects a Y/Y0 word such as 'y2 y1'"


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


@pytest.mark.parametrize("word", ["x0_1", "x+1", "y1_0", "y\u0663"])
def test_eval_li_word_index_must_be_ascii_digits(capsys, word):
    # int() accepts each of these indices: "x0_1" and "x+1" read as x1,
    # "y1_0" as y10 and the Arabic-Indic digit three as y3
    code, out, err = run(capsys, "eval", "li", "--word", word, "--z", "0.5")
    assert code == 2 and out == ""
    assert err.startswith("error: bad letter") and err.count("\n") == 1


def test_eval_li_tail_bound_overflow_exits_2(capsys):
    # every coefficient of a 200-letter word is below 1/199!: the value
    # underflows a float and is refused
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
# system files with a 1/0, a number beyond the float range, or neither
_SYSTEMS = sorted(str(p) for p in
                  (pathlib.Path(__file__).parent / "systems").glob("*.json"))
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
    "simulate": ([], {"--system": _SYSTEMS, "--z": ["0.3", "1.5"],
                      "--T": ["0.1", "1e200"],
                      "--controls": ["1,0.5", "1e200,1e200", "1"],
                      "--depth": ["2", "8"]}),
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


_OSCILLATOR = {"builtin": "oscillator", "params": {"k1": "1", "k2": "2"},
               "q0": ["1"]}


@pytest.mark.parametrize("system, argv", [
    (_OSCILLATOR, ["--z", "1.5"]),
    (_OSCILLATOR, ["--z", "-0.5"]),
    (_OSCILLATOR, ["--z", "0.5", "--z0", "0"]),
    ([1, 2], ["--z", "0.5"]),
    ("builtin", ["--z", "0.5"]),
    ({"m": 1, "fields": 5, "observation": [], "q0": ["0"]}, ["--z", "0.5"]),
    (dict(_OSCILLATOR, z0="abc"), ["--z", "0.5"]),
    (dict(_OSCILLATOR, z0="abc"), ["--T", "0.1"]),
])
def test_simulate_bad_segment_or_system_exits_2(tmp_path, capsys, system, argv):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(system))
    code, out, err = run(capsys, "simulate", "--system", str(path), *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


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


def test_depth_cap_env_counts_the_hneg_word_degree(capsys, monkeypatch):
    # h_neg's Newton build scales with weight + length: y800 (degree 801)
    # would run for seconds, y1600 for minutes; the cap refuses it at once
    monkeypatch.setenv("NCGEN_MAX_DEPTH", "50")
    for word, degree in (("y800", 801), ("y1600", 1601), ("y30 y20", 52)):
        for extra in ((), ("--n", "3")):
            code, out, err = run(capsys, "eval", "hneg", "--word", word,
                                 *extra)
            assert (code, out) == (2, "")
            assert err == ("error: word degree=%d exceeds "
                           "NCGEN_MAX_DEPTH=50\n" % degree)
    # at the cap, and for li, whose cost the word degree does not set
    code, out, _ = run(capsys, "eval", "hneg", "--word", "y30 y18",
                       "--n", "2")
    assert code == 0 and out == "H^-_{y30 y18}(2) = %d\n" % 2 ** 30
    code, _, _ = run(capsys, "eval", "li", "--word", "y60", "--z", "0.5")
    assert code == 0
    monkeypatch.delenv("NCGEN_MAX_DEPTH")
    code, out, _ = run(capsys, "eval", "hneg", "--word", "y60", "--n", "2")
    assert code == 0 and out == "H^-_{y60}(2) = %d\n" % (1 + 2 ** 60)


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


@pytest.mark.parametrize("system, argv", [
    ({"m": 2, "fields": [], "observation": [], "q0": ["1"]}, ["--z", "0.4"]),
    ({"m": 2, "fields": [], "observation": [], "q0": ["1"]}, ["--T", "0.1"]),
    ({"m": 1, "fields": [[[{"exps": [1], "coef": "-1"}]]],
      "observation": [{"exps": [1], "coef": "1"}], "q0": ["1"]}, ["--z", "0.4"]),
    ({"m": 2, "fields": [[], []], "observation": [], "q0": ["1", "0"]},
     ["--z", "0.4"]),
    ({"m": 1, "fields": [[[{"exps": [1], "coef": "-1"}]],
                         [[{"exps": [0, 1], "coef": "1"}]]],
      "observation": [], "q0": ["1"]}, ["--T", "0.1"]),
    ({"builtin": "hypergeometric",
      "params": {"t0": "1/4", "t1": "1/4", "t2": "1/3"}, "q0": ["1"]},
     ["--z", "0.4"]),
    ({"builtin": "oscillator", "params": {"k1": "1/0", "k2": "2"},
      "q0": ["1"]}, ["--T", "0.1"]),
    ({"builtin": "oscillator", "params": {"k1": "1", "k2": "2"},
      "q0": ["1/0"]}, ["--z", "0.4"]),
    ({"m": 1, "fields": [[[{"exps": [1], "coef": "1/0"}]],
                         [[{"exps": [0], "coef": "1"}]]],
      "observation": [{"exps": [1], "coef": "1"}], "q0": ["1"]},
     ["--T", "0.1"]),
])
def test_simulate_system_of_wrong_shape_exits_2(tmp_path, capsys, system, argv):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(system))
    code, out, err = run(capsys, "simulate", "--system", str(path), *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot load system: ")
    assert err.count("\n") == 1


def test_simulate_z0_zero_in_file_is_kept(tmp_path, capsys):
    path = tmp_path / "hyp.json"
    path.write_text(json.dumps({
        "builtin": "hypergeometric",
        "params": {"t0": "1/4", "t1": "1/4", "t2": "1/3"},
        "q0": ["1", "0"],
        "z0": 0,
    }))
    code, out, err = run(capsys, "simulate", "--system", str(path),
                         "--z", "0.4")
    assert code == 2
    assert out == ""
    assert err.startswith("error: z0 = 0, z = 0.4: ") and err.count("\n") == 1


_THREE_FIELDS = {"m": 1, "fields": [[[{"exps": [1], "coef": "-1"}]],
                                    [[{"exps": [1], "coef": "1"}]],
                                    [[{"exps": [0], "coef": "1"}]]],
                 "observation": [{"exps": [1], "coef": "1"}], "q0": ["1"]}


@pytest.mark.parametrize("argv", [["--z", "0.4"], ["--T", "0.1"],
                                  ["--T", "0.1", "--controls", "1,0.5,2"]])
def test_simulate_three_fields_exits_2(tmp_path, capsys, argv):
    # only x0 and x1 drive a system, so a third field would be ignored
    path = tmp_path / "system.json"
    path.write_text(json.dumps(_THREE_FIELDS))
    code, out, err = run(capsys, "simulate", "--system", str(path), *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: cannot load system: want two fields")
    assert err.count("\n") == 1


_HYPERGEOMETRIC = {"builtin": "hypergeometric",
                   "params": {"t0": "1/4", "t1": "1/4", "t2": "1/3"},
                   "q0": ["1", "0"]}


@pytest.mark.parametrize("system, argv, message", [
    (dict(_OSCILLATOR, q0=["1e400"]), ["--T", "0.1"],
     "the output overflows a float"),
    (dict(_OSCILLATOR, q0=["1e400"]), ["--z", "0.3"],
     "the output overflows a float"),
    (_HYPERGEOMETRIC, ["--T", "1e200", "--depth", "2"],
     "T = 1e+200: T^2 overflows a float"),
    (_HYPERGEOMETRIC, ["--T", "0.1", "--controls", "1e200,1e200"],
     "the output overflows a float"),
    (_HYPERGEOMETRIC, ["--T", "0.1", "--controls", "1e200,1e200",
                       "--depth", "2"], "the output overflows a float"),
])
def test_simulate_float_overflow_exits_2(tmp_path, capsys, system, argv,
                                         message):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(system))
    for fmt in ("text", "json"):  # never a NaN or Infinity on stdout
        code, out, err = run(capsys, "--format", fmt, "simulate",
                             "--system", str(path), *argv)
        assert code == 2 and out == ""
        assert err == "error: %s\n" % message


@pytest.mark.parametrize("controls", ["1", "1,0.5,2", "1,0.5,7", "1,0,0,0"])
def test_simulate_needs_exactly_two_controls(tmp_path, capsys, controls):
    path = tmp_path / "osc.json"
    path.write_text(json.dumps(_OSCILLATOR))
    code, out, err = run(capsys, "simulate", "--system", str(path),
                         "--T", "0.1", "--controls", controls)
    assert code == 2 and out == ""
    assert err == "error: need 2 controls, got %d\n" % len(controls.split(","))


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_parser_is_built_once():
    from ncgen.cli import build_parser
    assert build_parser() is build_parser()


@pytest.mark.parametrize("first, second, codes", [
    (["--format", "json", "eval", "hneg", "--word", "y2 y0", "--n", "5"],
     ["eval", "hneg", "--word", "y2 y0"], (0, 0)),
    (["verify", "duality", "--depth", "0"],
     ["verify", "duality", "--depth", "3"], (2, 0)),
    (["eval", "li", "--word", "x0 x1", "--z", "0.5", "--terms", "40"],
     ["eval", "li", "--word", "x0 x1", "--z", "0.5"], (0, 0)),
])
def test_cached_parser_leaks_nothing_between_calls(first, second, codes):
    forward = [_call(first), _call(second)]
    backward = [_call(second), _call(first)]
    assert forward == backward[::-1]
    assert tuple(code for code, _, _ in forward) == codes
    assert forward[0][1] != forward[1][1]


def test_duality_catches_a_stray_term(capsys, monkeypatch):
    from ncgen import hopf
    from ncgen.ncpoly import NCPoly
    dual_s = hopf.dual_s
    stray = next(iter(hopf.pbw_p((0, 1)).terms))  # a word P_{x0 x1} supports

    def patched(u):
        s = dual_s(u)
        return s + NCPoly.word(stray) if u == (0,) else s

    monkeypatch.setattr(hopf, "dual_s", patched)
    code, out = run_json(capsys, "verify", "duality", "--depth", "3")
    assert code == 1
    assert out["pass"] is False and out["max_abs_err"] > 0


@pytest.mark.parametrize("alphabet, dual, u", [
    ("X", "dual_s", (0, 1)), ("Y", "dual_sigma", (1, 2))])
def test_duality_catches_a_lost_diagonal_term(capsys, monkeypatch,
                                              alphabet, dual, u):
    # S_u without its word u pairs to 0 with P_u: the diagonal entry is
    # missing from the sparse row, and still counted
    from ncgen import hopf
    from ncgen.ncpoly import NCPoly
    original = getattr(hopf, dual)

    def patched(w):
        s = original(w)
        return s - NCPoly.word(u, s.alphabet, s.coeff(u)) if w == u else s

    monkeypatch.setattr(hopf, dual, patched)
    code, out = run_json(capsys, "verify", "duality", "--alphabet", alphabet,
                         "--depth", "3")
    assert code == 1
    assert out["pass"] is False and out["max_abs_err"] == 1.0

# sha256 of the stdout of exact commands; a change in any printed
# coefficient, order or spacing shows here
EXACT_OUTPUT = [
    (["--format", "json", "table", "pi-sigma", "--max-weight", "6"],
     "666523bda29137f4924e417bad9e4485ae0fce3270099746b3063b3942476424"),
    (["table", "pi-sigma", "--max-weight", "6"],
     "48030822e72dde30e71955485b2ec539e97d3ea4ed43df14d56b6d3ef5ef145a"),
    (["--format", "json", "table", "dual-bases", "--max-len", "7"],
     "7b08678081ebbf9203bcbb9affc4707c70111eaa84cc6d20a451e560f7f74a6b"),
    (["--format", "json", "table", "cminus", "--max-weight", "6"],
     "c00db810b53e3f9697846668f00d8ec9174ab7a212421afa5e748efcbf755500"),
    (["verify", "duality", "--depth", "5"],
     "a99024b9719ca21651f09017d6bebd7812560e06982030a0b95b413a7618df0f"),
    (["verify", "duality", "--alphabet", "Y", "--depth", "5"],
     "3ae7eaee7010ad7749366009cca422d3c49a947d98a58780ab69caa0494393a2"),
    (["--format", "json", "eval", "hneg", "--word", "y3 y2 y1"],
     "acd576f0c1c2cedb0334934024a2acac486b8904504a0cfac1e99747f9fc195c"),
    (["--format", "json", "eval", "hneg", "--word", "y4 y0 y1"],
     "bcb22601f4eb3d8cf7063a1a1c3c578be44f684a4c0be53c9bfece18d45b676a"),
    (["--precision", "3", "eval", "li", "--word", "x0 x1", "--z", "0.5"],
     "b1bcf6f779e920b594446de76d6441077a4af88b81c0b8d7bd7c075dcaab62d2"),
    (["eval", "li", "--word", "y2 y1", "--z", "0.9"],
     "07cb7cd56733973387d99f63c4bcdd96e9515759ca534316358bb0ce2277ad24"),
    (["--format", "json", "eval", "li", "--word", "y2 y1", "--z", "0.9"],
     "0d24f1143179255c2b1cdeb4fda01f96b209aa0014ecfd935497fd603a67792b"),
    (["--format", "json", "--precision", "17", "eval", "li", "--word",
      "y2 y1", "--z", "0.9"],
     "74da298555933e79055bd147458a8b8a235ba26d0d28a692bd8f3dedb68594e8"),
    (["--format", "json", "table", "dual-bases", "--alphabet", "Y",
      "--max-weight", "5"],
     "8a72f33b42f18294ab4163248895ffa4f63a1c269979135acc2d4c9acd8049eb"),
    (["--format", "json", "lyndon", "--alphabet", "Y", "--max-weight", "6"],
     "4ab103c36c6ca3d09a3231e96ac1e27d46efa60c23a31cddcecf18466b902636"),
    (["--format", "json", "table", "eulerian", "--max-n", "6"],
     "a091527e488cece0bf9fa44dcace5d19d1f8935ccdd14bca291b2a53bb9ae32d"),
    (["--format", "json", "table", "pi-sigma", "--max-weight", "8"],
     "f07e527fe52c011ef19dddca4eea46193611d689e274ee3c444b555d4c93a553"),
    (["--format", "json", "table", "dual-bases", "--alphabet", "Y",
      "--max-weight", "8"],
     "81c069bdeecbf27be0d4da0aa32db3792dda5a1391a6e6b9442630776fb05407"),
    (["table", "dual-bases", "--max-len", "7"],
     "f656b983772325b8ef34ba76bb3bf56843576b896ffd1d319c1a8f6c5dcb8c18"),
    (["table", "dual-bases", "--alphabet", "Y", "--max-weight", "6"],
     "92700ae507e9236c7e8b4c3592f4913fcc7a3d743b777ad7f0c5cfec06e11d18"),
]


@pytest.mark.parametrize("argv, digest", EXACT_OUTPUT,
                         ids=[" ".join(argv) for argv, _ in EXACT_OUTPUT])
def test_exact_output_is_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("system, message", [
    ({"builtin": "oscillator", "params": {"k1": "1"}, "q0": ["1"]},
     "builtin 'oscillator' wants parameters ['k1', 'k2'], got ['k1']"),
    ({"builtin": "hypergeometric", "q0": ["1", "0"],
      "params": {"t0": "1/4", "t1": "1/4", "t2": "1/3", "extra": "5"}},
     "builtin 'hypergeometric' wants parameters ['t0', 't1', 't2'], "
     "got ['extra', 't0', 't1', 't2']"),
], ids=["missing", "unknown"])
def test_simulate_builtin_parameters_must_match(tmp_path, capsys, system,
                                                message):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(system))
    code, out, err = run(capsys, "simulate", "--system", str(path),
                         "--z", "0.4")
    assert code == 2 and out == ""
    assert err == "error: cannot load system: %s\n" % message


_BUILTIN_SYSTEMS = {
    "hypergeometric": {"params": {"t0": "1/4", "t1": "1/4", "t2": "1/3"},
                       "q0": ["1", "0"], "z0": 0.2},
    "oscillator": {"params": {"k1": "1", "k2": "2"}, "q0": ["1"]},
    "duffing": {"params": {"a": "1", "b": "1/2", "c": "1/10"},
                "q0": ["1/4", "0"]},
}
_FORMS = ["--z", "0.4", "--depth", "10"]
_DRIFT = ["--T", "0.1", "--controls", "1.0,0.5", "--depth", "8"]

# sha256 of the stdout of float runs through the ODE, Chen, Fliess and
# renormalization layers at 17 digits; (builtin system or None, argv, digest)
FLOAT_OUTPUT = [
    ("hypergeometric", _FORMS,
     "1db982942a8d19beab58ff47dc13c46d1a974e0ba3686d1c8d8d624629008258"),
    ("hypergeometric", _DRIFT,
     "83b8bb337e66396252ba7d002cf63e43eb2243a3b05c000cc2ff38929d147206"),
    ("oscillator", _FORMS,
     "505e18947cc1dadc273d07f7ee81c9910a1a4d5091b9e2907fa8b0a88c20c76f"),
    ("oscillator", _DRIFT,
     "8d9559362f1120289581f97f1e72c1f84a736d7434339c01358ddd0a6a741e68"),
    ("duffing", _FORMS,
     "4f97cf7579b134c26c92fed150488b974565e59e965b459922cc8bf7c710ef05"),
    ("duffing", _DRIFT,
     "e423002b99bf8cce209ebc5917f5b3dbf8529e33fe84eefb40b8016b816b18c6"),
    (None, ["--precision", "17", "verify", "dynsys", "--depth", "6"],
     "903916156f91600cac1de2ca765561faac36e9d2b7228c9af5ee313a605e57c9"),
    (None, ["--precision", "17", "verify", "dynsys", "--depth", "8"],
     "e57031c9c11047f2717243139292948a2957fb21206d3e6c43f8cd129dba4b33"),
    # the float sums that build Z_st show a change of term order; the
    # printed max_abs_err is the rounding residue of the two routes to it
    # (the stuffle regularization against the bridge: 1.78e-15 and
    # 7.11e-15)
    (None, ["--precision", "17", "verify", "bridge", "--depth", "6"],
     "73acc4bbd352e1f9d6d36826e33f9eaacd45d572b1dcd802170e36c1dda60c49"),
    (None, ["--precision", "17", "verify", "bridge", "--depth", "8"],
     "a52ca235f1a6baff9a24014153e117023445c317fa2b7485dc4fed97a8c3888e"),
    # the printed max_abs_err is the gap of the z side at 1 - 2^-53 to the
    # N side, the constants at +infinity (1.82e-12, 2.91e-11, 5.82e-10)
    (None, ["--precision", "17", "verify", "abel", "--depth", "3"],
     "d339aded957698b7f4a57dc0ddf2b6fe04c1154ac6cc02ffae43a4be1daedb02"),
    (None, ["--precision", "17", "verify", "abel", "--depth", "4"],
     "8f0676bd079f5a6b0dd32818f175c54024e17a7f1a08282ec6615cc48d0a0eb1"),
    (None, ["--precision", "17", "verify", "abel", "--depth", "5"],
     "f9b8b8cbe2b7e4a778740761ce0391a869103b6fb2b085bcc529588bdb6b7dde"),
]


@pytest.mark.parametrize("builtin, argv, digest", FLOAT_OUTPUT,
                         ids=["%s %s" % (b or "", " ".join(argv))
                              for b, argv, _ in FLOAT_OUTPUT])
def test_float_output_is_pinned(tmp_path, capsys, builtin, argv, digest):
    if builtin is not None:
        path = tmp_path / "system.json"
        path.write_text(json.dumps(dict(_BUILTIN_SYSTEMS[builtin],
                                        builtin=builtin)))
        argv = ["--format", "json", "--precision", "17", "simulate",
                "--system", str(path)] + argv
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_dynsys_catches_a_wrong_representation(capsys, monkeypatch):
    # the direct sum with the single-word series: <S|x0 x1 x1> is off by 1
    # and every other coefficient is kept
    from ncgen import rational
    rep_hypergeometric = rational.rep_hypergeometric

    def patched(*args, **kwargs):
        a = rep_hypergeometric(*args, **kwargs)
        b = rational.rep_single_word((0, 1, 1))
        mu = {x: [list(row) + [0] * b.n for row in a.mu[x]]
              + [[0] * a.n + list(row) for row in b.mu[x]] for x in a.mu}
        return rational.LinearRepresentation(a.alphabet, a.lam + b.lam, mu,
                                             a.eta + b.eta)

    monkeypatch.setattr(rational, "rep_hypergeometric", patched)
    code, out = run_json(capsys, "verify", "dynsys", "--depth", "4")
    assert code == 1
    assert out["rep_vs_fields_exact"] is False and out["pass"] is False


def _round_ref(obj, digits):
    if isinstance(obj, float):
        return float("%.*g" % (digits, obj))
    if isinstance(obj, dict):
        return {k: _round_ref(v, digits) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_ref(v, digits) for v in obj]
    return obj


_JSON_SCALARS = (st.text() | st.sampled_from(['"', "\\", "\n\t\x00\x1f",
                                              "\u00e9\u2603\U0001d11e"])
                 | st.booleans() | st.none()
                 | st.integers(-2 ** 200, 2 ** 200)
                 | st.floats(allow_nan=True, allow_infinity=True)
                 | st.sampled_from([-0.0, 5e-324, 1e16, math.inf, -math.inf,
                                    math.nan]))
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=30)


def _to_json_text(obj, digits):
    chunks = []
    _to_json(obj, digits, chunks.append)
    return "".join(chunks)


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES, st.integers(1, 17))
def test_to_json_is_rounded_json_dumps(obj, digits):
    assert _to_json_text(obj, digits) == json.dumps(_round_ref(obj, digits),
                                                    indent=2)


_LETTERS = {X: st.integers(0, 1), Y: st.integers(1, 4), Y0: st.integers(0, 4)}
_SERIES = st.sampled_from([X, Y, Y0]).flatmap(lambda a: st.dictionaries(
    st.lists(_LETTERS[a], max_size=4).map(tuple),
    st.fractions(max_denominator=30) | st.sampled_from([1, -1]),
    max_size=6).map(lambda terms: NCPoly(a, terms)))


def _series_as_terms(obj):
    if isinstance(obj, NCPoly):
        return obj.to_json_dict()["terms"]
    if isinstance(obj, dict):
        return {k: _series_as_terms(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_series_as_terms(v) for v in obj]
    return obj


@settings(max_examples=300, deadline=None)
@given(st.recursive(_SERIES | _JSON_SCALARS, lambda inner: (
    st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=20))
@example([NCPoly(X, {(1,): 1}), {"y": NCPoly(Y, {(1,): -1, (): 2})},
          [NCPoly(Y0, {(1, 0): Fraction(1, 3)}), NCPoly(X, {(1, 0): 1})]])
def test_to_json_writes_a_series_as_its_term_list(obj):
    # X, Y and Y0 series with equal word tuples may share one document
    want = json.dumps(_round_ref(_series_as_terms(obj), 17), indent=2)
    assert _to_json_text(obj, 17) == want


@pytest.mark.parametrize("argv", [["--T", "0.1", "--controls", "1.0,0.5"],
                                  ["--z", "0.4"]])
def test_simulate_text_rounds_like_json(tmp_path, capsys, argv):
    path = tmp_path / "osc.json"
    path.write_text(json.dumps(_OSCILLATOR))
    argv = ["simulate", "--system", str(path)] + argv
    _, full = run_json(capsys, "--format", "json", "--precision", "17", *argv)
    _, text, _ = run(capsys, "--precision", "4", *argv)
    assert text == "output = %r\n" % float("%.4g" % full["output"])
    assert text != "output = %r\n" % full["output"]


_ROOT = pathlib.Path(__file__).resolve().parent.parent
_BIG_TABLE = ["table", "dual-bases", "--max-len", "10"]  # about 1 MB of JSON


def _start_cli(argv, stdout):
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    return subprocess.Popen([sys.executable, "-m", "ncgen.cli", *argv],
                            stdout=stdout, stderr=subprocess.PIPE, env=env)


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_closed_pipe_exits_quietly(fmt):
    # as in `ncgen ... | head -c 100`: the reader leaves mid-output
    proc = _start_cli(["--format", fmt] + _BIG_TABLE, subprocess.PIPE)
    assert proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) != 0
    assert err == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_failed_write_is_one_error_line():
    with open("/dev/full", "wb") as full:
        proc = _start_cli(_BIG_TABLE, full)
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 2
    assert err == ("error: cannot write output: [Errno 28] "
                   "No space left on device\n")


def test_stdout_closed_at_start_up_exits_0():
    # as in `ncgen ... >&-`: Python sets sys.stdout to None
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    proc = subprocess.run(
        ["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "ncgen.cli",
         "--format", "json", "table", "dual-bases", "--max-len", "3"],
        stderr=subprocess.PIPE, env=env, timeout=120)
    assert proc.returncode == 0
    assert proc.stderr == b""


def _peak_rss_kb(argv):
    """Max RSS of one CLI run to /dev/null, read by a wrapper process from
    RUSAGE_CHILDREN, so that this process's own memory does not count."""
    wrapper = ("import resource, subprocess, sys\n"
               "subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL, "
               "check=True)\n"
               "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", wrapper, sys.executable,
                           "-m", "ncgen.cli", *argv], capture_output=True,
                          env=env, check=True, timeout=300)
    return int(proc.stdout)


def test_json_table_peaks_near_the_text_table():
    # the JSON document is streamed, not held whole before it is written
    argv = ["table", "pi-sigma", "--max-weight", "9"]
    assert _peak_rss_kb(["--format", "json", *argv]) <= 1.25 * _peak_rss_kb(argv)
