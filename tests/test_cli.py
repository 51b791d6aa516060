"""Command-line behavior: formats, exit codes, determinism."""

import io
import json
import os
import subprocess
import sys

import pytest

import linkhom
from linkhom import cli
from linkhom.cli import _build_parser, run


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_bracket_command():
    code, out, _ = invoke(["bracket", "2: 1 1"])
    assert code == 0
    assert out.strip() == "q^4 + q^2 + 1 + q^(-2)"


def test_jones_command():
    code, out, _ = invoke(["jones", "2: 1 1 1"])
    assert code == 0
    assert out.strip() == "-q^9 + q^5 + q^3 + q"


def test_kh_table_json():
    code, out, _ = invoke(["kh", "2: 1 1 1", "--table", "--format", "json"])
    assert code == 0
    rows = json.loads(out)
    assert {"i": 3, "j": 7, "rank": 0, "torsion": [2]} in rows
    assert {"i": 0, "j": 1, "rank": 1, "torsion": []} in rows


def test_kh_poincare_and_width():
    code, out, _ = invoke(["kh", "2: 1 1 1", "--poincare"])
    assert code == 0
    assert out.strip() == "t^3*q^9 + t^2*q^5 + t*0 + q^3 + q".replace(" + t*0", "")
    code, out, _ = invoke(["kh", "2: 1 1 1", "--width"])
    assert code == 0
    assert "width 2 (thin)" in out


@pytest.mark.parametrize(
    "braid, window", [("3: 1 2 1 2", "100..101"), ("2: 1 1 1", "7..7")], ids=["empty", "torsion-only"]
)
def test_kh_width_of_a_window_without_free_rank_exits_2(braid, window):
    # the second window holds only the trefoil's torsion at (3, 7)
    code, out, err = invoke(["kh", braid, "--jwindow", window, "--width"])
    assert code == 2 and not out
    assert err.startswith("usage error:") and window in err


def test_kh_jwindow_csv():
    code, out, _ = invoke(["kh", "2: 1 1 1", "--jwindow", "5..9", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "i,j,rank,torsion"
    assert "3,7,0,2" in lines


def test_kh_accepts_pd_file(tmp_path):
    pd = tmp_path / "trefoil.pd"
    pd.write_text("X 1 4 2 5\nX 3 6 4 1\nX 5 2 6 3\n")
    code, out, _ = invoke(["kh", str(pd), "--format", "json"])
    assert code == 0
    rows = json.loads(out)
    assert {"i": -3, "j": -9, "rank": 1, "torsion": []} in rows


def test_kh_pd_with_all_over_component(tmp_path):
    # the component {1, 2} passes over at both crossings, and its labels
    # are consecutive: the PD reads as the closure of "2: 1 -1"
    pd = tmp_path / "unlink.pd"
    pd.write_text("X 3 2 4 1\nX 4 2 3 1\n")
    code, out, _ = invoke(["kh", str(pd)])
    assert code == 0
    assert out == invoke(["kh", "2: 1 -1"])[1]


def test_kh_pd_all_over_component_not_consecutive_exits_2(tmp_path):
    # the same link with the over component's labels 1 and 3: nothing
    # orients it, and the message names the crossing it was read at
    pd = tmp_path / "unlink.pd"
    pd.write_text("X 2 3 4 1\nX 4 3 2 1\n")
    code, out, err = invoke(["kh", str(pd)])
    assert code == 2 and not out
    assert err.startswith("input error:") and "crossing 0" in err


def test_homfly_command():
    code, out, _ = invoke(["homfly", "2: 1 1 1", "--specialize", "2"])
    assert code == 0
    assert "F =" in out and "G =" in out and "G_2 =" in out
    code, out, _ = invoke(["homfly", "2: 1 1 1", "--var", "at", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert "G(a,q)" in data


@pytest.mark.parametrize("extra", [[], ["--var", "at", "--specialize", "3", "--format", "json"]])
def test_homfly_command_traces_once(monkeypatch, extra):
    import linkhom.homflypt as homflypt

    calls = []
    trace = homflypt.markov_trace

    def counted(h):
        calls.append(h.n)
        return trace(h)

    monkeypatch.setattr(homflypt, "markov_trace", counted)
    code, _, _ = invoke(["homfly", "3: 1 -2 1 -2"] + extra)
    assert code == 0
    assert calls == [3]


def test_graph_poly_commands(tmp_path):
    gfile = tmp_path / "tri.g"
    gfile.write_text("v 3\ne 1 2\ne 2 3\ne 1 3\n")
    code, out, _ = invoke(["graph", "poly", str(gfile), "--tutte"])
    assert code == 0
    assert out.strip() == "x^2 + x + y"
    code, out, _ = invoke(["graph", "poly", str(gfile), "--dichromatic"])
    assert code == 0
    assert "v^3" in out
    code, out, _ = invoke(["graph", "poly", str(gfile), "--qn", "2", "--jwindow=-2..2"])
    assert code == 0
    code, _, err = invoke(["graph", "poly", str(gfile), "--qn", "2"])
    assert code == 2 and "jwindow" in err


def test_graph_kh_command(tmp_path):
    gfile = tmp_path / "tri.g"
    gfile.write_text("v 3\ne 1 2\ne 2 3\ne 1 3\n")
    code, out, _ = invoke(["graph", "kh", str(gfile), "--theory", "pn", "--n", "1", "--format", "json"])
    assert code == 0
    rows = json.loads(out)
    assert {"i": 1, "j": 1, "rank": 0, "torsion": [2]} in rows
    code, out, _ = invoke(
        ["graph", "kh", str(gfile), "--theory", "enhanced", "--jwindow=-2..4", "--format", "csv"]
    )
    assert code == 0


def test_stable_command():
    code, out, _ = invoke(["stable", "--m", "2", "--n", "3..5"])
    assert code == 0
    assert out.count("PASS agreement") == 2


def test_verify_suite_and_exit_codes():
    code, out, _ = invoke(["verify", "appendixB"])
    assert code == 0
    assert "OVERALL PASS" in out
    code, _, err = invoke(["verify", "bogus"])
    assert code == 2
    assert "unknown suite" in err


def test_verify_theorem24_with_params():
    code, out, _ = invoke(["verify", "theorem24", "--p", "3", "--q", "4"])
    assert code == 0
    assert "OVERALL PASS" in out


def test_parser_built_once(monkeypatch):
    _build_parser.cache_clear()

    def defect(g, n):
        raise ArithmeticError("specialization left a denominator")

    # exit 0, 1 (a computation defect, put in by hand), 2, 2, then 0 again
    monkeypatch.setattr(cli, "specialize_Gn", defect)
    jones = ["jones", "2: 1 1 1"]
    argvs = [jones, ["homfly", "2: 1 1 1", "--specialize", "2"], ["kh", "2: 1 x"], ["bogus"], jones]
    results = [invoke(argv) for argv in argvs]
    assert [code for code, _, _ in results] == [0, 1, 2, 2, 0]
    assert results[0][1] == results[-1][1] == "-q^9 + q^5 + q^3 + q\n"
    assert _build_parser.cache_info().misses == 1


@pytest.mark.parametrize("argv", [["--help"], ["kh", "--help"]], ids=["top", "kh"])
def test_help_goes_to_out(argv, capsys):
    code, out, err = invoke(argv)
    assert code == 0 and out.startswith("usage: linkhom") and not err
    assert capsys.readouterr() == ("", "")


def test_main_as_a_module():
    src = os.path.dirname(os.path.dirname(os.path.abspath(linkhom.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def main(*argv):
        return subprocess.run([sys.executable, "-m", "linkhom.cli", *argv], env=env, capture_output=True, text=True)

    done = main("kh", "2: 1 1 1", "--format", "json")
    assert (done.returncode, done.stdout, done.stderr) == (0, invoke(["kh", "2: 1 1 1", "--format", "json"])[1], "")
    assert {"i": 3, "j": 7, "rank": 0, "torsion": [2]} in json.loads(done.stdout)
    done = main("kh", "2: 1 1 1", "--no-such-flag")
    assert done.returncode == 2 and not done.stdout and done.stderr.startswith("usage error:")


def test_usage_errors():
    code, _, _ = invoke(["kh", "no-such-input-without-colon"])
    assert code == 2
    code, _, _ = invoke(["kh", "2: 1", "--jwindow", "oops"])
    assert code == 2


def test_determinism_across_invocations():
    argv = ["kh", "3: 1 2 1 2", "--format", "json"]
    code, first, _ = invoke(argv)
    assert code == 0
    code, again, _ = invoke(argv)
    assert again == first


@pytest.mark.parametrize("text", ["2: 1 x", "2: 1 5"], ids=["bad-letter", "letter-out-of-range"])
def test_malformed_braid_exits_2(text):
    code, out, err = invoke(["kh", text])
    assert code == 2 and not out
    assert err.startswith("input error:")


def test_malformed_pd_exits_2(tmp_path):
    pd = tmp_path / "short.pd"
    pd.write_text("X 1 2 3\n")
    code, _, err = invoke(["kh", str(pd)])
    assert code == 2 and err.startswith("input error:")


@pytest.mark.parametrize("argv", [["kh", "PATH"], ["graph", "poly", "PATH", "--tutte"]], ids=["kh", "graph-poly"])
@pytest.mark.parametrize("kind", ["directory", "not-utf-8"])
def test_unreadable_input_file_exits_2(argv, kind, tmp_path):
    path = tmp_path
    if kind == "not-utf-8":
        path = tmp_path / "latin1.txt"
        path.write_bytes("v 2\ne 1 2 # \u00e9\n".encode("latin-1"))
    code, out, err = invoke([str(path) if a == "PATH" else a for a in argv])
    assert code == 2 and out == ""
    assert err.startswith("input error:") and repr(str(path)) in err


def test_graph_edge_out_of_range_exits_2(tmp_path):
    gfile = tmp_path / "bad.g"
    gfile.write_text("v 3\ne 1 7\n")
    code, _, err = invoke(["graph", "kh", str(gfile), "--theory", "pn"])
    assert code == 2 and err.startswith("input error:")


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["stable", "--m", "1", "--n", "3"], id="stable-m"),
        pytest.param(["stable", "--m", "2", "--n", "5..3"], id="stable-reversed-window"),
        pytest.param(["stable", "--m", "2", "--n", ","], id="stable-empty-list"),
        pytest.param(["graph", "kh", "GRAPH", "--theory", "pn", "--n", "0"], id="graph-kh-pn-n"),
        pytest.param(["graph", "kh", "GRAPH", "--theory", "qn", "--n", "3", "--jwindow=-2..2"], id="graph-kh-qn-n"),
        pytest.param(["graph", "kh", "GRAPH", "--theory", "enhanced", "--jwindow", "3..1"], id="graph-kh-empty-window"),
        pytest.param(["graph", "poly", "GRAPH", "--pn", "0"], id="graph-poly-pn"),
        pytest.param(["graph", "poly", "GRAPH", "--qn", "3", "--jwindow=-2..2"], id="graph-poly-qn"),
        pytest.param(["homfly", "2: 1 1 1", "--specialize", "0"], id="homfly-specialize"),
        pytest.param(["verify", "theorem24", "--p", "1"], id="theorem24-p"),
        pytest.param(["verify", "theorem24", "--p", "0"], id="theorem24-p-zero"),
        pytest.param(["kh", "2: 1 1 1", "--jwindow", "9..5"], id="kh-reversed-window"),
        pytest.param(["stable", "--m", "2", "--n=-1..1"], id="stable-negative-twist"),
        pytest.param(["stable", "--m", "2", "--n", "3,3"], id="stable-repeated-twist"),
    ],
)
def test_out_of_range_parameters_exit_2(tmp_path, argv):
    gfile = tmp_path / "tri.g"
    gfile.write_text("v 3\ne 1 2\ne 2 3\ne 1 3\n")
    code, out, err = invoke([str(gfile) if a == "GRAPH" else a for a in argv])
    assert code == 2 and not out
    assert err.startswith(("input error:", "usage error:"))


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["kh", "3: 1 2 1 2", "--poincare", "--width"], id="kh-poincare-width"),
        pytest.param(["kh", "3: 1 2 1 2", "--table", "--poincare"], id="kh-table-poincare"),
        pytest.param(["graph", "kh", "GRAPH", "--theory", "enhanced", "--n", "5", "--jwindow", "0..2"], id="enhanced-n"),
        pytest.param(["graph", "kh", "GRAPH", "--theory", "enhanced", "--variant", "xn", "--jwindow", "0..2"],
                     id="enhanced-variant"),
        pytest.param(["graph", "kh", "GRAPH", "--theory", "qn", "--variant", "xn", "--jwindow", "0..2"], id="qn-variant"),
        pytest.param(["graph", "kh", "GRAPH", "--theory", "pn", "--jwindow", "0..2"], id="pn-jwindow"),
        pytest.param(["graph", "poly", "GRAPH", "--pn", "2", "--jwindow", "0..1"], id="poly-pn-jwindow"),
        pytest.param(["graph", "poly", "GRAPH", "--tutte", "--jwindow", "0..1"], id="poly-tutte-jwindow"),
        pytest.param(["verify", "kauffman", "--p", "5"], id="verify-kauffman-p"),
        pytest.param(["verify", "stability", "--q", "4"], id="verify-stability-q"),
        pytest.param(["verify", "all", "--p", "3", "--q", "4"], id="verify-all-pq"),
        pytest.param(["verify", "kauffman", "--slow"], id="verify-kauffman-slow"),
        pytest.param(["verify", "theorem24", "--slow"], id="verify-theorem24-slow"),
    ],
)
def test_flags_that_change_nothing_exit_2(tmp_path, argv):
    # each of these once ran and dropped a flag without a word
    gfile = tmp_path / "tri.g"
    gfile.write_text("v 3\ne 1 2\ne 2 3\ne 1 3\n")
    code, out, err = invoke([str(gfile) if a == "GRAPH" else a for a in argv])
    assert code == 2 and not out
    assert err.startswith("usage error:")


@pytest.mark.parametrize("flags", [[], ["--tutte", "--dg"], ["--pn", "2", "--qn", "2", "--jwindow", "0..2"]])
def test_graph_poly_takes_exactly_one_polynomial(flags):
    code, out, err = invoke(["graph", "poly", "v 3\ne 1 2", *flags])
    assert code == 2 and not out
    # argparse's own message, with the usage line that names the choices
    assert err.startswith("usage error:") and "--dichromatic" in err


def test_graph_kh_defaults_fill_in_where_they_apply():
    tri = "v 3\ne 1 2\ne 2 3\ne 1 3"
    pairs = [
        (["--theory", "pn"], ["--theory", "pn", "--n", "1", "--variant", "zero"]),
        (["--theory", "qn", "--jwindow=-2..4"], ["--theory", "qn", "--n", "1", "--jwindow=-2..4"]),
    ]
    for short, full in pairs:
        code, out, _ = invoke(["graph", "kh", tri, *short])
        assert code == 0 and out and invoke(["graph", "kh", tri, *full]) == (0, out, "")


def _sweep_calls():
    import random

    from linkhom.corpus import corpus_diagrams

    for b in corpus_diagrams(max_crossings=8):
        t = b.text()
        yield ["bracket", t]
        yield ["jones", t]
        yield ["homfly", t, "--specialize", "2", "--format", "json"]
        yield ["homfly", t, "--var", "at"]
        yield ["kh", t, "--format", "json"]
        yield ["kh", t, "--poincare"]
    rng = random.Random(14)
    for _ in range(25):
        n = rng.randint(1, 5)
        edges = [(rng.randint(1, n), rng.randint(1, n)) for _ in range(rng.randint(0, 7))]
        text = "\n".join([f"v {n}"] + [f"e {u} {v}" for u, v in edges])
        for flags in (["--dichromatic"], ["--tutte"], ["--pn", "1"], ["--pn", "2"],
                      ["--qn", "1", "--jwindow=-3..5"], ["--qn", "2", "--jwindow=-2..6"], ["--dg"]):
            yield ["graph", "poly", text, *flags]
    yield ["stable", "--m", "2", "--n", "3..6"]
    for suite in ("kauffman", "theorem18", "theorem20", "theorem23", "theorem24", "theorem8",
                  "jones-euler", "homfly-axioms", "appendixA", "appendixB", "stability"):
        yield ["verify", suite]


def test_cli_sweep_matches_pinned_digest():
    # bracket, jones, homfly, kh and poincare on the corpus up to 8 crossings,
    # every graph poly flag on 25 seeded multigraphs, stable, and the quick
    # verify suites; the digest was taken before exponents became plain ints
    import hashlib

    digest, count = hashlib.sha256(), 0
    for argv in _sweep_calls():
        code, out, err = invoke(argv)
        assert code == 0, (argv, err)
        digest.update(f"{argv}\n{code}\n{out}{err}".encode())
        count += 1
    assert count == 385
    assert digest.hexdigest() == "f65a1c70de813edf281d7d1e6ccd6015cf2d64e1aad50cf5ea18d8a8ee690ea4"
