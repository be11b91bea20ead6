"""Problem parsing, command output, exit codes, golden files."""

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from quivergrass.cli import main, parse_problem, render_problem
from quivergrass.errors import ParseError, SemanticError

LOOP_ARROW_TEXT = """\
# loop with square zero feeding an arrow
field: Q
loewy: 2
vertices: 1 2
arrows: w: 1 -> 1, a: 1 -> 2
relations:
  w^2
top: 1
dim: 3
"""

TWO_LOOP_FORK_TEXT = """\
field: Q
loewy: 2
vertices: 1 2
arrows: w1: 1 -> 1, w2: 1 -> 1, a1: 1 -> 2, a2: 1 -> 2
relations:
  w1*w1, w2*w1, w1*w2, w2*w2
  a1*w1 - a2*w2
top: 1
dim: 4
"""

A2_TEXT = """\
field: Q
loewy: 1
vertices: 1 2
arrows: a: 1 -> 2
relations:
top: 1
"""


@pytest.fixture
def problem_file(tmp_path):
    def write(text, name="problem.qg"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def run_cli(argv):
    buf = io.StringIO()
    code = main(argv, stdout=buf)
    return code, buf.getvalue()


def test_parse_example_file():
    pf = parse_problem(LOOP_ARROW_TEXT)
    assert [a.name for a in pf.quiver.arrows] == ["w", "a"]
    assert pf.loewy == 2
    assert pf.tops == (1,)
    assert pf.dim == 3
    assert len(pf.relations) == 1
    alg = pf.algebra()
    assert alg.dim == 5


def test_parse_empty_relations():
    pf = parse_problem(A2_TEXT)
    assert pf.relations == []
    assert pf.algebra().dim == 3


def test_parse_roundtrip():
    for text in (LOOP_ARROW_TEXT, TWO_LOOP_FORK_TEXT, A2_TEXT):
        pf = parse_problem(text)
        rendered = render_problem(pf)
        pf2 = parse_problem(rendered)
        assert render_problem(pf2) == rendered
        assert pf2.quiver.vertices == pf.quiver.vertices
        assert [a.name for a in pf2.quiver.arrows] == [a.name for a in pf.quiver.arrows]
        assert pf2.relations == pf.relations
        assert (pf2.loewy, pf2.tops, pf2.dim) == (pf.loewy, pf.tops, pf.dim)


def test_parse_error_has_line():
    bad = "field: Q\nloewy: 2\nvertices: 1 2\narrows: w: 1 -> 1\nrelations:\n  w^oops\n"
    with pytest.raises(ParseError) as err:
        parse_problem(bad)
    assert err.value.line == 6


@pytest.mark.parametrize("relation", ["w^0", "a*w^0"])
def test_parse_rejects_zero_exponent(relation):
    bad = LOOP_ARROW_TEXT.replace("w^2", relation)
    with pytest.raises(ParseError) as err:
        parse_problem(bad)
    assert err.value.line == 7


def test_semantic_error_unknown_arrow():
    bad = LOOP_ARROW_TEXT.replace("w^2", "z*w")
    with pytest.raises(SemanticError) as err:
        parse_problem(bad)
    assert err.value.line == 7


def test_semantic_error_non_composable():
    bad = LOOP_ARROW_TEXT.replace("w^2", "w*a")
    with pytest.raises(SemanticError):
        parse_problem(bad)


def test_cli_chart_golden(problem_file):
    path = problem_file(TWO_LOOP_FORK_TEXT)
    code, out = run_cli(["chart", path, "--skeleton", "e1,w1,a1*w1,a2"])
    assert code == 0
    assert out == (
        "chart of {e1, w1, a2, a1*w1}\n"
        "variables (4):\n"
        "  X1: w2 -> w1\n"
        "  X2: a1 -> a2\n"
        "  X3: a1 -> a1*w1\n"
        "  X4: a2*w1 -> a1*w1\n"
        "polynomials (1):\n"
        "  X1*X4 - 1\n"
    )


def test_cli_skeletons_golden(problem_file):
    path = problem_file(LOOP_ARROW_TEXT)
    code, out = run_cli(["skeletons", path, "--prune"])
    assert code == 0
    assert out == (
        "2 skeleton(s) for top [1] at dim 3 (pruned)\n"
        "  {e1, w, a}\n"
        "  {e1, w, a*w}\n"
    )


def test_cli_moduli_check_golden(problem_file):
    path = problem_file(A2_TEXT)
    code, out = run_cli(["moduli-check", path])
    assert code == 0
    assert out == "eJe = 0: moduli space exists for all d\n"

    path2 = problem_file(LOOP_ARROW_TEXT, "loop.qg")
    code, out = run_cli(["moduli-check", path2])
    assert code == 1
    assert "fails to exist" in out and "lambda = a" in out


def test_cli_json_golden(problem_file):
    path = problem_file(LOOP_ARROW_TEXT)
    code, out = run_cli(["skeletons", path, "--prune", "--json"])
    assert code == 0
    assert out == (
        "{\n"
        '  "command": "skeletons",\n'
        '  "dim": 3,\n'
        '  "prune": true,\n'
        '  "schema": "quivergrass/1",\n'
        '  "skeletons": [\n'
        "    [\n"
        '      "e1",\n'
        '      "w",\n'
        '      "a"\n'
        "    ],\n"
        "    [\n"
        '      "e1",\n'
        '      "w",\n'
        '      "a*w"\n'
        "    ]\n"
        "  ],\n"
        '  "top": [\n'
        "    1\n"
        "  ]\n"
        "}\n"
    )


def test_cli_json_is_stable(problem_file):
    path = problem_file(LOOP_ARROW_TEXT)
    outs = set()
    for _ in range(3):
        code, out = run_cli(["enumerate", path, "--field", "F2", "--json"])
        assert code == 0
        outs.add(out)
        json.loads(out)
    assert len(outs) == 1


def test_cli_enumerate(problem_file):
    path = problem_file(LOOP_ARROW_TEXT)
    code, out = run_cli(["enumerate", path, "--field", "F2", "--json"])
    doc = json.loads(out)
    assert doc["schema"] == "quivergrass/1"
    assert doc["n_points"] == 3
    assert sorted(len(o) for o in doc["orbits"]) == [1, 2]
    assert len(doc["iso_classes"]) == 2
    assert doc["orbit_provenance"] == "exhaustive"


def test_cli_cross_validate_exit_codes(problem_file):
    path = problem_file(LOOP_ARROW_TEXT)
    code, out = run_cli(["cross-validate", path, "--field", "F2"])
    assert code == 0
    assert "all charts consistent" in out


def test_cli_local_type(problem_file):
    path = problem_file(LOOP_ARROW_TEXT)
    code, out = run_cli(["local-type", path, "-q", "2", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] is True
    assert doc["provenance"] == "finite-field"


def test_cli_invariant_check_exit_codes(problem_file):
    path = problem_file(LOOP_ARROW_TEXT)
    code, out = run_cli(["invariant-check", path, "--skeleton", "e1,w,a", "--point", ""])
    assert code == 0
    code, out = run_cli(
        ["invariant-check", path, "--skeleton", "e1,w,a*w", "--point", "0"]
    )
    assert code == 1
    assert "witness: right multiplication by w" in out


def test_cli_input_errors(problem_file, capsys):
    path = problem_file("vertices: 1\n")  # missing loewy
    code, _ = run_cli(["skeletons", path, "--top", "1", "--dim", "1"])
    assert code == 2
    code, _ = run_cli(["skeletons", "/nonexistent/file", "--top", "1", "--dim", "1"])
    assert code == 2
    path2 = problem_file(LOOP_ARROW_TEXT, "ok.qg")
    code, _ = run_cli(["enumerate", path2])  # rational field refused
    assert code == 2
    latin1 = Path(problem_file("", "latin1.qg"))
    latin1.write_bytes(LOOP_ARROW_TEXT.replace("# loop", "# boucle \xe0").encode("latin-1"))
    capsys.readouterr()
    for unreadable in (latin1.parent, latin1):  # a directory, a non-UTF-8 file
        code, out = run_cli(["skeletons", str(unreadable), "--top", "1", "--dim", "1"])
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith("input error: ")


def test_cli_layering_repeated_top_exit_2(problem_file, capsys):
    path = problem_file(LOOP_ARROW_TEXT)
    code, out = run_cli(["layering", path, "--top", "1,1"])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "error: repeated top vertex in (1, 1)\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["skeletons", "--top", "5", "--dim", "2"],
        ["skeletons", "--top", "a", "--dim", "2"],
        ["layering", "--skeleton", "e1,w,a*w", "--point", "1/0"],
        ["layering", "--skeleton", "e1,w,a*w", "--point", "x"],
        ["skeletons", "--dim", "-1"],
        ["enumerate", "--field", "F2", "--dim", "-1"],
        ["chart", "--skeleton", "e1,w,w"],
        ["chart", "--skeleton", "e1,a*w"],
        ["chart", "--skeleton", "w"],
        ["chart", "--skeleton", "e1,w^0"],
    ],
    ids=["unknown-top", "non-integer-top", "zero-denominator", "non-numeric-point",
         "negative-dim-skeletons", "negative-dim-enumerate", "repeated-skeleton-path",
         "skeleton-not-prefix-closed", "skeleton-misses-lazy-path", "zero-exponent"],
)
def test_cli_bad_flag_values_exit_2(problem_file, capsys, argv):
    path = problem_file(LOOP_ARROW_TEXT)
    code, out = run_cli([argv[0], path] + argv[1:])
    assert code == 2 and out == ""
    assert capsys.readouterr().err.startswith("input error: ")


FLAG_TOKENS = ["e1", "e2", "w", "a", "w^0", "w^1", "w^2", "w^3", "*", ",", "1/0"]
flag_text = st.none() | st.lists(st.sampled_from(FLAG_TOKENS), max_size=6).map("".join)


@pytest.fixture(scope="module")
def loop_arrow_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "loop_arrow.qg"
    path.write_text(LOOP_ARROW_TEXT)
    return str(path)


@settings(max_examples=100, deadline=None)
@given(
    command=st.sampled_from(["chart", "layering", "hom"]),
    skeleton=flag_text,
    point=flag_text,
    top=flag_text,
)
@example(command="chart", skeleton="e1,w^0", point=None, top=None)
def test_cli_flag_strings_never_raise(loop_arrow_file, command, skeleton, point, top):
    argv = [command, loop_arrow_file]
    for flag, value in (("--skeleton", skeleton), ("--point", point), ("--top", top)):
        if value is not None:
            argv += [flag, value]
    with contextlib.redirect_stderr(io.StringIO()):
        code, _ = run_cli(argv)
    assert code in (0, 1, 2)


def test_cli_hom_and_layering(problem_file):
    path = problem_file(LOOP_ARROW_TEXT)
    code, out = run_cli(["hom", path, "--skeleton", "e1,w,a*w", "--point", "0"])
    assert code == 0 and out == "dim End(M) = 1\n"
    code, out = run_cli(["layering", path])
    assert code == 0
    assert "radical layering: (S1, S1 + S2, S2)" in out
    code, out = run_cli(
        ["layering", path, "--skeleton", "e1,w,a*w", "--point", "5"]
    )
    assert code == 0
    assert "(S1, S1, S2)" in out


def test_cli_orbit_dims(problem_file):
    path = problem_file(LOOP_ARROW_TEXT)
    code, out = run_cli(["orbit-dims", path, "--field", "F2", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert sorted(p["orbit_dim"] for p in doc["points"]) == [0, 1, 1]


def test_cli_charts_all(problem_file):
    path = problem_file(LOOP_ARROW_TEXT)
    code, out = run_cli(["charts-all", path, "--prune", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["charts"]) == 2
    assert [len(c["variables"]) for c in doc["charts"]] == [0, 1]


def test_cli_hom_between_two_modules(problem_file):
    path = problem_file(LOOP_ARROW_TEXT)
    code, out = run_cli(
        [
            "hom",
            path,
            "--skeleton",
            "e1,w,a*w",
            "--point",
            "0",
            "--skeleton2",
            "e1,w,a",
            "--point2",
            "",
        ]
    )
    assert code == 0
    assert out == "dim Hom(M, N) = 1\n"


def test_parse_fractional_coefficients():
    text = LOOP_ARROW_TEXT.replace("w^2", "1/2*w^2 + 3*w*w")
    pf = parse_problem(text)
    (rel,) = pf.relations
    (coeff,) = rel.terms.values()
    from fractions import Fraction

    assert coeff == Fraction(7, 2)
    again = parse_problem(render_problem(pf))
    assert again.relations == pf.relations
