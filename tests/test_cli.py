"""Problem parsing, command output, exit codes, golden files."""

import argparse
import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from quivergrass import GF, cli, enumerate_skeletons, representations, with_field
from quivergrass.cli import main, parse_problem
from quivergrass.errors import AdmissibilityError, ParseError, SemanticError
from quivergrass.oracle import chart_solutions
from quivergrass.presentation import AlgebraPresentation, all_paths

from algebras import catalogue, random_presentation, simple_tops
from references import render_problem
from vertexwise import hom_dim, layering_of_rep, module_from_point

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))
import inputs  # noqa: E402
import workloads  # noqa: E402

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


def timed_cli(argv):
    """run_cli and the CPU seconds the call took.  The collector is off
    during the call, so no sweep of garbage left by earlier tests lands in
    it, and process time leaves out the time other processes hold the CPU."""
    gc.disable()
    try:
        start = time.process_time()
        code, out = run_cli(argv)
        return code, out, time.process_time() - start
    finally:
        gc.enable()


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


def _problem_fields(pf):
    """Everything a parsed problem says, comparable across two parses."""
    q = pf.quiver
    return q.vertices, q.arrows, pf.relations, pf.loewy, pf.field_tag, pf.tops, pf.dim


@settings(max_examples=40, deadline=None)
@given(source=st.sampled_from(["random", "SMALL", "LARGE_Q"]), seed=st.integers(0, 10 ** 6),
       field_tag=st.sampled_from(["Q", "F2", "F3"]), dim=st.none() | st.integers(1, 9))
def test_parse_render_parse_is_parse(source, seed, field_tag, dim):
    """parse(render(parse(t))) == parse(t) on random presentations: those of
    tests/algebras and those of the benchmark's SMALL and LARGE_Q shapes."""
    if source == "random":
        alg = random_presentation(start=seed)
        tops = alg.quiver.vertices[: 1 + seed % 2]
        text = render_problem(cli.ProblemFile(alg.quiver, list(alg.relations), alg.loewy_bound, field_tag, tops, dim))
    else:
        [(text, _)] = inputs.random_problems(seed, 1, getattr(workloads, source))
    pf = parse_problem(text)
    assert _problem_fields(parse_problem(render_problem(pf))) == _problem_fields(pf)


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


HUGE = "9" * 5000  # past Python's 4300-digit limit on int() of a string


@pytest.mark.parametrize(
    "old, new",
    [
        ("w^2", "w^" + HUGE),
        ("loewy: 2", "loewy: " + HUGE),
        ("dim: 3", "dim: " + HUGE),
        ("a: 1 -> 2", "a: 1 -> " + HUGE),
        ("w^2", "w^2, e" + HUGE),
        ("w^2", HUGE + "*w^2"),
        ("w^2", "1/0*w^2"),
        ("loewy: 2", "loewy: \u00b2"),
    ],
    ids=["relation-exponent", "loewy", "dim", "arrow-vertex", "relation-vertex",
         "coefficient", "zero-denominator", "superscript-loewy"],
)
def test_bad_numbers_in_problem_file_exit_2(problem_file, capsys, old, new):
    text = LOOP_ARROW_TEXT.replace(old, new)
    with pytest.raises(ParseError):
        parse_problem(text)
    code, out = run_cli(["layering", problem_file(text)])
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and len(err) < 200


def test_problem_file_dim_is_a_non_negative_integer(problem_file, capsys):
    """A dim: line takes what --dim takes: 0 is read, and -1 is refused with
    exit code 2 and a message that says so."""
    code, out = run_cli(["skeletons", problem_file(LOOP_ARROW_TEXT.replace("dim: 3", "dim: 0"))])
    assert code == 0 and out == "0 skeleton(s) for top [1] at dim 0\n"
    code, out = run_cli(["skeletons", problem_file(LOOP_ARROW_TEXT.replace("dim: 3", "dim: -1"))])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "input error: dim must be a non-negative integer, got '-1' (line 9)\n"


def test_huge_field_in_problem_file_exits_2(problem_file, capsys):
    text = LOOP_ARROW_TEXT.replace("field: Q", "field: F1" + "0" * 400)
    code, out = run_cli(["skeletons", problem_file(text), "--dim", "1"])
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: field size past the supported bound") and err.count("\n") == 1 and len(err) < 200


@pytest.mark.parametrize(
    "tag, code",
    [
        ("F1000000000000000003", 0),  # a prime: decided at once
        ("F1000000000000000001", 2),  # 101 * 9901 * ...
        ("F3317044064679887385961981", 2),  # the bound: passes every witness
        ("F1" + "0" * 30 + "3", 2),
    ],
)
def test_large_field_tags_are_decided_at_once(problem_file, capsys, tag, code):
    path = problem_file(LOOP_ARROW_TEXT)
    start = time.perf_counter()
    got, out = run_cli(["skeletons", path, "--field", tag, "--dim", "1"])
    assert time.perf_counter() - start < 5.0
    assert got == code
    assert out == ("1 skeleton(s) for top [1] at dim 1\n  {e1}\n" if code == 0 else "")
    if code:
        assert capsys.readouterr().err.startswith("input error: argument --field: expected Q or F<p>")


@pytest.mark.parametrize(
    "new, message",
    [
        ("a^2000000", "arrows a and a do not compose"),
        ("w^2000000*a", "arrows w and a do not compose"),
        ("w^3 + a^2000000", "arrows a and a do not compose"),
        ("z^2000000", "unknown arrow 'z'"),
    ],
)
def test_huge_relation_powers_are_checked_on_their_runs(new, message):
    with pytest.raises(SemanticError) as err:
        parse_problem(LOOP_ARROW_TEXT.replace("w^2", new))
    assert str(err.value) == f"{message} (line 7)"


def test_relation_power_past_the_loewy_bound_is_never_expanded(problem_file, capsys):
    """A term longer than L + 1 is the zero path: with w^2000000 in place of
    w^2 the path w^3 survives and the file is refused with the same message
    as ever, without building the 2 000 000 factors."""
    text = LOOP_ARROW_TEXT.replace("w^2", "w^2000000")
    tracemalloc.start()
    try:
        parse_problem(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2 ** 20
    code, out = run_cli(["layering", problem_file(text)])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == (
        "error: path w*w*w of length 3 does not vanish; "
        "nilpotency bound too small or ideal not admissible\n"
    )
    # next to w^2 such a term is vacuous, as a short one past L + 1 is
    pf = parse_problem(LOOP_ARROW_TEXT.replace("w^2", "w^2, w^2000000*w, a*w^5"))
    assert pf.algebra().dim == 5


def test_long_relation_terms_are_named_and_rendered():
    """A term past L + 1 stays in its relation unexpanded: the refusal of a
    relation with a term of length < 2 names it as ever (over F2 the short
    term vanishes and the relation is vacuous), and the relation renders."""
    pf = parse_problem(LOOP_ARROW_TEXT.replace("w^2", "w^2, 2*w + a*w^4"))
    with pytest.raises(AdmissibilityError) as err:
        pf.algebra()
    assert str(err.value) == "relation 2*w + a*w*w*w*w has a term of length < 2"
    assert pf.algebra("F2").dim == 5
    pf = parse_problem(LOOP_ARROW_TEXT.replace("w^2", "w^2, w^5"))
    rendered = render_problem(pf)
    assert "\n  w*w\n  w*w*w*w*w\n" in rendered
    assert parse_problem(rendered).relations == pf.relations


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


def test_cli_cross_validate_builds_no_quotient_rep(problem_file, monkeypatch):
    """cross-validate reads each point's layering from its rows in P's
    basis, so it builds no module as matrices; the library builds P/C as
    matrices only in quotient_rep, which no command calls."""
    def refuse(*args):
        raise AssertionError("quotient_rep called")

    monkeypatch.setattr(representations, "quotient_rep", refuse)
    path = problem_file(TWO_LOOP_FORK_TEXT)
    for d in range(1, 6):
        for field in ("F2", "F3"):
            code, out = run_cli(["cross-validate", path, "--dim", str(d), "--field", field])
            assert code == 0 and "all charts consistent" in out, (d, field)


def test_cli_local_type(problem_file):
    path = problem_file(LOOP_ARROW_TEXT)
    code, out = run_cli(["local-type", path, "-q", "2", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] is True
    assert doc["provenance"] == "finite-field"


def test_cli_local_type_reads_the_field_line(problem_file, capsys):
    """Over F3 the relation w^2 + 3*w is w^2, so local-type runs at -q 3 as
    enumerate does; at another q it is refused, as F3 coefficients do not
    move to F_q."""
    path = problem_file(LOOP_ARROW_TEXT.replace("field: Q", "field: F3").replace("  w^2", "  w^2 + 3*w"))
    code, out = run_cli(["local-type", path, "-q", "3", "--json"])
    assert code == 0 and json.loads(out)["verdict"] is True
    assert run_cli(["enumerate", path, "--dim", "2"])[0] == 0
    capsys.readouterr()
    code, out = run_cli(["local-type", path, "-q", "2"])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "input error: local-type over F3 needs -q 3\n"


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
        ["chart", "--skeleton", "e1,w^2000000"],
        ["chart", "--skeleton", "e1,w^99999999999999"],
        ["local-type", "--field", "F3"],
        ["enumerate", "--field", "F2", "--dim", "2", "--budget", "-5"],
        ["enumerate", "--field", "F2", "--dim", "2", "--budget", "0"],
        ["chart", "--skeleton", "e1,w^" + HUGE],
        ["skeletons", "--dim", "x"],
        ["enumerate", "--field", "F2", "--dim", "2", "--budget", "x"],
        ["moduli-check", "-q", "4"],
        ["moduli-check", "--field", "F3"],
        ["enumerate", "--field", "F4", "--dim", "2"],
        ["chart", "--skel", "e1,w,a"],
        ["frobnicate"],
        [None, "skeletons", "--dim", "2"],
        ["layering", "--point", "5"],
        ["hom", "--skeleton", "e1,w,a*w", "--point", "0", "--point2", "9"],
        ["layering", "--skeleton", "e1,w,a*w", "--point", "5,,"],
        ["layering", "--skeleton", "e1,w,a*w", "--point", ",5"],
    ],
    ids=["unknown-top", "non-integer-top", "zero-denominator", "non-numeric-point",
         "negative-dim-skeletons", "negative-dim-enumerate", "repeated-skeleton-path",
         "skeleton-not-prefix-closed", "skeleton-misses-lazy-path", "zero-exponent",
         "huge-exponent", "huger-exponent", "local-type-field", "negative-budget",
         "zero-budget", "exponent-past-digit-limit", "non-integer-dim",
         "non-integer-budget", "composite-q", "moduli-check-field-not-q", "composite-field",
         "abbreviated-flag", "unknown-command", "missing-problem", "point-without-skeleton",
         "point2-without-skeleton2", "empty-trailing-coordinates", "empty-leading-coordinate"],
)
def test_cli_bad_flag_values_exit_2(problem_file, capsys, argv):
    path = problem_file(LOOP_ARROW_TEXT)
    # a leading None: the command line has no problem file
    argv = argv[1:] if argv[0] is None else [argv[0], path] + argv[1:]
    code, out, seconds = timed_cli(argv)
    assert seconds < 0.1  # refused before any expansion or scan
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and len(err) < 200


def test_cli_flag_errors_name_the_flag(problem_file, capsys):
    path = problem_file(LOOP_ARROW_TEXT)
    code, _ = run_cli(["hom", path, "--skeleton", "e1,w", "--skeleton2", "e1,q"])
    err = capsys.readouterr().err
    assert code == 2
    assert "--skeleton2" in err and "line 0" not in err
    code, _ = run_cli(["local-type", path, "--field", "F3"])
    assert code == 2 and "-q" in capsys.readouterr().err
    sk = "e1,w,a*w"
    code, _ = run_cli(["hom", path, "--skeleton", sk, "--point", "0", "--skeleton2", sk, "--point2", "x"])
    assert code == 2 and "--point2" in capsys.readouterr().err
    code, _ = run_cli(["hom", path, "--skeleton", sk, "--point", "0,1", "--skeleton2", sk])
    assert code == 2 and "--point " in capsys.readouterr().err
    code, _ = run_cli(["enumerate", path, "--field", "F2", "--dim", "2", "--budget", "-5"])
    assert code == 2 and "--budget" in capsys.readouterr().err


# The flags each command reads, written out here rather than taken from the
# parser: -q is also spelled --q.
READS = {
    "skeletons": {"--top", "--dim", "--prune", "--field", "--json"},
    "chart": {"--top", "--skeleton", "--field", "--json"},
    "charts-all": {"--top", "--dim", "--prune", "--field", "--json"},
    "layering": {"--top", "--skeleton", "--point", "--field", "--json"},
    "hom": {"--top", "--skeleton", "--point", "--skeleton2", "--point2", "--field", "--json"},
    "invariant-check": {"--top", "--skeleton", "--point", "--field", "--json"},
    "moduli-check": {"--top", "-q", "--q", "--budget", "--field", "--json"},
    "orbit-dims": {"--top", "--dim", "--field", "--budget", "--json"},
    "enumerate": {"--top", "--dim", "--field", "--budget", "--json"},
    "cross-validate": {"--top", "--dim", "--field", "--budget", "--json"},
    "local-type": {"--top", "-q", "--q", "--budget", "--json"},
}
ALL_FLAGS = sorted(set().union(*READS.values()))
SWITCHES = {"--prune", "--json"}
# a value each flag accepts, so that only the flag itself can be refused
GOOD_VALUE = {"--top": "1", "--dim": "2", "--skeleton": "e1,w,a", "--point": "",
              "--skeleton2": "e1,w,a", "--point2": "", "--field": "F2",
              "--budget": "5", "-q": "3", "--q": "3"}
STRAY_FLAGS = [
    [command, flag] + ([] if flag in SWITCHES else [GOOD_VALUE[flag]])
    for command in READS
    for flag in ALL_FLAGS
    if flag not in READS[command]
]


def test_every_command_reads_a_declared_flag_set():
    assert len(ALL_FLAGS) == 12 and len(STRAY_FLAGS) == 11 * 12 - 57
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert {
        name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    } == READS


@pytest.mark.parametrize(
    "argv",
    STRAY_FLAGS + [
        ["enumerate", "--field", "F2", "--dim", "2", "--skeleton", "zz", "--point2", "9"],
        ["skeletons", "--dim", "2", "-q", "4"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_cli_refuses_a_flag_the_command_does_not_read(loop_arrow_file, capsys, argv):
    stray = next(a for a in argv[1:] if a.startswith("-") and a not in READS[argv[0]])
    code, out, seconds = timed_cli([argv[0], loop_arrow_file] + argv[1:])
    assert seconds < 0.1
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {argv[0]} does not read '{stray}'; it reads ")
    assert len(err) < 200


def test_cli_point_without_its_skeleton_names_both_flags(loop_arrow_file, capsys):
    for argv, flags in (
        (["layering", "--point", "5"], ("--point", "--skeleton")),
        (["hom", "--skeleton", "e1,w,a*w", "--point", "0", "--point2", "9"], ("--point2", "--skeleton2")),
    ):
        code, out = run_cli([argv[0], loop_arrow_file] + argv[1:])
        err = capsys.readouterr().err
        assert code == 2 and out == "" and all(flag in err for flag in flags)
    # the empty point is still a point on a chart without coordinates
    code, out = run_cli(["layering", loop_arrow_file, "--skeleton", "e1,w,a", "--point", ""])
    assert code == 0 and out.startswith("module at [] on {e1, w, a}")


def test_cli_builds_its_parser_once(loop_arrow_file, monkeypatch):
    cli.build_parser.cache_clear()
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run_cli(["skeletons", loop_arrow_file])[0] == 0
    first = len(built)
    assert run_cli(["layering", loop_arrow_file])[0] == 0
    assert first == 1 + len(READS) and len(built) == first


FLAG_TOKENS = ["e1", "e2", "w", "a", "w^0", "w^1", "w^2", "w^3", "*", ",", "1/0"]
flag_text = st.lists(st.sampled_from(FLAG_TOKENS), max_size=6).map("".join)


@pytest.fixture(scope="module")
def loop_arrow_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "loop_arrow.qg"
    path.write_text(LOOP_ARROW_TEXT)
    return str(path)


# a command, some of the flags it reads, and perhaps one more flag
flag_choice = st.sampled_from(sorted(READS)).flatmap(
    lambda command: st.tuples(
        st.just(command),
        st.sets(st.sampled_from(sorted(READS[command]))),
        st.none() | st.sampled_from(ALL_FLAGS),
    )
)


@settings(max_examples=100, deadline=None)
@given(
    choice=flag_choice,
    skeleton=flag_text,
    point=flag_text,
    top=flag_text,
    dim=st.sampled_from(["0", "1", "2", "3"]),
    field=st.sampled_from(["Q", "F2", "F3"]),
    q=st.sampled_from(["2", "3"]),
    budget=st.sampled_from(["1", "1000"]),
)
@example(choice=("chart", {"--skeleton"}, None), skeleton="e1,w^0", point="", top="",
         dim="0", field="Q", q="2", budget="1000")
def test_cli_flag_strings_never_raise(loop_arrow_file, choice, skeleton, point, top, dim, field, q,
                                      budget):
    command, flags, extra = choice
    flags = flags | ({extra} - {None})
    values = {"--skeleton": skeleton, "--skeleton2": skeleton, "--point": point, "--point2": point,
              "--top": top, "--dim": dim, "--field": field, "-q": q, "--q": q, "--budget": budget}
    argv = [command, loop_arrow_file]
    for flag in sorted(flags):
        argv += [flag] if flag in SWITCHES else [flag, values[flag]]
    with contextlib.redirect_stderr(io.StringIO()):
        code, _ = run_cli(argv)
    assert code in (0, 1, 2)
    if flags - READS[command]:
        assert code == 2


def test_cli_output_into_a_closed_pipe_ends_quietly(problem_file):
    """Like `| head -1`: the reader leaves after one line of a 134 kB
    listing, more than the pipe holds, so later writes fail.  The command
    ends with exit code 1 and prints no traceback."""
    path = problem_file(
        "field: F2\nloewy: 2\nvertices: 1 2 3\ntop: 1\narrows: "
        + ", ".join(f"{x}{k}: {v} -> {v + 1}" for x, v in (("a", 1), ("b", 2)) for k in range(1, 5))
        + "\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.Popen(
        [sys.executable, "-m", "quivergrass.cli", "skeletons", path, "--dim", "8"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"2876 skeleton(s) for top [1] at dim 8\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert err == b""


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
    # the label shows the coordinates as they are written, over Q and F_p
    code, out = run_cli(["layering", path, "--skeleton", "e1,w,a*w", "--point=-3/2"])
    assert code == 0 and out.splitlines()[0] == "module at [-3/2] on {e1, w, a*w}"
    code, out = run_cli(["layering", path, "--field", "F3", "--skeleton", "e1,w,a*w", "--point", "2"])
    assert code == 0 and out.splitlines()[0] == "module at [2] on {e1, w, a*w}"


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


TRIPLE_ARROW_TEXT = """\
field: Q
loewy: 1
vertices: 1 2
arrows: a1: 1 -> 2, a2: 1 -> 2, a3: 1 -> 2
top: 1
"""


def test_cli_point_may_start_with_a_negative_coordinate(problem_file, capsys):
    """A point list such as -1,2 is read as the value of --point or
    --point2, as if written --point=-1,2."""
    path = problem_file(TRIPLE_ARROW_TEXT)
    hom = ["hom", path, "--skeleton", "e1,a1", "--skeleton2", "e1,a2", "--json"]
    joined = run_cli(hom + ["--point=-1,2", "--point2=-1/2,3"])
    assert joined[0] == 0
    assert run_cli(hom + ["--point", "-1,2", "--point2", "-1/2,3"]) == joined
    assert json.loads(joined[1])["target"]["point"] == ["-1/2", "3"]
    layering = ["layering", path, "--skeleton", "e1,a1"]
    assert run_cli(layering + ["--point", "-1/2,3"]) == run_cli(layering + ["--point=-1/2,3"])
    capsys.readouterr()
    # a value that is no number, and an undeclared flag, are still refused
    assert run_cli(layering + ["--point", "-x"]) == (2, "")
    assert capsys.readouterr().err == "input error: argument --point: expected one argument\n"
    assert run_cli(layering + ["--point", "-1,2", "--zzz"]) == (2, "")
    assert capsys.readouterr().err.startswith("input error: layering does not read '--zzz'")


def test_cli_point_reads_the_coefficient_grammar(problem_file, capsys):
    """--point and --point2 coordinates are written as the coefficients of a
    relation, -?d+(/d+)?, around optional spaces: an exponent, a decimal
    point or a plus sign is refused, so 1e99999 never builds a number too
    long to print."""
    path = problem_file(LOOP_ARROW_TEXT)
    sk = ["--skeleton", "e1,w,a*w"]
    for bad in ("1e99999", "1e3", "1.5", "+3"):
        layering = ["layering", path] + sk + [f"--point={bad}"]
        hom = ["hom", path] + sk + ["--point", "0", "--skeleton2", "e1,w,a*w", f"--point2={bad}"]
        for flag, argv in (("--point", layering), ("--point2", hom)):
            assert run_cli(argv) == (2, "")
            assert capsys.readouterr().err == f"input error: bad {flag} coordinates '{bad}'\n"
    code, out = run_cli(["layering", path] + sk + ["--point=-3"])
    assert code == 0 and out.splitlines()[0] == "module at [-3] on {e1, w, a*w}"
    assert run_cli(["layering", path] + sk + ["--point", " 5 "]) == run_cli(["layering", path] + sk + ["--point", "5"])


def test_parse_fractional_coefficients():
    text = LOOP_ARROW_TEXT.replace("w^2", "1/2*w^2 + 3*w*w")
    pf = parse_problem(text)
    (rel,) = pf.relations
    (coeff,) = rel.terms.values()
    from fractions import Fraction

    assert coeff == Fraction(7, 2)
    again = parse_problem(render_problem(pf))
    assert again.relations == pf.relations


NON_UNIFORM_TEXT = """\
field: Q
loewy: 2
vertices: 1 2 3 4 5
arrows: a: 1 -> 2, b: 2 -> 3, c: 1 -> 4, d: 4 -> 5
relations:
  b*a + d*c
top: 1
"""


def test_non_uniform_relation_builds_the_algebra_of_its_parts(problem_file):
    """b*a + d*c ends at two vertices, so e3*(b*a + d*c) = b*a and the
    relation generates the same ideal as its parts b*a and d*c."""
    mixed = parse_problem(NON_UNIFORM_TEXT).algebra()
    split = parse_problem(NON_UNIFORM_TEXT.replace("b*a + d*c", "b*a, d*c")).algebra()
    assert mixed.dim == split.dim == 9
    assert mixed.basis == split.basis
    for p in all_paths(mixed.quiver, mixed.loewy_bound + 1):
        assert mixed.nf_path(p) == split.nf_path(p), p
    assert all(len({(p.start, p.end) for p in rel.terms}) == 1 for rel in mixed.relations)
    path = problem_file(NON_UNIFORM_TEXT)
    assert run_cli(["layering", path]) == (
        0, "projective cover of top [1] (dim 3, radical dim 2)\nradical layering: (S1, S2 + S4, 0)\n"
    )


def _catalogue_chart_modules(max_dim=4, per_chart=3):
    """(label, problem text, field tag, top, [(--skeleton, --point, module
    on the skeleton basis)]) for each catalogue problem over F2 and F3, at
    its first simple top and every d <= max_dim, up to per_chart solutions
    per chart."""
    out = []
    for name, alg in catalogue().items():
        text = render_problem(cli.ProblemFile(alg.quiver, list(alg.relations), alg.loewy_bound, "Q"))
        for prime in (2, 3):
            alg_p = with_field(alg, GF(prime))
            top = simple_tops(alg_p)[0]
            for d in range(1, max_dim + 1):
                modules = []
                for sk in enumerate_skeletons(alg_p, (top,), d, prune=True):
                    for c in chart_solutions(alg_p, sk)[:per_chart]:
                        flags = (",".join(p.render() for p in sk.paths), ",".join(str(x) for x in c))
                        modules.append((*flags, module_from_point(alg_p, sk, c)))
                if modules:
                    out.append((f"{name} F{prime} top {top} d={d}", text, f"F{prime}", top, modules))
    return out


def test_cli_hom_and_layering_match_the_skeleton_basis_modules(problem_file):
    """At catalogue chart points, `hom` and `layering --skeleton` print the
    Hom dimensions and layerings of the modules built on the skeleton basis,
    as computed by the vertex-wise references."""
    for label, text, field, top, modules in _catalogue_chart_modules():
        path = problem_file(text)
        base = ["--top", str(top), "--field", field]
        for i, (sk, pt, m) in enumerate(modules):
            lay = layering_of_rep(m)
            code, out = run_cli(["layering", path, "--skeleton", sk, "--point", pt, *base])
            assert code == 0 and out.endswith(f"\nradical layering: {lay.render(m.alg.quiver.vertices)}\n"), label
            code, out = run_cli(["layering", path, "--skeleton", sk, "--point", pt, *base, "--json"])
            doc = json.loads(out)
            assert code == 0 and (doc["dims"], doc["layering"]) == (list(m.dims), [list(l) for l in lay.layers]), label
            code, out = run_cli(["hom", path, "--skeleton", sk, "--point", pt, *base])
            assert (code, out) == (0, f"dim End(M) = {hom_dim(m, m)}\n"), label
            sk2, pt2, n = modules[(i + 1) % len(modules)]
            code, out = run_cli(["hom", path, "--skeleton", sk, "--point", pt,
                                 "--skeleton2", sk2, "--point2", pt2, *base, "--json"])
            assert code == 0 and json.loads(out)["dim"] == hom_dim(m, n), label


def test_cli_hom_and_layering_do_not_use_the_vertex_wise_hom(problem_file, monkeypatch):
    def refuse(m, n):
        raise AssertionError("vertex-wise Hom called")

    monkeypatch.setattr(representations, "hom_basis", refuse)
    path = problem_file(LOOP_ARROW_TEXT)
    sk = ["--skeleton", "e1,w,a*w", "--point", "0"]
    assert run_cli(["hom", path, *sk]) == (0, "dim End(M) = 1\n")
    assert run_cli(["hom", path, *sk, "--skeleton2", "e1,w,a", "--point2", ""]) == (0, "dim Hom(M, N) = 1\n")
    assert run_cli(["layering", path, *sk])[0] == 0
    assert run_cli(["layering", path])[0] == 0


# text with the characters JSON escapes: quotes, backslashes, control
# characters, a lone surrogate, and non-ASCII text beyond the BMP
_json_text_strategy = st.text() | st.text(alphabet='"\\/\x00\x1f\x7f\n\t \ud800\xe9\U0001f600 a')
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(2 ** 80), 2 ** 80) | _json_text_strategy,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(_json_text_strategy, inner, max_size=4)
    ),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(doc=_json_values)
@example(doc={"": [], '"\\\n\x00': {"": {}, "b": ()}, "n": [-(2 ** 70), 2 ** 70, True, False, None, []]})
def test_json_writer_matches_json_dumps(doc):
    """The quivergrass/1 writer prints what json.dumps prints with indent=2
    and sort_keys=True, for nested dicts with str keys, lists and tuples of
    any text, ints of any size, bools and None."""
    assert cli._json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [0.5, Fraction(1, 2), {1, 2}, {"a": [1.0]}, [Fraction(3)], {1: 2}])
def test_json_writer_refuses_what_the_documents_never_hold(value):
    """A float, a Fraction or a set is no JSON value of a document, nor is a
    key that is not a str."""
    with pytest.raises(TypeError):
        cli._json_text(value)


def _json_command_lines(path, pf):
    """Every command, with --json, on one catalogue problem file: over its
    own field and over F2, at its default top, d = 2 and every pruned
    skeleton there with up to two F2 chart points."""
    alg = pf.algebra("F2")
    tops = pf.tops
    top = ["--top", ",".join(map(str, tops))]
    lines = [["moduli-check", path, "--top", str(tops[0]), "-q", "2", "--budget", "3000"],
             ["local-type", path, "--top", str(tops[0]), "-q", "2", "--budget", "3000"]]
    for field in (pf.field_tag, "F2"):
        base = [*top, "--field", field]
        lines += [["skeletons", path, *base, "--dim", "2", "--prune"],
                  ["charts-all", path, *base, "--dim", "2"],
                  ["layering", path, *base]]
    for c in ("orbit-dims", "enumerate", "cross-validate"):
        lines.append([c, path, *top, "--field", "F2", "--dim", "2", "--budget", "3000"])
    for sk in enumerate_skeletons(alg, tops, 2, prune=True):
        skel = ",".join(p.render() for p in sk.paths)
        lines.append(["chart", path, *top, "--skeleton", skel])
        for c in chart_solutions(alg, sk)[:2]:
            at = [*top, "--field", "F2", "--skeleton", skel, "--point", ",".join(map(str, c))]
            lines += [["layering", path, *at], ["hom", path, *at], ["invariant-check", path, *at]]
    return [line + ["--json"] for line in lines]


def test_every_json_document_is_written_as_json_dumps_writes_it():
    """Each command's --json output on the catalogue problem files reads
    back to a document that json.dumps writes as the same text."""
    seen = set()
    for name in inputs.CATALOGUE:
        path = os.path.join(inputs.PROBLEM_DIR, name + ".qg")
        for argv in _json_command_lines(path, parse_problem(inputs.catalogue_text(name))):
            code, out = run_cli(argv)
            assert code in (0, 1), argv
            assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n", argv
            seen.add(argv[0])
    assert seen == set(cli.COMMANDS)


def test_charts_and_cross_validation_read_the_normal_form_table(monkeypatch):
    """charts-all --prune --json over Q and F2, and cross-validate over F2,
    on the catalogue problem files at every d, reduce no element: each
    path's normal form is read from the table that build_algebra fills.
    The library has no element normal form (the tests' is
    `references.normal_form`), so the refusing method is added, not
    replaced: one added under that name and called by a command fails."""
    scenes = []
    for name in inputs.CATALOGUE:
        pf = parse_problem(inputs.catalogue_text(name))
        dim_p = representations.ProjectiveCover(pf.algebra(), pf.tops).dim
        scenes.append((os.path.join(inputs.PROBLEM_DIR, name + ".qg"), len(pf.tops), dim_p))

    def refused(self, x):
        raise AssertionError(f"normal_form({x.render()}) called")

    monkeypatch.setattr(AlgebraPresentation, "normal_form", refused, raising=False)
    runs = 0
    for path, t, dim_p in scenes:
        for d in map(str, range(t, dim_p + 1)):
            for field in ("Q", "F2"):
                assert run_cli(["charts-all", path, "--prune", "--json", "--field", field, "--dim", d])[0] == 0
            assert run_cli(["cross-validate", path, "--field", "F2", "--dim", d, "--budget", "3000"])[0] == 0
            runs += 1
    assert runs > 20
