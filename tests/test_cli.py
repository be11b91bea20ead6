"""Problem parsing, command output, exit codes, golden files."""

import argparse
import contextlib
import io
import json
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from quivergrass import cli
from quivergrass.cli import main, parse_problem, render_problem
from quivergrass.errors import AdmissibilityError, ParseError, SemanticError

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
        ["chart", "--skeleton", "e1,w^2000000"],
        ["chart", "--skeleton", "e1,w^99999999999999"],
        ["local-type", "--field", "F3"],
        ["enumerate", "--field", "F2", "--dim", "2", "--budget", "-5"],
        ["enumerate", "--field", "F2", "--dim", "2", "--budget", "0"],
        ["chart", "--skeleton", "e1,w^" + HUGE],
        ["skeletons", "--dim", "x"],
        ["enumerate", "--field", "F2", "--dim", "2", "--budget", "x"],
        ["moduli-check", "-q", "4"],
        ["enumerate", "--field", "F4", "--dim", "2"],
        ["chart", "--skel", "e1,w,a"],
        ["frobnicate"],
        [None, "skeletons", "--dim", "2"],
        ["layering", "--point", "5"],
        ["hom", "--skeleton", "e1,w,a*w", "--point", "0", "--point2", "9"],
    ],
    ids=["unknown-top", "non-integer-top", "zero-denominator", "non-numeric-point",
         "negative-dim-skeletons", "negative-dim-enumerate", "repeated-skeleton-path",
         "skeleton-not-prefix-closed", "skeleton-misses-lazy-path", "zero-exponent",
         "huge-exponent", "huger-exponent", "local-type-field", "negative-budget",
         "zero-budget", "exponent-past-digit-limit", "non-integer-dim",
         "non-integer-budget", "composite-q", "composite-field", "abbreviated-flag",
         "unknown-command", "missing-problem", "point-without-skeleton",
         "point2-without-skeleton2"],
)
def test_cli_bad_flag_values_exit_2(problem_file, capsys, argv):
    path = problem_file(LOOP_ARROW_TEXT)
    # a leading None: the command line has no problem file
    argv = argv[1:] if argv[0] is None else [argv[0], path] + argv[1:]
    start = time.perf_counter()
    code, out = run_cli(argv)
    assert time.perf_counter() - start < 0.1  # refused before any expansion or scan
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
    start = time.perf_counter()
    code, out = run_cli([argv[0], loop_arrow_file] + argv[1:])
    assert time.perf_counter() - start < 0.1
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
