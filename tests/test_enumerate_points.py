"""The block-by-block point enumeration against the candidate filter it
replaced: every vertex-graded subspace of JP of the right dimension, kept
when `ProjectiveCover.escaping_arrow` finds no arrow moving it out of its
span."""

import itertools
import os
import sys

from hypothesis import given, settings, strategies as st

from quivergrass import (
    GF,
    OracleScaleError,
    ProjectiveCover,
    cli,
    enumerate_points,
    gaussian_binomial,
    with_field,
)
from quivergrass import oracle
from quivergrass.linalg import Echelon

from algebras import (
    a2,
    double_triple,
    fork,
    loop_arrow,
    merge,
    nilpotent_loop_arrow,
    random_presentation,
    triple_arrow,
    two_loop_fork,
)

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))
import inputs  # noqa: E402
import workloads  # noqa: E402

CATALOGUE = (loop_arrow, two_loop_fork, triple_arrow, double_triple, nilpotent_loop_arrow, fork, merge, a2,
             random_presentation)
CAP = 10 ** 4  # the reference filter tests each candidate: a second or so per 10^4


def _candidates(alg, tops, d):
    """The cover, the columns of (JP)_v for each vertex v, the compositions of
    dim P - d over the blocks that have candidates, and the candidate count."""
    cover = ProjectiveCover(alg, tops)
    vs = alg.quiver.vertices
    block_cols = {v: [i for i, (_, p) in enumerate(cover.basis) if p.length and p.end == v] for v in vs}
    dims = [len(block_cols[v]) for v in vs]
    compositions = []
    total = 0
    if cover.dim >= d:
        for split in oracle._compositions(cover.dim - d, dims):
            count = 1
            for n, k in zip(dims, split):
                count *= gaussian_binomial(n, k, alg.field.char)
            if count:
                compositions.append(split)
                total += count
    return cover, block_cols, compositions, total


def _filtered_rows(alg, tops, d, budget):
    """Reference: the sorted rows of every candidate that no arrow moves out
    of its span, behind the same budget refusal."""
    f = alg.field
    cover, block_cols, compositions, total = _candidates(alg, tops, d)
    if cover.dim < d:
        return ()
    if total > budget:
        raise OracleScaleError(f"{total} candidate subspaces exceed the budget {budget}")
    dims = [len(cols) for cols in block_cols.values()]
    points = []
    for split in compositions:
        per_block = [list(oracle._echelon_block_matrices(f, k, n)) for n, k in zip(dims, split)]
        for combo in itertools.product(*per_block):
            ech = Echelon(f, cover.dim)
            for cols, mats in zip(block_cols.values(), combo):
                for brow in mats:
                    row = [f.zero] * cover.dim
                    for c, x in zip(cols, brow):
                        row[c] = x
                    ech.add(row)
            if cover.escaping_arrow(ech) is None:
                points.append(ech.snapshot())
    return tuple(sorted(points))


def _enumerated_rows(alg, tops, d, budget):
    return tuple(p.rows for p in enumerate_points(alg, tops, d, budget).points)


def _outcome(enumerate_rows, alg, tops, d, budget):
    """The rows, or the refusal message, under the given candidate budget."""
    try:
        return enumerate_rows(alg, tops, d, budget)
    except OracleScaleError as exc:
        return str(exc)


def _assert_matches_the_filter(label, alg, tops, budget):
    """At every d from 0 to dim P + 1: the same rows, or the same refusal,
    under the budget; and for a scene within it, a budget of exactly the
    candidate count enumerates while one less refuses."""
    for d in range(ProjectiveCover(alg, tops).dim + 2):
        total = _candidates(alg, tops, d)[-1]
        expected = _outcome(_filtered_rows, alg, tops, d, min(total, budget))
        assert _outcome(_enumerated_rows, alg, tops, d, min(total, budget)) == expected, (label, d)
        if 0 < total <= budget:
            refusal = f"{total} candidate subspaces exceed the budget {total - 1}"
            assert _outcome(_filtered_rows, alg, tops, d, total - 1) == refusal, (label, d)
            assert _outcome(_enumerated_rows, alg, tops, d, total - 1) == refusal, (label, d)


def test_enumeration_matches_the_candidate_filter():
    """Every catalogue algebra over F2 and F3, at the tops (v,) and (v, v)
    for each vertex v and at its first two vertices, every d: 646 scenes,
    58 of them past the cap and refused by both."""
    for make in CATALOGUE:
        for prime in (2, 3):
            alg = with_field(make(), GF(prime))
            vs = alg.quiver.vertices
            for tops in [(v,) for v in vs] + [(v, v) for v in vs] + [vs[:2]]:
                _assert_matches_the_filter(f"{make.__name__} {tops} F{prime}", alg, tops, CAP)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_enumeration_matches_the_filter_on_random_presentations(seed):
    """Random admissible presentations of the benchmark's small shape over
    F2, at the tops (1,) and (1, 2).  A failing presentation joins the
    catalogue in algebras.py."""
    [(text, _)] = inputs.random_problems(seed, 1, workloads.SMALL)
    alg = cli.parse_problem(text).algebra("F2")
    for tops in ((1,), (1, 2)):
        _assert_matches_the_filter(f"{text}top {tops}", alg, tops, 2000)


def test_enumeration_tests_no_candidate_for_stability(monkeypatch):
    calls = []
    escaping_arrow = ProjectiveCover.escaping_arrow

    def counted(cover, ech):
        calls.append(1)
        return escaping_arrow(cover, ech)

    monkeypatch.setattr(ProjectiveCover, "escaping_arrow", counted)
    alg = with_field(two_loop_fork(), GF(3))
    scene = enumerate_points(alg, (1,), 3)
    assert len(scene.points) == 54
    assert len(calls) <= len(scene.points)
    # the candidate filter tests every candidate
    calls.clear()
    assert _filtered_rows(alg, (1,), 3, 10 ** 6) == tuple(p.rows for p in scene.points)
    assert len(calls) == 1695
