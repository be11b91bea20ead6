"""Shared algebra catalogue for the test suite.

All builders return presentations over Q; tests coerce to finite fields as
needed.  The randomized presentation is found by a deterministic seed search
so every run sees the same algebra.
"""

import itertools
import random

from quivergrass import (
    AlgElement,
    Path,
    QQ,
    Quiver,
    SubmodulePoint,
    build_algebra,
)


def path_of(quiver, *names_applied_first):
    """Path from arrow names listed in order of application."""
    arrows = tuple(quiver.arrow_by_name[n] for n in names_applied_first)
    return Path(arrows[0].source, arrows)


def point_of(cover, slot_elements):
    """The submodule point spanned by (slot, AlgElement) pairs inside JP."""
    return SubmodulePoint.from_rows(cover, [cover.vector_of(s, x) for s, x in slot_elements])


def loop_arrow():
    """Loop w at 1 with w^2 = 0, arrow a: 1 -> 2; L = 2."""
    q = Quiver([1, 2], [("w", 1, 1), ("a", 1, 2)])
    rel = AlgElement.of_path(QQ, path_of(q, "w", "w"))
    return build_algebra(q, [rel], 2, QQ)


def two_loop_fork():
    """Loops w1, w2 at 1, arrows a1, a2: 1 -> 2; wi*wj = 0 and
    a1*w1 = a2*w2; L = 2."""
    q = Quiver([1, 2], [("w1", 1, 1), ("w2", 1, 1), ("a1", 1, 2), ("a2", 1, 2)])
    rels = [
        AlgElement.of_path(QQ, path_of(q, i, j))
        for i in ("w1", "w2")
        for j in ("w1", "w2")
    ]
    rels.append(
        AlgElement(
            QQ,
            {
                path_of(q, "w1", "a1"): QQ.one,
                path_of(q, "w2", "a2"): QQ.coerce(-1),
            },
        )
    )
    return build_algebra(q, rels, 2, QQ)


def triple_arrow():
    """Three parallel arrows 1 -> 2, hereditary; L = 1."""
    q = Quiver([1, 2], [("a1", 1, 2), ("a2", 1, 2), ("a3", 1, 2)])
    return build_algebra(q, [], 1, QQ)


def double_triple():
    """Three arrows 1 -> 2 and three arrows 1 -> 3, hereditary; L = 1."""
    q = Quiver(
        [1, 2, 3],
        [("a1", 1, 2), ("a2", 1, 2), ("a3", 1, 2), ("b1", 1, 3), ("b2", 1, 3), ("b3", 1, 3)],
    )
    return build_algebra(q, [], 1, QQ)


def nilpotent_loop_arrow(m=2):
    """Loop w at 1 with w^(m+1) = 0, arrow a: 1 -> 2; L = m + 1."""
    q = Quiver([1, 2], [("w", 1, 1), ("a", 1, 2)])
    rel = AlgElement.of_path(QQ, Path(1, (q.arrow_by_name["w"],) * (m + 1)))
    return build_algebra(q, [rel], m + 1, QQ)


def fork():
    """2 <- 1 -> 3, hereditary; L = 1 (used with the non-squarefree top)."""
    q = Quiver([1, 2, 3], [("a", 1, 2), ("b", 1, 3)])
    return build_algebra(q, [], 1, QQ)


def merge():
    """1 -> 3 <- 2, hereditary; L = 1.  Two top vertices feeding one sink,
    so chart coordinates cross between the projective summands."""
    q = Quiver([1, 2, 3], [("a", 1, 3), ("b", 2, 3)])
    return build_algebra(q, [], 1, QQ)


def a2():
    """1 -> 2, hereditary; L = 1."""
    q = Quiver([1, 2], [("a", 1, 2)])
    return build_algebra(q, [], 1, QQ)


def _random_candidate(rng):
    n = rng.choice([2, 3])
    vertices = list(range(1, n + 1))
    n_arrows = rng.choice([3, 4])
    arrows = []
    for k in range(n_arrows):
        s = rng.choice(vertices)
        t = rng.choice(vertices)
        arrows.append((f"a{k}", s, t))
    quiver = Quiver(vertices, arrows)
    loewy = rng.choice([2, 3])
    paths_by_len = {}
    frontier = [Path(v) for v in vertices]
    for l in range(1, loewy + 2):
        nxt = []
        for p in frontier:
            for a in quiver.arrows_from(p.end):
                nxt.append(p.extended_by(a))
        paths_by_len[l] = nxt
        frontier = nxt
    mids = [p for l in range(2, loewy + 1) for p in paths_by_len.get(l, [])]
    rels = []
    for _ in range(rng.randint(1, 2)):
        if not mids:
            break
        terms = {}
        p = rng.choice(mids)
        terms[p] = QQ.coerce(rng.choice([1, 2, -1]))
        parallel = [
            p2
            for p2 in mids
            if p2 != p and p2.start == p.start and p2.end == p.end and p2 not in terms
        ]
        if parallel and rng.random() < 0.7:
            terms[rng.choice(parallel)] = QQ.coerce(rng.choice([1, -1, -2]))
        rels.append(AlgElement(QQ, terms))
    # cut everything beyond the bound so the presentation is always admissible
    for p in paths_by_len.get(loewy + 1, []):
        rels.append(AlgElement.of_path(QQ, p))
    return build_algebra(quiver, rels, loewy, QQ)


def random_presentation(max_dim_p=8, max_paths=40, start=0):
    """Deterministic seed search, from the seed start on, for a small random
    admissible presentation."""
    for seed in itertools.count(start):
        rng = random.Random(seed)
        try:
            alg = _random_candidate(rng)
        except Exception:
            continue
        if alg.dim > max_paths or not alg.relations:
            continue
        dims = {}
        for v in alg.quiver.vertices:
            dims[v] = sum(1 for p in alg.basis if p.start == v)
        if max(dims.values()) > max_dim_p or max(dims.values()) < 3:
            continue
        # want some genuinely binomial relation so the charts have equations
        if not any(len(r.terms) >= 2 for r in alg.relations):
            continue
        return alg


def catalogue():
    """The algebras used by the cross-validation and reduction properties."""
    return {
        "loop_arrow": loop_arrow(),
        "two_loop_fork": two_loop_fork(),
        "triple_arrow": triple_arrow(),
        "double_triple": double_triple(),
        "nilpotent_loop_arrow_2": nilpotent_loop_arrow(2),
        "random": random_presentation(),
    }


def simple_tops(alg):
    """Vertices usable as simple tops with a nonzero radical part."""
    return [
        v
        for v in alg.quiver.vertices
        if any(p.start == v and p.length >= 1 for p in alg.basis)
    ]


def cross_validation_jobs(cat):
    """(name, algebra, tops) of every chart/oracle cross-validation: each
    catalogue algebra at each simple top, the random one also at its first
    two vertices, and merge at its two sources."""
    jobs = []
    for name, alg in cat.items():
        tops_options = [(v,) for v in simple_tops(alg)]
        if name == "random" and len(alg.quiver.vertices) >= 2:
            tops_options.append(tuple(alg.quiver.vertices[:2]))
        for tops in tops_options:
            jobs.append((name, alg, tops))
    jobs.append(("merge", merge(), (1, 2)))
    return jobs
