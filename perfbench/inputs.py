"""Benchmark inputs: the fixed catalogue problem files and a seeded generator
of random admissible presentations, written as problem-file text.

The generator works on arrow names only and hands the library nothing but
the text it writes; `parse_problem` and `build_algebra` then decide whether a
candidate is admissible, and refused candidates are skipped.
"""

import os
import random
from dataclasses import dataclass

from quivergrass.cli import parse_problem
from quivergrass.errors import QuivergrassError

PROBLEM_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "problems")

CATALOGUE = (
    "loop_arrow",
    "two_loop_fork",
    "triple_arrow",
    "double_triple",
    "nilpotent_loop_arrow_2",
    "merge",
)


def catalogue_text(name):
    with open(os.path.join(PROBLEM_DIR, name + ".qg"), encoding="utf-8") as fh:
        return fh.read()


def _paths_of_length(arrows, n_vertices, length):
    """Paths as (arrow indices in application order, start, end)."""
    paths = [((), v, v) for v in range(1, n_vertices + 1)]
    for _ in range(length):
        paths = [
            (p + (k,), start, target)
            for p, start, end in paths
            for k, (_, source, target) in enumerate(arrows)
            if source == end
        ]
    return paths


def _render_path(arrows, path):
    # problem files write products right to left: a*w means first w, then a
    return "*".join(arrows[k][0] for k in reversed(path))


def _candidate(rng, family):
    """Text of one random presentation of a family: its quiver and Loewy
    bound L, one or two random relations of length 2..L, and every path of
    length L+1 cut so the bound holds."""
    arrows = [(f"a{k}", s, t) for k, (s, t) in enumerate(family.quiver)]
    n = max(max(st) for st in family.quiver)
    loewy = family.loewy
    mids = [p for l in range(2, loewy + 1) for p in _paths_of_length(arrows, n, l)]
    relations = []
    for _ in range(rng.randint(1, 2)):
        if not mids:
            break
        path, start, end = rng.choice(mids)
        terms = [(rng.choice(family.coefficients), path)]
        parallel = [q for q, s, e in mids if q != path and s == start and e == end]
        if parallel and rng.random() < 0.7:
            terms.append((rng.choice(family.coefficients), rng.choice(parallel)))
        relations.append(terms)
    cut = [p for p, _, _ in _paths_of_length(arrows, n, loewy + 1)]
    lines = [
        "field: Q",
        f"loewy: {loewy}",
        "vertices: " + " ".join(str(v) for v in range(1, n + 1)),
        "arrows: " + ", ".join(f"{name}: {s} -> {t}" for name, s, t in arrows),
        "relations:",
    ]
    for terms in relations:
        parts = []
        for c, path in terms:
            sign = ("-" if c < 0 else "") if not parts else ("- " if c < 0 else "+ ")
            mag = "" if abs(c) == 1 else f"{abs(c)}*"
            parts.append(sign + mag + _render_path(arrows, path))
        lines.append("  " + " ".join(parts))
    for path in cut:
        lines.append("  " + _render_path(arrows, path))
    return "\n".join(lines) + "\n", any(len(t) == 2 for t in relations)


def dim_p(alg, tops):
    return sum(1 for p in alg.basis if p.start in tops)


def shape(alg, top):
    """Canonical form of the tree of basis paths from `top`, each node
    labelled by the number of arrows leaving its end vertex, and marked `t`
    when it ends at `top`.  Presentations of one shape have the same
    skeleton candidates and automorphism group order, so their chart and
    orbit work is of like size."""
    children = {}
    root = None
    for p in alg.basis:
        if p.start != top:
            continue
        if p.length:
            children.setdefault(p.prefix(p.length - 1), []).append(p)
        else:
            root = p

    def canon(p):
        inner = "".join(sorted(canon(c) for c in children.get(p, ())))
        mark = "t" if p.end == top else ""
        return f"{len(alg.quiver.arrows_from(p.end))}{mark}({inner})"

    return canon(root)


@dataclass(frozen=True)
class Family:
    """A class of random presentations: the quiver, as (source, target) per
    arrow, and the Loewy bound they share, the relation coefficients to draw
    from, the fields a presentation must be valid over, and the shape (see
    `shape`) its top must have over each of them."""

    quiver: tuple
    loewy: int
    coefficients: tuple
    fields: tuple
    shape: str


def random_problems(seed, count, family):
    """`count` distinct admissible presentations of `family`, as (problem
    text with its `top:` line, top).  Deterministic per seed; candidates the
    library refuses, candidates without a binomial relation (their charts
    have no equations), repeats and candidates of another shape are
    skipped."""
    rng = random.Random(seed)
    out = []
    seen = set()
    while len(out) < count:
        text, binomial = _candidate(rng, family)
        if not binomial or text in seen:
            continue
        seen.add(text)
        try:
            pf = parse_problem(text)
            algs = [pf.algebra(tag) for tag in family.fields]
        except QuivergrassError:
            continue
        tops = [
            v
            for v in pf.quiver.vertices
            if all(shape(alg, v) == family.shape for alg in algs)
        ]
        if tops:
            top = rng.choice(tops)
            out.append((text + f"top: {top}\n", (top,)))
    return out
