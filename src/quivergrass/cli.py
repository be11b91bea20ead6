"""Problem-file parser and command dispatch.

The input format is line oriented with '#' comments:

    field: Q              # or F<p>
    loewy: 2
    vertices: 1 2
    arrows: w: 1 -> 1, a: 1 -> 2
    relations:
      w^2
      a1*w1 - a2*w2
    top: 1                # optional defaults
    dim: 3

Arrow products compose right to left: a*w means "first w, then a".  Paths in
flags use the same syntax, with e<k> for the lazy path at a vertex.

The command line is `quivergrass <command> <problem> [flags]`.  COMMANDS
declares each command's handler and the flags it reads, FLAGS each flag with
its value check, and the parser is built from them once.  Any other flag, a
bad value, an abbreviation, or --point/--point2 without its skeleton is an
InputError: exit code 2 with a one-line message.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from typing import Dict, List, Optional, Tuple

from . import polynomials as poly
from .charts import chart_context, chart_ideal, module_from_point, submodule_from_point
from .errors import (
    AdmissibilityError,
    InputError,
    ParseError,
    QuivergrassError,
    SemanticError,
    TopNotSquarefreeError,
)
from .fields import GF, QQ, parse_field
from .moduli import (
    simple_top_moduli_criterion,
    finite_local_type_check,
    orbit_dim,
    point_report,
    unipotent_orbit_dim,
)
from .oracle import (
    OracleConfig,
    cross_validate_chart,
    enumerate_points,
    iso_classes,
    orbit_provenance,
    orbits,
)
from .presentation import (
    AlgElement,
    AlgebraPresentation,
    Path,
    Quiver,
    build_algebra,
)
from .representations import ProjectiveCover, hom_dim, radical_layering
from .skeletons import enumerate_skeletons, make_skeleton

SCHEMA_VERSION = "quivergrass/1"


@dataclass
class ProblemFile:
    """Parsed problem: algebra plus optional defaults for top and dim."""

    quiver: Quiver
    relations: List[AlgElement]
    loewy: int
    field_tag: str
    tops: Optional[Tuple[int, ...]] = None
    dim: Optional[int] = None

    def algebra(self, field_override=None) -> AlgebraPresentation:
        field = parse_field(field_override or self.field_tag)
        rels = [
            AlgElement(field, {p: field.coerce(c) for p, c in r.terms.items()})
            for r in self.relations
        ]
        # build_algebra's check, made while the long terms are there to name
        for rel in rels:
            if not rel.is_zero() and rel.min_length() < 2:
                raise AdmissibilityError(f"relation {rel.render()} has a term of length < 2")
        rels = [AlgElement(field, {p: c for p, c in r.terms.items() if isinstance(p, Path)}) for r in rels]
        return build_algebra(self.quiver, rels, self.loewy, field, tops=self.tops)


@dataclass(frozen=True)
class LongPath:
    """A relation term longer than loewy + 1, which is zero in the algebra,
    kept as (arrow name, exponent) runs in application order so that it is
    never expanded; only its rendering, as Path.render, spells it out."""

    start: int
    runs: Tuple[Tuple[str, int], ...]

    @property
    def length(self):
        return sum(n for _, n in self.runs)

    def render(self) -> str:
        return "*".join(name for name, n in reversed(self.runs) for _ in range(n))


_TERM_RE = re.compile(r"^(?:(-?\d+(?:/\d+)?)\s*\*\s*)?([A-Za-z_][A-Za-z_0-9]*(?:\s*(?:\*|\^)\s*[A-Za-z_0-9]+)*)$")


def _shown(text: str, limit: int = 40) -> str:
    """repr of a piece of input, cut after limit characters so that an
    error message quoting it stays short."""
    if len(text) <= limit:
        return repr(text)
    return f"{text[:limit]!r}... ({len(text)} characters)"


def _decimal(digits: str, what: str, lineno=None) -> int:
    """int of a run of decimal digits; one past Python's conversion limit is
    a ParseError rather than a ValueError."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"{what} {_shown(digits)} has too many digits", lineno)


def _strip_comment(line: str) -> str:
    return line.split("#", 1)[0].rstrip()


def _parse_arrow_decl(chunk: str, lineno: int) -> Tuple[str, int, int]:
    m = re.match(r"^\s*([A-Za-z_][A-Za-z_0-9]*)\s*:\s*(\d+)\s*->\s*(\d+)\s*$", chunk)
    if not m:
        raise ParseError(f"bad arrow declaration {chunk!r}", lineno)
    return m.group(1), _decimal(m.group(2), "vertex", lineno), _decimal(m.group(3), "vertex", lineno)


def _factor_runs(text: str, lineno, bound) -> List[Tuple[str, int]]:
    """Split a product like a*w^2 into (factor name, exponent) runs in
    written order.  With a bound, a product of more factors is refused."""
    powers = []
    for raw in text.split("*"):
        raw = raw.strip()
        if not raw:
            raise ParseError("empty factor in product", lineno)
        name, power, exp = raw.partition("^")
        n = 1
        if power:
            exp = exp.strip()
            n = _decimal(exp, "exponent", lineno) if exp.isdecimal() else 0
            if n < 1:
                raise ParseError(f"bad exponent in {_shown(raw)}", lineno)
        powers.append((name.strip(), n))
    if bound is not None and sum(n for _, n in powers) > bound:
        raise SemanticError(f"path {_shown(text)} exceeds length {bound}", lineno)
    return powers


def _path_runs(text: str, quiver: Quiver, lineno, bound):
    """A path e<k> or a product of arrow names, right to left, as its start
    vertex and its (arrow, exponent) runs in application order.  Names and
    composition are checked on the runs, so no power is expanded."""
    text = text.strip()
    m = re.match(r"^e(\d+)$", text)
    if m:
        v = _decimal(m.group(1), "vertex", lineno)
        if v not in quiver.vertex_index:
            raise SemanticError(f"unknown vertex {v}", lineno)
        return v, []
    runs = []
    for name, n in reversed(_factor_runs(text, lineno, bound)):  # application order
        if name not in quiver.arrow_by_name:
            raise SemanticError(f"unknown arrow {name!r}", lineno)
        runs.append((quiver.arrow_by_name[name], n))
    prev = None
    for arrow, n in runs:
        if prev is not None and prev.target != arrow.source:
            raise SemanticError(f"arrows {arrow.name} and {prev.name} do not compose", lineno)
        if n > 1 and arrow.target != arrow.source:
            raise SemanticError(f"arrows {arrow.name} and {arrow.name} do not compose", lineno)
        prev = arrow
    return runs[0][0].source, runs


def _expanded(start, runs) -> Path:
    return Path(start, tuple(a for a, n in runs for _ in range(n)))


def parse_path(text: str, quiver: Quiver, lineno=None, bound=None) -> Path:
    """Parse a path: e<k> or a product of arrow names, right to left.  A
    path longer than bound is refused before its powers are expanded."""
    return _expanded(*_path_runs(text, quiver, lineno, bound))


def _parse_relation(text: str, quiver: Quiver, lineno: int, loewy: int) -> AlgElement:
    """Parse a sum of terms over Q; coefficients are coerced later.  A term
    longer than loewy + 1 is the zero path (build_algebra truncates there),
    so it is checked on its runs and kept as a LongPath."""
    text = text.strip()
    if not text:
        raise ParseError("empty relation", lineno)
    # split into signed terms at top level
    terms = []
    sign = 1
    buf = ""
    for ch in text:
        if ch in "+-" and buf.strip():
            terms.append((sign, buf.strip()))
            sign = 1 if ch == "+" else -1
            buf = ""
        elif ch == "-" and not buf.strip():
            sign = -sign
        elif ch == "+" and not buf.strip():
            pass
        else:
            buf += ch
    if buf.strip():
        terms.append((sign, buf.strip()))
    if not terms:
        raise ParseError(f"no terms in relation {text!r}", lineno)
    out: Dict[Path, Fraction] = {}
    for sgn, term in terms:
        m = _TERM_RE.match(term)
        if not m:
            raise ParseError(f"bad term {term!r}", lineno)
        try:
            coeff = Fraction(m.group(1) or 1)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad coefficient {_shown(m.group(1))}", lineno)
        start, runs = _path_runs(m.group(2).replace(" ", ""), quiver, lineno, None)
        if sum(n for _, n in runs) > loewy + 1:
            merged = tuple((a.name, sum(n for _, n in g)) for a, g in groupby(runs, lambda r: r[0]))
            path = LongPath(start, merged)
        else:
            path = _expanded(start, runs)
        out[path] = out.get(path, Fraction(0)) + sgn * coeff
    return AlgElement(QQ, out)


def parse_problem(text: str) -> ProblemFile:
    """Parse a problem file; errors carry the line number."""
    vertices: Optional[List[int]] = None
    arrow_decls: List[Tuple[str, int, int]] = []
    relation_lines: List[Tuple[int, str]] = []
    loewy: Optional[int] = None
    field_tag = "Q"
    tops: Optional[Tuple[int, ...]] = None
    dim: Optional[int] = None
    in_relations = False

    keys = ("field", "loewy", "vertices", "arrows", "relations", "top", "dim", "quiver")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line.strip():
            continue
        m = re.match(r"^\s*([a-z]+)\s*:\s*(.*)$", line)
        key = m.group(1) if m and m.group(1) in keys else None
        if key is None:
            if in_relations:
                relation_lines.append((lineno, line.strip()))
                continue
            raise ParseError(f"unrecognized line {line.strip()!r}", lineno)
        rest = m.group(2).strip()
        in_relations = False
        if key == "quiver":
            continue
        if key == "field":
            field_tag = rest
        elif key == "loewy":
            if not rest.isdecimal():
                raise ParseError(f"loewy bound must be a non-negative integer, got {_shown(rest)}", lineno)
            loewy = _decimal(rest, "loewy bound", lineno)
        elif key == "vertices":
            try:
                vertices = [int(tok) for tok in rest.split()]
            except ValueError:
                raise ParseError(f"bad vertex list {_shown(rest)}", lineno)
        elif key == "arrows":
            if rest:
                for chunk in rest.split(","):
                    arrow_decls.append(_parse_arrow_decl(chunk, lineno))
        elif key == "relations":
            in_relations = True
            if rest:
                relation_lines.append((lineno, rest))
        elif key == "top":
            try:
                tops = tuple(int(tok) for tok in rest.split())
            except ValueError:
                raise ParseError(f"bad top list {_shown(rest)}", lineno)
        elif key == "dim":
            if not rest.isdecimal():
                raise ParseError(f"dim must be a positive integer, got {_shown(rest)}", lineno)
            dim = _decimal(rest, "dim", lineno)

    if vertices is None:
        raise ParseError("missing vertices declaration")
    if loewy is None:
        raise ParseError("missing loewy declaration")
    try:
        quiver = Quiver(vertices, arrow_decls)
    except ValueError as exc:
        raise SemanticError(str(exc))
    parse_field(field_tag)
    if tops is not None:
        for v in tops:
            if v not in quiver.vertex_index:
                raise SemanticError(f"unknown top vertex {v}")
    relations = []
    for lineno, chunk in relation_lines:
        for piece in chunk.split(","):
            piece = piece.strip()
            if piece:
                relations.append(_parse_relation(piece, quiver, lineno, loewy))
    return ProblemFile(quiver, relations, loewy, field_tag, tops, dim)


def render_problem(pf: ProblemFile) -> str:
    """Canonical text form; parse(render(parse(t))) == parse(t)."""
    lines = [f"field: {pf.field_tag}", f"loewy: {pf.loewy}"]
    lines.append("vertices: " + " ".join(str(v) for v in pf.quiver.vertices))
    lines.append(
        "arrows: "
        + ", ".join(f"{a.name}: {a.source} -> {a.target}" for a in pf.quiver.arrows)
    )
    if pf.relations:
        lines.append("relations:")
        for rel in pf.relations:
            bits = []
            for p, c in sorted(rel.terms.items(), key=lambda t: (t[0].start, t[0].length, t[0].render())):
                bits.append((c, p.render()))
            text = ""
            for i, (c, pr) in enumerate(bits):
                if c == 1:
                    term = pr
                elif c == -1:
                    term = f"-{pr}"
                else:
                    term = f"{c}*{pr}"
                if i == 0:
                    text = term
                else:
                    text += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
            lines.append(f"  {text}")
    if pf.tops is not None:
        lines.append("top: " + " ".join(str(v) for v in pf.tops))
    if pf.dim is not None:
        lines.append(f"dim: {pf.dim}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# command implementations


def _tops_from(args, pf: ProblemFile):
    if args.top:
        try:
            tops = tuple(int(tok) for tok in args.top.split(","))
        except ValueError:
            raise SemanticError(f"bad --top {_shown(args.top)}")
        for v in tops:
            if v not in pf.quiver.vertex_index:
                raise SemanticError(f"unknown top vertex {v}")
        return tops
    if pf.tops:
        return pf.tops
    raise SemanticError("no top vertices given (use --top or a 'top:' line)")


def _dim_from(args, pf: ProblemFile):
    d = args.dim if args.dim is not None else pf.dim
    if d is None:
        raise SemanticError("no dimension given (use --dim or a 'dim:' line)")
    return d


def _parse_point(text, nvars, field, flag):
    if not text:
        coords = []
    else:
        try:
            coords = [field.coerce(Fraction(tok)) for tok in text.split(",") if tok != ""]
        except (ValueError, ZeroDivisionError):
            raise SemanticError(f"bad {flag} coordinates {_shown(text)}")
    if len(coords) != nvars:
        raise SemanticError(f"{flag} expects {nvars} coordinates, got {len(coords)}")
    return tuple(coords)


def _parse_skeleton(alg, tops, text, flag):
    try:
        paths = [parse_path(tok.strip(), alg.quiver, bound=alg.loewy_bound) for tok in text.split(",")]
        return make_skeleton(alg, tops, paths)
    except (InputError, ValueError) as exc:
        raise SemanticError(f"bad {flag} {_shown(text)}: {exc}")


def _skeleton_from(args, alg, tops):
    if not args.skeleton:
        raise SemanticError("this command needs --skeleton")
    return _parse_skeleton(alg, tops, args.skeleton, "--skeleton")


def _layering_json(s):
    return [list(layer) for layer in s.layers]


def _print_json(args, out, doc):
    """A quivergrass/1 document: doc under the schema and command keys."""
    doc = {"schema": SCHEMA_VERSION, "command": args.command, **doc}
    out(json.dumps(doc, indent=2, sort_keys=True))


def _scene(args, alg, tops, d):
    """Every point over the command's finite field, within --budget."""
    if alg.field.char == 0:
        raise SemanticError(f"{args.command} needs a finite field (--field F<p>)")
    return enumerate_points(alg, tops, d, OracleConfig(*[args.budget] * 3))


def cmd_skeletons(args, pf, out):
    alg = pf.algebra(args.field)
    tops = _tops_from(args, pf)
    d = _dim_from(args, pf)
    sks = enumerate_skeletons(alg, tops, d, prune=args.prune)
    if args.json:
        _print_json(args, out, {
            "top": list(tops), "dim": d,
            "prune": bool(args.prune),
            "skeletons": [[p.render() for p in sk.paths] for sk in sks],
        })
    else:
        out(f"{len(sks)} skeleton(s) for top {list(tops)} at dim {d}"
            + (" (pruned)" if args.prune else ""))
        for sk in sks:
            out("  " + sk.render())
    return 0


def _chart_json(alg, sk):
    ideal = chart_ideal(alg, sk)
    names = chart_context(alg, sk).var_names()
    return {
        "skeleton": [p.render() for p in sk.paths],
        "variables": [
            {"name": f"X{i + 1}", "product": v.product.render(), "target": v.target.render()}
            for i, v in enumerate(ideal.variables)
        ],
        "polynomials": [poly.render(dict(p), names) for p in ideal.polynomials],
    }


def _chart_lines(alg, sk, out):
    doc = _chart_json(alg, sk)
    out(f"chart of {sk.render()}")
    out(f"variables ({len(doc['variables'])}):")
    for v in doc["variables"]:
        out(f"  {v['name']}: {v['product']} -> {v['target']}")
    out(f"polynomials ({len(doc['polynomials'])}):")
    for p in doc["polynomials"]:
        out("  " + p)


def cmd_chart(args, pf, out):
    alg = pf.algebra(args.field)
    tops = _tops_from(args, pf)
    sk = _skeleton_from(args, alg, tops)
    if args.json:
        _print_json(args, out, _chart_json(alg, sk))
    else:
        _chart_lines(alg, sk, out)
    return 0


def cmd_charts_all(args, pf, out):
    alg = pf.algebra(args.field)
    tops = _tops_from(args, pf)
    d = _dim_from(args, pf)
    sks = enumerate_skeletons(alg, tops, d, prune=args.prune)
    if args.json:
        _print_json(args, out, {"top": list(tops), "dim": d, "charts": [_chart_json(alg, sk) for sk in sks]})
    else:
        for sk in sks:
            _chart_lines(alg, sk, out)
    return 0


def cmd_layering(args, pf, out):
    alg = pf.algebra(args.field)
    tops = _tops_from(args, pf)
    if args.skeleton:
        sk, pt, rep = _module_from_args(alg, tops, args.skeleton, args.point, "")
        label = f"module at {list(pt)} on {sk.render()}"
    else:
        cover = ProjectiveCover(alg, tops)
        if not cover.squarefree:
            raise TopNotSquarefreeError(f"repeated top vertex in {tops}")
        rep = cover.as_representation()
        label = f"projective cover of top {list(tops)} (dim {cover.dim}, radical dim {cover.dim_jp})"
    lay = radical_layering(rep)
    if args.json:
        _print_json(args, out, {"module": label, "dims": list(rep.dims), "layering": _layering_json(lay)})
    else:
        out(label)
        out("radical layering: " + lay.render(alg.quiver.vertices))
    return 0


def _module_from_args(alg, tops, skeleton_text, point_text, suffix):
    """The module at a chart point given by --skeleton<suffix> and
    --point<suffix>."""
    sk = _parse_skeleton(alg, tops, skeleton_text, "--skeleton" + suffix)
    ideal = chart_ideal(alg, sk)
    pt = _parse_point(point_text, ideal.nvars, alg.field, "--point" + suffix)
    return sk, pt, module_from_point(alg, sk, pt)


def cmd_hom(args, pf, out):
    alg = pf.algebra(args.field)
    tops = _tops_from(args, pf)
    if not args.skeleton:
        raise SemanticError("hom needs --skeleton (and optionally --skeleton2)")
    sk, pt, m = _module_from_args(alg, tops, args.skeleton, args.point, "")
    if args.skeleton2:
        sk2, pt2, n = _module_from_args(alg, tops, args.skeleton2, args.point2, "2")
        label = "Hom(M, N)"
    else:
        sk2, pt2, n = sk, pt, m
        label = "End(M)"
    dim = hom_dim(m, n)
    if args.json:
        _print_json(args, out, {
            "dim": dim,
            "source": {"skeleton": [p.render() for p in sk.paths], "point": [str(c) for c in pt]},
            "target": {"skeleton": [p.render() for p in sk2.paths], "point": [str(c) for c in pt2]},
        })
    else:
        out(f"dim {label} = {dim}")
    return 0


def cmd_invariant_check(args, pf, out):
    alg = pf.algebra(args.field)
    tops = _tops_from(args, pf)
    sk = _skeleton_from(args, alg, tops)
    ideal = chart_ideal(alg, sk)
    pt = _parse_point(args.point, ideal.nvars, alg.field, "--point")
    point = submodule_from_point(alg, sk, pt)
    report = point_report(alg, point)
    if args.json:
        _print_json(args, out, {
            "fully_invariant": report.fully_invariant,
            "orbit_dim": report.orbit_dimension,
            "unipotent_orbit_dim": report.unipotent_orbit_dimension,
            "count_criterion": report.split_count_holds,
            "witness": None if report.fully_invariant else report.invariance_witness[0].render(),
        })
    else:
        out(f"submodule: {point!r}")
        out(f"fully invariant: {report.fully_invariant}")
        if not report.fully_invariant:
            out(f"witness: right multiplication by {report.invariance_witness[0].render()}")
        out(f"orbit dimension: {report.orbit_dimension}")
        out(f"unipotent orbit dimension: {report.unipotent_orbit_dimension}")
        out(f"count criterion: {report.split_count_holds}")
    return 0 if report.fully_invariant else 1


def cmd_moduli_check(args, pf, out):
    alg = pf.algebra(args.field)
    tops = _tops_from(args, pf)
    if len(tops) != 1:
        raise SemanticError("moduli-check needs a simple top (one vertex)")
    rep = simple_top_moduli_criterion(alg, tops[0], prime=args.q, budget=args.budget)
    if args.json:
        _print_json(args, out, {
            "top": tops[0],
            "holds": rep.holds,
            "provenance": rep.provenance,
            "eJe_zero": rep.eje_zero,
            "Je_squared_zero": rep.je_squared_zero,
            "witness": None if rep.holds else {
                "lambda": rep.witness_lambda.render(), "omega": rep.witness_omega.render()},
        })
    else:
        if rep.eje_zero:
            out("eJe = 0: moduli space exists for all d")
        elif rep.je_squared_zero:
            out("(Je)^2 = 0: moduli space exists for all d")
        elif rep.holds:
            out(
                f"cyclic-multiple condition holds for all lambda over F{rep.prime}: "
                "moduli space exists for all d (finite-field evidence)"
            )
        else:
            out(
                "moduli space fails to exist: lambda = "
                f"{rep.witness_lambda.render()}, omega = {rep.witness_omega.render()} "
                f"violate the cyclic-multiple condition (over F{rep.prime})"
            )
    return 0 if rep.holds else 1


def cmd_orbit_dims(args, pf, out):
    alg = pf.algebra(args.field)
    tops = _tops_from(args, pf)
    d = _dim_from(args, pf)
    scene = _scene(args, alg, tops, d)
    rows = [
        {"index": i, "point": repr(pt), "orbit_dim": orbit_dim(alg, pt),
         "unipotent_orbit_dim": unipotent_orbit_dim(alg, pt), "layering": _layering_json(lay)}
        for i, (pt, lay) in enumerate(zip(scene.points, scene.layerings()))
    ]
    if args.json:
        _print_json(args, out, {"top": list(tops), "dim": d, "points": rows})
    else:
        out(f"{len(rows)} point(s) at dim {d}")
        for r in rows:
            out(
                f"  [{r['index']}] orbit dim {r['orbit_dim']}, "
                f"unipotent {r['unipotent_orbit_dim']}: {r['point']}"
            )
    return 0


def cmd_enumerate(args, pf, out):
    alg = pf.algebra(args.field)
    tops = _tops_from(args, pf)
    d = _dim_from(args, pf)
    scene = _scene(args, alg, tops, d)
    field_tag = args.field or pf.field_tag
    orbs = orbits(scene)
    iso = iso_classes(scene)
    if args.json:
        _print_json(args, out, {
            "top": list(tops), "dim": d,
            "field": field_tag,
            "n_points": len(scene.points),
            "points": [repr(p) for p in scene.points],
            "orbits": [list(o) for o in orbs],
            "orbit_provenance": orbit_provenance(scene),
            "iso_classes": [list(c) for c in iso],
            "layerings": [_layering_json(s) for s in scene.layerings()],
        })
    else:
        out(
            f"{len(scene.points)} point(s), {len(orbs)} orbit(s), "
            f"{len(iso)} isomorphism class(es) at dim {d} over {field_tag}"
        )
        for k, o in enumerate(orbs):
            out(f"  orbit {k} (size {len(o)}): " + "; ".join(repr(scene.points[i]) for i in o))
    return 0


def cmd_cross_validate(args, pf, out):
    alg = pf.algebra(args.field)
    tops = _tops_from(args, pf)
    d = _dim_from(args, pf)
    scene = _scene(args, alg, tops, d)
    field_tag = args.field or pf.field_tag
    sks = enumerate_skeletons(alg, tops, d)
    reports = [cross_validate_chart(scene, sk) for sk in sks]
    ok = all(r.ok for r in reports)
    if args.json:
        _print_json(args, out, {
            "top": list(tops), "dim": d,
            "field": field_tag,
            "ok": ok,
            "charts": [
                {
                    "skeleton": [p.render() for p in r.skeleton.paths],
                    "solutions": r.n_solutions,
                    "points": r.n_points,
                    "ok": r.ok,
                    "mismatches": list(r.mismatches),
                }
                for r in reports
            ],
        })
    else:
        for r in reports:
            status = "ok" if r.ok else "MISMATCH"
            out(
                f"{status}: {r.skeleton.render()} "
                f"({r.n_solutions} solution(s) vs {r.n_points} point(s))"
            )
            for msg in r.mismatches:
                out("    " + msg)
        out(("all charts consistent" if ok else "cross-validation FAILED")
            + f" at dim {d} over {field_tag}")
    return 0 if ok else 1


def cmd_local_type(args, pf, out):
    alg = pf.algebra("Q")  # rational presentation; coerced to F_q internally
    tops = _tops_from(args, pf)
    if len(tops) != 1:
        raise SemanticError("local-type needs a simple top (one vertex)")
    report = finite_local_type_check(alg, tops[0], args.q, OracleConfig(*[args.budget] * 3))
    if args.json:
        _print_json(args, out, {
            "top": tops[0],
            "q": args.q,
            "verdict": report.verdict,
            "provenance": report.provenance,
            "per_dim": [
                {"dim": d, "points": n, "layering_classes": l, "iso_classes": i}
                for d, n, l, i in report.per_d
            ],
        })
    else:
        out(f"finite local type at vertex {tops[0]} over F{args.q} " +
            ("HOLDS" if report.verdict else "FAILS") + " (finite-field evidence)")
        for d, n, l, i in report.per_d:
            out(f"  dim {d}: {n} point(s), {l} layering class(es), {i} iso class(es)")
    return 0 if report.verdict else 1


# ---------------------------------------------------------------------------
# the command line


class _Parser(argparse.ArgumentParser):
    """Refuses a command line with a short InputError, without the usage."""

    def error(self, message):
        raise InputError(message if len(message) <= 180 else message[:176] + " ...")


def _flag_type(what, convert, ok):
    """An argparse type: convert(text) when ok holds of it, else a refusal
    naming what was expected."""

    def check(text):
        try:
            value = convert(text)
            if ok(value):
                return value
        except (ArithmeticError, ValueError, QuivergrassError):
            pass
        raise argparse.ArgumentTypeError(f"expected {what}, got {_shown(text)}")

    return check


# every flag with its add_argument keywords; the value checks are its type
FLAGS = {
    "--top": dict(help="comma-separated top vertices"),
    "--dim": dict(type=_flag_type("an integer >= 0", int, lambda n: n >= 0), help="quotient dimension d"),
    "--skeleton": dict(help="comma-separated paths (e.g. e1,w,a*w)"),
    "--point": dict(help="comma-separated chart coordinates"),
    "--skeleton2": dict(help="second skeleton"),
    "--point2": dict(help="coordinates on --skeleton2"),
    "--prune": dict(action="store_true", help="drop degenerate skeletons"),
    "--field": dict(type=_flag_type("Q or F<p>", str, parse_field), help="override the coefficient field"),
    "--json": dict(action="store_true", help="machine-readable output"),
    "--budget": dict(type=_flag_type("an integer >= 1", int, lambda n: n >= 1), default=10 ** 6,
                     help="enumeration budget"),
    "-q": dict(type=_flag_type("a prime", int, GF), default=2, help="prime for finite-field checks"),
}
ALIASES = {"-q": ("--q",)}
# a flag that is read only together with another
NEEDS = {"--point": "--skeleton", "--point2": "--skeleton2"}

# every command with its handler and the flags it reads; it accepts no other
COMMANDS = {
    "skeletons": (cmd_skeletons, ("--top", "--dim", "--prune", "--field", "--json")),
    "chart": (cmd_chart, ("--top", "--skeleton", "--field", "--json")),
    "charts-all": (cmd_charts_all, ("--top", "--dim", "--prune", "--field", "--json")),
    "layering": (cmd_layering, ("--top", "--skeleton", "--point", "--field", "--json")),
    "hom": (cmd_hom, ("--top", "--skeleton", "--point", "--skeleton2", "--point2", "--field", "--json")),
    "invariant-check": (cmd_invariant_check, ("--top", "--skeleton", "--point", "--field", "--json")),
    "moduli-check": (cmd_moduli_check, ("--top", "-q", "--budget", "--field", "--json")),
    "orbit-dims": (cmd_orbit_dims, ("--top", "--dim", "--field", "--budget", "--json")),
    "enumerate": (cmd_enumerate, ("--top", "--dim", "--field", "--budget", "--json")),
    "cross-validate": (cmd_cross_validate, ("--top", "--dim", "--field", "--budget", "--json")),
    "local-type": (cmd_local_type, ("--top", "-q", "--budget", "--json")),
}


@functools.cache
def build_parser():
    """The parser, built once: each subcommand accepts its flags as COMMANDS
    declares them, spelled in full."""
    parser = _Parser(
        prog="quivergrass",
        description="Affine charts and brute-force checks for Grassmannians of "
        "quotients of a projective cover with fixed top.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in COMMANDS.items():
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("problem", help="problem file, or - for stdin")
        for flag in flags:
            p.add_argument(flag, *ALIASES.get(flag, ()), **FLAGS[flag])
    return parser


def _parse_args(argv):
    """The parsed command line.  A flag the command does not read, and one
    whose partner is missing, are refused with an InputError naming them."""
    args, extra = build_parser().parse_known_args(argv)
    reads = COMMANDS[args.command][1]
    stray = next((a.split("=")[0] for a in extra if a.startswith("-") and a != "-"), None)
    if stray is not None and stray not in reads:
        raise InputError(f"{args.command} does not read {_shown(stray)}; it reads {', '.join(reads)}")
    if extra:
        raise InputError(f"unrecognized arguments: {_shown(' '.join(extra))}")
    for flag, partner in NEEDS.items():
        if getattr(args, flag[2:], None) is not None and not getattr(args, partner[2:]):
            raise InputError(f"{flag} needs {partner}")
    return args


def main(argv=None, stdout=None):
    stdout = stdout or sys.stdout

    def out(line=""):
        print(line, file=stdout)

    try:
        args = _parse_args(argv)
        if args.problem == "-":
            text = sys.stdin.read()
        else:
            with open(args.problem, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (InputError, OSError, UnicodeDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    try:
        return COMMANDS[args.command][0](args, parse_problem(text), out)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except QuivergrassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
