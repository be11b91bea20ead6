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
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from . import polynomials as poly
from .charts import chart_context, chart_ideal, module_from_point, submodule_from_point
from .errors import (
    InputError,
    ParseError,
    QuivergrassError,
    SemanticError,
    TopNotSquarefreeError,
)
from .fields import QQ, parse_field
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
        return build_algebra(self.quiver, rels, self.loewy, field, tops=self.tops)


_TERM_RE = re.compile(r"^(?:(-?\d+(?:/\d+)?)\s*\*\s*)?([A-Za-z_][A-Za-z_0-9]*(?:\s*(?:\*|\^)\s*[A-Za-z_0-9]+)*)$")


def _strip_comment(line: str) -> str:
    return line.split("#", 1)[0].rstrip()


def _parse_arrow_decl(chunk: str, lineno: int) -> Tuple[str, int, int]:
    m = re.match(r"^\s*([A-Za-z_][A-Za-z_0-9]*)\s*:\s*(\d+)\s*->\s*(\d+)\s*$", chunk)
    if not m:
        raise ParseError(f"bad arrow declaration {chunk!r}", lineno)
    return m.group(1), int(m.group(2)), int(m.group(3))


def _expand_powers(text: str, lineno: int) -> List[str]:
    """Split a product like a*w^2 into factor names in written order."""
    factors = []
    for raw in text.split("*"):
        raw = raw.strip()
        if not raw:
            raise ParseError("empty factor in product", lineno)
        if "^" in raw:
            name, _, exp = raw.partition("^")
            name = name.strip()
            if not exp.strip().isdecimal() or int(exp) < 1:
                raise ParseError(f"bad exponent in {raw!r}", lineno)
            factors.extend([name] * int(exp))
        else:
            factors.append(raw)
    return factors


def parse_path(text: str, quiver: Quiver, lineno: int = 0) -> Path:
    """Parse a path: e<k> or a product of arrow names, right to left."""
    text = text.strip()
    m = re.match(r"^e(\d+)$", text)
    if m:
        v = int(m.group(1))
        if v not in quiver.vertex_index:
            raise SemanticError(f"unknown vertex {v}", lineno)
        return Path(v)
    names = _expand_powers(text, lineno)
    arrows = []
    for name in reversed(names):  # application order
        if name not in quiver.arrow_by_name:
            raise SemanticError(f"unknown arrow {name!r}", lineno)
        arrows.append(quiver.arrow_by_name[name])
    for prev, nxt in zip(arrows, arrows[1:]):
        if prev.target != nxt.source:
            raise SemanticError(
                f"arrows {nxt.name} and {prev.name} do not compose", lineno
            )
    return Path(arrows[0].source, tuple(arrows))


def _parse_relation(text: str, quiver: Quiver, lineno: int) -> AlgElement:
    """Parse a sum of terms over Q; coefficients are coerced later."""
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
        coeff = Fraction(m.group(1)) if m.group(1) else Fraction(1)
        path = parse_path(m.group(2).replace(" ", ""), quiver, lineno)
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
            if not rest.isdigit():
                raise ParseError(f"loewy bound must be a non-negative integer, got {rest!r}", lineno)
            loewy = int(rest)
        elif key == "vertices":
            try:
                vertices = [int(tok) for tok in rest.split()]
            except ValueError:
                raise ParseError(f"bad vertex list {rest!r}", lineno)
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
                raise ParseError(f"bad top list {rest!r}", lineno)
        elif key == "dim":
            if not rest.isdigit():
                raise ParseError(f"dim must be a positive integer, got {rest!r}", lineno)
            dim = int(rest)

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
                relations.append(_parse_relation(piece, quiver, lineno))
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


class CheckFailure(QuivergrassError):
    """A verification-style command found a mismatch or negative verdict."""


def _tops_from(args, pf: ProblemFile):
    if args.top:
        try:
            tops = tuple(int(tok) for tok in args.top.split(","))
        except ValueError:
            raise SemanticError(f"bad top list {args.top!r}")
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
    if d < 0:
        raise SemanticError(f"dim must be a non-negative integer, got {d}")
    return d


def _parse_point(text, nvars, field):
    if not text:
        coords = []
    else:
        try:
            coords = [field.coerce(Fraction(tok)) for tok in text.split(",") if tok != ""]
        except (ValueError, ZeroDivisionError):
            raise SemanticError(f"bad point coordinates {text!r}")
    if len(coords) != nvars:
        raise SemanticError(f"expected {nvars} coordinates, got {len(coords)}")
    return tuple(coords)


def _parse_skeleton(alg, tops, text):
    paths = [parse_path(tok.strip(), alg.quiver) for tok in text.split(",")]
    try:
        return make_skeleton(alg, tops, paths)
    except ValueError as exc:
        raise SemanticError(f"bad skeleton {text!r}: {exc}")


def _skeleton_from(args, alg, tops):
    if not args.skeleton:
        raise SemanticError("this command needs --skeleton")
    return _parse_skeleton(alg, tops, args.skeleton)


def _layering_json(s, vertices):
    return [list(layer) for layer in s.layers]


def cmd_skeletons(args, pf, out):
    alg = pf.algebra(args.field)
    tops = _tops_from(args, pf)
    d = _dim_from(args, pf)
    sks = enumerate_skeletons(alg, tops, d, prune=args.prune)
    if args.json:
        doc = {
            "schema": SCHEMA_VERSION,
            "command": "skeletons",
            "top": list(tops),
            "dim": d,
            "prune": bool(args.prune),
            "skeletons": [[p.render() for p in sk.paths] for sk in sks],
        }
        out(json.dumps(doc, indent=2, sort_keys=True))
    else:
        out(f"{len(sks)} skeleton(s) for top {list(tops)} at dim {d}"
            + (" (pruned)" if args.prune else ""))
        for sk in sks:
            out("  " + sk.render())
    return 0


def _chart_lines(alg, sk, out):
    ideal = chart_ideal(alg, sk)
    ctx = chart_context(alg, sk)
    names = ctx.var_names()
    out(f"chart of {sk.render()}")
    out(f"variables ({ideal.nvars}):")
    for i, v in enumerate(ideal.variables):
        out(f"  X{i + 1}: {v.render()}")
    out(f"polynomials ({len(ideal.polynomials)}):")
    for p in ideal.polynomials:
        out("  " + poly.render(dict(p), names))


def _chart_json(alg, sk):
    ideal = chart_ideal(alg, sk)
    ctx = chart_context(alg, sk)
    names = ctx.var_names()
    return {
        "skeleton": [p.render() for p in sk.paths],
        "variables": [
            {"name": f"X{i + 1}", "product": v.product.render(), "target": v.target.render()}
            for i, v in enumerate(ideal.variables)
        ],
        "polynomials": [poly.render(dict(p), names) for p in ideal.polynomials],
    }


def cmd_chart(args, pf, out):
    alg = pf.algebra(args.field)
    tops = _tops_from(args, pf)
    sk = _skeleton_from(args, alg, tops)
    if args.json:
        doc = {"schema": SCHEMA_VERSION, "command": "chart", **_chart_json(alg, sk)}
        out(json.dumps(doc, indent=2, sort_keys=True))
    else:
        _chart_lines(alg, sk, out)
    return 0


def cmd_charts_all(args, pf, out):
    alg = pf.algebra(args.field)
    tops = _tops_from(args, pf)
    d = _dim_from(args, pf)
    sks = enumerate_skeletons(alg, tops, d, prune=args.prune)
    if args.json:
        doc = {
            "schema": SCHEMA_VERSION,
            "command": "charts-all",
            "top": list(tops),
            "dim": d,
            "charts": [_chart_json(alg, sk) for sk in sks],
        }
        out(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for sk in sks:
            _chart_lines(alg, sk, out)
    return 0


def cmd_layering(args, pf, out):
    alg = pf.algebra(args.field)
    tops = _tops_from(args, pf)
    if args.skeleton:
        sk = _skeleton_from(args, alg, tops)
        ideal = chart_ideal(alg, sk)
        pt = _parse_point(args.point, ideal.nvars, alg.field)
        rep = module_from_point(alg, sk, pt)
        label = f"module at {list(pt)} on {sk.render()}"
    else:
        cover = ProjectiveCover(alg, tops)
        if not cover.squarefree:
            raise TopNotSquarefreeError(f"repeated top vertex in {tops}")
        rep = cover.as_representation()
        label = f"projective cover of top {list(tops)} (dim {cover.dim}, radical dim {cover.dim_jp})"
    lay = radical_layering(rep)
    if args.json:
        doc = {
            "schema": SCHEMA_VERSION,
            "command": "layering",
            "module": label,
            "dims": list(rep.dims),
            "layering": _layering_json(lay, alg.quiver.vertices),
        }
        out(json.dumps(doc, indent=2, sort_keys=True))
    else:
        out(label)
        out("radical layering: " + lay.render(alg.quiver.vertices))
    return 0


def _module_from_args(alg, tops, skeleton_text, point_text):
    sk = _parse_skeleton(alg, tops, skeleton_text)
    ideal = chart_ideal(alg, sk)
    pt = _parse_point(point_text, ideal.nvars, alg.field)
    return sk, pt, module_from_point(alg, sk, pt)


def cmd_hom(args, pf, out):
    alg = pf.algebra(args.field)
    tops = _tops_from(args, pf)
    if not args.skeleton:
        raise SemanticError("hom needs --skeleton (and optionally --skeleton2)")
    sk, pt, m = _module_from_args(alg, tops, args.skeleton, args.point)
    if args.skeleton2:
        sk2, pt2, n = _module_from_args(alg, tops, args.skeleton2, args.point2)
        label = "Hom(M, N)"
    else:
        sk2, pt2, n = sk, pt, m
        label = "End(M)"
    dim = hom_dim(m, n)
    if args.json:
        doc = {
            "schema": SCHEMA_VERSION,
            "command": "hom",
            "dim": dim,
            "source": {"skeleton": [p.render() for p in sk.paths], "point": [str(c) for c in pt]},
            "target": {"skeleton": [p.render() for p in sk2.paths], "point": [str(c) for c in pt2]},
        }
        out(json.dumps(doc, indent=2, sort_keys=True))
    else:
        out(f"dim {label} = {dim}")
    return 0


def cmd_invariant_check(args, pf, out):
    alg = pf.algebra(args.field)
    tops = _tops_from(args, pf)
    sk = _skeleton_from(args, alg, tops)
    ideal = chart_ideal(alg, sk)
    pt = _parse_point(args.point, ideal.nvars, alg.field)
    point = submodule_from_point(alg, sk, pt)
    report = point_report(alg, point)
    if args.json:
        doc = {
            "schema": SCHEMA_VERSION,
            "command": "invariant-check",
            "fully_invariant": report.fully_invariant,
            "orbit_dim": report.orbit_dimension,
            "unipotent_orbit_dim": report.unipotent_orbit_dimension,
            "count_criterion": report.split_count_holds,
            "witness": None
            if report.fully_invariant
            else report.invariance_witness[0].render(),
        }
        out(json.dumps(doc, indent=2, sort_keys=True))
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
        doc = {
            "schema": SCHEMA_VERSION,
            "command": "moduli-check",
            "top": tops[0],
            "holds": rep.holds,
            "provenance": rep.provenance,
            "eJe_zero": rep.eje_zero,
            "Je_squared_zero": rep.je_squared_zero,
            "witness": None
            if rep.holds
            else {
                "lambda": rep.witness_lambda.render(),
                "omega": rep.witness_omega.render(),
            },
        }
        out(json.dumps(doc, indent=2, sort_keys=True))
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
    field_tag = args.field or pf.field_tag
    if parse_field(field_tag).char == 0:
        raise SemanticError("orbit-dims enumerates points; use a finite field (--field F<p>)")
    config = OracleConfig(args.budget, args.budget, args.budget)
    scene = enumerate_points(alg, tops, d, config)
    rows = []
    for i, pt in enumerate(scene.points):
        rows.append(
            {
                "index": i,
                "point": repr(pt),
                "orbit_dim": orbit_dim(alg, pt),
                "unipotent_orbit_dim": unipotent_orbit_dim(alg, pt),
                "layering": _layering_json(scene.layerings()[i], alg.quiver.vertices),
            }
        )
    if args.json:
        doc = {
            "schema": SCHEMA_VERSION,
            "command": "orbit-dims",
            "top": list(tops),
            "dim": d,
            "points": rows,
        }
        out(json.dumps(doc, indent=2, sort_keys=True))
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
    field_tag = args.field or pf.field_tag
    if parse_field(field_tag).char == 0:
        raise SemanticError("enumerate needs a finite field (--field F<p>)")
    config = OracleConfig(args.budget, args.budget, args.budget)
    scene = enumerate_points(alg, tops, d, config)
    orbs = orbits(scene)
    iso = iso_classes(scene)
    if args.json:
        doc = {
            "schema": SCHEMA_VERSION,
            "command": "enumerate",
            "top": list(tops),
            "dim": d,
            "field": field_tag,
            "n_points": len(scene.points),
            "points": [repr(p) for p in scene.points],
            "orbits": [list(o) for o in orbs],
            "orbit_provenance": orbit_provenance(scene),
            "iso_classes": [list(c) for c in iso],
            "layerings": [
                _layering_json(s, alg.quiver.vertices) for s in scene.layerings()
            ],
        }
        out(json.dumps(doc, indent=2, sort_keys=True))
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
    field_tag = args.field or pf.field_tag
    if parse_field(field_tag).char == 0:
        raise SemanticError("cross-validate needs a finite field (--field F<p>)")
    config = OracleConfig(args.budget, args.budget, args.budget)
    scene = enumerate_points(alg, tops, d, config)
    sks = enumerate_skeletons(alg, tops, d)
    reports = [cross_validate_chart(scene, sk) for sk in sks]
    ok = all(r.ok for r in reports)
    if args.json:
        doc = {
            "schema": SCHEMA_VERSION,
            "command": "cross-validate",
            "top": list(tops),
            "dim": d,
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
        }
        out(json.dumps(doc, indent=2, sort_keys=True))
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
    config = OracleConfig(args.budget, args.budget, args.budget)
    report = finite_local_type_check(alg, tops[0], args.q, config)
    if args.json:
        doc = {
            "schema": SCHEMA_VERSION,
            "command": "local-type",
            "top": tops[0],
            "q": args.q,
            "verdict": report.verdict,
            "provenance": report.provenance,
            "per_dim": [
                {"dim": d, "points": n, "layering_classes": l, "iso_classes": i}
                for d, n, l, i in report.per_d
            ],
        }
        out(json.dumps(doc, indent=2, sort_keys=True))
    else:
        out(f"finite local type at vertex {tops[0]} over F{args.q} " +
            ("HOLDS" if report.verdict else "FAILS") + " (finite-field evidence)")
        for d, n, l, i in report.per_d:
            out(f"  dim {d}: {n} point(s), {l} layering class(es), {i} iso class(es)")
    return 0 if report.verdict else 1


COMMANDS = {
    "skeletons": cmd_skeletons,
    "chart": cmd_chart,
    "charts-all": cmd_charts_all,
    "layering": cmd_layering,
    "hom": cmd_hom,
    "invariant-check": cmd_invariant_check,
    "moduli-check": cmd_moduli_check,
    "orbit-dims": cmd_orbit_dims,
    "enumerate": cmd_enumerate,
    "cross-validate": cmd_cross_validate,
    "local-type": cmd_local_type,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="quivergrass",
        description="Affine charts and brute-force checks for Grassmannians of "
        "quotients of a projective cover with fixed top.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("problem", help="problem file, or - for stdin")
        p.add_argument("--top", help="comma-separated top vertices")
        p.add_argument("--dim", type=int, help="quotient dimension d")
        p.add_argument("--skeleton", help="comma-separated paths (e.g. e1,w,a*w)")
        p.add_argument("--skeleton2", help="second skeleton (hom)")
        p.add_argument("--point", default="", help="comma-separated chart coordinates")
        p.add_argument("--point2", default="", help="coordinates on --skeleton2")
        p.add_argument("--prune", action="store_true", help="drop degenerate skeletons")
        p.add_argument("--field", help="override the coefficient field (Q or F<p>)")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--budget", type=int, default=10 ** 6, help="enumeration budget")
        p.add_argument("-q", "--q", dest="q", type=int, default=2,
                       help="prime for finite-field checks")
    return parser


def main(argv=None, stdout=None):
    stdout = stdout or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)

    def out(line=""):
        print(line, file=stdout)

    try:
        if args.problem == "-":
            text = sys.stdin.read()
        else:
            with open(args.problem, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    try:
        pf = parse_problem(text)
        return COMMANDS[args.command](args, pf, out)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except QuivergrassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
