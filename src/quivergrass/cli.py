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
InputError: exit code 2 with a one-line message.  Output into a pipe whose
reader has left (`| head`) ends the command quietly with exit code 1.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from dataclasses import dataclass
from itertools import groupby
from json.encoder import encode_basestring_ascii
from typing import Dict, List, Optional, Tuple

from . import polynomials as poly
from .charts import chart_context, chart_ideal, submodule_from_point
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
    is_fully_invariant,
    orbit_dim,
    top_multiplicity_criterion,
    unipotent_orbit_dim,
)
from .oracle import (
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
from .representations import (
    ProjectiveCover,
    SubmodulePoint,
    hom_from_quotient,
    radical_layering,
)
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
        return build_algebra(self.quiver, rels, self.loewy, field)


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


# an exact coefficient: of a relation term, and a --point coordinate
_COEFF = r"-?\d+(?:/\d+)?"
_COEFF_RE = re.compile(_COEFF)
_TERM_RE = re.compile(rf"^(?:({_COEFF})\s*\*\s*)?([A-Za-z_][A-Za-z_0-9]*(?:\s*(?:\*|\^)\s*[A-Za-z_0-9]+)*)$")


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
    out: Dict[Path, object] = {}
    for sgn, term in terms:
        m = _TERM_RE.match(term)
        if not m:
            raise ParseError(f"bad term {term!r}", lineno)
        try:
            coeff = QQ.coerce(m.group(1) or 1)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad coefficient {_shown(m.group(1))}", lineno)
        start, runs = _path_runs(m.group(2).replace(" ", ""), quiver, lineno, None)
        if sum(n for _, n in runs) > loewy + 1:
            merged = tuple((a.name, sum(n for _, n in g)) for a, g in groupby(runs, lambda r: r[0]))
            path = LongPath(start, merged)
        else:
            path = _expanded(start, runs)
        out[path] = QQ.add(out.get(path, QQ.zero), sgn * coeff)
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
                raise ParseError(f"dim must be a non-negative integer, got {_shown(rest)}", lineno)
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
    toks = [tok.strip() for tok in text.split(",")] if text else []
    try:
        if not all(_COEFF_RE.fullmatch(tok) for tok in toks):
            raise ValueError("not a coefficient")
        coords = [field.coerce(QQ.coerce(tok)) for tok in toks]
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


def _skeleton_from(args, alg, tops, suffix="", missing=None):
    """The skeleton given by --skeleton<suffix>; `missing` is the message
    when it is absent."""
    text = getattr(args, "skeleton" + suffix)
    if not text:
        raise SemanticError(missing or "this command needs --skeleton")
    return _parse_skeleton(alg, tops, text, "--skeleton" + suffix)


def _layering_json(s):
    return [list(layer) for layer in s.layers]


def _json_chunks(value, newline, chunks):
    """Append the JSON text of value to chunks, as json.dumps writes it with
    indent=2 and sort_keys=True; newline is the line break and indentation
    of value's own line.  The JSON values here are the types the documents
    are built from: dicts with str keys, lists, tuples, str, int, bool and
    None.  Anything else, a float, a Fraction or a subclass of one of these
    types included, raises TypeError.  A str item of a dict or list, the
    most common, is written in place."""
    kind = type(value)
    if kind is dict:
        if not value:
            chunks.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        # encode_basestring_ascii raises TypeError on a key that is no str
        for k in sorted(value):
            item = value[k]
            if type(item) is str:
                chunks.append(f"{sep}{encode_basestring_ascii(k)}: {encode_basestring_ascii(item)}")
            else:
                chunks.append(f"{sep}{encode_basestring_ascii(k)}: ")
                _json_chunks(item, inner, chunks)
            sep = "," + inner
        chunks.append(newline + "}")
    elif kind is list or kind is tuple:
        if not value:
            chunks.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            if type(item) is str:
                chunks.append(sep + encode_basestring_ascii(item))
            else:
                chunks.append(sep)
                _json_chunks(item, inner, chunks)
            sep = "," + inner
        chunks.append(newline + "]")
    elif kind is str:
        chunks.append(encode_basestring_ascii(value))
    elif kind is int:
        chunks.append(int.__repr__(value))
    elif value is None:
        chunks.append("null")
    elif kind is bool:
        chunks.append("true" if value else "false")
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _json_text(value) -> str:
    """json.dumps(value, indent=2, sort_keys=True) for the JSON values of
    `_json_chunks`, without the pure-Python encoder that indent forces."""
    chunks = []
    _json_chunks(value, "\n", chunks)
    return "".join(chunks)


def _print_json(args, out, doc):
    """A quivergrass/1 document: doc under the schema and command keys,
    written indented and key-sorted by `_json_text`."""
    out(_json_text({"schema": SCHEMA_VERSION, "command": args.command, **doc}))


def _scene(args, alg, tops, d):
    """Every point over the command's finite field, within --budget."""
    if alg.field.char == 0:
        raise SemanticError(f"{args.command} needs a finite field (--field F<p>)")
    return enumerate_points(alg, tops, d, args.budget)


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


class _Rendered(dict):
    """Path -> Path.render(), filled on first lookup: the charts of one
    document share most of their paths."""

    def __missing__(self, path):
        text = self[path] = path.render()
        return text


def _chart_json(alg, sk, rendered):
    """One chart as a JSON object; rendered is the document's _Rendered."""
    ideal = chart_ideal(alg, sk)
    names = chart_context(alg, sk).var_names()
    return {
        "skeleton": [rendered[p] for p in sk.paths],
        "variables": [
            {"name": name, "product": rendered[v.product], "target": rendered[v.target]}
            for name, v in zip(names, ideal.variables)
        ],
        "polynomials": [poly.render(dict(p), names) for p in ideal.polynomials],
    }


def _chart_lines(alg, sk, out):
    doc = _chart_json(alg, sk, _Rendered())
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
        _print_json(args, out, _chart_json(alg, sk, _Rendered()))
    else:
        _chart_lines(alg, sk, out)
    return 0


def cmd_charts_all(args, pf, out):
    alg = pf.algebra(args.field)
    tops = _tops_from(args, pf)
    d = _dim_from(args, pf)
    sks = enumerate_skeletons(alg, tops, d, prune=args.prune)
    if args.json:
        rendered = _Rendered()
        charts = [_chart_json(alg, sk, rendered) for sk in sks]
        _print_json(args, out, {"top": list(tops), "dim": d, "charts": charts})
    else:
        for sk in sks:
            _chart_lines(alg, sk, out)
    return 0


def cmd_layering(args, pf, out):
    alg = pf.algebra(args.field)
    tops = _tops_from(args, pf)
    if args.skeleton:
        sk, pt, point = _module_from_args(args, alg, tops)
        label = f"module at [{', '.join(str(c) for c in pt)}] on {sk.render()}"
    else:
        cover = ProjectiveCover(alg, tops)
        if not cover.squarefree:
            raise TopNotSquarefreeError(f"repeated top vertex in {tops}")
        point = SubmodulePoint(cover, ())
        label = f"projective cover of top {list(tops)} (dim {cover.dim}, radical dim {cover.dim - len(cover.slots)})"
    lay = radical_layering(point)
    if args.json:
        _print_json(args, out, {
            "module": label, "dims": list(lay.totals_per_vertex()), "layering": _layering_json(lay),
        })
    else:
        out(label)
        out("radical layering: " + lay.render(alg.quiver.vertices))
    return 0


def _module_from_args(args, alg, tops, suffix="", missing=None):
    """The submodule C of JP at a chart point given by --skeleton<suffix>
    and --point<suffix>; its module is P/C."""
    sk = _skeleton_from(args, alg, tops, suffix, missing)
    ideal = chart_ideal(alg, sk)
    pt = _parse_point(getattr(args, "point" + suffix), ideal.nvars, alg.field, "--point" + suffix)
    return sk, pt, submodule_from_point(alg, sk, pt)


def cmd_hom(args, pf, out):
    alg = pf.algebra(args.field)
    tops = _tops_from(args, pf)
    sk, pt, c_m = _module_from_args(args, alg, tops, missing="hom needs --skeleton (and optionally --skeleton2)")
    if args.skeleton2:
        sk2, pt2, c_n = _module_from_args(args, alg, tops, "2")
        label = "Hom(M, N)"
    else:
        sk2, pt2, c_n = sk, pt, c_m
        label = "End(M)"
    dim = len(hom_from_quotient(c_m, c_n))
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
    _, _, point = _module_from_args(args, alg, tops)
    inv = is_fully_invariant(alg, point)
    orbit, unipotent = point.orbit_ranks
    count = top_multiplicity_criterion(alg, point)
    witness = None if inv.holds else inv.witness_path.render()
    if args.json:
        _print_json(args, out, {
            "fully_invariant": inv.holds,
            "orbit_dim": orbit,
            "unipotent_orbit_dim": unipotent,
            "count_criterion": count,
            "witness": witness,
        })
    else:
        out(f"submodule: {point!r}")
        out(f"fully invariant: {inv.holds}")
        if witness:
            out(f"witness: right multiplication by {witness}")
        out(f"orbit dimension: {orbit}")
        out(f"unipotent orbit dimension: {unipotent}")
        out(f"count criterion: {count}")
    return 0 if inv.holds else 1


def _simple_top(args, alg, tops):
    """The vertex of a simple top, for a check run over F_q with q given by
    -q; a top of several vertices, or a field of another characteristic, is
    refused with the command's name."""
    if len(tops) != 1:
        raise SemanticError(f"{args.command} needs a simple top (one vertex)")
    if alg.field.char not in (0, args.q):
        # the check runs over F_q, and F_p coefficients do not move there
        raise SemanticError(f"{args.command} over {alg.field.tag} needs -q {alg.field.char}")
    return tops[0]


def cmd_moduli_check(args, pf, out):
    alg = pf.algebra(args.field)
    top = _simple_top(args, alg, _tops_from(args, pf))
    rep = simple_top_moduli_criterion(alg, top, prime=args.q, budget=args.budget)
    if args.json:
        _print_json(args, out, {
            "top": top,
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
        for i, (pt, lay) in enumerate(zip(scene.points, scene.layerings))
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
            "layerings": [_layering_json(s) for s in scene.layerings],
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
    alg = pf.algebra()
    top = _simple_top(args, alg, _tops_from(args, pf))
    report = finite_local_type_check(alg, top, args.q, args.budget)
    if args.json:
        _print_json(args, out, {
            "top": top,
            "q": args.q,
            "verdict": report.verdict,
            "provenance": report.provenance,
            "per_dim": [
                {"dim": d, "points": n, "layering_classes": l, "iso_classes": i}
                for d, n, l, i in report.per_d
            ],
        })
    else:
        out(f"finite local type at vertex {top} over F{args.q} " +
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
    whose partner is missing, are refused with an InputError naming them.
    A point list that starts with a negative coordinate, such as -1,2, is
    joined to its flag, since argparse would read it as a flag."""
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 2, -1, -1):
        if argv[i] in ("--point", "--point2") and re.match(r"-[\d.]", argv[i + 1]):
            argv[i:i + 2] = [f"{argv[i]}={argv[i + 1]}"]
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
        code = COMMANDS[args.command][0](args, parse_problem(text), out)
        stdout.flush()
        return code
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except QuivergrassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader left (`| head`); silence the flush at interpreter exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
