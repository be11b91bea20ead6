"""Helpers that only the tests use, kept out of the library.

`reduce_element_worklist` is the unmemoized rewriting, kept as the reference
for `ChartContext.reduce_element`; with `route_prune=False` it also rewrites
the paths that are not routes, the reference for the route pruning.
`index_of` finds a point of a scene.
"""

from typing import Dict, List, Optional, Tuple

from quivergrass import polynomials as poly
from quivergrass.charts import ChartContext
from quivergrass.oracle import OracleScene
from quivergrass.presentation import AlgElement, Path
from quivergrass.representations import SubmodulePoint
from quivergrass.skeletons import is_route


def reduce_element_worklist(ctx: ChartContext, z: AlgElement, rng=None, route_prune: bool = True):
    """Unmemoized worklist variant of `ctx.reduce_element`; the processing
    order may be shuffled.

    Used to check that the expansion does not depend on the order in which
    pending terms are rewritten.
    """
    f = ctx.field
    pending: List[Tuple[Path, dict]] = [
        (p, poly.const(ctx.nvars, f, c)) for p, c in z.terms.items()
    ]
    out: Dict[Path, dict] = {}
    while pending:
        idx = rng.randrange(len(pending)) if rng is not None else 0
        path, coeff = pending.pop(idx)
        if path.start not in ctx.sk.tops:
            continue
        if path in ctx.path_set:
            out[path] = poly.add(f, out.get(path, {}), coeff)
            continue
        if route_prune and not is_route(path, ctx.sk):
            continue
        k = ctx._longest_prefix_in(path)
        if k < 0:
            continue
        product = path.prefix(k).extended_by(path.arrows[k])
        tail = Path(product.end, path.arrows[k + 1 :])
        cp = ctx.pair_by_product.get(product)
        if cp is None:
            continue
        for q in cp.targets:
            vidx = ctx.var_index[(product, q)]
            pending.append((q.then(tail), poly.mul_variable(f, coeff, vidx)))
    return {q: c for q, c in out.items() if c}


def index_of(scene: OracleScene, point: SubmodulePoint) -> Optional[int]:
    """The index of a point among the scene's points, or None."""
    for i, p in enumerate(scene.points):
        if p.rows == point.rows:
            return i
    return None
