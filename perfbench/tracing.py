"""Outside-in tracing: timing wrappers around the public callables of each
quivergrass layer, installed from the benchmark without editing the library.

A wrapped call records a span (name, start, end, parent span, job id) and
adds to its name's aggregates: calls, self time (span time minus the time
its child spans cover) and a count read from the call's arguments or return
value, from which the per-layer ratios are formed.  `fields` and
`polynomials` are not wrapped: their calls are too fine-grained, and their
cost shows in the self time of their callers.  Calls into `linalg` are
counted and timed but not logged as spans: they are nine in ten of all
traced calls, and logging them would take tens of MB per run.
"""

import sys
from array import array
from time import perf_counter

from quivergrass import charts


def _true(args, result):
    return 1 if result else 0


def _length(args, result):
    return len(result)


def _points(args, result):
    return len(result.points)


def _tuples_scanned(args):
    alg, sk = args[0], args[1]
    return alg.field.char ** charts.chart_context(alg, sk).nvars


# (module, callable, count of useful outcomes, count of attempts for the
# ratio's base when it is not the number of calls)
TARGETS = (
    ("linalg", "Echelon.add", _true, None),
    ("linalg", "Echelon.contains", None, None),
    ("linalg", "Expander.add", None, None),
    ("linalg", "Expander.express", None, None),
    ("charts", "has_skeleton", _true, None),
    ("charts", "submodule_from_point", None, None),
    ("charts", "point_from_submodule", None, None),
    ("charts", "chart_ideal", None, None),
    ("skeletons", "enumerate_skeletons", _length, None),
    ("skeletons", "compatible", _true, None),
    ("skeletons", "critical_pairs", None, None),
    ("oracle", "enumerate_points", _points, None),
    ("oracle", "chart_solutions", _length, _tuples_scanned),
    ("oracle", "cross_validate_chart", None, None),
    ("oracle", "orbits", None, None),
    ("oracle", "iso_classes", None, None),
    ("representations", "hom_basis", None, None),
    ("representations", "quotient_rep", None, None),
    ("representations", "radical_layering", None, None),
    ("moduli", "is_fully_invariant", None, None),
    ("moduli", "orbit_dim", None, None),
    ("moduli", "top_multiplicity_criterion", None, None),
    ("presentation", "build_algebra", None, None),
    ("cli", "main", None, None),
)


class Tracer:
    """Span recorder.  Spans are kept in compact arrays in memory; they are
    recorded only while `active` is set, and `job` tags each span."""

    def __init__(self):
        self.active = False
        self.job = -1
        self.names = [f"{mod}.{attr}" for mod, attr, _, _ in TARGETS]
        # per name: [calls, self seconds, outcome count, attempt count]
        self.totals = [[0, 0.0, 0, 0] for _ in TARGETS]
        # per job id: self seconds per name
        self.job_self = {}
        self.span_id = array("l")
        self.span_name = array("i")
        self.span_parent = array("l")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []  # [span id, child seconds] per open span
        self._next_id = 0
        self._undo = []

    def install(self):
        """Replace each target in its defining module and in every
        quivergrass module namespace that imported it by name."""
        for index, (mod, attr, outcome, attempts) in enumerate(TARGETS):
            module = sys.modules[f"quivergrass.{mod}"]
            log = mod != "linalg"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, meth, self._wrap(index, vars(cls)[meth], outcome, attempts, log))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(index, original, outcome, attempts, log)
            for name, ns in list(sys.modules.items()):
                if name.split(".")[0] == "quivergrass" and getattr(ns, attr, None) is original:
                    self._patch(ns, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, index, fn, outcome, attempts, log):
        tracer = self
        total = self.totals[index]

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                span = end - start
                if stack:
                    stack[-1][1] += span
                total[0] += 1
                total[1] += span - frame[1]
                by_job = tracer.job_self.get(tracer.job)
                if by_job is None:
                    by_job = tracer.job_self[tracer.job] = [0.0] * len(TARGETS)
                by_job[index] += span - frame[1]
                if log:
                    tracer.span_id.append(span_id)
                    tracer.span_name.append(index)
                    tracer.span_parent.append(parent)
                    tracer.span_job.append(tracer.job)
                    tracer.span_start.append(start)
                    tracer.span_end.append(end)
            if outcome is not None:
                total[2] += outcome(args, result)
            if attempts is not None:
                total[3] += attempts(args)
            return result

        traced.__wrapped__ = fn
        return traced

    def write_spans(self, path):
        """Write the spans as tab-separated lines: id, name, parent, job,
        start, end (seconds on the performance counter)."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in sorted(range(len(self.span_id)), key=self.span_start.__getitem__):
                fh.write(
                    f"{self.span_id[i]}\t{self.names[self.span_name[i]]}\t{self.span_parent[i]}\t"
                    f"{self.span_job[i]}\t{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n"
                )
