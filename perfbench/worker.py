"""One workload run in a fresh process: set up, run whole passes over the
job list until the time is up, and print the raw measurements as JSON.

    python3 perfbench/worker.py --workload crossval --seed 1 --seconds 30 --trace 0

`--setup-only` stops after set-up.  With `--trace 1` the first half of the
time runs untraced passes and the second half traced ones, so the tracing
overhead is measured in the same process, and the spans are written to
.perfbench/spans-<workload>-<seed>.tsv.  `--record` runs one pass and prints
each job's output digest.
"""

from time import perf_counter

_T0 = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

DIGESTS = os.path.join(HERE, "digests.json")


def reference_kernel():
    """A fixed piece of pure-Python work that does not use quivergrass: row
    reduction of a seeded 24 x 24 matrix mod 3.  Its time tracks the speed
    the machine gives this process at that moment."""
    rng = random.Random(0)
    pivots = {}
    for row in [[rng.randrange(3) for _ in range(24)] for _ in range(24)]:
        for col, prow in sorted(pivots.items()):
            if row[col]:
                f = row[col]
                row = [(x - f * y) % 3 for x, y in zip(row, prow)]
        lead = next((c for c, x in enumerate(row) if x), None)
        if lead is not None:
            inv = pow(row[lead], -1, 3)
            pivots[lead] = tuple(x * inv % 3 for x in row)
    return len(pivots)


def reference_s():
    """Seconds the reference kernel takes now: the smaller of two runs, so
    that a preemption in one of them does not count."""
    best = float("inf")
    for _ in range(2):
        t = perf_counter()
        reference_kernel()
        best = min(best, perf_counter() - t)
    return best


class Runner:
    """Runs passes over a job list, timing each job and checking its output
    against the recorded digest (or, for a job with no recorded digest,
    against its own first output in this run).  The reference kernel is
    timed just before each job, so that each job time can be scaled to a
    fixed machine speed."""

    def __init__(self, jobs, expected, tracer=None):
        self.jobs = jobs
        self.expected = dict(expected)
        self.tracer = tracer
        self.latencies = [[] for _ in jobs]
        self.refs = [[] for _ in jobs]
        self.attempted = 0
        self.failed = 0
        self.failures = []
        # chart contexts are cached per algebra for the life of the process,
        # and every job builds its own algebra, so memory grows pass by pass;
        # the peak over the first pass does not depend on the pass count
        self.first_pass_rss_mb = None

    def run_pass(self):
        """Returns the job time of the pass: its time less the reference
        runs and the checks."""
        start = perf_counter()
        overhead = 0.0
        for index, job in enumerate(self.jobs):
            if self.tracer:
                self.tracer.job = index
            c = perf_counter()
            self.refs[index].append(reference_s())
            overhead += perf_counter() - c
            t = perf_counter()
            try:
                out = job.run()
                error = None
            except Exception as exc:  # a job that raises counts as failed
                out, error = None, f"{type(exc).__name__}: {exc}"
            self.latencies[index].append(perf_counter() - t)
            c = perf_counter()
            self._settle(job, out, error)
            overhead += perf_counter() - c
        return perf_counter() - start - overhead

    def _settle(self, job, out, error):
        self.attempted += 1
        if error is None:
            active = self.tracer is not None and self.tracer.active
            if active:
                self.tracer.active = False
            try:
                ok, canon = job.check(out)
                got = workloads.digest(canon)
                want = self.expected.setdefault(job.label, got)
                if not ok:
                    error = "check failed"
                elif got != want:
                    error = f"digest {got} != {want}"
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
            finally:
                if active:
                    self.tracer.active = True
        if error is not None:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(f"{job.label}: {error}")

    def run_for(self, seconds):
        """Whole passes until `seconds` have gone; returns the pass times."""
        times = [self.run_pass()]
        if self.first_pass_rss_mb is None:
            self.first_pass_rss_mb = peak_rss_mb()
        while sum(times) < seconds:
            times.append(self.run_pass())
        return times


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)

    jobs = workloads.setup(args.workload, args.seed)
    setup_s = perf_counter() - _T0
    doc = {
        "setup_s": setup_s,
        "setup_ref_s": statistics.median(reference_s() for _ in range(5)),
        "jobs": len(jobs),
    }
    if args.setup_only:
        print(json.dumps(doc))
        return 0

    if args.record:
        runner = Runner(jobs, {})
        runner.run_pass()
        print(json.dumps({"failed": runner.failed, "digests": runner.expected}))
        return 0

    with open(DIGESTS, encoding="utf-8") as fh:
        expected = json.load(fh)[args.workload]
    if args.trace:
        tracer = tracing.Tracer()
        runner = Runner(jobs, expected, tracer)
        untraced = runner.run_for(args.seconds / 2)
        tracer.install()
        tracer.active = True
        traced = runner.run_for(args.seconds / 2)
        tracer.active = False
        tracer.uninstall()
        doc["untraced_pass_s"] = untraced
        doc["pass_s"] = traced
        doc["layers"] = {
            name: total for name, total in zip(tracer.names, tracer.totals)
        }
        doc["job_layers"] = {
            jobs[j].label: {n: s for n, s in zip(tracer.names, per) if s}
            for j, per in tracer.job_self.items()
        }
        out_dir = os.path.join(os.path.dirname(HERE), ".perfbench")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write_spans(os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.tsv"))
    else:
        runner = Runner(jobs, expected)
        doc["pass_s"] = runner.run_for(args.seconds)
    doc.update(
        latencies=runner.latencies,
        refs=runner.refs,
        labels=[job.label for job in jobs],
        attempted=runner.attempted,
        failed=runner.failed,
        failures=runner.failures,
        peak_rss_mb=runner.first_pass_rss_mb,
    )
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
