"""The quivergrass benchmark.

    python3 perfbench/run.py --workload crossval --seed 1 --seconds 30 --trace 0

Runs one workload (crossval, classify or charts_q, see workloads.py) as a
closed loop with one client: one process, one thread, running the job list
back to back in whole passes for the given time.  Every job's answer is
checked.  The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it give the
job-list size, the tail percentile, the failures, and the Python version,
CPU and core count.

Times are scaled to a fixed machine speed.  The worker times a fixed
pure-Python reference kernel just before every job (and after set-up), and
each time t is reported as t * REF_BASE_S / (reference time next to it).  On
a shared machine whose speed drifts by a third within minutes, this keeps
runs of the same code within a few percent of each other; the unscaled
figures are printed on a line of their own.

With --trace 0 the metrics are the end-to-end ones:
  setup_s      median over fresh processes of the time from the worker's
               first statement to its first job (import quivergrass, parse
               the problem files, generate the seeded presentations)
  jobs_per_s   jobs completed per second of job time
  job_p50_ms   median over the job list of each job's mean latency
  job_tail_ms  the per-job mean latency with ten jobs of the list beyond it
  peak_rss_mb  peak resident memory of the process running the workload
  ok_share     jobs whose checks passed / jobs attempted (1 - failed_share)
With --trace 1 they are the per-layer ones, `<module>.<callable>.<measure>`,
per pass over the job list (times unscaled), from a run whose second half
is traced; its spans are written to .perfbench/ at the checkout root.

`python3 perfbench/run.py --record-digests` rewrites perfbench/digests.json,
the expected output digest of every job of the default seed.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
# the same names as workloads.WORKLOADS; run.py imports nothing from the
# library, so it can refuse a checkout without one before starting a worker
WORKLOADS = ("crossval", "classify", "charts_q")
DEFAULT_SEED = 1
SETUP_PROBES = 2  # extra fresh processes that only set up, for setup_s
DEADLINE_S = 170.0
TAIL_BEYOND = 10
# median time of the reference kernel (worker.reference_kernel) on the
# machine of baseline.json; times are scaled to this machine speed
REF_BASE_S = 1.17e-3

# per-layer metric -> (traced callable, measure)
LAYER_METRICS = {}
for _callable, _measures in (
    ("linalg.Echelon.add", ("calls", "self_s", "accept_ratio")),
    ("linalg.Echelon.contains", ("calls", "self_s")),
    ("linalg.Expander.add", ("self_s",)),
    ("linalg.Expander.express", ("self_s",)),
    ("charts.has_skeleton", ("calls", "self_s", "true_ratio")),
    ("charts.submodule_from_point", ("self_s",)),
    ("charts.point_from_submodule", ("self_s",)),
    ("charts.chart_ideal", ("calls", "self_s")),
    ("skeletons.enumerate_skeletons", ("self_s", "out")),
    ("skeletons.compatible", ("calls", "pass_ratio")),
    ("skeletons.critical_pairs", ("self_s",)),
    ("oracle.enumerate_points", ("self_s", "points_out")),
    ("oracle.chart_solutions", ("self_s", "hit_ratio")),
    ("oracle.cross_validate_chart", ("self_s",)),
    ("oracle.orbits", ("self_s",)),
    ("oracle.iso_classes", ("self_s",)),
    ("representations.hom_basis", ("calls", "self_s")),
    ("representations.quotient_rep", ("self_s",)),
    ("representations.radical_layering", ("self_s",)),
    ("moduli.is_fully_invariant", ("self_s",)),
    ("moduli.orbit_dim", ("self_s",)),
    ("moduli.top_multiplicity_criterion", ("self_s",)),
    ("presentation.build_algebra", ("calls", "self_s")),
    ("cli.main", ("self_s",)),
):
    for _m in _measures:
        LAYER_METRICS[f"{_callable}.{_m}"] = (_callable, _m)

UNITS = {"calls": "count", "self_s": "s", "out": "count", "points_out": "count"}


def worker(args, timeout):
    proc = subprocess.run(
        [sys.executable, WORKER] + args,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def per_job_means(doc, scaled=True):
    """Each job's mean latency, each run of it scaled to the machine speed
    of REF_BASE_S by the reference kernel timed just before it."""
    # on a shared machine the CPU speed can switch between levels every few
    # seconds and drift over minutes; a job's median flips between levels as
    # their mix changes, while its mean moves smoothly with the mix
    return [
        statistics.mean(t * REF_BASE_S / ref if scaled else t for t, ref in zip(lat, refs))
        for lat, refs in zip(doc["latencies"], doc["refs"])
    ]


def tail(values):
    """(value, percentile) with TAIL_BEYOND values beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(doc, setups):
    means = per_job_means(doc)
    tail_s, _ = tail(means)
    return {
        "setup_s": (statistics.median(t * REF_BASE_S / ref for t, ref in setups), "s"),
        "jobs_per_s": (len(means) / sum(means), "1/s"),
        "job_p50_ms": (1000 * statistics.median(means), "ms"),
        "job_tail_ms": (1000 * tail_s, "ms"),
        "peak_rss_mb": (doc["peak_rss_mb"], "MB"),
        "ok_share": ((doc["attempted"] - doc["failed"]) / doc["attempted"], "ratio"),
    }


def per_layer(doc):
    passes = len(doc["pass_s"])
    out = {}
    for name, (target, measure) in LAYER_METRICS.items():
        calls, self_s, outcomes, attempts = doc["layers"][target]
        per_pass = {"calls": calls, "self_s": self_s, "out": outcomes, "points_out": outcomes}
        if measure in per_pass:
            value = per_pass[measure] / passes
        else:  # a ratio of useful outcomes to attempts, by default calls
            base = attempts if target == "oracle.chart_solutions" else calls
            value = outcomes / base if base else 0.0
        out[name] = (value, UNITS.get(measure, "ratio"))
    # scaled pass totals; the first passes of the run are the untraced ones
    totals = [
        sum(lat[p] * REF_BASE_S / refs[p] for lat, refs in zip(doc["latencies"], doc["refs"]))
        for p in range(len(doc["latencies"][0]))
    ]
    untraced = len(doc["untraced_pass_s"])
    out["trace.overhead_ratio"] = (
        statistics.mean(totals[untraced:]) / statistics.mean(totals[:untraced]) - 1,
        "ratio",
    )
    return out


def self_time_table(doc):
    passes = len(doc["pass_s"])
    pass_s = statistics.mean(doc["pass_s"])
    rows = sorted(doc["layers"].items(), key=lambda kv: -kv[1][1])
    lines = [f"{'layer':40s} {'calls/pass':>12s} {'self s/pass':>12s} {'share':>7s}"]
    for name, (calls, self_s, _, _) in rows:
        if calls:
            lines.append(
                f"{name:40s} {calls / passes:12.0f} {self_s / passes:12.4f} "
                f"{100 * self_s / passes / pass_s:6.1f}%"
            )
    return lines


def slowest_jobs_table(doc, count=6, top=3):
    """The layers taking most self time in each of the slowest traced jobs."""
    passes = len(doc["pass_s"])
    jobs = sorted(doc["job_layers"].items(), key=lambda kv: -sum(kv[1].values()))
    lines = [f"slowest jobs, top {top} layers by self time:"]
    for label, layers in jobs[:count]:
        total = sum(layers.values())
        parts = sorted(layers.items(), key=lambda kv: -kv[1])[:top]
        shares = ", ".join(f"{name} {100 * s / total:.0f}%" for name, s in parts)
        lines.append(f"  {label:28s} {total / passes:8.3f} s  {shares}")
    return lines


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def record_digests():
    table = {"seed": DEFAULT_SEED}
    for name in WORKLOADS:
        doc = worker(["--workload", name, "--seed", str(DEFAULT_SEED), "--record"], DEADLINE_S)
        if doc["failed"]:
            raise RuntimeError(f"{name}: {doc['failed']} job(s) failed their checks")
        table[name] = doc["digests"]
    with open(os.path.join(HERE, "digests.json"), "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "quivergrass", "__init__.py")):
        sys.stderr.write(f"no quivergrass sources under {ROOT}/src\n")
        return 2
    if args.record_digests:
        return record_digests()
    if args.workload is None:
        ap.error("--workload is required")

    start = time.monotonic()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    for _ in range(0 if args.trace else SETUP_PROBES):
        probe = worker(common + ["--setup-only"], DEADLINE_S)
        setups.append((probe["setup_s"], probe["setup_ref_s"]))
    run_args = common + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    doc = worker(run_args, DEADLINE_S - (time.monotonic() - start))
    setups.append((doc["setup_s"], doc["setup_ref_s"]))

    _, percentile = tail(per_job_means(doc))
    passes = len(doc["pass_s"])
    print(
        f"workload {args.workload} seed {args.seed}: {doc['jobs']} jobs per pass, "
        f"{passes} pass(es), {passes * doc['jobs']} jobs in {sum(doc['pass_s']):.2f} s"
    )
    print(
        f"python {platform.python_version()}, cpu {cpu_model()}, "
        f"nproc {len(os.sched_getaffinity(0))}"
    )
    print(
        f"job_tail_ms is the p{percentile:.1f} of the {doc['jobs']} per-job mean latencies, "
        f"each over {len(doc['latencies'][0])} run(s) of the job"
    )
    raw = per_job_means(doc, scaled=False)
    refs = [ref for job_refs in doc["refs"] for ref in job_refs]
    print(
        f"reference kernel median {1000 * statistics.median(refs):.3f} ms "
        f"(scaled to {1000 * REF_BASE_S:.3f} ms); unscaled: jobs_per_s {len(raw) / sum(raw):.3f}, "
        f"job_p50_ms {1000 * statistics.median(raw):.3f}, job_tail_ms {1000 * tail(raw)[0]:.3f}"
    )
    print(f"failed_share {doc['failed'] / doc['attempted']:.6f} ({doc['failed']}/{doc['attempted']})")
    for failure in doc["failures"]:
        print(f"  FAILED {failure}")
    if args.trace:
        print("\n".join(self_time_table(doc) + slowest_jobs_table(doc)))
        metrics = per_layer(doc)
    else:
        metrics = end_to_end(doc, setups)
    result = {
        "correct": doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
