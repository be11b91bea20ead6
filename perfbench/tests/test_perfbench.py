"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from quivergrass import cli  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SETUPS = [(0.2, run.REF_BASE_S)]


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def fake_doc(n_jobs=12, passes=3):
    return {
        "setup_s": 0.2,
        "jobs": n_jobs,
        "pass_s": [0.1 * n_jobs] * passes,
        "untraced_pass_s": [0.08 * n_jobs] * passes,
        # a traced run times every job in its untraced and its traced passes
        "latencies": [[0.01 * (j + 1)] * 2 * passes for j in range(n_jobs)],
        "refs": [[run.REF_BASE_S] * 2 * passes for _ in range(n_jobs)],
        "attempted": n_jobs * passes,
        "failed": 0,
        "peak_rss_mb": 30.0,
        "layers": {name: [10, 0.5, 5, 20] for name in tracing.Tracer().names},
    }


def test_metric_names_are_well_formed():
    names = list(run.end_to_end(fake_doc(), SETUPS)) + list(run.per_layer(fake_doc()))
    assert names and all(NAME.fullmatch(n) and len(n) <= 64 for n in names)


def test_metric_key_sets_match_benchmark_json():
    spec = benchmark_json()
    assert set(run.end_to_end(fake_doc(), SETUPS)) == {m["name"] for m in spec["end_to_end"]}
    assert set(run.per_layer(fake_doc())) == {m["name"] for m in spec["per_layer"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, (_, unit) in {**run.end_to_end(fake_doc(), SETUPS), **run.per_layer(fake_doc())}.items():
        assert units[name] == unit
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS


def test_tracer_wraps_every_target_and_restores_it():
    from quivergrass import linalg, oracle

    original = linalg.Echelon.add
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = {attr for _, attr, _ in tracer._undo}
        assert {attr.split(".")[-1] for _, attr, _, _ in tracing.TARGETS} <= patched
        # a callable imported by name is wrapped where it was imported too
        assert hasattr(oracle.has_skeleton, "__wrapped__")
    finally:
        tracer.uninstall()
    assert linalg.Echelon.add is original
    assert not hasattr(oracle.has_skeleton, "__wrapped__")


def test_times_are_scaled_by_the_reference_next_to_them():
    doc = fake_doc()
    doc["refs"][0] = [2 * run.REF_BASE_S] * 6  # job 0 ran at half speed
    assert run.per_job_means(doc)[0] == doc["latencies"][0][0] / 2
    assert run.per_job_means(doc, scaled=False)[0] == doc["latencies"][0][0]
    assert run.end_to_end(doc, [(0.4, 2 * run.REF_BASE_S)])["setup_s"][0] == 0.2


def test_overhead_ratio_compares_traced_with_untraced_passes():
    doc = fake_doc()
    for lat in doc["latencies"]:
        lat[3:] = [x * 1.5 for x in lat[3:]]
    assert abs(run.per_layer(doc)["trace.overhead_ratio"][0] - 0.5) < 1e-9


def test_tail_leaves_ten_values_beyond():
    value, percentile = run.tail(list(range(40)))
    assert value == 29 and sum(v > value for v in range(40)) == 10
    assert percentile == 75.0


def _small_jobs(name):
    return [j for j in workloads.setup(name, 3) if "/d2" in j.label][:3]


def test_corrupted_result_counts_as_failed():
    job = _small_jobs("crossval")[0]
    good = worker.Runner([job], {})
    good.run_pass()
    assert good.failed == 0

    def corrupted():
        scene, reports = job.run()
        return scene, reports[1:] + reports[:1] if len(reports) > 1 else []

    bad_job = workloads.Job(job.label, corrupted, job.check)
    bad = worker.Runner([bad_job], good.expected)
    bad.run_pass()
    assert bad.failed == 1 and bad.attempted == 1

    doc = fake_doc()
    doc.update(attempted=bad.attempted, failed=bad.failed)
    assert run.end_to_end(doc, SETUPS)["ok_share"][0] < 1


def test_failed_check_and_exception_do_not_abort_the_pass():
    job = _small_jobs("classify")[0]

    def raises():
        raise RuntimeError("boom")

    def wrong_orbits():
        scene, orbs, iso, per_point = job.run()
        return scene, orbs, iso, [(not a, b, c) for a, b, c in per_point]

    jobs = [
        workloads.Job("raises", raises, job.check),
        workloads.Job("wrong", wrong_orbits, job.check),
        job,
    ]
    runner = worker.Runner(jobs, {})
    runner.run_pass()
    assert runner.attempted == 3 and runner.failed == 2
    assert len(runner.latencies[2]) == 1


def test_charts_q_checks_round_trips_and_output():
    job = workloads.setup("charts_q", 3)[2]
    runner = worker.Runner([job], {})
    runner.run_pass()
    assert runner.failed == 0

    def swapped():
        rc, text = job.run()
        doc = json.loads(text)
        doc["charts"] = doc["charts"][::-1]
        return rc, json.dumps(doc, indent=2, sort_keys=True)

    runner.jobs = [workloads.Job(job.label, swapped, job.check)]
    runner.run_pass()
    assert runner.failed == 1 and runner.attempted == 2


def test_generator_is_deterministic_per_seed():
    family = workloads.SMALL
    first = inputs.random_problems(5, 2, family)
    assert first == inputs.random_problems(5, 2, family)
    assert first != inputs.random_problems(6, 2, family)
    for text, tops in first:
        pf = cli.parse_problem(text)
        assert pf.tops == tops
        for tag in family.fields:
            assert inputs.shape(pf.algebra(tag), tops[0]) == family.shape


def test_job_lists_are_deterministic_per_seed():
    for name in workloads.WORKLOADS:
        assert [j.label for j in workloads.setup(name, 4)] == [
            j.label for j in workloads.setup(name, 4)
        ]


def test_digests_cover_the_default_seed():
    with open(worker.DIGESTS, encoding="utf-8") as fh:
        table = json.load(fh)
    assert table["seed"] == run.DEFAULT_SEED
    for name in workloads.WORKLOADS:
        labels = [j.label for j in workloads.setup(name, run.DEFAULT_SEED)]
        assert sorted(labels) == sorted(table[name])
