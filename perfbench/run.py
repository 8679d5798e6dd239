"""lexevo benchmark: four seeded workloads with checked outputs.

    python3 perfbench/run.py --workload nbcp --seed 1 --seconds 15 --trace 0

Run from the root of a lexevo checkout; the package is imported from its
``src`` directory.  The inputs are generated from ``--seed`` in a child
process, then the workload repeats for ``--seconds`` seconds, one
iteration at a time, in this process.  An iteration is a set-up step
(loading the inputs) and a job.  Every iteration's outputs are checked
against the generator's ground truth.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics: means over the iterations, with every time put on
the scale of the reference kernel in reference.py, which runs between the
iterations and measures how fast the shared host is at the moment.  With
``--trace 1`` untraced and traced iterations alternate, and the JSON
object holds the per-layer metrics.  The exit code is 0 when every operation and check
passed, 1 when one failed, and 2 when the checkout has no lexevo
sources.  See perfbench/README.md for the workloads and metrics.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types

from reference import Reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")

WORKLOADS = ("nbcp", "ingest", "experiments", "staged")
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "total_s": "s",
    "rows_per_s": "rows/s",
    "peak_rss_mb": "MiB",
}
MIN_ITERATIONS = 3
SWEEP_CYCLES = (30, 40, 50, 60)
# The planted winner signal lets the model reach far above the random
# baseline; a working pipeline clears both floors on every seed.
F_FLOOR_PCT = 50.0
F_MARGIN_PCT = 20.0


class OpFailed(Exception):
    """An operation of the workload raised or returned a failure."""


class Ops:
    """Counts operations attempted and failed, checks included."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def call(self, what, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.failed += 1
            self.failures.append(f"{what}: {type(exc).__name__}: {exc}")
            raise OpFailed(what) from exc

    def check(self, what, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"check failed: {what} {detail}".rstrip())
        return ok

    def check_equal(self, what, got, want):
        return self.check(what, got == want, f"(got {got!r}, want {want!r})")


def digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()


class Workload:
    """One workload: a set-up step, a job, and the checks on their outputs."""

    # Untraced iterations time the set-up this many times, so that a set-up
    # much shorter than the job still gets enough samples for its mean.
    setup_repeats = 1

    def __init__(self, lx, truth, inputs_dir, out_dir, ops):
        self.lx = lx  # namespace of lexevo modules
        self.truth = truth
        self.ops = ops
        self.out_dir = out_dir
        self.corpus = [os.path.join(inputs_dir, name) for name in truth["corpus"]]
        self.lexicon = os.path.join(inputs_dir, truth["lexicon"])
        self.catvar = os.path.join(inputs_dir, truth["catvar"])
        self.f_score_pct = None
        self.random_f_pct = None
        self.saturated = None

    def prepare(self):
        """Untimed work before an iteration."""

    def setup(self):
        return self.ops.call("load_pipeline_inputs",
                             self.lx.experiments.load_pipeline_inputs,
                             self.corpus, self.lexicon, self.catvar)

    def check_load(self, loaded):
        inputs, _, report = loaded
        t = self.truth
        self.ops.check_equal("rows_kept", report.rows_kept, t["rows_kept"])
        self.ops.check_equal("rows_filtered", report.rows_filtered, t["rows_filtered"])
        self.ops.check_equal("rows_skipped", report.rows_skipped, t["rows_skipped"])
        self.ops.check_equal("corpus keys", len(inputs.corpus), t["keys"])
        self.ops.check_equal("eligible synsets", len(inputs.synsets), t["eligible_synsets"])
        return report.rows_kept + report.rows_filtered + report.rows_skipped

    def check_summary(self, summary):
        """A dataset summary against the expected window."""
        label = "_".join(str(y) for y in summary["window"])
        want = self.truth["windows"][label]
        self.ops.check_equal(f"{label} snapshots", summary["synsets"], want["snapshots"])
        self.ops.check_equal(f"{label} words", summary["words"], want["words"])
        removals = {"dead_word": 0, "tie": 0}
        removals.update(summary["removals"])
        self.ops.check_equal(f"{label} removals", removals, want["removals"])

    def check_f(self, f_pct, random_pct):
        self.f_score_pct = f_pct
        self.random_f_pct = random_pct
        self.ops.check("f_score floor", f_pct >= F_FLOOR_PCT
                       and f_pct >= random_pct + F_MARGIN_PCT,
                       f"(F {f_pct:.1f}% against random {random_pct:.1f}%)")

    def last_window_pair(self):
        return self.lx.dataset.schedule_windows(50)[-1]

    def after(self):
        """Checks and counts made once per run, after the timed iterations."""


class Nbcp(Workload):
    """load_pipeline_inputs, then one run_nbcp on the last cycle-50 pair."""

    def job(self, loaded):
        train, test = self.last_window_pair()
        return self.ops.call("run_nbcp", self.lx.experiments.run_nbcp, train, test, loaded[0])

    def check(self, loaded, run):
        report = run["report"]
        self.check_summary(report["train"])
        self.check_summary(report["test"])
        self.ops.check_equal("test vectors", len(run["test_vectors"]), report["test"]["words"])
        self.check_f(100.0 * report["metrics"]["f_score"], 100.0 * report["random"]["f_score"])
        self.model_and_vectors = (run["model"], run["test_vectors"])
        return digest(report)

    def after(self):
        model, vectors = self.model_and_vectors
        probabilities = [self.lx.model.win_probability(model, v.without_class()) for v in vectors]
        self.saturated = sum(p in (0.0, 1.0) for p in probabilities)


class Ingest(Workload):
    """load_pipeline_inputs over the shards, then build_dataset per window."""

    def job(self, loaded):
        inputs = loaded[0]
        windows = sorted({w for cycle in SWEEP_CYCLES
                          for pair in self.lx.dataset.schedule_windows(cycle) for w in pair})
        return [self.ops.call(f"build_dataset {w.label()}", self.lx.dataset.build_dataset,
                              inputs.synsets, inputs.corpus, w)
                for w in windows]

    def check(self, loaded, datasets):
        summaries = [ds.summary() for ds in datasets]
        self.ops.check_equal("windows built", len(summaries), len(self.truth["windows"]))
        for summary in summaries:
            self.check_summary(summary)
        return digest(summaries)


class Experiments(Workload):
    """drop_one ablation of every feature, then the cycle sweep."""

    setup_repeats = 5

    def job(self, loaded):
        inputs = loaded[0]
        train, test = self.last_window_pair()
        ex = self.lx.experiments
        rows = [self.ops.call(f"run_ablation {feature}", ex.run_ablation,
                              ex.AblationSpec("drop_one", feature), train, test, inputs)
                for feature in self.lx.features.FEATURE_NAMES]
        sweep = self.ops.call("run_cycle_sweep", ex.run_cycle_sweep, list(SWEEP_CYCLES), inputs)
        return rows, sweep

    def check(self, loaded, result):
        rows, sweep = result
        self.ops.check_equal("ablation rows", len(rows), len(self.lx.features.FEATURE_NAMES))
        baselines = {row["f_baseline"] for row in rows}
        self.ops.check_equal("one full-feature baseline", len(baselines), 1)
        self.ops.check_equal("sweep windows", len(sweep["rows"]), 10)
        self.ops.check_equal("sweep skipped", sweep["skipped"], [])
        _, test = self.last_window_pair()
        for row in sweep["rows"]:
            want = self.truth["windows"][row["window"]]
            self.ops.check_equal(f"sweep {row['window']} synsets", row["synsets"],
                                 want["snapshots"])
            self.ops.check_equal(f"sweep {row['window']} percent changed",
                                 row["percent_changed"],
                                 round(100.0 * (want["changed"] / want["snapshots"]), 4))
            if row["window"] == test.label() and row["cycle"] == 50:
                f_pct = 100.0 * rows[0]["f_baseline"]
                self.ops.check_equal("sweep F equals ablation baseline F",
                                     row["f_nbcp"], round(f_pct, 1))
                self.check_f(f_pct, row["f_random"])
        return digest([rows, sweep])


class Staged(Workload):
    """evocli ingest, then the staged chain over the filtered corpus."""

    setup_repeats = 2

    def cli(self, *argv):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = self.ops.call(f"evocli {argv[0]}", self.lx.cli.main, list(argv))
        if code != 0:
            self.ops.failed += 1
            self.ops.failures.append(f"evocli {argv[0]} exited {code}: {err.getvalue()}")
            raise OpFailed(argv[0])

    def inputs_args(self, corpus):
        args = []
        for path in corpus:
            args += ["--corpus", path]
        return args + ["--lexicon", self.lexicon, "--catvar", self.catvar, "--out", self.out_dir]

    def prepare(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def setup(self):
        self.cli("ingest", *self.inputs_args(self.corpus))

    def job(self, _):
        out = self.out_dir
        train, test = self.last_window_pair()
        common = self.inputs_args([os.path.join(out, "corpus.tsv")])
        self.cli("build-dataset", *common)
        for window in (train, test):
            self.cli("extract-features", *common,
                     "--dataset", os.path.join(out, f"dataset_{window.label()}.tsv"))
        model = os.path.join(out, "model.json")
        self.cli("train", "--features", os.path.join(out, f"features_{train.label()}.tsv"),
                 "--model", model, "--out", out)
        self.cli("predict", "--features", os.path.join(out, f"features_{test.label()}.tsv"),
                 "--model", model, "--out", out)
        self.cli("evaluate", "--dataset", os.path.join(out, f"dataset_{test.label()}.tsv"),
                 "--probabilities", os.path.join(out, "probabilities.tsv"), "--out", out)

    def read_json(self, name):
        with open(os.path.join(self.out_dir, name), encoding="utf-8") as handle:
            return json.load(handle)

    def check_load(self, _):
        report = self.read_json("ingest_report.json")
        t = self.truth
        for key in ("rows_kept", "rows_filtered", "rows_skipped", "keys", "eligible_synsets"):
            self.ops.check_equal(f"ingest {key}", report[key], t[key])
        return report["rows_kept"] + report["rows_filtered"] + report["rows_skipped"]

    def check(self, loaded, _):
        for window in sorted({w for pair in self.lx.dataset.schedule_windows(50) for w in pair}):
            self.check_summary(self.read_json(f"dataset_{window.label()}.json"))
        files = sorted(os.listdir(self.out_dir))
        self.artifact_bytes = sum(os.path.getsize(os.path.join(self.out_dir, f)) for f in files)
        hasher = hashlib.sha256()
        for name in files:
            with open(os.path.join(self.out_dir, name), "rb") as handle:
                hasher.update(name.encode() + b"\0" + handle.read())
        return hasher.hexdigest()

    def after(self):
        """The staged chain must match an in-process run_nbcp on the raw inputs."""
        inputs = Workload.setup(self)[0]
        train, test = self.last_window_pair()
        run = self.ops.call("in-process run_nbcp", self.lx.experiments.run_nbcp,
                            train, test, inputs)
        staged = self.read_json("report.json")
        for key in ("counts", "metrics"):
            self.ops.check_equal(f"staged {key} equal in-process", staged[key],
                                 run["report"][key])
        self.check_f(100.0 * staged["metrics"]["f_score"], 100.0 * run["report"]["random"]["f_score"])
        with open(os.path.join(self.out_dir, "probabilities.tsv"), encoding="utf-8") as handle:
            next(handle)
            self.saturated = sum(float(line.split("\t")[2]) in (0.0, 1.0) for line in handle)


CLASSES = {"nbcp": Nbcp, "ingest": Ingest, "experiments": Experiments, "staged": Staged}


class Runner:
    """Repeats a workload's iterations for a time budget and keeps timings."""

    def __init__(self, workload, run_name):
        self.w = workload
        self.run_name = run_name
        self.digests = []
        self.rows_read = None
        self.per_run = []  # per-layer metrics of each traced iteration
        self.samples = {}
        self.reference = Reference()

    def iterate(self, seconds, min_each, tracer=None):
        """Time iterations until the next one would overrun the budget.

        A first warm-up iteration is checked but not timed.  The reference
        kernel runs before every set-up and every job.  With a tracer,
        every second timed iteration is traced, so traced and untraced
        iterations share the machine's conditions.  Returns the
        ([setup_s, ...], run_s) pairs of the untraced and of the traced
        iterations.
        """
        self.once(None, "warmup")
        self.reference.times.clear()
        timed = {False: [], True: []}
        kinds = (False, True) if tracer else (False,)
        start = time.perf_counter()
        count = 0
        while True:
            traced = tracer is not None and count % 2 == 1
            timed[traced].append(self.once(tracer if traced else None, str(count)))
            count += 1
            elapsed = time.perf_counter() - start
            if (all(len(timed[k]) >= min_each for k in kinds)
                    and elapsed * (count + 1) / count > seconds):
                self.samples = {"untraced": timed[False], "traced": timed[True]}
                return timed[False], timed[True]

    def once(self, tracer, label):
        self.w.prepare()
        gc.collect()
        if tracer:
            tracer.start_run(f"{self.run_name}-{label}")
            tracer.install()
        setups = []
        try:
            for _ in range(1 if tracer else self.w.setup_repeats):
                loaded = None  # free the previous set-up's result before timing
                self.reference.measure()
                t0 = time.perf_counter()
                loaded = self.w.setup()
                setups.append(time.perf_counter() - t0)
            self.reference.measure()
            t1 = time.perf_counter()
            result = self.w.job(loaded)
            t2 = time.perf_counter()
        finally:
            if tracer:
                tracer.restore()
        if tracer:
            self.per_run.append(tracer.run_metrics(tracer.run_id))
        rows = self.w.check_load(loaded)
        self.digests.append(self.w.check(loaded, result))
        if self.rows_read is None:
            self.rows_read = rows
        self.w.ops.check_equal("rows read repeat", rows, self.rows_read)
        return setups, t2 - t1


def means(times):
    """Mean wall setup_s over every set-up and mean wall run_s over every job.

    Means, not medians: the shared host flips between a fast and a slow
    state every few seconds, and a median jumps between the two when a run
    spends about half its time in each, while a mean moves in proportion.
    """
    return (statistics.fmean([s for setups, _ in times for s in setups]),
            statistics.fmean([r for _, r in times]))


def end_to_end(runner, times):
    """End-to-end metrics: means over the iterations' set-ups and jobs,
    on the reference kernel's time scale."""
    scale = runner.reference.scale()
    setup_s, run_s = (t * scale for t in means(times))
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": setup_s,
        "run_s": run_s,
        "total_s": setup_s + run_s,
        "rows_per_s": runner.rows_read / setup_s,
        "peak_rss_mb": peak_kib / 1024.0,
    }


def measure(workload, seconds, trace, trace_path, run_name):
    """Returns (runner, {metric: (value, unit)}, timed iterations)."""
    runner = Runner(workload, run_name)
    if not trace:
        times, _ = runner.iterate(seconds, MIN_ITERATIONS)
        workload.after()
        metrics = end_to_end(runner, times)
        return runner, {k: (v, END_TO_END[k]) for k, v in metrics.items()}, len(times)

    from tracer import PER_LAYER, Tracer

    tracer = Tracer()
    untraced, traced = runner.iterate(seconds, 2, tracer)
    workload.after()
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    tracer.write(trace_path)
    per_run = runner.per_run
    counts = [{k: v for k, v in m.items() if PER_LAYER[k][0] != "s"} for m in per_run]
    workload.ops.check("per-layer counts repeat", all(c == counts[0] for c in counts[1:]))
    scale = runner.reference.scale()
    metrics = {name: (statistics.fmean([m[name] for m in per_run]) * scale if unit == "s"
                      else per_run[0][name])
               for name, (unit, _) in PER_LAYER.items() if name in per_run[0]}
    metrics["trace.overhead_s"] = (sum(means(traced)) - sum(means(untraced))) * scale
    metrics["model.saturated_probs"] = workload.saturated or 0
    metrics["evaluate.f_score_pct"] = workload.f_score_pct or 0.0
    if isinstance(workload, Staged):
        metrics["cli.artifact_bytes"] = workload.artifact_bytes
    return (runner, {k: (v, PER_LAYER[k][0]) for k, v in metrics.items()},
            len(untraced) + len(traced))


def import_lexevo():
    """Import lexevo from the checkout's src directory, or exit 2."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "lexevo", "__init__.py")):
        print(f"perfbench: no lexevo sources under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, src)
    import lexevo
    from lexevo import cli, dataset, experiments, features, model

    if not os.path.abspath(lexevo.__file__).startswith(src + os.sep):
        print(f"perfbench: lexevo imported from {lexevo.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)
    return types.SimpleNamespace(cli=cli, dataset=dataset, experiments=experiments,
                                 features=features, model=model)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="use the small smoke scale of the workload")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    lx = import_lexevo()
    sys.path.insert(0, HERE)
    run_dir = os.path.join(WORK, f"run-{os.getpid()}")
    inputs_dir = os.path.join(run_dir, "inputs")
    shutil.rmtree(run_dir, ignore_errors=True)
    trace_path = os.path.join(WORK, "traces", f"{args.workload}.jsonl")
    try:
        command = [sys.executable, os.path.join(HERE, "generate.py"), "--workload",
                   args.workload, "--seed", str(args.seed), "--out", inputs_dir]
        subprocess.run(command + (["--smoke"] if args.smoke else []), check=True, timeout=150)
        with open(os.path.join(inputs_dir, "truth.json"), encoding="utf-8") as handle:
            truth = json.load(handle)
        ops = Ops()
        workload = CLASSES[args.workload](lx, truth, inputs_dir,
                                          os.path.join(run_dir, "out"), ops)
        try:
            runner, metrics, iterations = measure(workload, args.seconds, args.trace, trace_path,
                                                  f"{args.workload}-seed{args.seed}")
        except OpFailed:
            runner, metrics, iterations = None, {}, 0
        if runner is not None:
            ops.check("report hash repeats", len(set(runner.digests)) == 1)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    correct = ops.failed == 0
    for failure in ops.failures:
        print(failure, file=sys.stderr)
    if runner is not None:
        print(f"workload {args.workload} seed {args.seed}: {iterations} iterations, "
              f"report sha256 {runner.digests[0]}")
        wall_setup_s, wall_run_s = means(runner.samples["untraced"])
        reference_s = sum(runner.reference.times) / len(runner.reference.times)
        print(f"reference kernel {1000 * reference_s:.3f} ms (mean of "
              f"{len(runner.reference.times)}), time scale {runner.reference.scale():.4f}; "
              f"wall setup_s {wall_setup_s:.6g} s, wall run_s {wall_run_s:.6g} s")
        for kind, samples in runner.samples.items():
            print(f"{kind} wall samples (setup_s..., run_s): "
                  + " ".join(",".join(f"{t:.4f}" for t in setups + [r])
                             for setups, r in samples))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    if workload.f_score_pct is not None and not args.trace:
        print(f"f_score_pct {workload.f_score_pct:.1f} % "
              f"(random baseline {workload.random_f_pct:.1f} %)")
    print(f"failed_ops_ratio {ops.failed / max(ops.attempted, 1):.6g} ratio "
          f"({ops.failed} failed of {ops.attempted} attempted)")
    print(json.dumps({
        "correct": correct,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
