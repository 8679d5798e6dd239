"""Span tracer for the benchmark's traced runs.

``Tracer.install()`` replaces each traced public function of lexevo with a
wrapper wherever a lexevo module holds it, including the names that
``lexevo.experiments`` and ``lexevo.cli`` import, and ``restore()`` puts
the originals back.  Every call records a span (id, parent id, name,
start, end, run id) in memory; ``write()`` saves them when the run ends.
Hooks count work from a call's positional arguments and result after its
span has closed; their time is excluded from the parent's self time.
"""

import json
import sys
import time
from collections import Counter

# (module, function) pairs traced, grouped by layer
TRACED = {
    "corpus": [("lexevo.corpus", "load_corpus"), ("lexevo.corpus", "period_count"),
               ("lexevo.corpus", "birth_years")],
    "lexicon": [("lexevo.lexicon", "load_lexicon"), ("lexevo.lexicon", "eligible_synsets"),
                ("lexevo.lexicon", "load_catvar")],
    "dataset": [("lexevo.dataset", "build_dataset")],
    "features": [("lexevo.features", "extract_features")],
    "model": [("lexevo.model", "fit"), ("lexevo.model", "win_log_odds"),
              ("lexevo.model", "win_probability"), ("lexevo.model", "save_model"),
              ("lexevo.model", "load_model")],
    "evaluate": [("lexevo.evaluate", "evaluate_predictions"),
                 ("lexevo.evaluate", "random_baseline"),
                 ("lexevo.evaluate", "evaluation_report")],
    "experiments": [("lexevo.experiments", "load_pipeline_inputs"),
                    ("lexevo.experiments", "run_nbcp"),
                    ("lexevo.experiments", "run_ablation"),
                    ("lexevo.experiments", "run_cycle_sweep")],
    "cli": [("lexevo.cli", "main")],
}

# Per-layer metrics: name -> (unit, better).  Times are self time summed
# over calls; counts are summed over calls.
PER_LAYER = {
    "corpus.load_s": ("s", "lower"),
    "corpus.rows_read": ("count", "higher"),
    "corpus.rows_kept": ("count", "higher"),
    "corpus.rows_skipped": ("count", "lower"),
    "corpus.keep_ratio": ("ratio", "higher"),
    "corpus.keys": ("count", "higher"),
    "corpus.births_s": ("s", "lower"),
    "corpus.period_s": ("s", "lower"),
    "corpus.period_calls": ("count", "lower"),
    "lexicon.load_s": ("s", "lower"),
    "lexicon.eligible_synsets": ("count", "higher"),
    "lexicon.eligible_ratio": ("ratio", "higher"),
    "dataset.build_s": ("s", "lower"),
    "dataset.build_calls": ("count", "lower"),
    "dataset.distinct_windows": ("count", "higher"),
    "dataset.rebuild_ratio": ("ratio", "lower"),
    "dataset.snapshots": ("count", "higher"),
    "dataset.removed_dead_word": ("count", "lower"),
    "dataset.removed_tie": ("count", "lower"),
    "features.extract_s": ("s", "lower"),
    "features.extract_calls": ("count", "lower"),
    "features.vectors": ("count", "higher"),
    "model.fit_s": ("s", "lower"),
    "model.fit_calls": ("count", "lower"),
    "model.score_s": ("s", "lower"),
    "model.io_s": ("s", "lower"),
    "model.vectors_scored": ("count", "lower"),
    "model.trigram_dims": ("count", "lower"),
    "model.floored_dims": ("count", "lower"),
    "model.dense_terms": ("count", "lower"),
    "model.saturated_probs": ("count", "lower"),
    "evaluate.eval_s": ("s", "lower"),
    "evaluate.baseline_s": ("s", "lower"),
    "evaluate.synsets": ("count", "higher"),
    "evaluate.f_score_pct": ("%", "higher"),
    "experiments.inputs_s": ("s", "lower"),
    "experiments.nbcp_calls": ("count", "lower"),
    "experiments.nbcp_s": ("s", "lower"),
    "experiments.ablation_s": ("s", "lower"),
    "experiments.sweep_s": ("s", "lower"),
    "cli.ingest_s": ("s", "lower"),
    "cli.build_dataset_s": ("s", "lower"),
    "cli.extract_features_s": ("s", "lower"),
    "cli.train_s": ("s", "lower"),
    "cli.predict_s": ("s", "lower"),
    "cli.evaluate_s": ("s", "lower"),
    "cli.corpus_loads": ("count", "lower"),
    "cli.artifact_bytes": ("bytes", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}

# self-time metric -> span names whose self time it sums
SELF_TIMES = {
    "corpus.load_s": ("load_corpus",),
    "corpus.births_s": ("birth_years",),
    "corpus.period_s": ("period_count",),
    "lexicon.load_s": ("load_lexicon", "eligible_synsets", "load_catvar"),
    "dataset.build_s": ("build_dataset",),
    "features.extract_s": ("extract_features",),
    "model.fit_s": ("fit",),
    "model.score_s": ("win_log_odds", "win_probability"),
    "model.io_s": ("save_model", "load_model"),
    "evaluate.eval_s": ("evaluate_predictions", "evaluation_report"),
    "evaluate.baseline_s": ("random_baseline",),
    "experiments.inputs_s": ("load_pipeline_inputs",),
    "experiments.nbcp_s": ("run_nbcp",),
    "experiments.ablation_s": ("run_ablation",),
    "experiments.sweep_s": ("run_cycle_sweep",),
    "cli.ingest_s": ("cli.ingest",),
    "cli.build_dataset_s": ("cli.build-dataset",),
    "cli.extract_features_s": ("cli.extract-features",),
    "cli.train_s": ("cli.train",),
    "cli.predict_s": ("cli.predict",),
    "cli.evaluate_s": ("cli.evaluate",),
}


def _count_load_corpus(counts, args, result):
    table, report = result
    counts["corpus.rows_kept"] += report.rows_kept
    counts["corpus.rows_skipped"] += report.rows_skipped
    counts["corpus.rows_read"] += report.rows_kept + report.rows_filtered + report.rows_skipped
    counts["corpus.keys"] += len(table)


def _count_build_dataset(counts, args, result):
    counts["dataset.build_calls"] += 1
    counts["dataset.snapshots"] += len(result.snapshots)
    counts["dataset.removed_dead_word"] += result.removal_log.get("dead_word", 0)
    counts["dataset.removed_tie"] += result.removal_log.get("tie", 0)
    counts["window " + result.window.label()] = 1


def _count_fit(counts, args, result):
    from lexevo.model import VARIANCE_FLOOR

    counts["model.fit_calls"] += 1
    counts["model.trigram_dims"] += len(result.trigram_dims)
    for params in list(result.scalar_params.values()) + list(result.trigram_params.values()):
        counts["model.floored_dims"] += sum(p.variance == VARIANCE_FLOOR for p in params)


def _count_score(counts, args, result):
    model = args[0]
    counts["model.vectors_scored"] += 1
    counts["model.dense_terms"] += len(model.scalar_params) + len(model.trigram_dims)


HOOKS = {
    "load_corpus": _count_load_corpus,
    "period_count": lambda c, a, r: c.update({"corpus.period_calls": 1}),
    "load_lexicon": lambda c, a, r: c.update({"lexicon.synsets": len(r.synsets)}),
    "eligible_synsets": lambda c, a, r: c.update({"lexicon.eligible_synsets": len(r)}),
    "build_dataset": _count_build_dataset,
    "extract_features": lambda c, a, r: c.update(
        {"features.extract_calls": 1, "features.vectors": len(r)}),
    "fit": _count_fit,
    "win_log_odds": _count_score,
    "win_probability": _count_score,
    "evaluate_predictions": lambda c, a, r: c.update({"evaluate.synsets": len(a[0])}),
    "run_nbcp": lambda c, a, r: c.update({"experiments.nbcp_calls": 1}),
}


class Tracer:
    """Records spans and counts for calls into lexevo's public functions."""

    def __init__(self):
        self.spans = []  # (id, parent id or 0, name, start, end, run id)
        self.hook_time = Counter()  # span id -> hook seconds inside it
        self.counts = Counter()
        self.run_id = ""
        self._stack = []
        self._next_id = 1
        self._patched = []  # (module, attribute, original)

    def install(self):
        for layer in TRACED.values():
            for module_name, name in layer:
                original = getattr(sys.modules[module_name], name)
                wrapper = self._wrap(name, original)
                for module_name2, module in sorted(sys.modules.items()):
                    if module is None or not (module_name2 == "lexevo"
                                              or module_name2.startswith("lexevo.")):
                        continue
                    if getattr(module, name, None) is original:
                        self._patched.append((module, name, original))
                        setattr(module, name, wrapper)

    def restore(self):
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched = []

    def start_run(self, run_id):
        """Begin a new run: spans recorded from now on carry run_id."""
        self.run_id = run_id
        self.counts = Counter()

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_name = name
            if name == "main":
                argv = args[0] if args else kwargs.get("argv")
                span_name = "cli." + (argv[0] if argv else "")
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, span_name, start, end, self.run_id))
            if hook is not None:
                hook(self.counts, args, result)
                if parent:
                    self.hook_time[parent] += clock() - end
            return result

        return traced

    def run_metrics(self, run_id):
        """Per-layer self times and counts of one run."""
        spans = [s for s in self.spans if s[5] == run_id]
        child_time = Counter()
        for span_id, parent, _, start, end, _ in spans:
            if parent:
                child_time[parent] += end - start
        self_time = Counter()
        names = {}
        for span_id, parent, name, start, end, _ in spans:
            names[span_id] = name
            self_time[name] += end - start - child_time[span_id] - self.hook_time[span_id]
        out = {metric: sum(self_time[n] for n in span_names)
               for metric, span_names in SELF_TIMES.items()}
        counts = self.counts
        for metric, (unit, _) in PER_LAYER.items():
            if unit != "s":
                out[metric] = counts[metric]
        windows = sum(1 for key in counts if key.startswith("window "))
        out["dataset.distinct_windows"] = windows
        out["dataset.rebuild_ratio"] = counts["dataset.build_calls"] / windows if windows else 0.0
        read = counts["corpus.rows_read"]
        out["corpus.keep_ratio"] = counts["corpus.rows_kept"] / read if read else 0.0
        synsets = counts["lexicon.synsets"]
        out["lexicon.eligible_ratio"] = (counts["lexicon.eligible_synsets"] / synsets
                                         if synsets else 0.0)
        out["cli.corpus_loads"] = sum(
            1 for _, parent, name, _, _, _ in spans
            if name == "load_pipeline_inputs" and names.get(parent, "").startswith("cli."))
        out["trace.spans"] = len(spans)
        return out

    def write(self, path):
        """Write the spans, one JSON array [id, parent, name, start, end, run]
        per line; parent 0 marks a span called from the benchmark itself."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
