"""Tests of the benchmark itself.

    python3 -m pytest perfbench
"""

import gzip
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import generate  # noqa: E402

TINY = generate.Scale(synsets=12, letters=3, density=0.3, oov_fraction=0.5, malformed=9,
                      shards=3, gzip_shards=1, dead_fraction=0.25, tie_fraction=0.17,
                      ineligible=5, polysemous_pairs=2, catvar_clusters=3)


def read_tree(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as handle:
            out[name] = handle.read()
    return out


def test_generator_is_deterministic(tmp_path):
    for name, scale in generate.SMOKE_SCALES.items():
        generate.generate(scale, 7, tmp_path / f"{name}-a")
        generate.generate(scale, 7, tmp_path / f"{name}-b")
        generate.generate(scale, 8, tmp_path / f"{name}-c")
        first = read_tree(tmp_path / f"{name}-a")
        assert first == read_tree(tmp_path / f"{name}-b")
        assert first["lexicon.tsv"] != read_tree(tmp_path / f"{name}-c")["lexicon.tsv"]


def recount(directory, truth):
    """Recount the generated files by brute force, without lexevo."""
    rows = []
    for name in truth["corpus"]:
        path = os.path.join(directory, name)
        opener = gzip.open if name.endswith(".gz") else open
        with opener(path, "rt", encoding="utf-8") as handle:
            rows += handle.read().splitlines()
    parsed, skipped = [], 0
    for row in rows:
        fields = row.split("\t")
        lemma, _, tag = fields[0].rpartition("_")
        try:
            year, match, volume = (int(f) for f in fields[1:])
        except ValueError:
            skipped += 1
            continue
        if len(fields) != 4 or not lemma or not tag or not 1500 <= year <= 2008 \
                or match < 0 or volume < 0:
            skipped += 1
            continue
        parsed.append(((lemma, tag), year, match))

    tags = {"n": "NOUN", "v": "VERB", "a": "ADJ", "r": "ADV"}
    synsets, senses = [], {}
    with open(os.path.join(directory, truth["lexicon"]), encoding="utf-8") as handle:
        for line in handle:
            _, pos, members = line.rstrip("\n").split("\t")
            keys = [(m, tags[pos]) for m in members.split(",")]
            synsets.append(keys)
            for key in keys:
                senses[key] = senses.get(key, 0) + 1
    eligible = [keys for keys in synsets if len(keys) >= 2 and all(
        re.fullmatch("[a-z]{3,}", lemma) and senses[(lemma, tag)] == 1
        for lemma, tag in keys)]
    vocabulary = {key for keys in eligible for key in keys}
    with open(os.path.join(directory, truth["catvar"]), encoding="utf-8") as handle:
        for line in handle:
            vocabulary.update(tuple(t.rpartition("_")[::2]) for t in line.strip().split(","))

    series = {}
    kept = 0
    for key, year, match in parsed:
        if key in vocabulary:
            kept += 1
            series.setdefault(key, {})
            series[key][year] = series[key].get(year, 0) + match

    def window_sum(key, center):
        return sum(c for y, c in series.get(key, {}).items() if abs(y - center) <= 5)

    windows = {}
    for past, present, future in generate.analysed_windows():
        out = {"snapshots": 0, "words": 0, "changed": 0,
               "removals": {"dead_word": 0, "tie": 0}}
        for keys in eligible:
            now = [window_sum(k, present) for k in keys]
            later = [window_sum(k, future) for k in keys]
            if 0 in now:
                out["removals"]["dead_word"] += 1
            elif now.count(max(now)) > 1 or later.count(max(later)) > 1:
                out["removals"]["tie"] += 1
            else:
                out["snapshots"] += 1
                out["words"] += len(keys)
                out["changed"] += now.index(max(now)) != later.index(max(later))
        windows[f"{past}_{present}_{future}"] = out
    return {
        "rows_read": len(rows),
        "rows_kept": kept,
        "rows_filtered": len(parsed) - kept,
        "rows_skipped": skipped,
        "keys": len(series),
        "lexicon_synsets": len(synsets),
        "eligible_synsets": len(eligible),
        "windows": windows,
    }


def test_ground_truth_matches_brute_force_recount(tmp_path):
    truth = generate.generate(TINY, 3, tmp_path)
    counted = recount(tmp_path, truth)
    assert {k: truth[k] for k in counted} == counted
    # the tiny instance plants every kind of row and removal
    assert truth["rows_skipped"] and truth["rows_filtered"]
    assert truth["eligible_synsets"] < truth["lexicon_synsets"]
    assert any(w["removals"]["dead_word"] for w in truth["windows"].values())
    assert any(w["removals"]["tie"] for w in truth["windows"].values())


def run_bench(cwd, workload, trace, seed=5):
    command = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


def benchmark_names(key):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"] for m in json.load(handle)[key]}


@pytest.mark.parametrize("workload", sorted(generate.SCALES))
def test_smoke_workload_passes_every_check(workload):
    first = run_bench(ROOT, workload, 0)
    assert first.returncode == 0, first.stderr
    result = json.loads(first.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == benchmark_names("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())

    again = run_bench(ROOT, workload, 0)
    digests = [re.findall(r"report sha256 (\w+)", run.stdout) for run in (first, again)]
    assert digests[0] and digests[0] == digests[1]

    traced = run_bench(ROOT, workload, 1)
    assert traced.returncode == 0, traced.stderr
    result = json.loads(traced.stdout.splitlines()[-1])
    assert result["correct"]
    assert set(result["metrics"]) == benchmark_names("per_layer")


def test_tracer_restores_the_originals():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from lexevo import cli, experiments, model

    from tracer import Tracer

    originals = (experiments.run_nbcp, experiments.fit, model.fit, cli.main)
    tracer = Tracer()
    tracer.install()
    try:
        assert experiments.fit is model.fit and experiments.fit is not originals[1]
        assert cli.main is not originals[3]
    finally:
        tracer.restore()
    assert (experiments.run_nbcp, experiments.fit, model.fit, cli.main) == originals


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = run_bench(tmp_path, "nbcp", 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
