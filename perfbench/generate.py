"""Seeded scale generator for the lexevo benchmark.

Writes a unigram corpus (one or more shards, plain or gzip), a synset
lexicon and a categorial-variation cluster file, and returns the ground
truth the benchmark checks lexevo's outputs against.  The same scale and
seed give byte-identical files.

    python3 perfbench/generate.py --workload nbcp --seed 1 --out DIR

What it plants:

* a learnable winner signal: the word that leads its synset in 2000 takes
  its lemma tail from WINNER_TAILS, whose letter z no other lemma uses,
  so its unique trigrams recur across synsets.  Every word also follows
  a log-linear trend, so about a quarter of the synsets change leader
  between 1950 and 2000;
* dead-word synsets (one member is born after 1800) and tie synsets (the
  two leading members have identical series);
* ineligible lexicon rows (bad lemmas, single members) and polysemous
  pairs (two synsets sharing a lemma), whose corpus rows are filtered;
* a few categorial-variation clusters whose derived forms have rows;
* rows outside the vocabulary and malformed rows.

A lemma is a two-letter stem shared by its synset plus a tail, over the
first ``letters`` letters of LETTERS, so unique trigrams come from a
vocabulary of about ``letters**3 + 2 * letters**2``.  Keep it small
against the number of training words: a trigram seen in one class only
gets the variance floor, and the model then memorises words instead of
learning the planted signal.
"""

import argparse
import gzip
import json
import math
import os
import random
from dataclasses import asdict, dataclass

FIRST_YEAR = 1800
LAST_YEAR = 2008
YEARS = tuple(range(FIRST_YEAR, LAST_YEAR + 1))
HALF_WIDTH = 5
POS_TAGS = {"n": "NOUN", "v": "VERB", "a": "ADJ", "r": "ADV"}
LETTERS = "etaoinsrhldcumfpgwybvkxjqz"
WINNER_TAILS = ("zo", "zu", "zy")
DERIVED_SUFFIXES = (("ness", "NOUN"), ("ly", "ADV"), ("ify", "VERB"), ("ish", "ADJ"))
ANALYSED_CYCLES = (30, 40, 50, 60)
# A word's trend is count(year) = level * exp(rate * (year - 1900) / 100)
# with a log-uniform level and a uniform rate; these ranges make about a
# quarter of the synsets change leader between 1950 and 2000.
LOG_LEVELS = (math.log(200.0), math.log(2000.0))
MAX_RATE = 2.0


@dataclass(frozen=True)
class Scale:
    """Size and shape of one generated input set."""

    synsets: int  # eligible synsets
    min_members: int = 2
    max_members: int = 5
    letters: int = 10  # sets the trigram vocabulary, see module docstring
    density: float = 1.0  # share of 1800..2008 with a row, per word
    oov_fraction: float = 0.05  # share of all rows outside the vocabulary
    malformed: int = 10  # malformed rows
    shards: int = 1
    gzip_shards: int = 0  # the first this many shards are .tsv.gz
    dead_fraction: float = 0.1  # synsets with a member born after 1800
    tie_fraction: float = 0.03  # synsets whose two leaders are identical
    ineligible: int = 6  # lexicon rows dropped by the eligibility rules
    polysemous_pairs: int = 3  # pairs of synsets sharing one lemma
    catvar_clusters: int = 8


# Sizes chosen so one iteration of each workload takes 0.5-2 s on a 2-core
# machine, which gives a run of 25 s a few dozen samples of each time; see
# perfbench/README.md for the traffic they produce.  Each
# letters value keeps the trigram vocabulary small against the number of
# training words (see the module docstring).
SCALES = {
    "nbcp": Scale(synsets=300, letters=6, density=0.2, malformed=20),
    "ingest": Scale(synsets=100, letters=6, density=0.15, oov_fraction=0.9,
                    malformed=200, shards=4, gzip_shards=2),
    "experiments": Scale(synsets=60, letters=4, density=0.3),
    "staged": Scale(synsets=50, letters=4, density=0.5, oov_fraction=0.3, malformed=20,
                    shards=2, gzip_shards=1),
}

SMOKE_SCALES = {
    "nbcp": Scale(synsets=40, letters=3, malformed=5),
    "ingest": Scale(synsets=40, letters=3, density=0.2, oov_fraction=0.9,
                    malformed=20, shards=3, gzip_shards=1),
    "experiments": Scale(synsets=30, letters=3),
    "staged": Scale(synsets=30, letters=3, oov_fraction=0.3, malformed=5,
                    shards=2, gzip_shards=1),
}


def period_sum(series, center):
    return sum(series.get(y, 0) for y in range(center - HALF_WIDTH, center + HALF_WIDTH + 1))


def analysed_windows():
    """Distinct (past, present, future) windows of the analysed cycles."""
    windows = set()
    for cycle in ANALYSED_CYCLES:
        periods = sorted(range(2000, FIRST_YEAR - 1, -cycle))
        windows.update(zip(periods, periods[1:], periods[2:]))
    return sorted(windows)


def expected_window(members, window):
    """Snapshot count, removals and words of one window, by the removal rules.

    members is a list of synsets, each a list of year->count series.
    """
    past, present, future = window
    snapshots = words = changed = dead = tie = 0
    for series_list in members:
        sums = [(period_sum(s, present), period_sum(s, future)) for s in series_list]
        presents = [p for p, _ in sums]
        futures = [f for _, f in sums]
        if min(presents) == 0:
            dead += 1
        elif presents.count(max(presents)) > 1 or futures.count(max(futures)) > 1:
            tie += 1
        else:
            snapshots += 1
            words += len(series_list)
            changed += presents.index(max(presents)) != futures.index(max(futures))
    return {"snapshots": snapshots, "words": words, "changed": changed,
            "removals": {"dead_word": dead, "tie": tie}}


class _Lemmas:
    """Draws lemmas unique per corpus POS tag."""

    def __init__(self, rng, letters):
        self.rng = rng
        self.alphabet = LETTERS[:letters]
        self.used = set()

    def word(self, length):
        return "".join(self.rng.choice(self.alphabet) for _ in range(length))

    def claim(self, lemma, tag):
        if (lemma, tag) in self.used:
            return False
        self.used.add((lemma, tag))
        return True


def _trend(rng, level, rate, years):
    """Annual counts of a log-linear trend with 10% multiplicative noise."""
    return {year: max(1, int(level * math.exp(rate * (year - 1900) / 100.0)
                             * rng.uniform(0.9, 1.1)))
            for year in years}


def _sample_years(rng, density):
    count = max(1, round(density * len(YEARS)))
    return sorted(rng.sample(YEARS, count))


def _plant_synset(rng, lemmas, kind, n_members, density):
    """Series and lemmas of one eligible synset; returns (pos, lemmas, series)."""
    pos = rng.choice("nvar")
    tag = POS_TAGS[pos]
    series = []
    for _ in range(n_members):
        years = _sample_years(rng, density)
        level = math.exp(rng.uniform(*LOG_LEVELS))
        rate = rng.uniform(-MAX_RATE, MAX_RATE)
        series.append(_trend(rng, level, rate, years))
    if kind == "tie":
        # two identical leaders, attested every year and above the others
        top = {y: 2 * max(s.get(y, 0) for s in series[2:]) + 100 if n_members > 2
               else int(series[0].get(y, 0)) + 100 for y in YEARS}
        series[0] = top
        series[1] = dict(top)
    elif kind == "dead":
        born = rng.randrange(1830, 1991)
        series[-1] = {y: c for y, c in series[-1].items() if y >= born}
        if not series[-1]:
            series[-1] = {LAST_YEAR: 1}
    for s in series:
        if s and min(s) == FIRST_YEAR and rng.random() < 0.5:
            s[rng.randrange(1550, FIRST_YEAR)] = rng.randint(1, 3)  # early attestation
    winner = max(range(n_members), key=lambda i: (period_sum(series[i], 2000), -i))
    while True:
        stem = lemmas.word(2)
        names = []
        for i in range(n_members):
            if i == winner:
                tail = rng.choice(WINNER_TAILS)
            else:
                tail = lemmas.word(rng.randint(3, 5))
            names.append(stem + tail)
        if len(set(names)) == n_members and not any((n, tag) in lemmas.used for n in names):
            break
    for name in names:
        lemmas.claim(name, tag)
    return pos, names, series


def _row(rng, token, year, count):
    return f"{token}\t{year}\t{count}\t{rng.randint(1, count)}"


MALFORMED_KINDS = (
    lambda t, y: f"{t}\t{y}\t5",  # three columns
    lambda t, y: f"{t}\t{y}\t5\t1\t1",  # five columns
    lambda t, y: f"{t}\t{y}x\t5\t1",  # non-integer year
    lambda t, y: f"{t}\t1499\t5\t1",  # year before 1500
    lambda t, y: f"{t}\t2009\t5\t1",  # year after 2008
    lambda t, y: f"{t}\t{y}\t-5\t1",  # negative count
    lambda t, y: f"{t.rpartition('_')[0]}\t{y}\t5\t1",  # no _POS suffix
    lambda t, y: f"_NOUN\t{y}\t5\t1",  # empty lemma
)


def generate(scale, seed, out_dir):
    """Write the inputs for one scale and seed; return the ground truth.

    The truth holds the input paths (relative to out_dir), the corpus row
    counts by outcome, the lexicon counts, and the expected dataset of
    every window of the analysed cycles.
    """
    rng = random.Random(f"lexevo-perfbench:{seed}")
    lemmas = _Lemmas(rng, scale.letters)
    n = scale.synsets
    n_dead = round(scale.dead_fraction * n)
    n_tie = round(scale.tie_fraction * n)
    kinds = ["dead"] * n_dead + ["tie"] * n_tie + ["plain"] * (n - n_dead - n_tie)
    rng.shuffle(kinds)
    sizes = [scale.min_members + i % (scale.max_members - scale.min_members + 1)
             for i in range(n)]
    rng.shuffle(sizes)

    lexicon_rows = []  # (synset id, pos, lemmas)
    blocks = []  # one list of corpus rows per key
    kept_rows = 0
    filtered_rows = 0
    member_series = []
    cluster_seeds = []
    for i, (kind, size) in enumerate(zip(kinds, sizes)):
        pos, names, series = _plant_synset(rng, lemmas, kind, size, scale.density)
        lexicon_rows.append((f"e{i:06d}", pos, names))
        member_series.append(series)
        for name, s in zip(names, series):
            token = f"{name}_{POS_TAGS[pos]}"
            blocks.append([_row(rng, token, y, c) for y, c in sorted(s.items())])
            kept_rows += len(s)
        if kind == "plain" and len(cluster_seeds) < scale.catvar_clusters:
            cluster_seeds.append((names[0], POS_TAGS[pos]))

    # ineligible and polysemous lexicon rows; their members' rows are filtered
    def filtered_member_rows(name, tag):
        years = _sample_years(rng, scale.density / 4)
        level = rng.uniform(20, 400)
        s = _trend(rng, level, rng.uniform(-1, 1), years)
        blocks.append([_row(rng, f"{name}_{tag}", y, c) for y, c in sorted(s.items())])
        return len(s)

    def fresh(length, tag, transform=lambda w: w):
        while True:
            name = transform(lemmas.word(length))
            if lemmas.claim(name, tag):
                return name

    broken = (lambda w: w[0].upper() + w[1:], lambda w: w + "7",
              lambda w: w[:2], lambda w: w + "-" + w[:2])
    for i in range(scale.ineligible):
        pos = rng.choice("nvar")
        tag = POS_TAGS[pos]
        if i % 5 == 4:
            names = [fresh(6, tag)]  # a single member
        else:
            names = [fresh(6, tag, broken[i % len(broken)]), fresh(6, tag), fresh(6, tag)]
        lexicon_rows.append((f"i{i:06d}", pos, names))
        filtered_rows += sum(filtered_member_rows(m, tag) for m in names)
    for i in range(scale.polysemous_pairs):
        pos = rng.choice("nvar")
        tag = POS_TAGS[pos]
        shared = fresh(7, tag)
        filtered_rows += filtered_member_rows(shared, tag)
        for half in "ab":
            names = [shared, fresh(7, tag), fresh(7, tag)]
            lexicon_rows.append((f"p{i:05d}{half}", pos, names))
            filtered_rows += sum(filtered_member_rows(m, tag) for m in names[1:])
    rng.shuffle(lexicon_rows)

    # categorial-variation clusters: a synset member plus derived forms
    catvar_lines = []
    derived_keys = 0
    for lemma, tag in cluster_seeds:
        tokens = [f"{lemma}_{tag}"]
        for suffix, derived_tag in rng.sample(DERIVED_SUFFIXES, rng.randint(1, 3)):
            if not lemmas.claim(lemma + suffix, derived_tag):
                continue
            token = f"{lemma}{suffix}_{derived_tag}"
            tokens.append(token)
            if rng.random() < 0.8:  # the rest are never attested
                born = rng.randrange(1650, 1991)
                span = range(born, LAST_YEAR + 1)
                years = sorted(rng.sample(span, max(1, round(scale.density * len(span)))))
                s = _trend(rng, rng.uniform(5, 200), rng.uniform(-1, 1), years)
                blocks.append([_row(rng, token, y, c) for y, c in sorted(s.items())])
                kept_rows += len(s)
                derived_keys += 1
        catvar_lines.append(",".join(tokens))

    # rows outside the vocabulary: unknown lemmas and known lemmas under
    # another POS tag, each over a contiguous run of years
    known = sorted(lemmas.used)
    oov_target = round(scale.oov_fraction * (kept_rows + scale.malformed)
                       / (1.0 - scale.oov_fraction)) - filtered_rows
    full_alphabet = "abcdefghijklmnopqrstuvwxyz"
    while oov_target > 0:
        if rng.random() < 0.1:
            lemma = rng.choice(known)[0]
        else:
            lemma = "".join(rng.choice(full_alphabet) for _ in range(rng.randint(4, 10)))
        tag = rng.choice(sorted(POS_TAGS.values()))
        if (lemma, tag) in lemmas.used:
            continue
        lemmas.used.add((lemma, tag))
        length = min(oov_target, rng.randint(5, 60))
        start = rng.randrange(1500, LAST_YEAR - length + 2)
        blocks.append([_row(rng, f"{lemma}_{tag}", y, rng.randint(1, 5000))
                       for y in range(start, start + length)])
        filtered_rows += length
        oov_target -= length

    rng.shuffle(blocks)
    rows = [row for block in blocks for row in block]
    for _ in range(scale.malformed):
        at = rng.randrange(len(rows) + 1)
        sample = rows[rng.randrange(len(rows))].split("\t")
        rows.insert(at, rng.choice(MALFORMED_KINDS)(sample[0], sample[1]))

    os.makedirs(out_dir, exist_ok=True)
    corpus_files = []
    for shard in range(scale.shards):
        suffix = ".tsv.gz" if shard < scale.gzip_shards else ".tsv"
        name = f"corpus-{shard:02d}{suffix}"
        data = ("\n".join(rows[shard::scale.shards]) + "\n").encode("utf-8")
        _write_bytes(os.path.join(out_dir, name), data, gz=suffix == ".tsv.gz")
        corpus_files.append(name)
    lexicon_text = "".join(f"{sid}\t{pos}\t{','.join(names)}\n"
                           for sid, pos, names in lexicon_rows)
    _write_bytes(os.path.join(out_dir, "lexicon.tsv"), lexicon_text.encode("utf-8"))
    catvar_text = "".join(line + "\n" for line in catvar_lines)
    _write_bytes(os.path.join(out_dir, "catvar.tsv"), catvar_text.encode("utf-8"))

    windows = {f"{p}_{q}_{r}": expected_window(member_series, (p, q, r))
               for p, q, r in analysed_windows()}
    truth = {
        "seed": seed,
        "scale": asdict(scale),
        "corpus": corpus_files,
        "lexicon": "lexicon.tsv",
        "catvar": "catvar.tsv",
        "rows_kept": kept_rows,
        "rows_filtered": filtered_rows,
        "rows_skipped": scale.malformed,
        "rows_read": kept_rows + filtered_rows + scale.malformed,
        "keys": sum(len(s) for s in member_series) + derived_keys,
        "lexicon_synsets": len(lexicon_rows),
        "eligible_synsets": n,
        "windows": windows,
    }
    with open(os.path.join(out_dir, "truth.json"), "w", encoding="utf-8") as handle:
        json.dump(truth, handle, indent=1, sort_keys=True)
    return truth


def _write_bytes(path, data, gz=False):
    with open(path, "wb") as raw:
        if gz:
            # fixed mtime and no file name keep the gzip header reproducible
            with gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0,
                               compresslevel=1) as handle:
                handle.write(data)
        else:
            raw.write(data)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SCALES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--smoke", action="store_true", help="use the small smoke scale")
    args = parser.parse_args(argv)
    scale = (SMOKE_SCALES if args.smoke else SCALES)[args.workload]
    generate(scale, args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
