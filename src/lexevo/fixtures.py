"""Fixture bundle generators.

Two bundles back the test suite and serve as runnable demo inputs:

* the five-adjective rapture synset, with annual counts engineered so
  the eleven-year period sums, birth years, and derivational clusters
  reproduce the published worked example;
* a fifty-synset synthetic corpus whose eventual winners carry both a
  growing frequency trend and a planted 'zzz' trigram, so a correct
  pipeline separates the classes almost perfectly.
"""

import os

# (lemma, per-year baseline, window sums at 1850/1900/1950, birth year)
TABLE2_WORDS = [
    ("ecstatic", 2, (5576, 21716, 30829), 1687),
    ("enraptured", 3, (4334, 7148, 5263), 1700),
    ("rapt", 4, (5243, 18750, 14845), 1701),
    ("rapturous", 5, (8645, 15320, 9544), 1642),
    ("rhapsodic", 1, (45, 696, 3595), 1702),
]

TABLE2_CENTERS = (1850, 1900, 1950)

# extra corpus-dated words backing the derivational clusters
TABLE2_CLUSTER_EXTRAS = [
    ("rapture_NOUN", 1750),
    ("rapturously_ADV", 1800),
    ("enrapture_VERB", 1820),
    ("ecstasy_NOUN", 1760),
    ("ecstatically_ADV", 1810),
]

TABLE2_CATVAR = [
    "rapturous_ADJ,rapture_NOUN,rapturously_ADV,enrapture_VERB",
    "ecstatic_ADJ,ecstasy_NOUN,ecstatically_ADV",
]


def _write_bundle(directory, **files):
    """Write each name's lines to directory/<name>.tsv, one per line, and
    return the name -> path map."""
    os.makedirs(directory or ".", exist_ok=True)
    paths = {}
    for name, lines in files.items():
        paths[name] = os.path.join(directory, f"{name}.tsv")
        with open(paths[name], "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
    return paths


def write_rapture_fixture(directory):
    """Write corpus/lexicon/catvar/syllable files for the rapture synset.

    Each member gets a small constant count every year from 1800 to 2000
    (so annual shares are defined for the whole range), and the center
    year of each eleven-year window is topped up to hit the target sum.
    """
    corpus_rows = []
    for lemma, base, sums, born in TABLE2_WORDS:
        corpus_rows.append(f"{lemma}_ADJ\t{born}\t1\t1")
        for year in range(1800, 2001):
            count = base
            for center, target in zip(TABLE2_CENTERS, sums):
                if year == center:
                    count = target - 10 * base
            corpus_rows.append(f"{lemma}_ADJ\t{year}\t{count}\t1")
    for token, born in TABLE2_CLUSTER_EXTRAS:
        corpus_rows.append(f"{token}\t{born}\t5\t1")
    return _write_bundle(
        directory,
        corpus=corpus_rows,
        lexicon=["a00001\ta\tecstatic,enraptured,rapt,rapturous,rhapsodic"],
        catvar=TABLE2_CATVAR,
        syllables=["# lemma<TAB>syllables overrides (none needed)"],
    )

# synthetic dynamics per synset type: counts at 1850/1900/1950/2000
SYNTHETIC_PERIODS = (1850, 1900, 1950, 2000)
SYNTHETIC_TYPES = {
    # winner leads throughout
    "stable": {"winner": (1000, 1400, 1800, 2200), "rival": (800, 700, 600, 500)},
    # winner overtakes at 1950
    "early_change": {"winner": (300, 700, 1300, 1900), "rival": (1100, 1000, 900, 800)},
    # winner overtakes at 2000
    "late_change": {"winner": (200, 400, 800, 1600), "rival": (1200, 1100, 1000, 900)},
}
SYNTHETIC_MINOR = (50, 60, 70, 80)


# two letters a-z give 26 * 26 distinct synset codes; past that the
# lemmas leave a-z and fail eligibility
MAX_SYNTHETIC_SYNSETS = 26 * 26


def _code(i):
    a, b = divmod(i, 26)
    return chr(97 + a) + chr(97 + b) + "q"


# lemma tails vary per synset so the length and character features have
# real within-class variance instead of degenerate point masses
_WINNER_TAILS = ("", "o", "ox")
_RIVAL_TAILS = ("", "l", "li")
_MINOR_TAILS = ("", "e", "er")


def write_synthetic_fixture(directory, n_synsets=50):
    """Write the engineered 50-synset bundle (corpus + lexicon).

    Winner lemmas contain 'uzzz'; the 'zzz' trigram never appears in the
    other members, so it lands in the winner's unique set.  Counts carry
    small deterministic jitter (margins stay far larger) so the corpus
    features vary across synsets.  n_synsets must lie in
    [1, MAX_SYNTHETIC_SYNSETS].
    """
    if not 1 <= n_synsets <= MAX_SYNTHETIC_SYNSETS:
        raise ValueError(
            f"n_synsets {n_synsets} outside [1, {MAX_SYNTHETIC_SYNSETS}]")
    type_names = list(SYNTHETIC_TYPES)
    corpus_rows = []
    lexicon_rows = []
    for i in range(n_synsets):
        kind = SYNTHETIC_TYPES[type_names[i % len(type_names)]]
        code = _code(i)
        # tail index varies within each synset type (i // 3), so no tail
        # trigram can act as a proxy for the dynamics type
        tail = (i // 3) % 3
        members = [
            (code + "uzzz" + _WINNER_TAILS[tail], kind["winner"],
             (i * 7) % 20, 1840 - i % 25),
            (code + "umbo" + _RIVAL_TAILS[(tail + 1) % 3], kind["rival"],
             (i * 11) % 20, 1841 - (i * 3) % 25),
            (code + "iddly" + _MINOR_TAILS[(tail + 2) % 3], SYNTHETIC_MINOR,
             (i * 3) % 5, 1842 - (i * 7) % 20),
        ]
        for lemma, counts, jitter, born in members:
            corpus_rows.append(f"{lemma}_NOUN\t{born}\t1\t1")
            for year, count in zip(SYNTHETIC_PERIODS, counts):
                corpus_rows.append(f"{lemma}_NOUN\t{year}\t{count + jitter}\t1")
        lexicon_rows.append(
            f"s{i:05d}\tn\t" + ",".join(m[0] for m in members)
        )
    return _write_bundle(
        directory,
        corpus=corpus_rows,
        lexicon=lexicon_rows,
        catvar=["# no clusters in the synthetic bundle"],
        syllables=["# no overrides"],
    )
