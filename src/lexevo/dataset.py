"""Train/test dataset assembly over scheduled time windows.

Windows are anchored at the most recent sampling year (2000) and stepped
backwards by the cycle length until the floor year (1800).
Consecutive period triples form past/present/future windows; each train
window is the test window shifted back by one cycle.
"""

import json
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

from ._util import _not_utf8, atomic_write_json, read_tsv, write_tsv
from .corpus import join_token, split_token
from .errors import DataError
from .lexicon import CatVarClusters, SenseId, Synset, disjoint_cluster

REMOVAL_DEAD_WORD = "dead_word"
REMOVAL_TIE = "tie"

# the cycle lengths, in years, that schedule_windows accepts
MIN_CYCLE, MAX_CYCLE = 30, 60
# the first and last sampling years, counted back from the anchor
ANCHOR_YEAR, FLOOR_YEAR = 2000, 1800


@dataclass(frozen=True, order=True)
class TimeWindow:
    past: int
    present: int
    future: int

    def __post_init__(self):
        if not self.past < self.present < self.future:
            raise ValueError("window years must be strictly increasing")
        if self.future - self.present != self.present - self.past:
            raise ValueError("window periods must be evenly spaced")

    def label(self):
        return f"{self.past}_{self.present}_{self.future}"


def schedule_windows(cycle):
    """Chronological (train, test) window pairs for a cycle length.

    Every accepted cycle yields at least four sampling periods, so at
    least one pair: the longest, 60, samples 1820, 1880, 1940 and 2000.
    """
    if not MIN_CYCLE <= cycle <= MAX_CYCLE:
        raise DataError(f"cycle {cycle} outside [{MIN_CYCLE}, {MAX_CYCLE}]")
    # sampling years anchor, anchor - cycle, ... down to the floor, ascending
    periods = sorted(range(ANCHOR_YEAR, FLOOR_YEAR - 1, -cycle))
    windows = [
        TimeWindow(periods[i], periods[i + 1], periods[i + 2])
        for i in range(len(periods) - 2)
    ]
    return [(windows[i], windows[i + 1]) for i in range(len(windows) - 1)]


class MemberCounts(NamedTuple):
    past: int
    present: int
    future: int


class SynsetSnapshot(NamedTuple):
    """One synset's smoothed counts at a window's three periods, and its
    present and future leaders: the members with the highest present and
    future count.

    Only built for synsets that pass the removal rule (_removal_reason),
    so both leaders are unique and every present count is positive.
    """

    synset: Synset
    counts: dict  # SenseId -> MemberCounts
    present_leader: SenseId
    future_leader: SenseId


def _removal_reason(presents, futures):
    """(reason, present index, future index) from a synset's members'
    present and future counts, in one member order.

    A synset is removed as dead_word when any member has a zero present
    count, and as tie when its maximum present or future count is held by
    more than one member; then both indices are None.  Otherwise reason
    is None and the indices are those of the members holding the two
    maxima, the present and future leaders.  futures is not read when a
    present count is zero.
    """
    if 0 in presents:
        return REMOVAL_DEAD_WORD, None, None
    present_max, future_max = max(presents), max(futures)
    if presents.count(present_max) > 1 or futures.count(future_max) > 1:
        return REMOVAL_TIE, None, None
    return None, presents.index(present_max), futures.index(future_max)


@dataclass
class Dataset:
    window: TimeWindow
    snapshots: list
    removal_log: Counter = field(default_factory=Counter)

    def summary(self):
        synsets = len(self.snapshots)
        words = sum(len(s.counts) for s in self.snapshots)
        changed = sum(s.present_leader != s.future_leader for s in self.snapshots)
        per_synset = words / synsets if synsets else 0.0
        changed_fraction = changed / synsets if synsets else 0.0
        return {
            "window": [self.window.past, self.window.present, self.window.future],
            "synsets": synsets,
            "words": words,
            "words_per_synset": round(per_synset, 4),
            "change_percent": round(100.0 * changed_fraction, 4),
            "removals": dict(self.removal_log),
        }


def build_dataset(synsets, corpus, window):
    """Apply the removal rules to every synset; order-independent result.

    The members' counts are read from the table's stored period counts
    (CorpusTable.period_array), each year's by one itemgetter call per
    synset (CorpusTable.period_getter).  Every synset's getter is fetched
    first, so every member has its slot before a year is read, and each
    year's counts are fetched once, when the first synset needs them: the
    present counts for any synset, the future counts for one with no dead
    member (the rule does not read them otherwise) and the past counts for
    a kept one.  So a window whose synsets are all dead makes the table
    sum its present year alone, and only for its members' keys.
    """
    getters = [corpus.period_getter(synset.corpus_keys) for synset in synsets]
    presents = futures = pasts = None
    snapshots = []
    removal_log = Counter()
    for synset, get in zip(synsets, getters):
        if presents is None:
            presents = corpus.period_array(window.present)
        present = get(presents)
        future = ()
        if 0 not in present:
            if futures is None:
                futures = corpus.period_array(window.future)
            future = get(futures)
        reason, present_index, future_index = _removal_reason(present, future)
        if reason is not None:
            removal_log[reason] += 1
            continue
        if pasts is None:
            pasts = corpus.period_array(window.past)
        members = synset.members
        snapshots.append(SynsetSnapshot(synset, dict(zip(members, map(
            MemberCounts, get(pasts), present, future))),
            members[present_index], members[future_index]))
    return Dataset(window, snapshots, removal_log)


def summary_path(tsv_path):
    """The JSON summary sidecar of a dataset TSV: <stem>.json beside it."""
    return os.path.splitext(tsv_path)[0] + ".json"


DATASET_COLUMNS = ("synset_id", "sense_id", "past", "present", "future")


def write_dataset(dataset, tsv_path, clusters, births):
    """Serialize a dataset: member-count TSV plus a JSON sidecar holding its
    summary and its context from the loaded clusters and births (corpus
    key -> year): the clusters that hold a member, as sorted lists of
    lemma_POS tokens, and the birth year of each member and cluster-mate
    by token, null where births has none."""
    write_tsv(tsv_path, DATASET_COLUMNS, (
        (snapshot.synset.id, str(sense), str(c.past), str(c.present), str(c.future))
        for snapshot in dataset.snapshots for sense, c in snapshot.counts.items()))
    members = {m.corpus_key() for s in dataset.snapshots for m in s.counts}
    kept = [cluster for cluster in clusters.clusters if cluster & members]
    atomic_write_json(summary_path(tsv_path), {
        **dataset.summary(),
        "births": {join_token(key): births.get(key) for key in members.union(*kept)},
        "clusters": sorted(sorted(map(join_token, cluster)) for cluster in kept)})


def read_dataset(tsv_path):
    """Reload a serialized dataset (synsets reconstructed from sense ids)
    as (dataset, clusters, births), the context its sidecar carries.

    A missing TSV is an OSError naming it, raised before the sidecar is
    read.  A header other than DATASET_COLUMNS is a DataError naming the
    file; a malformed row, a negative count or a repeated sense is one
    naming the line.
    Every synset must have two or more members of one part of speech, no
    lemma twice (as load_lexicon refuses a repeated lemma in a synset) and
    pass the removal rule that build_dataset applies; one that does not
    is a DataError naming the synset and the member count, the parts of
    speech, the lemma or the rule.  No two synsets may hold one corpus key
    (eligible_synsets drops a lemma with senses in two synsets); a shared
    key is a DataError naming it and both synsets.
    A JSON sidecar that is not JSON or lacks a valid window, removals,
    births or clusters is a DataError naming the file (and the key); so
    are clusters that share a member, births that lack a member or a
    cluster-mate, and a member whose birth is null: every member has a
    nonzero present count, so a birth year.
    """
    os.stat(tsv_path)  # a missing TSV is named, not its sidecar
    json_path = summary_path(tsv_path)
    window, removals, births, clusters = _read_summary(json_path)
    groups = {}
    seen = set()

    def parse(fields):
        synset_id, sense_text, past, present, future = fields
        counts = MemberCounts(int(past), int(present), int(future))
        if min(counts) < 0:
            raise ValueError(f"negative count in {counts}")
        sense = SenseId.parse(sense_text)
        if sense in seen:
            raise ValueError(f"repeated sense {sense_text}")
        seen.add(sense)
        groups.setdefault(synset_id, []).append((sense, counts))

    read_tsv(tsv_path, DATASET_COLUMNS, parse)
    snapshots = []
    synset_of = {}  # corpus key -> the synset that holds it
    for synset_id, members in groups.items():
        if len(members) < 2:
            raise DataError(f"{tsv_path}: synset {synset_id} has {len(members)} "
                            "member; need at least 2")
        pos = sorted({sense.pos for sense, _ in members})
        if len(pos) > 1:
            raise DataError(f"{tsv_path}: synset {synset_id} mixes parts of speech "
                            f"{', '.join(pos)}")
        senses = tuple(sense for sense, _ in members)
        lemmas = Counter(sense.lemma for sense in senses)
        if len(lemmas) < len(senses):
            repeated = min(lemma for lemma, n in lemmas.items() if n > 1)
            raise DataError(f"{tsv_path}: synset {synset_id} repeats lemma {repeated}")
        for sense in senses:
            key = sense.corpus_key()
            other = synset_of.setdefault(key, synset_id)
            if other != synset_id:
                raise DataError(f"{tsv_path}: corpus key {join_token(key)} is in "
                                f"synsets {other} and {synset_id}")
        reason, present_index, future_index = _removal_reason(
            [c.present for _, c in members], [c.future for _, c in members])
        if reason is not None:
            raise DataError(f"{tsv_path}: synset {synset_id} breaks the {reason} rule")
        snapshots.append(SynsetSnapshot(Synset(synset_id, pos[0], senses), dict(members),
                                        senses[present_index], senses[future_index]))
    missing = set(synset_of).union(clusters.members()) - births.keys()
    if missing:
        raise DataError(f"{json_path}: key 'births' has no {join_token(min(missing))}")
    unborn = [key for key in synset_of if births[key] is None]
    if unborn:
        raise DataError(f"{json_path}: key 'births' maps dataset member "
                        f"{join_token(min(unborn))} to null; a member needs a year")
    return Dataset(window, snapshots, removals), clusters, births


def _read_summary(json_path):
    """(TimeWindow, removal Counter, births, clusters) from a JSON sidecar."""
    try:
        with open(json_path, encoding="utf-8") as handle:
            summary = json.load(handle)
    except UnicodeDecodeError as exc:
        raise _not_utf8(json_path, exc) from None
    except ValueError as exc:  # JSONDecodeError
        raise DataError(f"{json_path}: not a JSON dataset summary: {exc}") from None
    if not isinstance(summary, dict) or "window" not in summary:
        raise DataError(f"{json_path}: dataset summary has no key 'window'")
    years = summary["window"]
    try:
        if not (isinstance(years, list) and len(years) == 3
                and all(type(year) is int for year in years)):
            raise ValueError("need three integer years")
        window = TimeWindow(*years)
    except ValueError as exc:
        raise DataError(f"{json_path}: bad key 'window' {years!r}: {exc}") from None
    if "removals" not in summary:
        raise DataError(f"{json_path}: dataset summary has no key 'removals'")
    removals = summary["removals"]
    if not (isinstance(removals, dict)
            and removals.keys() <= {REMOVAL_DEAD_WORD, REMOVAL_TIE}
            and all(type(n) is int and n >= 0 for n in removals.values())):
        raise DataError(f"{json_path}: key 'removals' must map reasons "
                        f"{REMOVAL_DEAD_WORD} and {REMOVAL_TIE} to counts, "
                        f"got {removals!r}")
    if "births" not in summary:
        raise DataError(f"{json_path}: dataset summary has no key 'births'")
    tokens = summary["births"]
    if not isinstance(tokens, dict):
        raise DataError(f"{json_path}: key 'births' must map lemma_POS tokens "
                        f"to years, got {type(tokens).__name__}")
    births = {}
    for token, year in tokens.items():
        try:
            if not (year is None or type(year) is int):
                raise ValueError(f"year {year!r} is not an integer or null")
            births[split_token(token)] = year
        except ValueError as exc:
            raise DataError(f"{json_path}: bad key 'births' entry "
                            f"{token!r}: {exc}") from None
    if not isinstance(summary.get("clusters"), list):
        raise DataError(f"{json_path}: dataset summary has no key 'clusters' "
                        "listing clusters of lemma_POS tokens")
    clusters, seen = [], set()
    for tokens in summary["clusters"]:
        try:
            if not (isinstance(tokens, list)
                    and all(isinstance(token, str) for token in tokens)):
                raise ValueError("need a list of lemma_POS tokens")
            clusters.append(disjoint_cluster(tokens, seen))
        except ValueError as exc:
            raise DataError(f"{json_path}: bad key 'clusters' entry "
                            f"{tokens!r}: {exc}") from None
    return window, Counter(removals), births, CatVarClusters(clusters)
