"""Per-word feature vectors: length, characters, and corpus trajectory.

Each word in a surviving snapshot gets eight features plus the target
class (1 when the word leads its synset in the future).  The trigram
block is a sparse binary vector over boundary-extended letter trigrams
that no other synset member shares.
"""

import math
import re
from typing import NamedTuple, Optional

from ._util import parse_lines, read_tsv, write_tsv
from .corpus import join_token
from .errors import DataError
from .lexicon import SenseId, categorial_variation_count

VOWELS = "aeiou"

SCALAR_FEATURES = (
    "normalized_length",
    "syllable_count",
    "shared_ngrams",
    "categorial_variations",
    "relative_growth",
    "linear_extrapolation",
    "present_age",
)

FEATURE_NAMES = SCALAR_FEATURES + ("unique_ngrams",)


def boundary_trigrams(lemma):
    """Ordered, de-duplicated trigrams of |lemma|.

    The bars make prefix and suffix trigrams distinct from interior ones:
    'ecstatic' yields |ec, ecs, cst, sta, tat, ati, tic, ic|.
    """
    padded = f"|{lemma}|"
    seen = []
    for i in range(len(padded) - 2):
        tri = padded[i:i + 3]
        if tri not in seen:
            seen.append(tri)
    return tuple(seen)


# a maximal run of the characters that _is_vowel_at calls vowels: the
# lookarounds read the lemma's own characters, as _is_vowel_at does
_VOWEL_GROUPS = re.compile(rf"(?:[{VOWELS}]|(?<=[^{VOWELS}])y(?![{VOWELS}]))+")


def _is_vowel_at(lemma, i):
    ch = lemma[i]
    if ch in VOWELS:
        return True
    if ch != "y" or i == 0:
        return False
    # y is vocalic only away from other vowels
    if lemma[i - 1] in VOWELS:
        return False
    if i + 1 < len(lemma) and lemma[i + 1] in VOWELS:
        return False
    return True


def syllable_count(lemma, exceptions=None):
    """Heuristic syllable count with an optional per-lemma override table.

    Counts maximal vowel groups, dropping a terminal silent 'e' (kept in
    consonant + 'le' endings), floored at 1.
    """
    if exceptions and lemma in exceptions:
        return exceptions[lemma]
    groups = len(_VOWEL_GROUPS.findall(lemma))
    if (
        lemma.endswith("e")
        and (len(lemma) < 2 or not _is_vowel_at(lemma, len(lemma) - 2))
        and not (
            lemma.endswith("le")
            and len(lemma) >= 3
            and not _is_vowel_at(lemma, len(lemma) - 3)
        )
    ):
        groups -= 1
    return max(groups, 1)


def load_syllable_exceptions(source):
    """Parse a lemma<TAB>count override file ('#' comments allowed, counts >= 1,
    each lemma once)."""
    exceptions = {}

    def parse(line):
        try:
            lemma, count = line.split("\t")
            count = int(count)
        except ValueError:
            raise ValueError(f"expected lemma<TAB>integer count, got {line!r}") from None
        if count < 1:
            raise ValueError(f"syllable count of {lemma!r} must be at least 1, got {count}")
        if lemma in exceptions:
            raise ValueError(f"repeated lemma {lemma!r}")
        exceptions[lemma] = count

    parse_lines(source, parse, comments=True)
    return exceptions


class FeatureVector(NamedTuple):
    sense: SenseId
    synset_id: str
    normalized_length: float
    syllable_count: int
    unique_ngrams: tuple
    shared_ngrams: float
    categorial_variations: int
    relative_growth: float
    linear_extrapolation: float
    present_age: int
    target_class: Optional[int] = None

    def without_class(self):
        return self._replace(target_class=None)


def word_shapes(synsets, syllable_exceptions=None):
    """The features of every synset member that depend on its synset alone.

    Returns {SenseId: (normalized_length, syllable_count, unique_ngrams,
    shared_ngrams)}.  load_lexicon numbers senses uniquely and read_dataset
    refuses a repeated sense, so one table serves every window of the
    synsets it was built from.  Each synset's trigrams and longest lemma
    are derived once, so a k-member synset costs O(k).

    A member's trigram is unique when no other member holds it, and
    shared_ngrams is the fraction of its trigrams that are shared.
    """
    shapes = {}
    for synset in synsets:
        lemmas = synset.lemmas()
        trigrams = dict(zip(lemmas, map(boundary_trigrams, lemmas)))
        # the trigrams that two or more lemmas hold
        seen, shared = set(), set()
        for own in trigrams.values():
            shared |= seen.intersection(own)
            seen.update(own)
        max_len = max(map(len, lemmas))
        for member, lemma in zip(synset.members, lemmas):
            own = trigrams[lemma]
            unique = tuple([tri for tri in own if tri not in shared])
            shapes[member] = (len(lemma) / max_len,
                              syllable_count(lemma, syllable_exceptions),
                              unique, (len(own) - len(unique)) / len(own))
    return shapes


def extract_features(dataset, shapes, clusters, births):
    """Feature vectors for every word of every snapshot in a dataset.

    shapes is the word_shapes table of (at least) the dataset's synsets;
    this adds the features that depend on the window.  births maps corpus
    keys, the (lemma, corpus POS tag) tuples that SenseId.corpus_key()
    returns, to first-attestation years and must cover every snapshot
    member (they all have nonzero present counts, so a missing birth year
    signals a corpus/dataset mismatch).  A snapshot whose present counts
    total zero is a DataError too.
    """
    present = dataset.window.present
    cluster_of = clusters.cluster_of
    vectors = []
    append = vectors.append
    for snapshot in dataset.snapshots:
        counts = snapshot.counts
        past_total = sum([c.past for c in counts.values()])
        present_total = sum([c.present for c in counts.values()])
        if present_total <= 0:
            raise DataError("snapshot has zero present total")
        synset_id = snapshot.synset.id
        leader = snapshot.future_leader
        for member, c in counts.items():
            # f1 and f2: the past and present counts relative to the
            # synset's totals; f1 is 0 when no member has a past count
            f1 = c.past / past_total if past_total > 0 else 0.0
            f2 = c.present / present_total
            normalized_length, syllables, unique, shared_fraction = shapes[member]
            key = member.corpus_key()
            born = births.get(key)
            if born is None:
                raise DataError(f"no birth year for {join_token(key)}")
            # positional, in FeatureVector's field order
            append(FeatureVector(
                member, synset_id, normalized_length, syllables, unique,
                shared_fraction,
                0 if cluster_of(key) is None else categorial_variation_count(
                    key, present, clusters, births),
                f2 - f1, 2.0 * f2 - f1, present - born, int(member == leader)))
    return vectors


# The feature file's columns: the scalars in SCALAR_FEATURES order between
# the ids and the class, the unique trigrams last, comma-separated.
FEATURE_COLUMNS = ("synset_id", "sense_id", *SCALAR_FEATURES, "target_class",
                   "unique_ngrams")


def write_feature_vectors(vectors, path):
    """Dump vectors as TSV; floats use repr so the file round-trips exactly."""
    write_tsv(path, FEATURE_COLUMNS, ((
        v.synset_id, str(v.sense),
        *(repr(getattr(v, name)) for name in SCALAR_FEATURES),
        "" if v.target_class is None else str(v.target_class),
        ",".join(v.unique_ngrams),
    ) for v in vectors))


# Largest magnitude a feature file may hold.  The model squares the
# difference of a value and a class mean (at most 2e100 in a loaded model)
# and divides it by twice the variance floor: (3e100)**2 / 2e-9 < 1e210,
# so every fit and score term stays finite.
MAX_FEATURE_MAGNITUDE = 1e100


def _feature_value(text, parse):
    value = parse(text)
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    if abs(value) > MAX_FEATURE_MAGNITUDE:
        raise ValueError(f"value {text!r} exceeds the feature magnitude bound "
                         f"{MAX_FEATURE_MAGNITUDE:g}")
    return value


def read_feature_vectors(path):
    """Reload vectors written by write_feature_vectors.

    A malformed row, a value beyond MAX_FEATURE_MAGNITUDE, a repeated
    sense or a row that repeats a trigram is a DataError naming the file
    and line: the model counts each trigram of a word once.
    """
    seen = set()

    def parse(fields):
        synset_id, sense_text, *scalars, target, trigrams = fields
        if target not in ("", "0", "1"):
            raise ValueError(f"target_class must be empty, 0 or 1, got {target!r}")
        sense = SenseId.parse(sense_text)
        if sense in seen:
            raise ValueError(f"repeated sense {sense_text}")
        seen.add(sense)
        unique_ngrams = tuple(t for t in trigrams.split(",") if t)
        if len(set(unique_ngrams)) < len(unique_ngrams):
            raise ValueError(f"repeated trigram in {trigrams!r}")
        return FeatureVector(
            sense=sense,
            synset_id=synset_id,
            unique_ngrams=unique_ngrams,
            target_class=int(target) if target else None,
            # each scalar parsed as the type FeatureVector declares for it
            **{name: _feature_value(text, FeatureVector.__annotations__[name])
               for name, text in zip(SCALAR_FEATURES, scalars)},
        )

    return read_tsv(path, FEATURE_COLUMNS, parse)
