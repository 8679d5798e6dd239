"""Synset lexicon and categorial-variation clusters.

The lexicon file is a complete sense inventory for its parts of speech:

    synset_id<TAB>pos<TAB>lemma1,lemma2,...

with pos in {n, v, a, r} (adjective satellites 's' are folded into 'a').
Cluster files hold one comma-separated list of lemma_POS tokens per line.
Lines starting with '#' are ignored in both formats.
"""

import re
from dataclasses import dataclass, field
from typing import NamedTuple

from ._util import cached_property, parse_lines
from .corpus import join_token, split_token

# lexicon pos letter -> corpus tag
POS_TO_CORPUS = {"n": "NOUN", "v": "VERB", "a": "ADJ", "r": "ADV"}

_ELIGIBLE_RE = re.compile(r"[a-z]{3,}")


class SenseId(NamedTuple):
    """A sense rendered as lemma#pos#k, e.g. rapt#a#1.

    A named tuple: immutable, compared, hashed and sorted as the tuple of
    its fields, so a dict lookup keyed by sense costs a tuple hash.
    """

    lemma: str
    pos: str
    sense_number: int

    def __str__(self):
        return f"{self.lemma}#{self.pos}#{self.sense_number}"

    @classmethod
    def parse(cls, text):
        """The sense whose canonical text, str(sense), is text: a non-empty
        lemma, a lexicon pos and k >= 1 in plain decimal digits, so that
        rapt#a#01, rapt#a#0 and #a#1 are refused, each a ValueError.

        A lemma with a comma is refused too: the lexicon splits its
        members on commas, so it never holds one, and the feature file
        joins a word's trigrams with commas, so its trigrams would read
        back as others.
        """
        parts = text.split("#")
        try:
            sense = cls(parts[0], parts[1], int(parts[2]))
        except (IndexError, ValueError):
            sense = None
        if (sense is None or not sense.lemma or sense.pos not in POS_TO_CORPUS
                or sense.sense_number < 1 or str(sense) != text):
            raise ValueError(f"bad sense id {text!r}")
        if "," in sense.lemma:
            raise ValueError(f"bad sense id {text!r}: a lemma holds no comma")
        return sense

    def corpus_key(self):
        """The (lemma, corpus POS tag) key of this sense, e.g. ('rapt', 'ADJ')."""
        return self.lemma, POS_TO_CORPUS[self.pos]


@dataclass(frozen=True)
class Synset:
    id: str
    pos: str
    members: tuple

    def lemmas(self):
        return [m.lemma for m in self.members]

    @cached_property
    def corpus_keys(self):
        """The members' corpus keys, in member order."""
        return tuple(m.corpus_key() for m in self.members)


@dataclass
class Lexicon:
    synsets: list = field(default_factory=list)
    sense_count: dict = field(default_factory=dict)  # (lemma, pos) -> int


def load_lexicon(source):
    """Build a Lexicon from a TSV sense-inventory export.

    Duplicate synset ids and empty member lists are fatal.  Sense numbers
    are assigned by order of appearance of (lemma, pos) in the file.
    """
    sense_count = {}
    seen_ids = set()

    def parse(line):
        fields = line.split("\t")
        if len(fields) != 3:
            raise ValueError("expected 3 columns")
        synset_id, pos, members_field = fields
        if pos == "s":
            pos = "a"
        if pos not in POS_TO_CORPUS:
            raise ValueError(f"unknown pos {pos!r}")
        if synset_id in seen_ids:
            raise ValueError(f"duplicate synset id {synset_id}")
        seen_ids.add(synset_id)
        lemmas = [l for l in members_field.split(",") if l]
        if not lemmas:
            raise ValueError("empty member list")
        if len(set(lemmas)) != len(lemmas):
            raise ValueError("repeated lemma in synset")
        members = []
        for lemma in lemmas:
            count = sense_count.get((lemma, pos), 0) + 1
            sense_count[(lemma, pos)] = count
            members.append(SenseId(lemma, pos, count))
        return Synset(synset_id, pos, tuple(members))

    return Lexicon(parse_lines(source, parse, comments=True), sense_count)


def is_eligible_lemma(lemma):
    """True iff the lemma is all lowercase letters and at least 3 long."""
    return bool(_ELIGIBLE_RE.fullmatch(lemma))


def eligible_synsets(lexicon):
    """Synsets where every member is eligible and monosemous, size >= 2.

    A synset containing any polysemous member is dropped entirely.
    File order is preserved.
    """
    kept = []
    for synset in lexicon.synsets:
        if len(synset.members) < 2:
            continue
        ok = all(
            is_eligible_lemma(m.lemma)
            and lexicon.sense_count.get((m.lemma, m.pos), 0) == 1
            for m in synset.members
        )
        if ok:
            kept.append(synset)
    return kept


@dataclass
class CatVarClusters:
    """Disjoint derivational clusters of (lemma, corpus POS tag) pairs."""

    clusters: list = field(default_factory=list)

    def __post_init__(self):
        self._index = {member: cluster for cluster in self.clusters
                       for member in cluster}

    def cluster_of(self, member):
        return self._index.get(member)

    def members(self):
        return list(self._index)


def disjoint_cluster(tokens, seen):
    """The cluster of some lemma_POS tokens, which then join seen;
    ValueError for a bad token or one already in seen."""
    cluster = frozenset(split_token(token.strip()) for token in tokens)
    repeated = cluster & seen
    if repeated:
        raise ValueError(f"{join_token(min(repeated))} appears in more than one "
                         "cluster")
    seen.update(cluster)
    return cluster


def load_catvar(source):
    """Parse a cluster file; a bad token or a repeated member is fatal."""
    seen = set()
    return CatVarClusters(parse_lines(
        source, lambda line: disjoint_cluster(line.split(","), seen), comments=True))


def categorial_variation_count(word, present, clusters, births):
    """Number of other cluster members already born by the present year.

    word is a (lemma, corpus POS tag) pair.  births maps such pairs to
    first-attestation years; members missing from births contribute 0,
    and a word in no cluster scores 0.
    """
    cluster = clusters.cluster_of(word)
    if cluster is None:
        return 0
    count = 0
    for member in cluster:
        if member == word:
            continue
        born = births.get(member)
        if born is not None and born <= present:
            count += 1
    return count
