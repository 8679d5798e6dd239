"""A fixed reference kernel that measures how fast the machine runs now.

The benchmark's host is shared: its speed drifts by a third or more
within minutes, as other tenants come and go.  Each run times this kernel
between its iterations and scales every reported time by
``REFERENCE_S / mean reference time``, so a run on a busy host and one on
a quiet host report nearly the same seconds for the same work.

The kernel does what lexevo's hot loops do, in pure Python: split TSV
rows, look keys up in a set, accumulate year counts in dicts and sum
floats.  It never calls lexevo, so a change to the package cannot move it.
"""

import random
import time

# Seconds the kernel takes on the scale the reported times are given in:
# about its time on an idle 2-core x86-64 VM with Python 3.11.
REFERENCE_S = 0.012


class Reference:
    def __init__(self):
        rng = random.Random("lexevo-perfbench-reference")
        words = ["".join(rng.choice("abcdefghij") for _ in range(6)) for _ in range(20000)]
        self.rows = [f"{w}_NOUN\t{1800 + i % 200}\t{i % 97}\t{i % 13}"
                     for i, w in enumerate(words)]
        self.keys = set(words[::10])
        self.times = []

    def kernel(self):
        series = {}
        kept = 0
        for row in self.rows:
            fields = row.split("\t")
            lemma, _, _ = fields[0].rpartition("_")
            if lemma in self.keys:
                series.setdefault(lemma, {})[int(fields[1])] = int(fields[2])
                kept += 1
        total = 0.0
        for counts in series.values():
            for year, count in counts.items():
                total += (count - 3.5) ** 2 / (year + 1.0)
        return kept, total

    def measure(self):
        """Time the kernel once and keep the time."""
        t0 = time.perf_counter()
        self.kernel()
        self.times.append(time.perf_counter() - t0)

    def scale(self):
        """Factor that puts this run's times on the REFERENCE_S scale."""
        return REFERENCE_S * len(self.times) / sum(self.times)
