"""One asserted verdict per built-in check.

The full battery runs once per session; each parametrized case then reads
its own result, so the -v listing shows one pass/fail line per check. A red
line here means the stated expectation was computed and not met, with the
observed numbers in the assertion message.
"""

import math
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonauto import acceptance
from nonauto.acceptance import CRITERION_KEYS, _hereditary_rows, run_all

_RESULTS = None


def results():
    global _RESULTS
    if _RESULTS is None:
        _RESULTS = {r.key: r for r in run_all()}
    return _RESULTS


@pytest.mark.parametrize("key", CRITERION_KEYS)
def test_criterion(key):
    r = results()[key]
    assert r.passed, f"{r.title}: {r.details}"


def test_every_check_is_covered():
    assert set(results()) == set(CRITERION_KEYS)
    assert len(CRITERION_KEYS) == 10


# The details text the brute-force checks print, as computed by the
# one-draw-per-call and two-oracle-pass versions of the checks and by the
# metric suite that built its symbolic triples as one list.
PINNED_DETAILS = {
    "family-classifiers": (
        "exhaustive window 16: 0 classifier mismatches over 65536 subsets; "
        "hereditary violations 0 over 100000 pairs; intersection closure "
        "passed=True for count-and-tail, counterexamples=1 for cofinite"),
    "perturbation-bound": (
        "0 bound failures over 1000 sampled (x, n, k); summable tail "
        "S_1000=1.0 converged=True; harmonic converged=False"),
    "metric-suite": (
        "axiom failures per space {'interval': 0, 'circle': 0, "
        "'symbolic': 0, 'subsets': 0}; covering equivalence breaks 0; "
        "window enlargement breaks 0; 10000 samples each"),
}


@pytest.mark.parametrize("key", sorted(PINNED_DETAILS))
def test_details_text_pinned(key):
    assert results()[key].details == PINNED_DETAILS[key]


def test_metric_suite_takes_the_same_draws(monkeypatch):
    # streaming the symbolic triples must leave random.Random(5150) where
    # the list-built triples left it: the next draw is pinned
    made = []

    class Recording(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    monkeypatch.setattr(acceptance.random, "Random", Recording)
    assert acceptance._check_metric_suite()[0]
    assert len(made) == 1
    assert made[0].random() == 0.14303450423396746


def per_call_rows(rng, rows):
    # the hereditary draws as one random() call per bit
    small, big = [], []
    for _ in range(rows):
        bits = [rng.random() < 0.5 for _ in range(200)]
        small.append(bits)
        big.append([b or rng.random() < 0.05 for b in bits])
    return np.array(small, dtype=bool), np.array(big, dtype=bool)


class WordStream:
    """Hands out given 32-bit words as ``random.Random`` would: bulk through
    ``getrandbits`` (first word lowest), one draw per ``random()`` call."""

    def __init__(self, words):
        self.words = words
        self.pos = 0

    def take(self, n):
        out = self.words[self.pos:self.pos + n]
        assert len(out) == n, "word stream exhausted"
        self.pos += n
        return out

    def getrandbits(self, k):
        assert k % 64 == 0
        return int.from_bytes(
            np.array(self.take(k // 32), dtype="<u4").tobytes(), "little")

    def random(self):
        w0, w1 = self.take(2)
        return ((w0 >> 5) * 67108864.0 + (w1 >> 6)) * (1.0 / 9007199254740992.0)


def edge_words(rng, count):
    # the draws just below and above 0.05, as a * 2**26 + b over 2**53
    cut = math.floor(Fraction(0.05) * 2 ** 53)
    near = [cut - 1, cut, cut + 1, cut + 2]
    words = []
    while len(words) < count:
        kind = rng.randrange(4)
        if kind == 0:
            w0 = rng.choice([2 ** 31 - 1, 2 ** 31, 2 ** 31 + 1])
            words += [w0, rng.getrandbits(32)]
        elif kind == 1:
            x = rng.choice(near)
            words += [(x >> 26) << 5 | rng.getrandbits(5),
                      (x & (2 ** 26 - 1)) << 6 | rng.getrandbits(6)]
        else:
            words += [rng.getrandbits(32), rng.getrandbits(32)]
    return words[:count]


def bulk_rows(rng, rows, chunk):
    blocks = list(_hereditary_rows(rng, rows, chunk))
    assert [len(s) for s, _ in blocks] == [min(chunk, rows - a)
                                           for a in range(0, rows, chunk)]
    for s, b in blocks:
        assert s.dtype == b.dtype == bool and s.shape == b.shape
    return (np.concatenate([s for s, _ in blocks]),
            np.concatenate([b for _, b in blocks]))


class TestHereditaryDraws:
    ROWS = 2101

    @pytest.fixture(scope="class")
    def reference(self):
        return per_call_rows(random.Random(20260816), self.ROWS)

    # 333 splits the rows into seven blocks, the last one short, so the
    # unused draws carry across six block boundaries; the shipped block size
    # is always among those tested
    @pytest.mark.parametrize("chunk", list(dict.fromkeys(
        [333, 1000, 1, 4096, acceptance.HEREDITARY_CHUNK])))
    def test_bulk_rows_equal_per_call_loop(self, reference, chunk):
        small, big = bulk_rows(random.Random(20260816), self.ROWS, chunk)
        want_small, want_big = reference
        assert np.array_equal(small, want_small)
        assert np.array_equal(big, want_big)
        assert not np.array_equal(small, big)

    @given(st.integers(min_value=0, max_value=2 ** 64),
           st.integers(min_value=1, max_value=40),
           st.integers(min_value=1, max_value=17))
    @settings(max_examples=40, deadline=None)
    def test_any_seed_and_chunk(self, seed, rows, chunk):
        small, big = bulk_rows(random.Random(seed), rows, chunk)
        want_small, want_big = per_call_rows(random.Random(seed), rows)
        assert np.array_equal(small, want_small)
        assert np.array_equal(big, want_big)

    @pytest.mark.parametrize("seed", range(6))
    def test_edge_words(self, seed):
        # words where a draw sits on either side of 0.5 or of 0.05, which
        # a uniform stream almost never hits; rows 3 + 3 + 1 carry twice
        rows = 7
        words = edge_words(random.Random(seed), 2 * 400 * rows)
        small, big = bulk_rows(WordStream(words), rows, 3)
        want_small, want_big = per_call_rows(WordStream(words), rows)
        assert np.array_equal(small, want_small)
        assert np.array_equal(big, want_big)

    def test_word_stream_replays_random(self):
        rng = random.Random(7)
        n = 10 ** 4
        words = np.frombuffer(rng.getrandbits(64 * n).to_bytes(8 * n, "little"),
                              dtype="<u4").tolist()
        stream, real = WordStream(words), random.Random(7)
        assert all(stream.random() == real.random() for _ in range(n))

    def test_check_draws_from_fresh_seeded_stream(self, monkeypatch):
        seen = []

        def spy(rng, rows, chunk):
            seen.append((type(rng), rng.getstate(), rows))
            return iter(())

        monkeypatch.setattr(acceptance, "_hereditary_rows", spy)
        acceptance._check_family_classifiers()
        assert seen == [(random.Random,
                         random.Random(20260816).getstate(), 10 ** 5)]

    def test_check_does_not_import_numpy_random(self):
        # numpy.random adds about 6 MB to the peak of verify
        code = ("import sys\n"
                "from nonauto.cli import main\n"
                "code = main(['verify', '--only', 'family-classifiers'])\n"
                "print('numpy.random' in sys.modules, code)\n")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True).stdout
        assert out.splitlines()[-1] == "False 0"
