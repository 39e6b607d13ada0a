"""One asserted verdict per built-in check.

The full battery runs once per session; each parametrized case then reads
its own result, so the -v listing shows one pass/fail line per check. A red
line here means the stated expectation was computed and not met, with the
observed numbers in the assertion message.
"""

import random
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonauto import acceptance
from nonauto.acceptance import CRITERION_KEYS, _hereditary_rows, run_all
from nonauto.spaces import (
    CIRCLE,
    INTERVAL,
    distance,
    finite_subset,
    hausdorff,
    hausdorff_array,
)

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
    # the hereditary rows read one row per randbytes call, one 16-bit word
    # per bit: 200 words for small, then 200 for the bits big may add
    small, big = [], []
    for _ in range(rows):
        data = rng.randbytes(4 * 200)
        words = [int.from_bytes(data[i:i + 2], "little")
                 for i in range(0, len(data), 2)]
        bits = [w < 2 ** 15 for w in words[:200]]
        small.append(bits)
        big.append([b or w < 3277 for b, w in zip(bits, words[200:])])
    return np.array(small, dtype=bool), np.array(big, dtype=bool)


class WordStream:
    """Hands out given 16-bit words through ``randbytes``, first word first,
    as ``random.Random`` hands out its stream in reads of whole 32-bit
    words."""

    def __init__(self, words):
        self.data = np.array(words, dtype="<u2").tobytes()
        self.pos = 0

    def randbytes(self, n):
        assert n % 4 == 0
        out = self.data[self.pos:self.pos + n]
        assert len(out) == n, "word stream exhausted"
        self.pos += n
        return out


def edge_words(rng, count):
    # words on either side of the cuts 2**15 and 3277, which a uniform
    # stream hits once in 2**15 words, mixed with uniform words
    edges = [2 ** 15 - 1, 2 ** 15, 3276, 3277]
    return [rng.choice(edges) if rng.random() < 0.5 else rng.getrandbits(16)
            for _ in range(count)]


def bulk_rows(rng, rows, chunk):
    blocks = list(_hereditary_rows(rng, rows, chunk))
    assert [len(s) for s, _ in blocks] == [min(chunk, rows - a)
                                           for a in range(0, rows, chunk)]
    for s, b in blocks:
        assert s.dtype == b.dtype == bool
        assert s.shape == b.shape == (len(s), acceptance.HEREDITARY_WIDTH)
        assert np.all(b[s])
    return (np.concatenate([s for s, _ in blocks]),
            np.concatenate([b for _, b in blocks]))


class TestHereditaryDraws:
    ROWS = 2101

    @pytest.fixture(scope="class")
    def reference(self):
        return per_call_rows(random.Random(20260816), self.ROWS)

    # 333 splits the rows into seven blocks, the last one short, and 500
    # leaves a last block of 101 rows; the shipped block size is always
    # among those tested
    @pytest.mark.parametrize("chunk", list(dict.fromkeys(
        [333, 1000, 1, 4096, 500, acceptance.HEREDITARY_CHUNK])))
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
        # rows 3 + 3 + 1, half their words on a cut or next to it
        rows = 7
        words = edge_words(random.Random(seed), 2 * 200 * rows)
        small, big = bulk_rows(WordStream(words), rows, 3)
        want_small, want_big = per_call_rows(WordStream(words), rows)
        assert np.array_equal(small, want_small)
        assert np.array_equal(big, want_big)

    def test_word_stream_replays_random(self):
        # reads of whole 32-bit words join up: one long read of the stream
        # equals the short reads that make it up
        sizes = [4, 800, 12, 8000, 400]
        data = random.Random(7).randbytes(sum(sizes))
        stream = WordStream(np.frombuffer(data, dtype="<u2").tolist())
        real = random.Random(7)
        for n in sizes:
            assert stream.randbytes(n) == real.randbytes(n)

    def test_rates_at_the_check_seed(self):
        # small is set with probability 1/2 and big adds a bit with
        # probability 3277 / 2**16, about 0.05, wherever small is clear
        bits = ones = added = 0
        for small, big in _hereditary_rows(
                random.Random(acceptance.HEREDITARY_SEED),
                acceptance.HEREDITARY_ROWS, acceptance.HEREDITARY_CHUNK):
            bits += small.size
            ones += int(np.count_nonzero(small))
            added += int(np.count_nonzero(big & ~small))
        assert bits == 10 ** 5 * 200
        assert abs(ones / bits - 0.5) < 0.005
        assert abs(added / (bits - ones) - 0.05) < 0.002

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


class TestFamilyClassifiersOracle:
    def test_peak_memory_above_start(self):
        # numpy reports its buffers to tracemalloc, so the peak is exact; one
        # 2**16-row window table with its gap temporaries alone takes 10 MB
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            assert acceptance._check_family_classifiers()[0]
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2 ** 20

    def test_every_mask_reaches_its_own_verdict(self, monkeypatch):
        # flip the classifier's verdict on masks at both edges of the first,
        # second and last blocks: each of the six checks counts each once
        flipped = [0, acceptance.ORACLE_BLOCK - 1, acceptance.ORACLE_BLOCK,
                   2 ** 16 - 1]
        real = acceptance.member_rows

        def wrong(fam, rows):
            got = real(fam, rows)
            if rows.shape[1] == 16:
                got ^= np.isin(rows @ (1 << np.arange(16)), flipped)
            return got

        monkeypatch.setattr(acceptance, "member_rows", wrong)
        monkeypatch.setattr(acceptance, "_hereditary_rows",
                            lambda rng, rows, chunk: iter(()))
        ok, details = acceptance._check_family_classifiers()
        assert not ok
        assert details.startswith(
            f"exhaustive window 16: {6 * len(flipped)} classifier mismatches "
            "over 65536 subsets;")

    def test_non_hereditary_rule_is_caught(self, monkeypatch):
        # "an even number of hits" is not hereditary upward: one more hit
        # turns a yes into a no
        real = acceptance.member_rows

        def parity(fam, rows):
            if rows.shape[1] == acceptance.HEREDITARY_WIDTH:
                return np.count_nonzero(rows, axis=1) % 2 == 0
            return real(fam, rows)

        monkeypatch.setattr(acceptance, "member_rows", parity)
        ok, details = acceptance._check_family_classifiers()
        assert not ok
        violations = re.search(r"hereditary violations (\d+) over", details)
        assert int(violations[1]) > 0


# ---------------------------------------------------------------------------
# Scalar oracles for the array forms of family-classifiers and metric-suite:
# the predicates as stated, over tuples of present times, and the metric
# loops over single triples.


def _brute_infinite(idx, h, min_count, tail_fraction):
    return (len(idx) >= min_count
            and any(n > (1 - tail_fraction) * h for n in idx))


def _brute_cofinite(idx, h, max_missing):
    present = set(idx)
    missing = h - len(present)
    suffix = range(max(1, h - max_missing + 1), h + 1)
    return missing <= max_missing and all(n in present for n in suffix)


def _brute_syndetic(idx, h, max_gap):
    # runs-of-absent formulation: no absent run longer than allowed
    if not idx:
        return h <= max_gap
    runs = []
    prev = 0
    for n in idx:
        runs.append(n - prev - 1)
        prev = n
    lead = runs[0] if runs else 0
    trail = h - idx[-1]
    internal = runs[1:]
    return (lead <= max_gap and trail <= max_gap
            and all(r <= max_gap - 1 for r in internal))


def _mutual_cover(a, b, eps):
    da = all(min(distance(a.space, p, q) for q in b.elements) <= eps
             for p in a.elements)
    db = all(min(distance(a.space, p, q) for p in a.elements) <= eps
             for q in b.elements)
    return da and db


def axiom_failures_loop(d_fn, triples):
    bad = 0
    for x, y, z in triples:
        dxy = d_fn(x, y)
        if dxy < 0 or d_fn(x, x) != 0.0 or d_fn(y, x) != dxy:
            bad += 1
        elif d_fn(x, z) > dxy + d_fn(y, z) + acceptance.TRIANGLE_SLACK:
            bad += 1
    return bad


def subsets_of(h):
    return [tuple(j + 1 for j in range(h) if m >> j & 1)
            for m in range(2 ** h)]


def mask_table(rule, h, *params):
    return rule(np.arange(2 ** h), h, *params).tolist()


class TestMaskTruthTable:
    """The integer truth table of family-classifiers against the scalar
    predicates, mask for mask."""

    def test_check_parameters_over_every_window_16_mask(self):
        subsets = subsets_of(16)
        for rule, brute, params in [
                (acceptance._mask_infinite, _brute_infinite, (4, 0.25)),
                (acceptance._mask_cofinite, _brute_cofinite, (3,)),
                (acceptance._mask_syndetic, _brute_syndetic, (3,))]:
            got = mask_table(rule, 16, *params)
            assert got == [brute(idx, 16, *params) for idx in subsets]
            assert 0 < sum(got) < len(got)

    # 1/3 and 0.3 put the tail threshold on or next to a time
    @pytest.mark.parametrize("h", range(1, 8))
    def test_every_parameter_at_small_windows(self, h):
        subsets = subsets_of(h)
        for count in range(1, h + 2):
            for frac in (0.1, 0.25, 0.3, 1 / 3, 0.5, 0.75, 1.0):
                assert mask_table(acceptance._mask_infinite, h, count,
                                  frac) == [_brute_infinite(idx, h, count,
                                                            frac)
                                            for idx in subsets]
        for bound in range(1, h + 2):
            assert mask_table(acceptance._mask_cofinite, h, bound) == [
                _brute_cofinite(idx, h, bound) for idx in subsets]
            assert mask_table(acceptance._mask_syndetic, h, bound) == [
                _brute_syndetic(idx, h, bound) for idx in subsets]


def bits_of(values):
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


class TestMetricSuiteArrays:
    """The array axiom counter and the array cover against the scalar
    loops, on metrics and data built to fail, so the counts compared are
    not all zero."""

    @staticmethod
    def table_metric(seed, size=12):
        # a metric on points 0 .. size-1 as a distance table, then broken:
        # asymmetric and negative cells, a nonzero self distance, and
        # triangles exactly on and just past the slack
        rng = np.random.default_rng(seed)
        pos = rng.random(size)
        table = np.abs(pos[:, None] - pos[None, :])
        table[1, 2] += 1e-3
        table[3, 4] = -0.25
        table[5, 5] = 1e-9
        on = table[6, 7] + table[7, 8] + acceptance.TRIANGLE_SLACK
        table[6, 8] = table[8, 6] = on
        past = table[9, 10] + table[10, 11] + acceptance.TRIANGLE_SLACK
        table[9, 11] = table[11, 9] = np.nextafter(past, 2.0)
        return table

    @pytest.mark.parametrize("seed", range(4))
    def test_axiom_counter_on_a_broken_table(self, seed):
        table = self.table_metric(seed)
        rng = np.random.default_rng(100 + seed)
        points = rng.integers(0, len(table), (3, 4000))
        points[:, :4] = [[6, 9, 5, 1], [7, 10, 0, 2], [8, 11, 0, 0]]

        def d(a, b):
            return table[a, b]

        want = axiom_failures_loop(d, points.T.tolist())
        got = acceptance._axiom_failures(
            *acceptance._triple_distances(d, *points))
        assert got == want > 0
        # the triangle on the slack passes, the one past it fails
        assert axiom_failures_loop(d, [(6, 7, 8)]) == 0
        assert axiom_failures_loop(d, [(9, 10, 11)]) == 1

    @pytest.mark.parametrize("name, d_fn", [
        ("asymmetric", lambda a, b: abs(a - b) + 1e-3 * (a > b)),
        ("squared", lambda a, b: (a - b) * (a - b)),
        ("signed", lambda a, b: a - b),
        ("offset", lambda a, b: abs(a - b) + 0.5),
        ("interval", lambda a, b: distance(INTERVAL, a, b)),
        ("circle", lambda a, b: distance(CIRCLE, a, b)),
    ])
    def test_axiom_counter_on_real_triples(self, name, d_fn):
        x, y, z = np.random.default_rng(5).random((3, 3000))
        want = axiom_failures_loop(d_fn, zip(x.tolist(), y.tolist(),
                                             z.tolist()))
        got = acceptance._axiom_failures(
            *acceptance._triple_distances(d_fn, x, y, z))
        assert got == want
        assert (want == 0) == (name in ("interval", "circle"))

    @staticmethod
    def padded_subsets(seed, n):
        # sizes 1 .. 4, some elements repeated, so finite_subset merges them
        rng = np.random.default_rng(seed)
        subsets = []
        for _ in range(n):
            elems = rng.choice(np.linspace(0.0, 1.0, 9),
                               rng.integers(1, 5)).tolist()
            subsets.append(finite_subset(elems, INTERVAL))
        width = acceptance.SUBSET_WIDTH
        rows = np.array([s.elements + s.elements[:1] * (width - len(s))
                         for s in subsets])
        return subsets, rows

    def test_padded_hausdorff_equals_scalar_bitwise(self):
        a, rows_a = self.padded_subsets(1, 2000)
        b, rows_b = self.padded_subsets(2, 2000)
        got = hausdorff_array(INTERVAL, rows_a, rows_b)
        assert bits_of(got) == bits_of([hausdorff(p, q)
                                         for p, q in zip(a, b)])

    def test_cover_with_eps_on_the_boundary(self):
        a, rows_a = self.padded_subsets(3, 2000)
        b, rows_b = self.padded_subsets(4, 2000)
        rng = np.random.default_rng(6)
        # every eps equals one of the pair's element distances
        cross = np.abs(rows_a[:, :, None] - rows_b[:, None, :])
        eps = cross.reshape(len(a), -1)[np.arange(len(a)),
                                        rng.integers(0, 16, len(a))]
        got = acceptance._mutual_cover(INTERVAL, rows_a, rows_b, eps)
        want = [_mutual_cover(p, q, e) for p, q, e in zip(a, b, eps)]
        assert got.tolist() == want
        assert 0 < sum(want) < len(want)

    def test_cover_breaks_equal_the_loop(self):
        a, rows_a = self.padded_subsets(7, 2000)
        b, rows_b = self.padded_subsets(8, 2000)
        eps = np.random.default_rng(9).random(len(a))

        def forward(p, q):
            # only one direction of the Hausdorff distance: breaks the
            # equivalence wherever the other direction is larger
            return np.abs(p[..., :, None] - q[..., None, :]).min(-1).max(-1)

        for d_array, want_zero in [
                (lambda p, q: hausdorff_array(INTERVAL, p, q),
                 True),
                (forward, False)]:
            want = sum(
                (float(d_array(np.array(p.elements), np.array(q.elements)))
                 <= e) != _mutual_cover(p, q, e)
                for p, q, e in zip(a, b, eps.tolist()))
            got = np.count_nonzero(
                (d_array(rows_a, rows_b) <= eps)
                != acceptance._mutual_cover(INTERVAL, rows_a, rows_b, eps))
            assert got == want
            assert (want == 0) == want_zero
