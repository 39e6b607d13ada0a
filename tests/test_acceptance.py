"""One asserted verdict per built-in check.

The full battery runs once per session; each parametrized case then reads
its own result, so the -v listing shows one pass/fail line per check. A red
line here means the stated expectation was computed and not met, with the
observed numbers in the assertion message.
"""

import ast
import dataclasses
import itertools
import random
import re
import subprocess
import sys
import tracemalloc
import weakref
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import test_sensitivity
from nonauto import acceptance, registry, sensitivity
from nonauto.acceptance import CRITERION_KEYS, run_all
from nonauto.families import (
    cofinite_family,
    dual,
    infinite_family,
    member,
    member_rows,
    syndetic_family,
    windowed,
)
from nonauto.sensitivity import FAILS, HOLDS
from nonauto.spaces import (
    CIRCLE,
    INTERVAL,
    distance,
    finite_subset,
    hausdorff,
    hausdorff_array,
    make_symbolic,
    metric_ball,
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


# The details text the brute-force checks print.
PINNED_DETAILS = {
    "family-classifiers": (
        "exhaustive window 16: 0 classifier mismatches over 65536 subsets; "
        "hereditary violations 0 over 4194304 covering pairs; 1 of 8 rules "
        "partition regular, 7 of 7 witnesses confirmed"),
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


class Recording(random.Random):
    """A ``random.Random`` that keeps every instance and every randbytes
    read, as (bytes asked, bytes given)."""

    made = []

    def __init__(self, seed):
        super().__init__(seed)
        self.seed = seed
        self.reads = []
        self.made.append(self)

    def randbytes(self, n):
        out = super().randbytes(n)
        self.reads.append((n, out))
        return out


@pytest.fixture
def recording(monkeypatch):
    monkeypatch.setattr(acceptance.random, "Random", Recording)
    monkeypatch.setattr(Recording, "made", [])
    return Recording.made


def spied_metric_suite(keep_points=False):
    """Run metric-suite recording its random.Random instances, every unit
    array, the (code, radius) of every point it builds, with the point
    itself if ``keep_points``, and its padded subset arrays."""
    run = SimpleNamespace(made=[], units=[], points=[], subsets={})
    real_units = acceptance._units
    real_point = acceptance.symbolic_from_code
    real_hausdorff = acceptance.hausdorff_array

    def spy_units(rng, count):
        run.units.append(real_units(rng, count))
        return run.units[-1]

    def spy_point(code, radius):
        point = real_point(code, radius)
        run.points.append((code, radius) + ((point,) if keep_points else ()))
        return point

    def spy_hausdorff(space, a, b):
        run.subsets.update({id(a): a, id(b): b})
        return real_hausdorff(space, a, b)

    with mock.patch.object(acceptance.random, "Random", Recording), \
            mock.patch.object(Recording, "made", run.made), \
            mock.patch.multiple(acceptance, _units=spy_units,
                                symbolic_from_code=spy_point,
                                hausdorff_array=spy_hausdorff):
        run.ok, run.details = acceptance._check_metric_suite()
    # hausdorff_array takes (elements, subsets); keep (subsets, elements)
    run.subsets = [s.T for s in run.subsets.values()]
    return run


@pytest.fixture(scope="module")
def suite_run():
    # one recorded run at the check's own size, shared by the draw tests
    run = spied_metric_suite()
    [rng] = run.made
    run.next_draw = rng.random()
    return run


def test_metric_suite_takes_the_same_draws(suite_run):
    # the words read leave random.Random(5150) at a pinned position: the
    # 1,550,000 bytes of the check's reads, and the next draw
    assert suite_run.ok
    [rng] = suite_run.made
    assert sum(n for n, _ in rng.reads) == 1_550_000
    assert suite_run.next_draw == 0.4030424971473383


def row_of(fam, mask, h):
    # the per-call reference: one member() per subset, built as indices
    return member(fam, windowed([j + 1 for j in range(h) if mask >> j & 1],
                                h))


def check_families():
    # the eight rules of family-classifiers: four rules and their duals
    fams = [infinite_family(4, 0.25), cofinite_family(3), syndetic_family(3),
            infinite_family(1, 0.25)]
    return [g for f in fams for g in (f, dual(f))]


# the default-parameter rules at width 200, each with the row its
# near-threshold rows start from: every one of them accepts some rows 0 to
# 20 flips away from it and rejects others
EDGE_CASES = [(infinite_family(), False), (dual(infinite_family()), True),
              (cofinite_family(), True), (dual(cofinite_family()), False),
              (syndetic_family(), False), (dual(syndetic_family()), True)]


class TestHereditaryDraws:
    """The rows the hereditary test reads: verdict rows built a block of
    masks at a time against one ``member`` call per mask, and width-200
    rows drawn at each default rule's threshold."""

    @pytest.fixture(scope="class")
    def per_call_rows(self):
        return [[row_of(f, m, 10) for m in range(2 ** 10)]
                for f in check_families()]

    # 333 splits the 1024 masks into four blocks, the last one short, and
    # 4096 takes them in one; the shipped block size is always among those
    @pytest.mark.parametrize("chunk", list(dict.fromkeys(
        [333, 1000, 1, 4096, 500, 100, acceptance.ORACLE_BLOCK])))
    def test_bulk_rows_equal_per_call_loop(self, monkeypatch, per_call_rows,
                                           chunk):
        monkeypatch.setattr(acceptance, "ORACLE_BLOCK", chunk)
        rows = acceptance._verdict_rows(check_families(), 10)
        assert rows.shape == (8, 2 ** 10)
        assert rows.tolist() == per_call_rows

    @given(st.integers(min_value=0, max_value=2 ** 64),
           st.integers(min_value=1, max_value=7),
           st.integers(min_value=1, max_value=17))
    @settings(max_examples=40, deadline=None)
    def test_any_seed_and_chunk(self, seed, h, chunk):
        # rules at any parameters, the window's edges included
        rng = random.Random(seed)
        fams = [infinite_family(rng.randint(1, h + 1),
                                rng.choice([0.1, 0.25, 1 / 3, 0.5, 1.0])),
                cofinite_family(rng.randint(1, h + 1)),
                syndetic_family(rng.randint(1, h + 1))]
        fams += [dual(f) for f in fams]
        with mock.patch.object(acceptance, "ORACLE_BLOCK", chunk):
            rows = acceptance._verdict_rows(fams, h)
        assert rows.tolist() == [[row_of(f, m, h) for m in range(2 ** h)]
                                 for f in fams]

    @pytest.mark.parametrize("case", range(len(EDGE_CASES)))
    @given(st.integers(min_value=0, max_value=2 ** 64))
    @settings(max_examples=15, deadline=None)
    def test_edge_words(self, case, seed):
        # 32 binary words of 200 times, each 0 to 20 flips from the case's
        # start row, then all 200 covering supersets of each: adding one
        # time never turns a yes into a no, and the rows get both verdicts
        fam, start = EDGE_CASES[case]
        rng = random.Random(seed)
        small = np.full((32, 200), start)
        for row in small:
            row[rng.sample(range(200), rng.randint(0, 20))] = not start
        big = small[:, None, :] | np.eye(200, dtype=bool)
        was = member_rows(fam, small)
        now = member_rows(fam, big.reshape(-1, 200)).reshape(32, 200)
        assert 0 < np.count_nonzero(was) < 32
        assert not np.any(was[:, None] & ~now)

    def test_check_does_not_import_numpy_random(self):
        # numpy.random adds about 6 MB to the peak of verify
        code = ("import sys\n"
                "from nonauto.cli import main\n"
                "codes = [main(['verify', '--only', key]) for key in\n"
                "         ('family-classifiers', 'metric-suite')]\n"
                "print('numpy.random' in sys.modules, codes)\n")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True).stdout
        assert out.splitlines()[-1] == "False [0, 0]"


def covering_violations_loop(rows):
    # every (m, m | 1 << b) with bit b clear in m, one pair at a time
    h = len(rows[0]).bit_length() - 1
    pairs = [(m, m | 1 << b) for b in range(h) for m in range(2 ** h)
             if not m >> b & 1]
    return (sum(row[m] and not row[up] for row in rows for m, up in pairs),
            len(rows) * len(pairs))


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
        # second and last blocks: each of the eight checks counts each once
        flipped = [0, acceptance.ORACLE_BLOCK - 1, acceptance.ORACLE_BLOCK,
                   2 ** 16 - 1]
        real = acceptance.member_rows

        def wrong(fam, rows):
            got = real(fam, rows)
            if rows.shape[1] == 16:
                got ^= np.isin(rows @ (1 << np.arange(16)), flipped)
            return got

        monkeypatch.setattr(acceptance, "member_rows", wrong)
        ok, details = acceptance._check_family_classifiers()
        assert not ok
        assert details.startswith(
            f"exhaustive window 16: {8 * len(flipped)} classifier mismatches "
            "over 65536 subsets;")

    def test_every_row_splits_its_masks(self, monkeypatch):
        # the hereditary test has power only on rows that accept some masks
        # and refuse others; these are the eight rows' acceptance counts
        seen = []
        real = acceptance._hereditary_violations

        def spy(rows):
            seen.append(rows.copy())
            return real(rows)

        monkeypatch.setattr(acceptance, "_hereditary_violations", spy)
        assert acceptance._check_family_classifiers()[0]
        [rows] = seen
        assert np.count_nonzero(rows, axis=1).tolist() == [
            61042, 4494, 378, 65158, 23072, 42464, 61440, 4096]

    @pytest.mark.parametrize("decide, counts", [
        # every rule called regular; then a witness no predicate confirms
        (lambda row: None, "8 of 8 rules partition regular, 0 of 0"),
        (lambda row: (0, 0), "0 of 8 rules partition regular, 0 of 8")])
    def test_partition_decisions_are_checked(self, monkeypatch, decide,
                                             counts):
        monkeypatch.setattr(acceptance, "partition_witness", decide)
        ok, details = acceptance._check_family_classifiers()
        assert not ok
        assert details.endswith(f"{counts} witnesses confirmed")

    @given(st.integers(min_value=1, max_value=8),
           st.integers(min_value=1, max_value=3), st.randoms())
    @settings(max_examples=40, deadline=None)
    def test_covering_pairs_equal_the_loop(self, h, count, rng):
        # rows of any verdicts, most of them not hereditary
        rows = [[rng.random() < 0.5 for _ in range(2 ** h)]
                for _ in range(count)]
        got = acceptance._hereditary_violations(np.array(rows))
        assert got == covering_violations_loop(rows)
        assert got[1] == count * h * 2 ** (h - 1)

    def test_non_hereditary_rule_is_caught(self, monkeypatch):
        # "an even number of hits" is not hereditary upward: one more hit
        # turns a yes into a no, on each of the 2**14 even masks with bit b
        # clear, for each of 16 bits and eight rows
        def parity(fam, rows):
            return np.count_nonzero(rows, axis=1) % 2 == 0

        monkeypatch.setattr(acceptance, "member_rows", parity)
        ok, details = acceptance._check_family_classifiers()
        assert not ok
        violations = re.search(r"hereditary violations (\d+) over", details)
        assert int(violations[1]) == 8 * 2 ** 18


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
                (acceptance._mask_syndetic, _brute_syndetic, (3,)),
                (acceptance._mask_infinite, _brute_infinite, (1, 0.25))]:
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
        got = hausdorff_array(INTERVAL, rows_a.T, rows_b.T)
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
                (lambda p, q: hausdorff_array(INTERVAL, p.T, q.T),
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


def axiom_counts(details):
    # the per-space dict and the two break counts of metric-suite's details
    found = re.fullmatch(r"axiom failures per space (\{.*\}); covering "
                         r"equivalence breaks (\d+); window enlargement "
                         r"breaks (\d+); \d+ samples each", details)
    return ast.literal_eval(found[1]), int(found[2]), int(found[3])


class TestMetricSuiteDraws:
    """metric-suite's words: points built from their codes, the shapes,
    ranges and rates of what the check draws at seed 5150, the reads
    themselves, and broken metrics the draws still catch."""

    @given(st.integers(min_value=1, max_value=12),
           st.one_of(st.sampled_from([12, 64]),
                     st.integers(min_value=1, max_value=100)),
           st.randoms(use_true_random=False))
    @settings(max_examples=200)
    def test_code_points_equal_make_symbolic(self, span, radius, rng):
        # the check's points: a support code with bit i at coordinate
        # i - span, moved up to the window's coordinate -span
        assume(radius >= span)
        code = rng.getrandbits(2 * span + 1)
        ones = {i - span: 1 for i in range(2 * span + 1) if code >> i & 1}
        got = acceptance.symbolic_from_code(code << (radius - span), radius)
        want = make_symbolic(ones, radius=radius)
        assert (got.origin, got.size, got.fwd, got.rev) == (
            want.origin, want.size, want.fwd, want.rev)
        assert got == want and hash(got) == hash(want)
        assert [got.coord(j) for j in range(-radius - 1, radius + 2)] == [
            ones.get(j, 0) for j in range(-radius - 1, radius + 2)]

    def test_rates_at_the_check_seed(self, suite_run):
        units, points, subsets = (suite_run.units, suite_run.points,
                                  suite_run.subsets)
        # triples, subset elements, covering radii: on the 2**-53 grid
        assert [len(u) for u in units] == [30000, 120000, 10000]
        for u in units:
            assert np.all((0.0 <= u) & (u < 1.0))
            assert np.all(u * 2.0 ** 53 == np.floor(u * 2.0 ** 53))
            assert abs(u.mean() - 0.5) < 0.01
        # triple points: 25-bit supports over coordinates -12 .. 12 at
        # radius 64, each bit set half the time; window pairs: 17-bit
        # supports over -8 .. 8, each at w then at wide
        assert len(points) == 70000
        supports = [(c >> (r - span), c % (1 << (r - span)), r)
                    for span, part in ((12, points[:30000]),
                                       (8, points[30000:]))
                    for c, r in part]
        codes, below, radii = map(np.array, zip(*supports[:30000]))
        assert set(radii) == {64} and not below.any()
        assert codes.max() < 2 ** 25
        rates = ((codes[:, None] >> np.arange(25)) & 1).mean(axis=0)
        assert np.all(abs(rates - 0.5) < 0.015)
        codes, below, radii = (np.array(v).reshape(-1, 4)
                               for v in zip(*supports[30000:]))
        assert not below.any() and codes.max() < 2 ** 17
        assert np.all(codes[:, :2] == codes[:, 2:])
        assert np.all(radii[:, 0] == radii[:, 1])
        assert np.all(radii[:, 2] == radii[:, 3])
        assert set(radii[:, 0]) == set(range(10, 41))
        assert set(radii[:, 2] - radii[:, 0]) == set(range(1, 25))
        rates = ((codes[:, :2, None] >> np.arange(17)) & 1).mean(axis=(0, 1))
        assert np.all(abs(rates - 0.5) < 0.02)
        # three (10000, 4) subset arrays: k distinct elements padded with
        # the first, k from 1 to 4 about a quarter of the time each
        assert [s.shape for s in subsets] == [(10000, 4)] * 3
        for rows in subsets:
            sizes = np.array([len(set(row)) for row in rows.tolist()])
            assert all(np.all(row[k:] == row[0])
                       for row, k in zip(rows, sizes))
            shares = np.bincount(sizes, minlength=5)[1:] / len(rows)
            assert np.all(abs(shares - 0.25) < 0.02)

    def test_peak_memory_above_start(self):
        # verify drops its cached scans before this check; a large peak of
        # its own would set verify's again: points are built triple by
        # triple, where a list of its 30,000 radius-64 points would take
        # about 31 MB, and the covering test folds element pairs into bool
        # rows in place
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            assert acceptance._check_metric_suite()[0]
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2 ** 20

    def test_word_stream_replays_random(self, suite_run):
        # whole 32-bit words per read, so the reads join up into one
        [rng] = suite_run.made
        assert all(n % 4 == 0 for n, _ in rng.reads)
        assert b"".join(out for _, out in rng.reads) == random.Random(
            5150).randbytes(sum(n for n, _ in rng.reads))

    def test_check_draws_from_fresh_seeded_stream(self, recording,
                                                  suite_run):
        # family-classifiers is exhaustive and draws nothing
        assert acceptance._check_family_classifiers()[0]
        assert recording == []
        assert [r.seed for r in suite_run.made] == [5150]

    # the broken metrics run at 1,000 samples each: every break is counted
    # against a scalar loop over the same points, so the size only sets
    # the counts

    @pytest.mark.parametrize("name", ["asymmetric", "window-scaled"])
    def test_broken_dist_symbolic_is_caught(self, monkeypatch, name):
        # the triples for the axioms, the (x, y) pairs at w and at wide for
        # the window test
        real = acceptance.dist_symbolic
        if name == "asymmetric":
            def broken(x, y):
                return real(x, y) + 1e-3 * (x.fwd > y.fwd)
        else:
            def broken(x, y):
                return real(x, y) * x.radius / 64
        monkeypatch.setattr(acceptance, "GRID_POINTS", 1000)
        monkeypatch.setattr(acceptance, "dist_symbolic", broken)
        run = spied_metric_suite(keep_points=True)
        pts = [p[2] for p in run.points]
        triples = [pts[i:i + 3] for i in range(0, 3000, 3)]
        window = sum(
            abs(broken(xw, yw) - broken(xv, yv)) > 2.0 ** (1 - xw.radius)
            for xw, yw, xv, yv in zip(*[iter(pts[3000:])] * 4))
        bad, cover, windows = axiom_counts(run.details)
        assert not run.ok
        assert bad["symbolic"] == axiom_failures_loop(broken, triples)
        assert windows == window
        assert (bad["symbolic"] > 0, windows > 0) == (
            name == "asymmetric", name == "window-scaled")
        assert bad["interval"] == bad["circle"] == bad["subsets"] == cover == 0

    def test_broken_hausdorff_is_caught(self, monkeypatch):
        # one direction of the Hausdorff distance only: not symmetric, and
        # below the covering radius where the other direction is not
        def forward(space, p, q):
            # element axis first, as hausdorff_array takes it
            return distance(space, p[:, None], q[None]).min(1).max(0)

        monkeypatch.setattr(acceptance, "GRID_POINTS", 1000)
        monkeypatch.setattr(acceptance, "hausdorff_array", forward)
        run = spied_metric_suite()
        x, y, z = run.subsets
        bad, cover, windows = axiom_counts(run.details)
        assert not run.ok
        assert bad["subsets"] == axiom_failures_loop(
            lambda p, q: forward(INTERVAL, p, q), zip(x, y, z)) > 0
        assert cover > 0
        assert bad["symbolic"] == windows == 0


class TestFailureBranches:
    """Each check turns red, naming what broke, on a fault forced through
    the module's own bindings."""

    def test_transcription_guard_catches_a_perturbed_closed_form(
            self, monkeypatch):
        pieces = list(acceptance.TWO_STEP_PIECES)
        pieces[3] = (0.25, 0.75, 2.0, -0.49)    # lifts the knot at 1/4
        monkeypatch.setattr(acceptance, "TWO_STEP_PIECES", tuple(pieces))
        ok, details = acceptance._check_transcription_guard()
        dev = re.fullmatch(r"composition deviates from closed form by (.+)",
                           details)
        assert not ok and float(dev[1]) == pytest.approx(0.01, abs=1e-3)

    def test_transcription_guard_catches_gaps_and_escapes(self, monkeypatch):
        gap = (("f", 0.5, 0.0, 0.1),)
        monkeypatch.setattr(acceptance, "verify_continuity", lambda named:
                            SimpleNamespace(continuous=False, violations=gap))
        monkeypatch.setattr(acceptance, "apply", lambda m, x: 2.0)
        ok, details = acceptance._check_transcription_guard()
        assert not ok
        assert details == "; ".join(
            [f"{name} discontinuous at {gap}" for name in (
                "example41_f1", "example41_f2", "example41_composition")]
            + ["f1 leaves [1/4, 1]", "f2 leaves [0, 1/4]"])

    def test_embedding_counts_catch_a_system_that_does_not_embed(
            self, monkeypatch):
        # the identity never separates the ball past 0.2, while the
        # composed cycle does: every coarse hit is missing and unequal
        build = acceptance.build
        monkeypatch.setattr(acceptance, "build", lambda name: build(
            "identity" if name == "example41_generated" else name))
        monkeypatch.setattr(acceptance, "default_cover", lambda kind: (
            metric_ball(INTERVAL, 0.5, 0.05),))
        ok, details = acceptance._check_generated_embedding()
        counts = re.fullmatch(
            r"(\d+) hit times across 1 regions; (\d+) missing at doubled "
            r"time; (\d+) witness separations not bitwise equal", details)
        checked, violations, mismatches = map(int, counts.groups())
        assert not ok and checked > 0
        assert violations == mismatches == checked

    def test_weak_strong_agreement_catches_flipped_verdicts(self,
                                                            monkeypatch):
        # flip the first holding and the first failing weak verdict: the
        # first breaks agreement only, the second weak => strong as well
        real = acceptance.weak_sensitivity_probe
        flipped = {}

        def probe(seq, delta, fam, *rest):
            rep = real(seq, delta, fam, *rest)
            if rep.verdict in flipped:
                return rep
            flipped[rep.verdict] = (next(
                n for n in registry.registry_names()
                if registry.build(n).sequence is seq), fam.kind)
            return dataclasses.replace(rep, verdict=(
                FAILS if rep.holds else HOLDS))

        monkeypatch.setattr(acceptance, "weak_sensitivity_probe", probe)
        ok, details = acceptance._check_weak_strong_agreement()
        assert not ok and set(flipped) == {HOLDS, FAILS}
        assert details.split("; ", 1)[1] == (
            f"implication violations {[flipped[FAILS]]}; agreement breaks "
            f"{list(flipped.values())}")

    def test_perturbation_bound_counts_failed_records(self, monkeypatch):
        real = acceptance.shadow_bound_check
        calls = []

        def check(*args):
            calls.append(args)
            return dataclasses.replace(real(*args), ok=len(calls) % 100 != 0)

        monkeypatch.setattr(acceptance, "shadow_bound_check", check)
        ok, details = acceptance._check_perturbation_bound()
        assert not ok and len(calls) == 1000
        assert details.startswith(
            "10 bound failures over 1000 sampled (x, n, k); ")


SCAN_FREE = CRITERION_KEYS[CRITERION_KEYS.index(acceptance.SCAN_FREE_FROM):]


class TestScanRelease:
    """``run_all`` drops the cached scans once no check left reads one."""

    def test_release_survives_rebound_cache(self, monkeypatch):
        # rebind region_scan in every module of the package to a plain
        # function with no attributes, as perfbench/traced_cli.py does; the
        # stubs run under the real keys, so the release point is the real one
        cache = sensitivity.region_scan
        calls = test_sensitivity.TestTracedCallPattern.install(monkeypatch,
                                                               cache)
        seq = registry.build("example41_composition").sequence
        region = metric_ball(INTERVAL, 0.3, 0.05)
        held = {}

        def reads_scans():
            acceptance.region_scan(seq, region, 10, 4)
            return True, ""

        def scan_free(key):
            def check():
                held[key] = cache.cache_info().currsize
                return True, ""
            return check

        monkeypatch.setattr(acceptance, "CRITERIA", tuple(
            (key, title, scan_free(key) if key in SCAN_FREE else reads_scans)
            for key, title, _ in acceptance.CRITERIA))
        cache.cache_clear()
        try:
            assert [r.key for r in run_all()] == list(CRITERION_KEYS)
            info = cache.cache_info()
        finally:
            cache.cache_clear()
        assert held == dict.fromkeys(SCAN_FREE, 0)
        assert info.currsize == 0
        # one miss, a hit for each later scan-reading check, none reset
        readers = len(CRITERION_KEYS) - len(SCAN_FREE)
        assert calls["region_scan"] == readers
        assert info[:2] == (readers - 1, 1)

    def test_scan_free_checks_run_last(self):
        assert SCAN_FREE == ("family-classifiers", "perturbation-bound",
                             "metric-suite")

    @pytest.mark.parametrize("key", SCAN_FREE)
    def test_scan_free_checks_make_no_lookup(self, key):
        # a lookup here would silently rebuild a scan run_all has dropped
        check = {k: fn for k, _, fn in acceptance.CRITERIA}[key]
        before = sensitivity.region_scan.cache_info()
        check()
        assert sensitivity.region_scan.cache_info()[:2] == before[:2]

    def test_weak_strong_agreement_is_the_last_scan_reader(self):
        assert (CRITERION_KEYS.index("weak-strong-agreement") + 1
                == CRITERION_KEYS.index(acceptance.SCAN_FREE_FROM))

    def test_drop_scans_of_one_sequence(self):
        cache = sensitivity.region_scan
        gone = registry.build("example41_composition").sequence
        kept = registry.build("example41_generated").sequence
        regions = (metric_ball(INTERVAL, 0.3, 0.05),
                   metric_ball(INTERVAL, 0.6, 0.05))
        cache.cache_clear()
        try:
            # a scan and its prefix view under each region
            dropped = [weakref.ref(cache(gone, r, h, 4))
                       for r in regions for h in (10, 5)]
            held = [cache(kept, r, 10, 4) for r in regions]
            assert cache.cache_info() == (2, 4, None, 6)
            sensitivity.drop_scans(gone)
            assert [ref() for ref in dropped] == [None] * 4
            assert cache.cache_info() == (2, 4, None, 2)
            assert [cache(kept, r, 10, 4) for r in regions] == held
            assert cache.cache_info() == (4, 4, None, 2)
            sensitivity.drop_scans()
            assert cache.cache_info() == (4, 4, None, 0)
        finally:
            cache.cache_clear()

    def test_weak_strong_agreement_drops_each_system_when_done(
            self, monkeypatch):
        # each system's scans go before the next system's first lookup, and
        # none of any registry system is left for the scan-free checks
        events = []
        real_scan, real_drop = acceptance.region_scan, acceptance.drop_scans

        def scan(seq, *args):
            events.append(("scan", id(seq)))
            return real_scan(seq, *args)

        def drop(seq=None):
            events.append(("drop", id(seq)))
            real_drop(seq)

        monkeypatch.setattr(sensitivity, "region_scan", scan)
        monkeypatch.setattr(acceptance, "drop_scans", drop)
        ok, _ = acceptance._check_weak_strong_agreement()
        assert ok
        systems = [registry.build(n).sequence
                   for n in registry.registry_names()]
        assert [event for event, _ in itertools.groupby(events)] == [
            (kind, id(seq)) for seq in systems for kind in ("scan", "drop")]
        assert not any(seq in by_seq for by_seq in sensitivity._SCANS.values()
                       for seq in systems)
