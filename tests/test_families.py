import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nonauto import acceptance, registry
from nonauto.families import (
    cofinite_family,
    complement,
    dual,
    family_from_dict,
    family_to_dict,
    infinite_family,
    max_gap_rows,
    member,
    member_rows,
    nonempty,
    partition_witness,
    syndetic_family,
    windowed,
)

# Independent oracles, written per the prose rules rather than the library's
# set arithmetic. The syndetic oracle reasons about runs of absent indices.


def oracle_infinite(idx, h, min_count, tail_fraction):
    return len(idx) >= min_count and any(i > (1 - tail_fraction) * h
                                         for i in idx)


def oracle_cofinite(idx, h, max_missing):
    missing = [i for i in range(1, h + 1) if i not in idx]
    if len(missing) > max_missing:
        return False
    return all(i in idx for i in range(max(1, h - max_missing + 1), h + 1))


def oracle_syndetic(idx, h, max_gap):
    present = [i in idx for i in range(1, h + 1)]
    runs = []
    n = 0
    for p in present:
        if p:
            runs.append(n)
            n = 0
        else:
            n += 1
    trailing = n
    if not idx:
        return h <= max_gap
    leading = runs[0]
    internal = runs[1:]
    return (leading <= max_gap and trailing <= max_gap
            and all(r <= max_gap - 1 for r in internal))


def oracle_max_gap(idx, h):
    # misses before the first hit and after the last count as they are;
    # between two hits the gap is the run of misses plus one
    present = [i in idx for i in range(1, h + 1)]
    if not any(present):
        return h
    runs = []
    n = 0
    for p in present:
        if p:
            runs.append(n)
            n = 0
        else:
            n += 1
    return max([runs[0], n] + [r + 1 for r in runs[1:]])


def mask_to_indices(mask, h):
    return [i + 1 for i in range(h) if (mask >> i) & 1]


class TestMemberPinned:
    def test_infinite_on_evens(self):
        evens = windowed(range(2, 101, 2), 100)
        assert member(infinite_family(10, 0.25), evens)

    def test_syndetic_examples(self):
        assert member(syndetic_family(2), windowed(range(2, 101, 2), 100))
        sparse = windowed([1, 2, 4, 8, 16, 32, 64], 100)
        assert not member(syndetic_family(2), sparse)

    def test_cofinite_example(self):
        s = windowed([i for i in range(1, 101) if i not in (1, 2, 3)], 100)
        assert member(cofinite_family(5), s)

    def test_cofinite_needs_clean_suffix(self):
        # same number of misses, but one sits in the suffix
        s = windowed([i for i in range(1, 101) if i != 99], 100)
        assert not member(cofinite_family(5), s)

    def test_nonempty(self):
        assert member(nonempty(), windowed([7], 10))
        assert not member(nonempty(), windowed([], 10))

    def test_infinite_needs_tail(self):
        # plenty of indices, all in the first half
        s = windowed(range(1, 51), 200)
        assert not member(infinite_family(10, 0.25), s)


class TestDual:
    def test_involution_collapses(self):
        f = infinite_family()
        assert dual(dual(f)) == f

    def test_full_window_unfolding(self):
        f = dual(infinite_family(1, 1.0))
        assert member(f, windowed(range(1, 11), 10))
        assert not member(f, windowed(range(1, 10), 10))

    @given(st.integers(min_value=0, max_value=2 ** 12 - 1))
    def test_double_dual_matches(self, mask):
        h = 12
        s = windowed(mask_to_indices(mask, h), h)
        for f in (nonempty(), infinite_family(3, 0.5), cofinite_family(2),
                  syndetic_family(3)):
            assert member(dual(dual(f)), s) == member(f, s)

    def test_dual_of_infinite_tracks_cofinite_on_random_suite(self):
        rng = random.Random(20260816)
        a = dual(infinite_family(10, 0.25))
        b = cofinite_family(20)
        h = 200
        for _ in range(1000):
            s = windowed([i for i in range(1, h + 1) if rng.random() < 0.5], h)
            assert member(a, s) == member(b, s)

    def test_dual_of_infinite_accepts_nearly_full(self):
        h = 200
        a = dual(infinite_family(10, 0.25))
        nearly_full = windowed([i for i in range(1, h + 1) if i > 9], h)
        assert member(a, nearly_full)
        assert member(cofinite_family(20), nearly_full)


class TestOracleAgreement:
    def test_exhaustive_small_window(self):
        h = 10
        fams = [
            (infinite_family(3, 0.3), lambda i: oracle_infinite(i, h, 3, 0.3)),
            (cofinite_family(2), lambda i: oracle_cofinite(i, h, 2)),
            (syndetic_family(3), lambda i: oracle_syndetic(i, h, 3)),
        ]
        for mask in range(2 ** h):
            idx_set = set(mask_to_indices(mask, h))
            s = windowed(idx_set, h)
            comp = set(range(1, h + 1)) - idx_set
            for fam, oracle in fams:
                assert member(fam, s) == oracle(idx_set)
                assert member(dual(fam), s) == (not oracle(comp))


def oracle_member(fam, idx, h):
    if fam.kind == "nonempty":
        return len(idx) >= 1
    if fam.kind == "infinite":
        return oracle_infinite(idx, h, fam.min_count, fam.tail_fraction)
    if fam.kind == "cofinite":
        return oracle_cofinite(idx, h, fam.max_missing)
    if fam.kind == "syndetic":
        return oracle_syndetic(idx, h, fam.max_gap)
    comp = set(range(1, h + 1)) - set(idx)
    return not oracle_member(fam.inner, comp, h)


@st.composite
def hit_rows(draw):
    """A rows x horizon bool array that always holds an empty and a full
    row, and families whose parameters range over the whole window."""
    h = draw(st.integers(min_value=1, max_value=64))
    rows = draw(st.lists(st.lists(st.booleans(), min_size=h, max_size=h),
                         max_size=6))
    rows = np.array([[False] * h, [True] * h] + rows, dtype=bool)
    fams = [nonempty(),
            infinite_family(draw(st.integers(1, h + 1)),
                            draw(st.floats(0.01, 1.0))),
            cofinite_family(draw(st.integers(1, h + 1))),
            syndetic_family(draw(st.integers(1, h + 1)))]
    return rows, fams


class TestMemberRows:
    @given(hit_rows())
    @settings(max_examples=300)
    def test_every_kind_and_dual_match_oracle(self, case):
        rows, fams = case
        h = rows.shape[1]
        sets = [set((np.flatnonzero(r) + 1).tolist()) for r in rows]
        for fam in fams:
            for f in (fam, dual(fam)):
                expect = [oracle_member(f, idx, h) for idx in sets]
                assert member_rows(f, rows).tolist() == expect
                assert [member(f, windowed(idx, h)) for idx in sets] == expect

    @given(hit_rows())
    @settings(max_examples=300)
    def test_max_gap_matches_oracle(self, case):
        rows, _ = case
        h = rows.shape[1]
        expect = [oracle_max_gap(set((np.flatnonzero(r) + 1).tolist()), h)
                  for r in rows]
        assert max_gap_rows(rows).tolist() == expect

    @given(st.integers(min_value=1, max_value=64), st.data())
    @settings(max_examples=300)
    def test_gap_at_bound_and_one_past(self, h, data):
        g = data.draw(st.integers(min_value=1, max_value=h))
        where = data.draw(st.sampled_from(["leading", "internal",
                                           "trailing"]))
        row = np.ones(h, dtype=bool)
        if where == "leading":
            row[:g] = False  # first hit at g + 1
        elif where == "trailing":
            row[h - g:] = False
        else:
            assume(g < h)
            start = data.draw(st.integers(min_value=1, max_value=h - g))
            row[start:start + g - 1] = False  # hits at start and start + g
        assert max_gap_rows(row[None]).tolist() == [g]
        assert member_rows(syndetic_family(g), row[None]).tolist() == [True]
        if g > 1:
            assert member_rows(syndetic_family(g - 1),
                               row[None]).tolist() == [False]


class TestHereditaryUpwards:
    @given(st.integers(min_value=0, max_value=2 ** 14 - 1),
           st.integers(min_value=0, max_value=2 ** 14 - 1))
    @settings(max_examples=300)
    def test_supersets_keep_membership(self, small_mask, extra_mask):
        h = 14
        small = small_mask
        big = small_mask | extra_mask
        s = windowed(mask_to_indices(small, h), h)
        t = windowed(mask_to_indices(big, h), h)
        for f in (nonempty(), infinite_family(3, 0.5), cofinite_family(3),
                  syndetic_family(4), dual(infinite_family(3, 0.5)),
                  dual(cofinite_family(3))):
            if member(f, s):
                assert member(f, t)


class TestNestingImplications:
    # sound parameter choice: max_gap = max_missing + 1 and
    # min_count <= H/max_gap with max_gap <= tail_fraction * H
    @given(st.lists(st.integers(min_value=1, max_value=200), max_size=120))
    @settings(max_examples=300)
    def test_chain(self, raw):
        h, mm, mg, mc, tf = 200, 20, 21, 8, 0.25
        s = windowed(raw, h)
        if member(cofinite_family(mm), s):
            assert member(syndetic_family(mg), s)
        if member(syndetic_family(mg), s):
            assert member(infinite_family(mc, tf), s)

    def test_chain_on_cofinite_witness(self):
        h = 200
        s = windowed([i for i in range(1, 201) if i % 50 != 3], h)
        assert member(cofinite_family(20), s)
        assert member(syndetic_family(21), s)
        assert member(infinite_family(8, 0.25), s)


def upward_row(generators, h):
    """Verdicts over the masks 0 .. 2**h - 1 of the rule that accepts the
    supersets of any generator mask."""
    return np.array([any(m & g == g for g in generators)
                     for m in range(2 ** h)], dtype=bool)


def split_pairs(row):
    """Every pair (a, b) of refused masks whose union is accepted."""
    n = len(row)
    return {(a, b) for a in range(n) for b in range(n)
            if not row[a] and not row[b] and row[a | b]}


@st.composite
def upward_rows(draw):
    h = draw(st.integers(min_value=1, max_value=6))
    return upward_row(draw(st.lists(st.integers(0, 2 ** h - 1),
                                    max_size=6)), h)


# how to split [1, h] for each of acceptance.STANDARD_FAMILIES at a
# built-in horizon h: two sets it refuses whose union it accepts. For
# count-and-tail at h = 200 they are {1..9}, with no late hit, and
# {151..159}, with only 9 hits; the union has both
STANDARD_SPLITS = [lambda h: (range(1, 10),
                              range(3 * h // 4 + 1, 3 * h // 4 + 10)),
                   lambda h: (range(1, 22), range(22, h + 1)),
                   lambda h: (range(1, h - 64), range(66, h + 1))]


class TestPartitionWitness:
    @given(upward_rows())
    @settings(max_examples=200)
    def test_against_every_pair(self, row):
        pairs = split_pairs(row)
        found = partition_witness(row)
        assert (found is None) == (not pairs)
        assert found is None or found in pairs

    @given(st.integers(min_value=1, max_value=5).flatmap(
        lambda h: st.lists(st.booleans(), min_size=2 ** h, max_size=2 ** h)))
    @settings(max_examples=200)
    def test_witness_is_the_first_accepted_running_union(self, verdicts):
        # on any row, hereditary or not: the running unions of the refused
        # masks, in mask order, are refused up to the witness, whose parts
        # are the union before it and the refused mask that joins it
        row = np.array(verdicts)
        found = partition_witness(row)
        union = 0
        for m in np.flatnonzero(~row).tolist():
            if row[union | m]:
                assert found == (union, m)
                return
            union |= m
        assert found is None

    @pytest.mark.parametrize("h", sorted({registry.build(n).horizon
                                          for n in registry.registry_names()}))
    @pytest.mark.parametrize("case", range(len(STANDARD_SPLITS)))
    def test_standard_families_split_at_builtin_horizons(self, case, h):
        fam = acceptance.STANDARD_FAMILIES[case]
        a, b = (windowed(part, h) for part in STANDARD_SPLITS[case](h))
        assert not member(fam, a) and not member(fam, b)
        assert member(fam, windowed(a.indices + b.indices, h))

    def test_window_16_decisions(self):
        rules = [nonempty(), infinite_family(1, 0.25),
                 infinite_family(4, 0.25), cofinite_family(3),
                 syndetic_family(3)]
        rules += [dual(f) for f in rules]
        rows = acceptance._verdict_rows(rules, 16)
        assert [f for f, row in zip(rules, rows)
                if partition_witness(row) is None] == rules[:2]


class TestWindowPlumbing:
    def test_complement_partition(self):
        s = windowed([2, 5], 6)
        c = complement(s)
        assert sorted(s.indices + c.indices) == list(range(1, 7))

    def test_out_of_window_rejected(self):
        with pytest.raises(ValueError):
            windowed([0], 5)
        with pytest.raises(ValueError):
            windowed([6], 5)

    def test_round_trip(self):
        for f in (nonempty(), infinite_family(4, 0.5), cofinite_family(7),
                  syndetic_family(9), dual(syndetic_family(9))):
            assert family_from_dict(family_to_dict(f)) == f
