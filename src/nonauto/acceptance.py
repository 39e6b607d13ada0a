"""End-to-end self checks, one verdict per property.

``run_all`` executes every check (or one named check) and returns
structured results; the command line prints them and the test suite
asserts them individually. Expectations are stated as computed: when the
finite window genuinely cannot meet one, the check stays red rather than
being quietly loosened.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial

import numpy as np

from .families import (
    cofinite_family,
    dual,
    infinite_family,
    member_rows,
    partition_witness,
    syndetic_family,
)
from .registry import (
    COVER_KINDS,
    RESOLUTION,
    TWO_STEP_PIECES,
    build,
    default_cover,
    map_from_pieces,
    registry_names,
    verify_continuity,
)
from .sensitivity import (
    drop_scans,
    hyperspace_probe,
    region_scan,
    sensitivity_probe,
    weak_implication_ok,
    weak_sensitivity_probe,
)
from .spaces import (
    CIRCLE,
    INTERVAL,
    WINDOW_RADIUS,
    distance,
    dist_symbolic,
    finite_subset,
    grid_points,
    hausdorff_array,
    symbolic_from_code,
)
from .systems import (
    apply,
    kth_iterate,
    rotation,
    shadow_bound_check,
    tail_sum,
)

TRANSCRIPTION_TOL = 1e-12
TRIANGLE_SLACK = 1e-12
GRID_POINTS = 10 ** 4
STANDARD_FAMILIES = (infinite_family(10, 0.25), cofinite_family(20),
                     syndetic_family(64))


@dataclass(frozen=True)
class CriterionResult:
    key: str
    title: str
    passed: bool
    details: str


# ---------------------------------------------------------------------------
# 1. transcription guard


def _check_transcription_guard():
    """Piece tables are continuous, the composed pair matches its closed
    form on a dense grid, and each map preserves its invariant interval."""
    problems = []
    for name in ("example41_f1", "example41_f2", "example41_composition"):
        rep = verify_continuity(build(name))
        if not rep.continuous:
            problems.append(f"{name} discontinuous at {rep.violations}")

    comp = build("example41_composition").sequence.maps[0]
    closed = map_from_pieces(TWO_STEP_PIECES)
    dev = max(abs(apply(comp, x) - apply(closed, x))
              for x in grid_points(0.0, 1.0, GRID_POINTS))
    if dev > TRANSCRIPTION_TOL:
        problems.append(f"composition deviates from closed form by {dev:.3e}")

    f1 = build("example41_f1").sequence.maps[0]
    f2 = build("example41_f2").sequence.maps[0]
    if not all(0.25 <= apply(f1, x) <= 1.0
               for x in grid_points(0.25, 1.0, GRID_POINTS)):
        problems.append("f1 leaves [1/4, 1]")
    if not all(0.0 <= apply(f2, x) <= 0.25
               for x in grid_points(0.0, 0.25, GRID_POINTS)):
        problems.append("f2 leaves [0, 1/4]")

    details = (f"continuity gaps <= {TRANSCRIPTION_TOL}; composition vs "
               f"closed form max deviation {dev:.3e} on {GRID_POINTS} grid "
               f"points; invariant intervals preserved")
    if problems:
        details = "; ".join(problems)
    return not problems, details


# ---------------------------------------------------------------------------
# 2. two-map family


def _ball_bounds(cover, label):
    region = next(r for r in cover if r.label == label)
    return region.center - region.radius, region.center + region.radius


def _check_two_map_family():
    """The composed cycle separates every ball while each factor map,
    run alone, stalls inside its invariant interval."""
    fam = infinite_family(10, 0.25)
    cover = default_cover("interval-balls")
    reps = {}
    for name in ("example41_composition", "example41_f1", "example41_f2"):
        reps[name] = sensitivity_probe(build(name).sequence, 0.2, fam,
                                       cover, 200, 64)
    comp, rf1, rf2 = (reps["example41_composition"], reps["example41_f1"],
                      reps["example41_f2"])
    ok = comp.holds and not rf1.holds and not rf2.holds
    placement = True
    if not rf1.holds:
        lo, hi = _ball_bounds(cover, rf1.failing_region)
        placement &= 0.25 <= lo and hi <= 1.0
    if not rf2.holds:
        lo, hi = _ball_bounds(cover, rf2.failing_region)
        placement &= 0.0 <= lo and hi <= 0.25
    details = (f"composition {comp.verdict}; f1 {rf1.verdict} at "
               f"{rf1.failing_region} inside [1/4, 1]; f2 {rf2.verdict} at "
               f"{rf2.failing_region} inside [0, 1/4]")
    return ok and placement, details


# ---------------------------------------------------------------------------
# 3. doubling-block shifts


def _check_shift_blocks():
    """Spike times on the cylinder cover: plentiful enough for the
    count-and-tail classifier, but neither cofinal nor of bounded gap."""
    named = build("example31")
    cover = default_cover("cylinders")
    seq = named.sequence
    r_inf = sensitivity_probe(seq, 0.5, infinite_family(10, 0.25), cover,
                              2000, 64)
    r_cof = sensitivity_probe(seq, 0.5, cofinite_family(20), cover, 2000, 64)
    r_syn = sensitivity_probe(seq, 0.5, syndetic_family(64), cover, 2000, 64)
    worst_gap = max(r.max_gap for r in r_syn.regions if not r.passed)
    sample = r_inf.regions[0]
    ok = (r_inf.holds and not r_cof.holds and not r_syn.holds
          and worst_gap >= 2 ** 8)
    details = (f"count-and-tail classifier {r_inf.verdict} "
               f"(hits {sample.times.indices}: {sample.hit_count} spike "
               f"times, latest {max(sample.times.indices)}, needs >= 10 "
               f"with one beyond 1500); cofinite {r_cof.verdict}; syndetic "
               f"{r_syn.verdict} with max gap {worst_gap} >= 256")
    return ok, details


# ---------------------------------------------------------------------------
# 4. doubled-time embedding


def _embedding_counts(coarse, fine, k, delta, cover, horizon):
    """Scan each region of the cover in the coarse system to ``horizon`` and
    in the fine one to k times that. Returns (hits checked, hits missing at
    k times, witness separations not bitwise equal)."""
    checked = violations = mismatches = 0
    for region in cover:
        sc = region_scan(coarse, region, horizon, 64)
        sf = region_scan(fine, region, k * horizon, 64)
        hits_f = set(sf.times(delta).indices)
        for n in sc.times(delta).indices:
            checked += 1
            if k * n not in hits_f:
                violations += 1
            if sc.max_series[n] != sf.max_series[k * n]:
                mismatches += 1
    return checked, violations, mismatches


def _check_generated_embedding():
    """Every hit of the composed cycle reappears at doubled time in the
    alternating system, with bitwise equal witness separations."""
    comp = build("example41_composition").sequence
    gen = build("example41_generated").sequence
    cover = default_cover("interval-balls")
    checked, violations, mismatches = _embedding_counts(
        comp, gen, 2, 0.2, cover, 200)
    ok = checked > 0 and violations == 0 and mismatches == 0
    details = (f"{checked} hit times across {len(cover)} regions; "
               f"{violations} missing at doubled time; {mismatches} witness "
               f"separations not bitwise equal")
    return ok, details


# ---------------------------------------------------------------------------
# 5. iterate embedding


def _check_iterate_embedding():
    """Hits of the k-step bundled system land at k-times in the base
    system, exactly."""
    cases = [("example41_generated", 0.2, "interval-balls", 100),
             ("example31", 0.5, "cylinders", 400)]
    runs = []
    for name, delta, cover_kind, h_it in cases:
        seq = build(name).sequence
        cover = default_cover(cover_kind)
        runs += [_embedding_counts(kth_iterate(seq, k), seq, k, delta, cover,
                                   h_it) for k in (2, 3)]
    checked, violations, mismatches = map(sum, zip(*runs))
    ok = checked > 0 and violations == 0 and mismatches == 0
    details = (f"{checked} iterate hit times over k in {{2, 3}}; "
               f"{violations} missing at multiplied time; {mismatches} "
               f"witness separations not bitwise equal")
    return ok, details


# ---------------------------------------------------------------------------
# 6. finite-subset consistency


def _check_hyperspace_consistency():
    """Singleton subset probes reproduce point probes exactly; two-point
    subsets reach the same verdict."""
    gen = build("example41_generated").sequence
    fam = infinite_family(10, 0.25)
    cover = default_cover("interval-balls")
    base = sensitivity_probe(gen, 0.2, fam, cover, 200, 64)
    centers = [(2 * i + 1) / 32.0 for i in range(16)]
    singles = [finite_subset([c], INTERVAL) for c in centers]
    hs = hyperspace_probe(gen, 0.2, fam, singles, 1 / 32.0, 200, 64)
    exact = all(h.times.indices == b.times.indices
                for h, b in zip(hs.regions, base.regions))
    pairs = [finite_subset([c, 1.0 - c], INTERVAL) for c in centers]
    hp = hyperspace_probe(gen, 0.2, fam, pairs, 1 / 32.0, 200, 64)
    ok = exact and hp.verdict == base.verdict
    details = (f"singleton hit sets {'equal' if exact else 'differ'}; "
               f"two-point verdict {hp.verdict} vs base {base.verdict}")
    return ok, details


# ---------------------------------------------------------------------------
# 7. weak vs strong


def _check_weak_strong_agreement():
    """Across every built-in system and its recommended parameters, the
    per-pair probe never holds while the union probe fails, which is the law
    weak => strong; and with every standard family the two verdicts
    coincide. Strong => weak is a law only for a partition regular rule (a
    region's hit set is the union of its pairs'), and no standard family is
    one, so that half is a property of the built-ins."""
    grid = 0
    impl_violations = []
    agree_breaks = []
    for name in registry_names():
        named = build(name)
        cover = default_cover(COVER_KINDS[named.sequence.space])
        for delta in named.deltas:
            for fam in STANDARD_FAMILIES:
                strong = sensitivity_probe(named.sequence, delta, fam, cover,
                                           named.horizon, RESOLUTION)
                weak = weak_sensitivity_probe(named.sequence, delta, fam,
                                              cover, named.horizon,
                                              RESOLUTION)
                grid += 1
                if not weak_implication_ok(strong, weak):
                    impl_violations.append((name, fam.kind))
                if strong.holds != weak.holds:
                    agree_breaks.append((name, fam.kind))
        # no later check reads this system's scans
        drop_scans(named.sequence)
    ok = not impl_violations and not agree_breaks
    details = (f"{grid} probe pairs over {len(registry_names())} systems; "
               f"implication violations {impl_violations or 0}; "
               f"agreement breaks {agree_breaks or 0}")
    return ok, details


# ---------------------------------------------------------------------------
# 8. family classifiers


def _popcount(masks, h):
    return sum((masks >> j) & 1 for j in range(h))


def _mask_infinite(masks, h, min_count, tail_fraction):
    """At least ``min_count`` times present, one of them in the tail. Bit
    j of a mask is time j + 1, here and in the two rules below."""
    tail = sum(1 << (n - 1) for n in range(1, h + 1)
               if n > (1 - tail_fraction) * h)
    return (_popcount(masks, h) >= min_count) & ((masks & tail) != 0)


def _mask_cofinite(masks, h, max_missing):
    """At most ``max_missing`` times absent, and the last ``max_missing``
    all present."""
    suffix = sum(1 << (n - 1)
                 for n in range(max(1, h - max_missing + 1), h + 1))
    return ((h - _popcount(masks, h) <= max_missing)
            & ((masks & suffix) == suffix))


def _mask_syndetic(masks, h, max_gap):
    """Runs of absent times: the lead and trail runs at most ``max_gap``
    long, each internal run at most ``max_gap - 1``. The empty set passes
    only when the whole window is one allowed lead run."""
    absent = ~masks & ((1 << h) - 1)
    ok = np.ones(masks.shape, dtype=bool)
    if max_gap < h:
        ok &= (masks & ((1 << (max_gap + 1)) - 1)) != 0    # lead run
        ok &= (masks >> (h - max_gap - 1)) != 0            # trail run
    # an internal run of L absent times: present at bit p and p + L + 1,
    # absent at p + 1 .. p + L
    for run in range(max_gap, h - 1):
        found = masks & (masks >> (run + 1))
        for k in range(1, run + 1):
            found &= absent >> k
        ok &= found == 0
    return ok


# masks per family-classifiers oracle block: its windows and member_rows'
# gap temporaries take about 170 bytes a mask, so 4096 keep it under 1 MB
ORACLE_BLOCK = 4096


def _verdict_rows(fams, h):
    """``member_rows`` of each family on every subset of [1, h], as one
    bool row per family over the masks 0 .. 2**h - 1 (bit j of a mask is
    time j + 1), ``ORACLE_BLOCK`` masks at a time."""
    masks = np.arange(2 ** h)
    rows = np.empty((len(fams), 2 ** h), dtype=bool)
    for a in range(0, 2 ** h, ORACLE_BLOCK):
        block = slice(a, a + ORACLE_BLOCK)
        windows = ((masks[block, None] >> np.arange(h)) & 1).astype(bool)
        for row, fam in zip(rows, fams):
            row[block] = member_rows(fam, windows)
    return rows


def _hereditary_violations(rows):
    """(violations, pairs) over every covering pair (m, m | 1 << b) with bit
    b clear in m, in every row of ``_verdict_rows``: a violation accepts m
    and refuses m | 1 << b. Each pair small <= big is a chain of covering
    pairs, so no violation means every row is hereditary upwards."""
    h = rows.shape[1].bit_length() - 1
    violations = pairs = 0
    for b in range(h):
        # axis 2 of the view is bit b: clear at index 0, set at index 1
        split = rows.reshape(len(rows), -1, 2, 1 << b)
        violations += int(np.count_nonzero(split[:, :, 0] & ~split[:, :, 1]))
        pairs += split[:, :, 0].size
    return violations, pairs


def _check_family_classifiers():
    """Windowed classifiers agree with direct predicate evaluation on every
    subset of a short window, stay hereditary upwards on every covering
    pair of those subsets, and are partition regular exactly where expected.

    The direct predicates are evaluated once, on all 2**16 masks as
    integers (``_mask_*``), from each predicate's own terms: counts, tail
    and suffix bits, runs of absent times. The classifiers under test see
    the masks as bool windows (``_verdict_rows``); the dual's row is
    checked against the negated predicate of the complement, which is the
    subset at the mirrored mask. The same rows then meet the hereditary
    test, 8 x 16 x 2**15 covering pairs, and ``partition_witness``: only
    ``infinite_family(1, 0.25)`` is partition regular, and the predicates
    must refuse a and b and accept a | b for each other rule's witness.
    """
    h = 16
    masks = np.arange(2 ** h)
    truth = [(infinite_family(4, 0.25), _mask_infinite(masks, h, 4, 0.25)),
             (cofinite_family(3), _mask_cofinite(masks, h, 3)),
             (syndetic_family(3), _mask_syndetic(masks, h, 3)),
             (infinite_family(1, 0.25), _mask_infinite(masks, h, 1, 0.25))]
    fams, wants = [], []
    for fam, want in truth:
        # the complement of mask m is mask (2**h - 1) - m: want read backwards
        fams += [fam, dual(fam)]
        wants += [want, ~want[::-1]]
    rows = _verdict_rows(fams, h)
    mismatches = int(np.count_nonzero(rows != np.array(wants)))
    hered_violations, pairs = _hereditary_violations(rows)

    found = [partition_witness(row) for row in rows]
    regular = [fam for fam, pair in zip(fams, found) if pair is None]
    witnesses = [(want, pair) for want, pair in zip(wants, found) if pair]
    confirmed = sum(bool(not want[a] and not want[b] and want[a | b])
                    for want, (a, b) in witnesses)

    ok = (mismatches == 0 and hered_violations == 0
          and regular == [infinite_family(1, 0.25)]
          and confirmed == len(witnesses))
    details = (f"exhaustive window 16: {mismatches} classifier mismatches "
               f"over {2 ** h} subsets; hereditary violations "
               f"{hered_violations} over {pairs} covering pairs; "
               f"{len(regular)} of {len(fams)} rules partition regular, "
               f"{confirmed} of {len(witnesses)} witnesses confirmed")
    return ok, details


# ---------------------------------------------------------------------------
# 9. perturbation bound


def _check_perturbation_bound():
    """Orbit displacement from the limit rotation stays under the summed
    map gaps, and the two rotation tails split on convergence."""
    seq = build("rotations_summable").sequence
    limit = rotation(0.0)
    rng = random.Random(41)
    failures = 0
    for _ in range(1000):
        x = rng.random()
        n = rng.randint(1, 50)
        k = rng.randint(1, 20)
        rec = shadow_bound_check(seq, limit, x, n, k)
        if not rec.ok:
            failures += 1
    summable = tail_sum(seq, limit, 1000)
    harmonic = tail_sum(build("rotations_harmonic").sequence, limit, 1000)
    sum_ok = summable.converged and abs(summable.partial_sums[-1] - 1.0) <= 1e-6
    ok = failures == 0 and sum_ok and not harmonic.converged
    details = (f"{failures} bound failures over 1000 sampled (x, n, k); "
               f"summable tail S_1000={summable.partial_sums[-1]!r} "
               f"converged={summable.converged}; harmonic "
               f"converged={harmonic.converged}")
    return ok, details


# ---------------------------------------------------------------------------
# 10. metric suite


def _triple_distances(d_fn, x, y, z):
    """The distances the axioms read, in ``_axiom_failures``' order."""
    return d_fn(x, y), d_fn(x, x), d_fn(y, x), d_fn(x, z), d_fn(y, z)


def _axiom_failures(dxy, dxx, dyx, dxz, dyz):
    """Triples that break a metric axiom, from one array per distance:
    each triple counts once, whichever axioms it breaks."""
    bad = ((dxy < 0) | (dxx != 0.0) | (dyx != dxy)
           | (dxz > dxy + dyz + TRIANGLE_SLACK))
    return int(np.count_nonzero(bad))


def _mutual_cover(space, a, b, eps):
    """Per row of (rows, width) element arrays: every element of ``a`` lies
    within ``eps`` of some element of ``b``, and every element of ``b``
    within ``eps`` of some element of ``a``."""
    # one bool row per element pair: the (rows, width, width) table of
    # distances is never built
    near = np.array([[distance(space, x, y) <= eps for y in b.T]
                     for x in a.T])
    return near.any(axis=1).all(axis=0) & near.any(axis=0).all(axis=0)


SUBSET_WIDTH = 4


def _words(rng, count, dtype):
    """``count`` words of numpy ``dtype`` read from ``rng.randbytes``."""
    dtype = np.dtype(dtype)
    return np.frombuffer(rng.randbytes(count * dtype.itemsize), dtype)


def _units(rng, count):
    """``count`` floats in [0, 1) on the 2**-53 grid: the top 53 bits of
    64-bit words."""
    return (_words(rng, count, "<u8") >> 11) * 2.0 ** -53


def _check_metric_suite():
    """Metric axioms per space, Hausdorff mutual-covering equivalence, and
    window-enlargement stability of the sequence metric.

    Every axiom and the covering test run on arrays: interval and circle
    triples through the array form of ``distance``, subsets of 1 to 4
    elements padded to width 4 (by repeating their first element) through
    ``hausdorff_array``. Symbolic distances stay scalar ``dist_symbolic``
    calls on points built triple by triple from their support codes.
    Every number is a fixed-width word of one ``random.Random(5150)``
    stream, read in order: unit triples, support codes, subset sizes and
    elements, covering radii, then the window test's codes and widths.
    """
    rng = random.Random(5150)
    n = GRID_POINTS
    bad = {}

    x, y, z = _units(rng, 3 * n).reshape(3, n)
    for space in (INTERVAL, CIRCLE):
        bad[space] = _axiom_failures(
            *_triple_distances(partial(distance, space), x, y, z))

    # supports over coordinates -12 .. 12, 25 bits; -8 .. 8 for the window
    codes = (_words(rng, 3 * n, "<u4") & (2 ** 25 - 1)).reshape(n, 3)
    sym = np.empty((5, n))
    for t in range(n):
        # a row at a time: a list of every code would hold 1.6 MB of ints
        sym[:, t] = _triple_distances(dist_symbolic, *(
            symbolic_from_code(c << (WINDOW_RADIUS - 12), WINDOW_RADIUS)
            for c in codes[t].tolist()))
    bad["symbolic"] = _axiom_failures(*sym)
    del x, y, z, codes, sym

    sizes = 1 + (_words(rng, 3 * n, "u1") & 3).reshape(3, n, 1)
    subsets = _units(rng, 3 * n * SUBSET_WIDTH).reshape(3, n, SUBSET_WIDTH)
    np.copyto(subsets, subsets[..., :1],
              where=np.arange(SUBSET_WIDTH) >= sizes)
    # hausdorff_array takes the element axis first
    dists = _triple_distances(partial(hausdorff_array, INTERVAL),
                              *subsets.transpose(0, 2, 1))
    bad["subsets"] = _axiom_failures(*dists)

    eps = _units(rng, n)
    cover_breaks = int(np.count_nonzero(
        (dists[0] <= eps)
        != _mutual_cover(INTERVAL, subsets[0], subsets[1], eps)))

    pair_codes = _words(rng, 2 * n, "<u4") & (2 ** 17 - 1)
    steps = _words(rng, 2 * n, "<u2").reshape(2, n)
    widths = 10 + steps[0] % 31
    wides = widths + 1 + steps[1] % 24
    window_breaks = 0
    for cx, cy, w, wide in zip(*pair_codes.reshape(n, 2).T.tolist(),
                               widths.tolist(), wides.tolist()):
        d_small = dist_symbolic(symbolic_from_code(cx << (w - 8), w),
                                symbolic_from_code(cy << (w - 8), w))
        d_wide = dist_symbolic(symbolic_from_code(cx << (wide - 8), wide),
                               symbolic_from_code(cy << (wide - 8), wide))
        if abs(d_small - d_wide) > 2.0 ** (1 - w):
            window_breaks += 1

    axiom_failures = sum(bad.values())
    ok = axiom_failures == 0 and cover_breaks == 0 and window_breaks == 0
    details = (f"axiom failures per space {bad}; covering equivalence "
               f"breaks {cover_breaks}; window enlargement breaks "
               f"{window_breaks}; {n} samples each")
    return ok, details


# ---------------------------------------------------------------------------

CRITERIA = (
    ("transcription-guard",
     "piece tables: continuity, closed form, invariant intervals",
     _check_transcription_guard),
    ("two-map-family",
     "composed cycle separates where neither factor does",
     _check_two_map_family),
    ("shift-blocks",
     "doubling-block spikes split the three classifiers",
     _check_shift_blocks),
    ("generated-embedding",
     "composition hits embed at doubled times",
     _check_generated_embedding),
    ("iterate-embedding",
     "bundled-iterate hits embed at multiplied times",
     _check_iterate_embedding),
    ("hyperspace-consistency",
     "finite-subset probes agree with point probes",
     _check_hyperspace_consistency),
    ("weak-strong-agreement",
     "per-pair probe never contradicts the union probe",
     _check_weak_strong_agreement),
    ("family-classifiers",
     "windowed classifiers match brute-force predicates",
     _check_family_classifiers),
    ("perturbation-bound",
     "displacement bound and tail convergence split",
     _check_perturbation_bound),
    ("metric-suite",
     "metric axioms and mutual-covering equivalence",
     _check_metric_suite),
)

CRITERION_KEYS = tuple(key for key, _, _ in CRITERIA)
# run_all drops every cached scan here: no check from this on reads one
SCAN_FREE_FROM = "family-classifiers"


def run_all(only: str | None = None) -> tuple:
    """Run every check, or just the named one. Results keep listing order."""
    if only is not None and only not in CRITERION_KEYS:
        raise KeyError(f"unknown check: {only!r}; "
                       f"known: {', '.join(CRITERION_KEYS)}")
    results = []
    for key, title, fn in CRITERIA:
        if key == SCAN_FREE_FROM:
            drop_scans()
        if only is not None and key != only:
            continue
        passed, details = fn()
        results.append(CriterionResult(key=key, title=title, passed=passed,
                                       details=details))
    return tuple(results)
