"""Finite-window decision rules for collections of time index sets.

A WindowedIndexSet is a subset of [1, H] standing in for an unbounded set
of hit times observed only up to a horizon. A FamilySpec classifies such
sets: nonempty, "infinite" (enough indices, reaching into the window's
tail), cofinite (few misses and a clean suffix), syndetic (bounded gaps,
boundary gaps included), or the dual of another rule. ``member_rows``
decides a rule for many sets at once, as bool rows over times 1..H;
``member`` is the same engine on one set. A dual negates the rows and the
answer (no set complement is built) and collapses under double
application, so dual is an involution by construction.

Every verdict is window-relative. The rules are chosen to be hereditary
upwards (adding indices never turns a yes into a no), matching how the
underlying asymptotic notions behave. ``partition_witness`` decides from a
rule's verdicts on every subset of a short window whether it is partition
regular (accepts A or B whenever it accepts A | B), which makes the strong
and weak probes agree. Nonempty and ``infinite_family(1, ...)`` (one late
hit) are regular on any window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spaces import int_value, number_value

DEFAULT_MIN_COUNT = 10
DEFAULT_TAIL_FRACTION = 0.25
DEFAULT_MAX_MISSING = 20
DEFAULT_MAX_GAP = 64


@dataclass(frozen=True)
class WindowedIndexSet:
    horizon: int
    indices: tuple


def windowed(indices, horizon: int) -> WindowedIndexSet:
    if horizon < 1:
        raise ValueError("horizon must be positive")
    idx = tuple(sorted(set(int(i) for i in indices)))
    if idx and (idx[0] < 1 or idx[-1] > horizon):
        raise ValueError(f"indices must lie in [1, {horizon}]")
    return WindowedIndexSet(horizon=horizon, indices=idx)


def mask_of(s: WindowedIndexSet) -> np.ndarray:
    """The set as a bool row over times 1..horizon (column n-1 is time n)."""
    mask = np.zeros(s.horizon, dtype=bool)
    mask[np.array(s.indices, dtype=np.intp) - 1] = True
    return mask


def from_mask(mask: np.ndarray) -> WindowedIndexSet:
    return WindowedIndexSet(horizon=len(mask),
                            indices=tuple((np.flatnonzero(mask) + 1).tolist()))


@dataclass(frozen=True)
class FamilySpec:
    kind: str
    min_count: int = 0
    tail_fraction: float = 0.0
    max_missing: int = 0
    max_gap: int = 0
    inner: object = None


def nonempty() -> FamilySpec:
    return FamilySpec(kind="nonempty")


def infinite_family(min_count: int = DEFAULT_MIN_COUNT,
                    tail_fraction: float = DEFAULT_TAIL_FRACTION) -> FamilySpec:
    if min_count < 1:
        raise ValueError("min_count must be positive")
    if not (0.0 < tail_fraction <= 1.0):
        raise ValueError("tail_fraction must be in (0, 1]")
    return FamilySpec(kind="infinite", min_count=min_count,
                      tail_fraction=tail_fraction)


def cofinite_family(max_missing: int = DEFAULT_MAX_MISSING) -> FamilySpec:
    if max_missing < 1:
        raise ValueError("max_missing must be positive")
    return FamilySpec(kind="cofinite", max_missing=max_missing)


def syndetic_family(max_gap: int = DEFAULT_MAX_GAP) -> FamilySpec:
    if max_gap < 1:
        raise ValueError("max_gap must be positive")
    return FamilySpec(kind="syndetic", max_gap=max_gap)


def dual(fam: FamilySpec) -> FamilySpec:
    """Sets whose complement the wrapped rule rejects. An involution."""
    if fam.kind == "dual":
        return fam.inner
    return FamilySpec(kind="dual", inner=fam)


def max_gap_rows(hits: np.ndarray) -> np.ndarray:
    """Largest gap of each row: the distance between consecutive hits, or
    the run of misses before the first hit or after the last. An empty row
    scores its horizon."""
    h = hits.shape[1]
    times = np.arange(1, h + 1, dtype=np.int32)
    # time 1 counts as a hit, so the leading gap is the misses before the
    # first real hit, not one more
    last = np.maximum.accumulate(np.where(hits, times, 1), axis=1)
    gaps = (times[1:] - last[:, :-1]).max(axis=1, initial=0)
    return np.where(hits.any(axis=1), gaps, h)


def member_rows(fam: FamilySpec, hits: np.ndarray) -> np.ndarray:
    """One verdict per row of a bool rows x horizon hit array."""
    h = hits.shape[1]
    if fam.kind == "nonempty":
        return hits.any(axis=1)
    if fam.kind == "infinite":
        late = np.arange(1, h + 1) > (1.0 - fam.tail_fraction) * h
        return ((np.count_nonzero(hits, axis=1) >= fam.min_count)
                & (hits & late).any(axis=1))
    if fam.kind == "cofinite":
        return ((h - np.count_nonzero(hits, axis=1) <= fam.max_missing)
                & hits[:, max(0, h - fam.max_missing):].all(axis=1))
    if fam.kind == "syndetic":
        return max_gap_rows(hits) <= fam.max_gap
    if fam.kind == "dual":
        return ~member_rows(fam.inner, ~hits)
    raise ValueError(f"unknown family kind: {fam.kind!r}")


def member(fam: FamilySpec, s: WindowedIndexSet) -> bool:
    return bool(member_rows(fam, mask_of(s)[None])[0])


def partition_witness(row: np.ndarray):
    """None if a hereditary upward rule is partition regular on its window,
    else a witness: a pair (a, b) of masks it refuses whose union a | b it
    accepts. ``row`` is the rule's verdict on the masks 0 .. 2**h - 1, bit
    j of a mask being time j + 1. Every subset of a refused mask is
    refused, so the rule is regular exactly when the union of all its
    refused masks is refused. The witness splits the first accepted running
    union into the union before it and the refused mask that joins it."""
    refused = np.flatnonzero(~row)
    unions = np.bitwise_or.accumulate(refused)
    broken = np.flatnonzero(row[unions])
    if not broken.size:
        return None
    k = broken[0]
    return int(unions[k - 1]), int(refused[k])


def family_to_dict(fam: FamilySpec) -> dict:
    if fam.kind == "nonempty":
        return {"kind": "nonempty"}
    if fam.kind == "infinite":
        return {"kind": "infinite", "min_count": fam.min_count,
                "tail_fraction": fam.tail_fraction}
    if fam.kind == "cofinite":
        return {"kind": "cofinite", "max_missing": fam.max_missing}
    if fam.kind == "syndetic":
        return {"kind": "syndetic", "max_gap": fam.max_gap}
    if fam.kind == "dual":
        return {"kind": "dual", "of": family_to_dict(fam.inner)}
    raise ValueError(f"unknown family kind: {fam.kind!r}")


def family_from_dict(d: dict) -> FamilySpec:
    if not isinstance(d, dict):
        raise TypeError(f"a family must be an object, not {d!r}")
    kind = d.get("kind")
    if kind == "nonempty":
        return nonempty()
    if kind == "infinite":
        return infinite_family(
            int_value(d.get("min_count", DEFAULT_MIN_COUNT), "min_count"),
            number_value(d.get("tail_fraction", DEFAULT_TAIL_FRACTION),
                         "tail_fraction"))
    if kind == "cofinite":
        return cofinite_family(int_value(
            d.get("max_missing", DEFAULT_MAX_MISSING), "max_missing"))
    if kind == "syndetic":
        return syndetic_family(int_value(d.get("max_gap", DEFAULT_MAX_GAP),
                                         "max_gap"))
    if kind == "dual":
        return dual(family_from_dict(d["of"]))
    raise ValueError(f"unknown family kind: {kind!r}")
