"""Finite-horizon sensitivity probes for time-varying iterated maps.

The package builds orbits of map sequences (explicit, cyclic, or
block-generated) over the interval, the circle, and two-sided binary
sequences, then classifies when sampled neighborhoods separate past a
threshold: at enough times, at all but finitely many, or with bounded
gaps. Every verdict is horizon-relative: it describes the computed window
under the stated sampling, never the infinite system.
"""

import os

# nonauto makes no BLAS call, so numpy's OpenBLAS needs no worker threads
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .families import (
    cofinite_family,
    complement,
    dual,
    family_from_dict,
    family_to_dict,
    infinite_family,
    member,
    nonempty,
    partition_witness,
    syndetic_family,
    windowed,
)
from .registry import (
    build,
    default_cover,
    registry_names,
    verify_continuity,
)
from .sensitivity import (
    asym_pair_test,
    attaching_estimate,
    hit_times,
    hyperspace_probe,
    pair_separation_times,
    sensitivity_probe,
    weak_implication_ok,
    weak_sensitivity_probe,
)
from .spaces import (
    CIRCLE,
    INTERVAL,
    SYMBOLIC,
    cylinder_region,
    distance,
    finite_subset,
    hausdorff,
    hausdorff_ball,
    make_symbolic,
    metric_ball,
    sample_region,
)
from .systems import (
    apply,
    block_sequence,
    composition,
    cyclic_sequence,
    explicit_sequence,
    feeble_open_probe,
    generated_system,
    identity,
    kth_iterate,
    orbit,
    piecewise_linear,
    prefix_compose,
    register_block_generator,
    rotation,
    sequence_from_dict,
    sequence_to_dict,
    shadow_bound_check,
    shift,
    sup_metric,
    tail_sum,
)

__version__ = "0.1.0"

__all__ = [
    "CIRCLE",
    "INTERVAL",
    "SYMBOLIC",
    "apply",
    "asym_pair_test",
    "attaching_estimate",
    "block_sequence",
    "build",
    "cofinite_family",
    "complement",
    "composition",
    "cyclic_sequence",
    "cylinder_region",
    "default_cover",
    "distance",
    "dual",
    "explicit_sequence",
    "family_from_dict",
    "family_to_dict",
    "feeble_open_probe",
    "finite_subset",
    "generated_system",
    "hausdorff",
    "hausdorff_ball",
    "hit_times",
    "hyperspace_probe",
    "identity",
    "infinite_family",
    "kth_iterate",
    "make_symbolic",
    "member",
    "metric_ball",
    "nonempty",
    "orbit",
    "pair_separation_times",
    "partition_witness",
    "piecewise_linear",
    "prefix_compose",
    "register_block_generator",
    "registry_names",
    "rotation",
    "sample_region",
    "sensitivity_probe",
    "sequence_from_dict",
    "sequence_to_dict",
    "shadow_bound_check",
    "shift",
    "sup_metric",
    "syndetic_family",
    "tail_sum",
    "verify_continuity",
    "weak_implication_ok",
    "weak_sensitivity_probe",
    "windowed",
]
