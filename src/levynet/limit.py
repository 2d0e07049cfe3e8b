"""Limiting joint workload transform under multiscale traffic scaling.

As the scaling parameter grows, the transform of the rescaled workload
vector factorizes over the rate classes: classes decouple.  Within class k
the limit is the workload of that class alone, with the class fractions as
rates, the network's phat, and the alpha-stable input of the tail pair
(alpha, coeff): exponent coeff * s**alpha.  That network is self-similar, so
its exact transform at the fraction-scaled frequencies w~ = fractions**beta *
omega does not depend on u, and the class factor is the factor formula of
exact.py applied to the class, with front sums taken within the class: every
factor a ratio of two positive secant slopes, removable points included.
The paper's displayed per-class formulas are evaluated term by term in
tests/oracles.py, the independent check on this module.

Both regimes share the formula; the regime enters only through the tail pair
(alpha, coeff) of the input process and the direction of the u-sweep.

Cost of one evaluation: O(n^2) array work, plus one scalar root solve per node
that does not end its class when alpha < 2.  At alpha = 2 the input exponent
coeff * s**2 is quadratic, and every factor is taken in closed form with no
root and no secant, as in exact.py.  All within-class front sums and every
kappa are one matrix-vector product with the partition's
ClassRates.sum_matrix, whose rows are masked to same-class pairs, and every
class factor comes from one np.multiply.reduceat over the node-order factors
of _class_factors in the partition's end-first order, its prefactor first.
The partition builds that class layout, its ClassRates and fractions**beta
once, and the tail pair its stable input, so a call builds none, and the
matrix is built on the first call.  A positive omega, or grid, is scaled by
one multiply and a min/max test, and one with zero entries by one more,
unless an entry is refused; that test's max is the one the product's range
check compares.  No diagnostic is computed.  A grid of N frequency vectors,
one per row, is one call, as in exact.py, and raises by the same grid rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exact import _assembled, _class_factors, _first_bad_row, _normal_top, _scaled_frequency, as_omega
from .models import TailPair
from .network import NetworkSpec
from .partition import RateClassPartition, starred_sets  # starred_sets: perfbench/tracing.py counts calls through it


@dataclass(frozen=True)
class LimitLst:
    """Limit value and the class factors, the factor of class k in entry k-1.

    For a grid of N vectors, value is an array of N and factor_values has a
    row per vector."""

    value: float | np.ndarray
    factor_values: np.ndarray


def joint_lst_limit(
    spec: NetworkSpec, partition: RateClassPartition, tail: TailPair, omega
) -> LimitLst:
    """Limiting transform of the rescaled workload vector at omega >= 0.

    The classes are evaluated at fractions**beta * omega by the sweep's rule
    (exact._scaled_frequency): a nonzero entry that leaves the normal float
    range raises ScalingRangeError naming the node.  Requires fractions /
    phat to be non-increasing within each class (the rate ordering in the
    limit): _class_factors raises StructuralError at a rise, by the rule of
    the exact transform, and a spec that is not the partition's network
    raises it too.  Classes whose frequencies are all zero contribute 1.

    omega may be a grid of N vectors, one per row (shape (N, n)): every row
    is evaluated with the bits of a call of its own, and a grid raises by
    the grid rule (exact._first_bad_row).
    """
    partition.require_spec(spec)
    return _first_bad_row(_limit, omega, spec, partition, tail)


def _limit(omega, spec: NetworkSpec, partition: RateClassPartition, tail: TailPair) -> LimitLst:
    w = np.asarray(omega, dtype=float)  # a ragged list raises ValueError
    power, top = partition.fraction_power(tail.beta), None
    if power is not None and (w.shape == power.shape or (w.ndim == 2 and len(w) and w.shape[1] == power.size)):
        # power is in (0, 1]; the second test adds 1 where w is 0, which a bad entry fails as before
        scaled = w * power
        top = _normal_top(scaled) or _normal_top(scaled + (w == 0.0))
    if top is None:  # refused: the checked path
        w = as_omega(w, spec.n)[0]
        scaled = _scaled_frequency(w, partition.fractions, tail.beta, "in the limit", "fraction_{}")
        top = np.maximum.reduce(scaled, axis=None)
    layout = partition.layout
    # class k's factor: its prefactor, at its end, then its other nodes in order
    f = _class_factors(tail.stable_model, partition.class_rates, scaled, top)[0]
    class_values = np.multiply.reduceat(f[layout.order], layout.starts)
    return LimitLst(_assembled(np.multiply.reduce(class_values), "limit"), class_values.T)


# perfbench/tracing.py spans calls to singular_limit by name
def singular_limit(
    spec: NetworkSpec, partition: RateClassPartition, tail: TailPair, omega, k: int
) -> float:
    """Class-k factor of the limit at omega, zero denominators included."""
    return float(joint_lst_limit(spec, partition, tail, omega).factor_values[k - 1])
