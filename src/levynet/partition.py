"""Rate classes: nodes grouped by the growth order of their output rates.

Two nodes share a class exactly when their rate ratio tends to a finite
positive constant; under the monomial representation that means equal leading
exponents.  Each class has a reference rate and each node a fraction, the
limit r_i / reference; partition_rates picks the fastest member's rate
function as the reference, so every member fraction lies in (0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import StructuralError
from .network import ClassLayout, ClassRates, NetworkSpec, RateFunction, _derive, _Rebuilt, first_rise


def _classes(spec: NetworkSpec) -> tuple[tuple[int, ...], ...]:
    """The runs of equal leading exponent along the nodes, as 1-based node ids.

    StructuralError where a leading exponent rises along the nodes: a later
    node's ratio limit against an earlier one would be infinite.
    """
    exps = spec.rate_exps[:, 0]
    if rise := first_rise(exps):
        raise StructuralError(
            f"rate of node {rise + 1} grows faster than rate of node {rise}; "
            "ratio limits must be finite for later nodes"
        )
    bounds = [0, *(np.flatnonzero(exps[1:] != exps[:-1]) + 1).tolist(), spec.n]
    return tuple(tuple(range(a + 1, b + 1)) for a, b in zip(bounds, bounds[1:]))


@dataclass(frozen=True)
class RateClassPartition(_Rebuilt):
    """Ordered interval classes of a network with fractions and reference rates.

    Fixed by its network and one reference rate per class, in class order;
    everything else is derived on construction.  classes[k-1] is the tuple of
    1-based node ids of class k, a run of equal leading exponent.
    fractions[i-1] is node i's leading coefficient divided by that of its class
    reference, the exact limit of r_i / reference.  front_matrix is the
    network's front matrix restricted to same-class pairs, read-only: entry
    [j-1, l-1] is 1.0 exactly when l lies in the within-class front of node j;
    class_of, entry i-1 the 1-based class index of node i; and layout and
    class_rates, the limit's ClassLayout and its ClassRates at the fractions,
    whose rise of fraction / phat the formula refuses.  Raises StructuralError
    where a leading exponent rises along the nodes, or unless there is one
    reference per class with its leading exponent.  Two partitions are equal,
    and hash alike, when their spec and reference rates are.
    """

    spec: NetworkSpec = field(repr=False)
    reference_rates: tuple[RateFunction, ...]
    classes: tuple[tuple[int, ...], ...] = field(init=False, compare=False)
    fractions: np.ndarray = field(init=False, compare=False)
    front_matrix: np.ndarray = field(init=False, repr=False, compare=False)
    class_of: tuple[int, ...] = field(init=False, repr=False, compare=False)
    layout: ClassLayout = field(init=False, repr=False, compare=False)
    class_rates: ClassRates = field(init=False, repr=False, compare=False)
    _fraction_powers: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        spec, refs = self.spec, tuple(self.reference_rates)
        classes = _classes(spec)
        if len(refs) != len(classes):
            raise StructuralError(f"expected {len(classes)} reference rates, one per rate class, got {len(refs)}")
        exps = spec.rate_exps[:, 0].tolist()
        for k, (members, ref) in enumerate(zip(classes, refs), start=1):
            ref_exp, exp = ref.leading[1], exps[members[0] - 1]
            if ref_exp != exp:
                raise StructuralError(
                    f"reference rate {k} grows like u**{ref_exp}, but class {k} (nodes {list(members)}) like u**{exp}"
                )
        class_of = tuple(k for k, c in enumerate(classes, start=1) for _ in c)
        fractions = spec.rate_coeffs[:, 0] / [refs[k - 1].leading[0] for k in class_of]
        front_matrix = np.where(np.equal.outer(class_of, class_of), spec.front_matrix, 0.0)
        layout = ClassLayout(spec.phat, [members[-1] - 1 for members in classes], front_matrix)
        _derive(
            self, reference_rates=refs, classes=classes, fractions=fractions, class_of=class_of, layout=layout,
            front_matrix=front_matrix, class_rates=ClassRates(layout, fractions),
        )

    @property
    def m(self) -> int:
        return len(self.classes)

    @property
    def anchors(self) -> tuple[int, ...]:
        """The smallest node id of each class."""
        return tuple(members[0] for members in self.classes)

    def fraction_power(self, beta: float) -> np.ndarray | None:
        """fractions**beta, kept per beta, if all in (0, 1]: scaling by it cannot overflow; else None."""
        if beta not in self._fraction_powers:
            with np.errstate(over="ignore"):
                power = self.fractions**beta
            power.setflags(write=False)
            self._fraction_powers[beta] = power if 0.0 < power.min() and power.max() <= 1.0 else None
        return self._fraction_powers[beta]

    def require_spec(self, spec: NetworkSpec) -> None:
        """Raise StructuralError unless spec is this partition's network.

        For the functions that take spec beside the partition; an equal spec
        (same routing and rates) is accepted too.
        """
        if spec is not self.spec and spec != self.spec:
            raise StructuralError("spec is not the partition's network: their routing or rates differ")


def partition_rates(spec: NetworkSpec) -> RateClassPartition:
    """The partition of spec whose class references are the fastest members.

    Each class's reference is the rate of its member with the largest leading
    coefficient, the first on ties, so every fraction lies in (0, 1].
    """
    coeffs = spec.rate_coeffs[:, 0].tolist()
    fastest = (max(members, key=lambda i: coeffs[i - 1]) for members in _classes(spec))
    return RateClassPartition(spec, tuple(spec.rates[i - 1] for i in fastest))


def starred_sets(
    spec: NetworkSpec, partition: RateClassPartition, j: int
) -> tuple[frozenset[int], frozenset[int]]:
    """The front and the children of node j that lie in j's rate class.

    The nonzero entries of row j of partition.front_matrix, and of row j of
    routing.p up to the last node of j's class, as 1-based node ids.  A spec
    that is not the partition's network raises StructuralError.
    """
    partition.require_spec(spec)
    if not 1 <= j <= spec.n:
        raise IndexError(f"node index {j} outside 1..{spec.n}")
    last = partition.classes[partition.class_of[j - 1] - 1][-1]
    rows = (partition.front_matrix[j - 1], spec.routing.p[j - 1, :last])
    return tuple(frozenset((np.flatnonzero(row) + 1).tolist()) for row in rows)
