"""Rate classes: nodes grouped by the growth order of their output rates.

Two nodes share a class exactly when their rate ratio tends to a finite
positive constant; under the monomial representation that means equal leading
exponents.  Each class gets a reference rate (the fastest member's rate
function, so every member fraction lies in (0, 1]) and per-node fractions,
the limits r_i / reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import StructuralError
from .network import ClassLayout, NetworkSpec, RateFunction, first_rise


@dataclass(frozen=True)
class RateClassPartition:
    """Ordered interval classes of a network with fractions and reference rates.

    classes[k-1] is the tuple of 1-based node ids of class k.  fractions[i-1]
    is the exact ratio limit of node i's rate against its class reference.
    Derived from these and spec on construction, so recomputed whenever the
    fractions change: front_matrix, the network's front matrix restricted to
    same-class pairs, read-only: entry [j-1, l-1] is 1.0 exactly when l lies
    in the within-class front of node j; class_of, entry i-1 the 1-based
    class index of node i; layout, the class layout of the limit transform;
    and rising_node, the first node j whose fraction / phat rises to node
    j + 1 of its class, 0 when none does.  Two partitions are equal, and
    hash alike, when their spec, classes, fractions and reference rates are.
    """

    spec: NetworkSpec = field(repr=False)
    classes: tuple[tuple[int, ...], ...]
    fractions: np.ndarray
    reference_rates: tuple[RateFunction, ...]
    front_matrix: np.ndarray = field(init=False, repr=False)
    class_of: tuple[int, ...] = field(init=False, repr=False)
    layout: ClassLayout = field(init=False, repr=False)
    rising_node: int = field(init=False, repr=False)

    def __post_init__(self):
        spec = self.spec
        front_matrix = np.zeros((spec.n, spec.n))
        for members in self.classes:
            block = slice(members[0] - 1, members[-1])
            front_matrix[block, block] = spec.front_matrix[block, block]
        front_matrix.setflags(write=False)
        layout = ClassLayout(spec.phat, [members[-1] - 1 for members in self.classes])
        rising = np.diff(self.fractions / spec.phat) > 0.0
        rising[layout.ends[:-1]] = False  # a class end and the next node lie in different classes
        object.__setattr__(self, "front_matrix", front_matrix)
        object.__setattr__(self, "class_of", tuple(k for k, c in enumerate(self.classes, start=1) for _ in c))
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "rising_node", int(np.argmax(rising)) + 1 if rising.any() else 0)

    @property
    def m(self) -> int:
        return len(self.classes)

    @property
    def anchors(self) -> tuple[int, ...]:
        """The smallest node id of each class."""
        return tuple(members[0] for members in self.classes)

    def __eq__(self, other):
        if not isinstance(other, RateClassPartition):
            return NotImplemented
        same = (self.spec, self.classes, self.reference_rates) == (other.spec, other.classes, other.reference_rates)
        return same and np.array_equal(self.fractions, other.fractions)

    def __hash__(self):
        return hash((self.spec, self.classes, self.reference_rates))

    def class_index(self, i: int) -> int:
        return self.class_of[i - 1]

    def require_spec(self, spec: NetworkSpec) -> None:
        """Raise StructuralError unless spec is this partition's network.

        For the functions that take spec beside the partition; an equal spec
        (same routing and rates) is accepted too.
        """
        if spec is not self.spec and spec != self.spec:
            raise StructuralError("spec is not the partition's network: their routing or rates differ")

    def with_rescaled_reference(self, k: int, factor: float) -> "RateClassPartition":
        """Replace reference k by factor * reference; member fractions divide by factor."""
        if factor <= 0.0:
            raise ValueError("rescaling factor must be positive")
        refs = list(self.reference_rates)
        refs[k - 1] = refs[k - 1].scaled(factor)
        fracs = self.fractions.copy()
        for i in self.classes[k - 1]:
            fracs[i - 1] /= factor
        fracs.setflags(write=False)
        return replace(self, reference_rates=tuple(refs), fractions=fracs)


def partition_rates(spec: NetworkSpec) -> RateClassPartition:
    """Group nodes into interval classes of equal rate growth order.

    Requires finite ratio limits for all later-vs-earlier node pairs, i.e.
    non-increasing leading exponents along the node order; anything else is a
    structural error (the class intervals would not be well defined).
    """
    n = spec.n
    if rise := first_rise(spec.rates):
        raise StructuralError(
            f"rate of node {rise + 1} grows faster than rate of node {rise}; "
            "ratio limits must be finite for later nodes"
        )
    coeffs, exps = zip(*(r.leading for r in spec.rates))

    classes: list[tuple[int, ...]] = []
    start = 0
    for i in range(1, n + 1):
        if i == n or exps[i] != exps[start]:
            classes.append(tuple(range(start + 1, i + 1)))
            start = i

    fractions = np.empty(n)
    references: list[RateFunction] = []
    for members in classes:
        fastest = max(members, key=lambda i: coeffs[i - 1])
        references.append(spec.rates[fastest - 1])
        ref_coeff = coeffs[fastest - 1]
        for i in members:
            fractions[i - 1] = coeffs[i - 1] / ref_coeff
    fractions.setflags(write=False)

    return RateClassPartition(spec, tuple(classes), fractions, tuple(references))


def starred_sets(
    spec: NetworkSpec, partition: RateClassPartition, j: int
) -> tuple[frozenset[int], frozenset[int]]:
    """Within-class restrictions of fronts[j] and children[j].

    A spec that is not the partition's network raises StructuralError.
    """
    partition.require_spec(spec)
    if not 1 <= j <= spec.n:
        raise IndexError(f"node index {j} outside 1..{spec.n}")
    own = frozenset(partition.classes[partition.class_index(j) - 1])
    return spec.fronts[j] & own, spec.children[j] & own
