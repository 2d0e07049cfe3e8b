"""Tree-network structure: routing matrix, rate schedule, derived quantities.

Node indices are 1-based throughout the public API, and node numbering must
already be topological: every node's parent has a smaller index.  The builder
rejects inputs that are not in this form instead of re-ordering them.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property

import numpy as np

from .errors import ScalingRangeError, StructuralError


def _require_u(u: float) -> None:
    """Raise ValueError unless 0 < u < inf: where the rate functions are defined."""
    if not 0.0 < u < math.inf:
        raise ValueError(f"rate functions are defined for 0 < u < inf, got u={u}")


def _derive(obj, **fields) -> None:
    """Set the fields a frozen dataclass derives in __post_init__, each ndarray made read-only."""
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(obj, name, value)


class _Rebuilt:
    """Base of the frozen dataclasses that pickle and copy rebuild from their constructor inputs:
    __post_init__ runs again, so the derived arrays come back read-only and the memos empty."""

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self) if f.init)


def _merge_terms(terms) -> tuple[tuple[float, float], ...]:
    """Sum the coefficients (all > 0) of equal exponents, exponent-descending; ValueError where a sum overflows."""
    by_exp: dict[float, float] = {}
    for c, e in terms:
        by_exp[float(e)] = by_exp.get(float(e), 0.0) + float(c)
    if overflow := [e for e, c in by_exp.items() if c == math.inf]:
        raise ValueError(f"monomial coefficients of u**{overflow[0]} sum past the float range")
    return tuple((c, e) for e, c in sorted(by_exp.items(), reverse=True))


@dataclass(frozen=True)
class RateFunction:
    """Output rate as a finite positive-monomial sum c1*u**e1 + ... + ck*u**ek.

    All coefficients must be positive, so the function is positive for every
    u > 0.  The monomial representation makes every large-u ratio limit an
    exact coefficient/exponent comparison rather than a numerical guess.
    """

    terms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("rate function needs at least one monomial term")
        for c, e in self.terms:
            if not (c > 0.0 and math.isfinite(c) and math.isfinite(e)):
                raise ValueError(f"monomial coefficient must be positive and finite, got {c}*u**{e}")
        object.__setattr__(self, "terms", _merge_terms(self.terms))

    @classmethod
    def monomial(cls, c: float, e: float) -> "RateFunction":
        return cls(((c, e),))

    def __call__(self, u: float) -> float:
        _require_u(u)
        return sum(c * u**e for c, e in self.terms)

    @property
    def leading(self) -> tuple[float, float]:
        """(coefficient, exponent) of the dominating monomial as u -> infinity."""
        return self.terms[0]

    def scaled(self, factor: float) -> "RateFunction":
        if factor <= 0.0:
            raise ValueError("scale factor must be positive")
        return RateFunction(tuple((c * factor, e) for c, e in self.terms))


def first_rise(values: np.ndarray, nodes: np.ndarray | None = None) -> int:
    """The first node j (1-based) whose successor's value is larger, or 0.

    values holds one float per node: the leading exponents rate_exps[:, 0],
    or r/phat at one u.  Exact ties pass.  nodes (0-based, increasing) keeps
    the pairs (j, j + 1) for j in nodes only, as ClassLayout.inner does.
    """
    rises = values[1:] > values[:-1]
    at = np.flatnonzero(rises) if nodes is None else nodes[rises[nodes]]
    return int(at[0]) + 1 if len(at) else 0


def _cross_sign(a: float, b: float, c: float, d: float) -> int:
    """The exact sign of a*b - c*d for finite floats, in integer arithmetic."""
    (an, ad), (bn, bd), (cn, cd), (dn, dd) = (x.as_integer_ratio() for x in (a, b, c, d))
    diff = an * bn * cd * dd - cn * dn * ad * bd
    return (diff > 0) - (diff < 0)


def _net_signs(f: RateFunction, ph_f: float, g: RateFunction, ph_g: float) -> list[int]:
    """Exact signs of the net coefficients of f/ph_f - g/ph_g by descending exponent, zeros dropped."""
    cf, cg = ({e: c for c, e in r.terms} for r in (f, g))
    exps = sorted(cf.keys() | cg.keys(), reverse=True)
    signs = (_cross_sign(cf.get(e, 0.0), ph_g, cg.get(e, 0.0), ph_f) for e in exps)
    return [s for s in signs if s]


@dataclass(frozen=True)
class RoutingMatrix(_Rebuilt):
    """Strictly upper-triangular routing fractions with one parent per column.

    p[i, j] (0-based storage) is the fraction of node i+1's output feeding
    node j+1, in [0, 1] exactly.  Row sums may be below one: the leaked mass
    exits the network.  Fixed by p alone: the node count n is its side, and
    p must be square and non-empty.  Two routing matrices are equal, and hash
    alike, when every fraction is.
    """

    p: np.ndarray
    n: int = field(init=False)

    def __post_init__(self):
        p = np.array(self.p, dtype=float)
        if p.ndim != 2 or p.shape[0] != p.shape[1] or p.size == 0:
            raise StructuralError(f"routing matrix must be square and non-empty, got shape {p.shape}")
        if not np.all(np.isfinite(p)):
            raise StructuralError("routing matrix has non-finite entries")
        outside = (p < 0.0) | (p > 1.0)
        if outside.any():
            bad = np.argwhere(outside)[0]
            raise StructuralError(
                f"routing fraction p[{bad[0]+1},{bad[1]+1}] = {p[bad[0], bad[1]]} outside [0, 1]"
            )
        lower = np.tril(p, k=0)
        if np.any(lower != 0.0):
            bad = np.argwhere(lower != 0.0)[0]
            raise StructuralError(
                f"routing mass p[{bad[0]+1},{bad[1]+1}] on or below the diagonal; "
                "nodes must be numbered so every parent precedes its children"
            )
        # column 1, the root's, is all zero: it lies on or below the diagonal
        counts = np.count_nonzero(p[:, 1:] > 0.0, axis=0)
        if (bad := np.flatnonzero(counts != 1)).size:
            j = int(bad[0])
            raise StructuralError(f"column {j + 2} has {counts[j]} positive entries; exactly one parent required")
        rowsums = p.sum(axis=1)
        if np.any(rowsums > 1.0 + 1e-9):
            bad = int(np.argmax(rowsums))
            raise StructuralError(f"row {bad+1} routing fractions sum to {rowsums[bad]} > 1")
        _derive(self, p=p, n=len(p))

    @classmethod
    def from_edges(cls, n: int, edges) -> "RoutingMatrix":
        """edges: iterable of (parent, child, fraction) with 1-based node ids, each pair once."""
        p = np.zeros((n, n))
        seen = set()
        for i, j, frac in edges:
            if not (1 <= i <= n and 1 <= j <= n):
                raise StructuralError(f"edge ({i} -> {j}) references a node outside 1..{n}")
            if (i, j) in seen:
                raise StructuralError(f"duplicate edge ({i} -> {j})")
            seen.add((i, j))
            p[i - 1, j - 1] = frac
        return cls(p)

    def __eq__(self, other):
        if not isinstance(other, RoutingMatrix):
            return NotImplemented
        return np.array_equal(self.p, other.p)

    def __hash__(self):
        return hash((self.p + 0.0).tobytes())  # + 0.0 turns -0.0, which equals 0.0, into 0.0


@dataclass(frozen=True, eq=False)
class ClassLayout(_Rebuilt):
    """Where the factor formula (exact._class_factors) reads, for nodes cut
    into intervals, the classes: read-only 0-based arrays built once.

    front is the front matrix restricted to same-class pairs, ends holds
    each class's last node and inner every other node, both increasing, and
    starts where each class begins.  The formula reads y =
    ClassRates.sum_matrix @ omega, every front sum and then every kappa, in
    node order (a class end's kappa is 0): row 0 of sum_at gives each
    node's numerator sum, the next node's front sum (delta_hat) at an inner
    node and its own zero kappa at a class end, and row 1 its own front sum
    (delta).  Its factors come in node order; order lists each class's end,
    then its other nodes.
    """

    phat: np.ndarray
    ends: np.ndarray
    front: np.ndarray = field(repr=False)
    inner: np.ndarray = field(init=False)
    sum_at: np.ndarray = field(init=False)
    order: np.ndarray = field(init=False)
    starts: np.ndarray = field(init=False)

    def __post_init__(self):
        n, ends = len(self.phat), np.array(self.ends)
        last = ends.tolist()
        firsts = [0, *(b + 1 for b in last[:-1])]
        node = np.arange(n)
        numerator = node + 1
        numerator[ends] = n + ends
        _derive(
            self,
            phat=self.phat,
            ends=ends,
            front=self.front,
            inner=np.delete(node, ends),
            sum_at=np.array([numerator, node]),
            order=np.array([i for a, b in zip(firsts, last) for i in (b, *range(a, b))]),
            starts=np.array(firsts),
        )


def _aligned_columns(a: np.ndarray) -> np.ndarray:
    """A copy of a in column-major order whose data start on a 64-byte
    boundary.  There BLAS's matrix-vector product measured up to twice as
    quick as for a row-major or unaligned copy at n = 50 to 100, with the
    same bits: they do not depend on the address."""
    buf = np.empty(a.size + 7)
    start = (-buf.ctypes.data // 8) % 8
    out = buf[start : start + a.size].reshape(a.shape, order="F")
    out[...] = a
    return out


# every entry of ClassRates.sum_matrix @ omega, and of x**2 kappa, stays below it
# where the frequencies pass the rates' max_frequency: far enough below the float
# range that the sums and the factors built from them stay finite
_BIG = 2.0**1000


@dataclass(frozen=True, eq=False)
class ClassRates(_Rebuilt):
    """What the factor formula reads of rates r on a ClassLayout, built once per
    network and u or per partition.  rise: first_rise of r/phat over
    layout.inner, refused when the formula is called, never when built.  On
    first read: sum_matrix, max_frequency, and columns, the arrays a grid
    reads (r and phat) as columns of shape (n, 1)."""

    layout: ClassLayout
    r: np.ndarray
    rise: int = field(init=False)
    _quadratic: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        _derive(self, r=self.r, rise=first_rise(self.r / self.layout.phat, self.layout.inner))

    @cached_property
    def columns(self) -> tuple:
        return self.r[:, None], self.layout.phat[:, None]

    @cached_property
    def sum_matrix(self) -> np.ndarray:
        """G = [F diag(phat); K], read-only, of shape (2n, n): G @ omega is
        every front sum, then every kappa, in node order.

        F is layout.front.  Row j of K is the kappa of node j's factor as a
        linear form in omega: the sum over the later nodes l of its class of
        (r_{l-1}/phat_{l-1} - r_l/phat_l) times row l of F diag(phat), a
        reverse running sum within each class, and 0 at each class end."""
        layout = self.layout
        front = layout.front * layout.phat
        ratios = self.r / layout.phat
        weighted = (ratios[:-1] - ratios[1:])[:, None] * front[1:]  # row l - 1: node l's term
        kappa = np.zeros_like(front)
        for a, b in zip(layout.starts.tolist(), layout.ends.tolist()):
            kappa[a:b] = weighted[a:b][::-1].cumsum(axis=0)[::-1]
        matrix = _aligned_columns(np.concatenate((front, kappa)))
        matrix.setflags(write=False)
        return matrix

    @cached_property
    def max_frequency(self) -> float:
        """The largest frequency below which every entry of sum_matrix @ omega stays below 2**1000."""
        return _BIG / float(np.abs(self.sum_matrix).sum(axis=1).max())

    def quadratic_terms(self, a: float) -> tuple:
        """What the closed-form factors of phi(s) = a s**2 read, kept per a.

        In node order and read-only, x = 2 sqrt(a) phat / r, so that (x
        kappa) x is 4 a phat**2 kappa / r**2 with no rate squared, and v =
        r / (2 a phat); x is 0 at the class ends, whose kappa is 0.  Then
        the frequency below which every entry of sum_matrix @ omega, and
        every x**2 kappa, stays below 2**1000."""
        if a not in self._quadratic:
            layout = self.layout
            lean = layout.phat / self.r
            x = 2.0 * math.sqrt(a) * lean
            x[layout.ends] = 0.0
            v = 0.5 / (a * lean)
            x.setflags(write=False)
            v.setflags(write=False)
            rows = np.abs(self.sum_matrix).sum(axis=1)  # |each entry| per unit of the largest frequency
            kappa_rows = rows[lean.size :]
            with np.errstate(over="ignore"):  # inf: every call checks its entries
                np.maximum(kappa_rows, kappa_rows * x * x, out=kappa_rows)  # (x kappa) x, as the factors take it
            self._quadratic[a] = x, v, _BIG / float(rows.max())
        return self._quadratic[a]


@dataclass(frozen=True)
class NetworkSpec(_Rebuilt):
    """A validated tree network; everything but routing and rates is derived.

    phat[j-1] is the cumulative routing fraction from the root into node j
    (first column of (I - P^T)^-1), and parent[j] the parent of node j >= 2.
    The tree's one derived form is the read-only 0/1 array front_matrix,
    beside routing.p: entry [j-1, l-1] is 1.0 exactly when l is in the front
    of node j, that is l >= j and the parent of l, if any, precedes j, so
    every front sum of a vector is one matrix product; the children of node
    j are the nonzero entries of row j-1 of routing.p.  Row j-1 of the
    read-only arrays rate_coeffs and rate_exps holds node j's monomials,
    zero-padded (column 0 the leading term), so rate_vector is one array
    expression.  layout is the class layout of the
    exact transform: all n nodes in one class; class_rates(u) keeps the last
    (u, ClassRates) as one tuple, which eq, hash and repr ignore.  Two specs
    are equal, and hash alike, when their routing fractions and rate
    functions are.  Raises StructuralError when the rate count is not n.
    """

    routing: RoutingMatrix
    rates: tuple[RateFunction, ...]
    phat: np.ndarray = field(init=False, compare=False)
    parent: dict[int, int] = field(init=False, compare=False)
    front_matrix: np.ndarray = field(init=False, compare=False)
    rate_coeffs: np.ndarray = field(init=False, repr=False, compare=False)
    rate_exps: np.ndarray = field(init=False, repr=False, compare=False)
    layout: ClassLayout = field(init=False, repr=False, compare=False)
    _memo: tuple = field(init=False, default=(None, None), repr=False, compare=False)

    def __post_init__(self):
        routing, rates = self.routing, tuple(self.rates)
        n = routing.n
        if len(rates) != n:
            raise StructuralError(f"expected {n} rate functions, got {len(rates)}")

        parent_of = np.argmax(routing.p > 0.0, axis=0) + 1  # 1-based
        parent_of[0] = 0  # the root's column is zero: it has no parent
        parent = dict(enumerate(parent_of[1:].tolist(), start=2))

        phat = np.empty(n)
        phat[0] = 1.0
        for j, jp in parent.items():
            phat[j - 1] = routing.p[jp - 1, j - 1] * phat[jp - 1]

        # the front of j: every node l >= j whose parent precedes j, j itself included
        node = np.arange(1, n + 1)
        front_matrix = ((node >= node[:, None]) & (parent_of < node[:, None])).astype(float)

        k = max(len(r.terms) for r in rates)
        padded = [(*r.terms, *((0.0, 0.0),) * (k - len(r.terms))) for r in rates]
        coeffs, exps = np.array(padded).transpose(2, 0, 1).copy()
        _derive(
            self, rates=rates, phat=phat, parent=parent, front_matrix=front_matrix,
            rate_coeffs=coeffs, rate_exps=exps, layout=ClassLayout(phat, [n - 1], front_matrix),
        )

    @property
    def n(self) -> int:
        return self.routing.n

    def rate_vector(self, u: float) -> np.ndarray:
        _require_u(u)
        return (self.rate_coeffs * u**self.rate_exps).sum(axis=1)

    def class_rates(self, u: float) -> ClassRates:
        """The layout's ClassRates at u, the last u's kept; ScalingRangeError where a rate is 0 or inf."""
        memo = self._memo
        if memo[0] != u:
            with np.errstate(over="ignore"):
                r = self.rate_vector(u)
            if not np.all((r > 0.0) & (r < math.inf)):
                raise ScalingRangeError(f"service rates leave the float range at u = {u:g}: {r.min():g} to {r.max():g}")
            memo = (u, ClassRates(self.layout, r))
            object.__setattr__(self, "_memo", memo)
        return memo[1]


@dataclass(frozen=True)
class AssumptionCheck:
    assumption: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[AssumptionCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {"passed": self.passed, "checks": [asdict(c) for c in self.checks]}

    def pretty(self) -> str:
        lines = []
        for c in self.checks:
            lines.append(f"[{'pass' if c.passed else 'FAIL'}] {c.assumption}: {c.detail}")
        lines.append(f"verdict: {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def build_network(routing: RoutingMatrix, rates) -> NetworkSpec:
    """The network of a validated routing matrix and one rate function per node."""
    return NetworkSpec(routing, rates)


def validate_assumptions(spec: NetworkSpec, u_probe: float = 2.0) -> ValidationReport:
    """Check the routing-shape, rate-ordering and ratio-limit requirements.

    The rate ordering r_j/phat_j > r_{j+1}/phat_{j+1} is required at every u >
    0 but is only decidable here (a) at u_probe, by the rules the transforms
    refuse a network with: a rate of 0 or inf fails, and so does any rise in
    first_rise of the float ratios r/phat (exact ties pass), and (b) for all
    large u by the sign of the leading net monomial coefficient of each
    adjacent difference, computed exactly.  A sign change among those
    coefficients means the pair may cross at intermediate u (Descartes' rule of
    signs); it is reported in the detail text, not as a failure.  Ratio limits
    r_i/r_j for i > j must be finite, that is no leading exponent rises along
    the nodes (the rule of partition_rates); failures are reported, never
    raised.  A u_probe outside (0, inf) raises ValueError.
    """
    shape = "strictly upper triangular, one parent per non-root column, row sums <= 1"
    checks = [AssumptionCheck("routing-shape", True, shape)]

    try:
        ratios = spec.class_rates(u_probe).r / spec.phat
    except ScalingRangeError as exc:
        checks.append(AssumptionCheck("rate-ordering[u-probe]", False, str(exc)))
    else:
        if j := first_rise(ratios):
            a, b = float(ratios[j - 1]), float(ratios[j])
            detail = f"r_{j}/phat_{j} = {a!r} < r_{j+1}/phat_{j+1} = {b!r} at u = {u_probe:g}"
        else:
            detail = f"rate/phat ratios non-increasing at u = {u_probe:g}"
            if ties := (np.flatnonzero(ratios[1:] == ratios[:-1]) + 1).tolist():
                detail += f" (equality at consecutive pair{'s' if len(ties) > 1 else ''} {ties})"
        checks.append(AssumptionCheck("rate-ordering[u-probe]", not j, detail))

    rates, phat, exps = spec.rates, spec.phat, spec.rate_exps[:, 0]
    signs = [_net_signs(rates[j - 1], phat[j - 1], rates[j], phat[j]) for j in range(1, spec.n)]
    bad_pairs = [j for j, s in enumerate(signs, start=1) if not s or s[0] < 0]
    crossings = [j for j, s in enumerate(signs, start=1) if len(set(s)) > 1]
    if bad_pairs:
        j = bad_pairs[0]
        detail = f"r_{j}/phat_{j} does not dominate r_{j+1}/phat_{j+1} for large u"
    else:
        detail = "strict ordering of rate/phat ratios holds for all large u"
        if crossings:
            detail += (
                f"; warning: pair{'s' if len(crossings) > 1 else ''} {crossings} may cross "
                "at intermediate u (mixed-sign monomial difference)"
            )
    checks.append(AssumptionCheck("rate-ordering[u-large]", not bad_pairs, detail))

    if rise := first_rise(exps):
        detail = f"limit of r_{rise + 1}/r_{rise} is infinite; later nodes must not dominate earlier ones"
    else:  # the largest c_i/c_j (j < i) in a run of equal leading exponents; 0 across runs
        max_ratio, low, run = 0.0, math.inf, None
        for c, e in zip(spec.rate_coeffs[:, 0].tolist(), exps.tolist()):
            if e != run:
                low, run = math.inf, e
            max_ratio, low = max(max_ratio, c / low), min(low, c)
        detail = f"all ratio limits r_i/r_j (i > j) exist and are finite (max {max_ratio:.6g})"
    checks.append(AssumptionCheck("ratio-limits", not rise, detail))

    return ValidationReport(tuple(checks))
