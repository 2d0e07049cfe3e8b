"""The factor formula at 60 digits: a reference for both transforms.

Everything here is mpmath, written node by node from the definitions rather
than from the library's arrays: the fronts come from the parent map, each
kappa is the max-ancestor sum, each root Phi_j(x) comes from mp.findroot,
and every factor is the plain quotient

    ((Phi_j(x) - delta_j) / (x - psi_j(delta_j)))
        / ((Phi_j(x) - delta_hat_j) / (x - psi_j(delta_hat_j))),

which is not removable at the strictly positive frequencies the tests use.
exact_lst is joint_lst_exact at u; limit_lst is joint_lst_limit, the same
formula applied to each rate class under the tail pair's stable input.
"""

import mpmath as mp

from levynet import (
    Brownian,
    CenteredGamma,
    CompoundPoisson,
    DeterministicJob,
    StableSum,
)

DPS = 60


def exponent(model, s):
    """phi(s) and phi'(s) from the closed forms, in the working precision of mpmath."""
    s = mp.mpf(s)
    if isinstance(model, Brownian):
        v = mp.mpf(model.sigma2)
        return v * s**2 / 2, v * s
    if isinstance(model, StableSum):
        comps = [(mp.mpf(a), mp.mpf(c)) for a, c in model.components]
        return mp.fsum(c * s**a for a, c in comps), mp.fsum(c * a * s ** (a - 1) for a, c in comps)
    if isinstance(model, CenteredGamma):
        k, b = mp.mpf(model.shape), mp.mpf(model.rate)
        return k * (mp.log(b / (b + s)) + s / b), k / b - k / (b + s)
    assert isinstance(model, CompoundPoisson)
    lam, job = mp.mpf(model.lam), model.job
    if isinstance(job, DeterministicJob):
        d = mp.mpf(job.size)
        return lam * (mp.exp(-s * d) - 1 + s * d), lam * d * (1 - mp.exp(-s * d))
    k, mu = job.stages, mp.mpf(job.mu)
    return (
        lam * ((mu / (mu + s)) ** k - 1 + s * k / mu),
        lam * (k / mu - k * mu**k / (mu + s) ** (k + 1)),
    )


def _factor_formula(model, nodes, parent, rates, phat, w):
    """The transform of the nodes of one class, all arguments mpf: the
    prefactor r w / psi(w) of the last node times one factor per other node."""

    def psi(j, s):
        return rates[j] * s + exponent(model, phat[j] * s)[0]

    def front_sum(j):
        """sum of phat_i w_i over the class members i >= j whose parent precedes j."""
        return mp.fsum(phat[i] * w[i] for i in nodes if i >= j and parent.get(i, 0) < j)

    last = nodes[-1]
    value = rates[last] * w[last] / psi(last, w[last])
    for j in nodes[:-1]:
        x = mp.fsum(
            (rates[max(j, parent.get(i, 0))] / phat[max(j, parent.get(i, 0))] - rates[i] / phat[i])
            * phat[i]
            * w[i]
            for i in nodes
            if i > j
        )
        root = mp.findroot(lambda s: psi(j, s) - x, (0, x / rates[j]), solver="anderson") if x else 0
        for y, power in ((front_sum(j) / phat[j], 1), (front_sum(j + 1) / phat[j], -1)):
            value *= ((root - y) / (x - psi(j, y))) ** power
    return value


def exact_lst(spec, model, omega, u) -> float:
    """E[exp(-<omega, Q>)] at u, to 60 digits."""
    with mp.workdps(DPS):
        nodes = list(range(1, spec.n + 1))
        rates = {j: mp.mpf(spec.rates[j - 1](u)) for j in nodes}
        phat = {j: mp.mpf(spec.phat[j - 1]) for j in nodes}
        w = {j: mp.mpf(float(omega[j - 1])) for j in nodes}
        return float(_factor_formula(model, nodes, spec.parent, rates, phat, w))


def limit_lst(spec, partition, tail, omega) -> float:
    """The limit transform at omega, to 60 digits: the product of the class
    transforms under input coeff * s**alpha, with the class fractions as
    rates at the frequencies fractions**beta * omega."""
    with mp.workdps(DPS):
        beta = 1 / (mp.mpf(tail.alpha) - 1)
        model = StableSum(((tail.alpha, tail.coeff),))
        value = mp.mpf(1)
        for members in partition.classes:
            nodes = list(members)
            rates = {j: mp.mpf(float(partition.fractions[j - 1])) for j in nodes}
            phat = {j: mp.mpf(spec.phat[j - 1]) for j in nodes}
            w = {j: rates[j] ** beta * mp.mpf(float(omega[j - 1])) for j in nodes}
            value *= _factor_formula(model, nodes, spec.parent, rates, phat, w)
        return float(value)
