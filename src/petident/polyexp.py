"""Polyexponential functions and region-diversity identifiability checks.

A polyexponential function is a finite sum ``sum_j lambda_j * exp(mu_j * t)``
with pairwise-distinct exponents; it parametrizes the arterial input curve.

The identifiability checks answer, for a given multi-region measurement
setup, whether the region kinetics are diverse enough for the tissue curves
to pin down the model parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from typing import Sequence

import numpy as np

#: Absolute tolerance for all "equals zero" / "pairwise distinct" decisions,
#: in the diversity checks and between the exponents of a sum.  Exact
#: real-number conditions are not decidable in floating point; ties closer
#: than this are treated as equal.
EQ_TOL = 1e-10


@dataclass(frozen=True)
class PolyExp:
    """Finite weighted sum of exponentials ``t -> sum_j lambda_j * e^(mu_j t)``.

    The terms are sorted by exponent on construction.  A zero weight, or
    two exponents within :data:`EQ_TOL` of each other, raises
    ``ValueError``: the sum would have fewer terms than it lists.  The
    empty sum is the zero function (degree 0).

    Parameters
    ----------
    terms :
        Iterable of ``(lambda_j, mu_j)`` pairs; ``lambda_j`` is the weight,
        ``mu_j`` the exponent (1/time).
    """

    terms: tuple[tuple[float, float], ...]

    def __init__(self, terms: Sequence[tuple[float, float]]):
        terms = [(float(lam), float(mu)) for lam, mu in terms]
        lam, mu = [term[0] for term in terms], [term[1] for term in terms]
        if 0.0 in lam:
            raise ValueError(f"lambda must have no zero weight, got {lam}")
        if np.any(np.diff(np.sort(mu)) <= EQ_TOL):
            raise ValueError(f"mu entries must differ by more than {EQ_TOL:g}, got {mu}")
        object.__setattr__(self, "terms", tuple(sorted(terms, key=lambda term: term[1])))

    @property
    def degree(self) -> int:
        return len(self.terms)

    @property
    def coefficients(self) -> np.ndarray:
        return np.array([lam for lam, _ in self.terms], dtype=float)

    @property
    def exponents(self) -> np.ndarray:
        return np.array([mu for _, mu in self.terms], dtype=float)


def eval_polyexp(g: PolyExp, t):
    """Evaluate ``g(t) = sum_j lambda_j * e^(mu_j t)``.

    ``t`` may be a scalar or an array; the result matches its shape.  The
    zero function (degree 0) evaluates to exactly 0.
    """
    t = np.asarray(t, dtype=float)
    vals = g.coefficients @ np.exp(np.outer(g.exponents, np.atleast_1d(t)))
    return float(vals[0]) if t.ndim == 0 else vals


@dataclass(frozen=True)
class DiversityWitness:
    """Three regions certifying diversity for one arterial exponent."""

    exponent_index: int
    regions: tuple[int, int, int]
    margin: float


@dataclass(frozen=True)
class DiversityReport:
    """Outcome of :func:`region_diversity_report`.

    ``satisfied`` is true iff a witness triple exists for every arterial
    exponent.  ``margin`` is the smallest magnitude among the strict
    non-degeneracy quantities of the selected witnesses; values near
    :data:`EQ_TOL` flag borderline configurations.
    """

    satisfied: bool
    witnesses: tuple[DiversityWitness, ...] = ()
    violations: tuple[str, ...] = ()
    margin: float = float("inf")


#: The failure text of each clause of a region triple, in the order they are
#: decided: the ``k3`` and ``k2 + k3`` gaps of its pairs (0, 1), (0, 2) and
#: (1, 2), then ``mu + k3`` and the coefficient sum in each of its regions
#: ``{0}``, ``{1}`` and ``{2}``.
_CLAUSE_FAILURES = ("k3 not pairwise distinct", "k2+k3 not pairwise distinct") * 3 + (
    "mu + k3 vanishes in region {0}", "coefficient sum vanishes in region {0}",
    "mu + k3 vanishes in region {1}", "coefficient sum vanishes in region {1}",
    "mu + k3 vanishes in region {2}", "coefficient sum vanishes in region {2}",
)


def region_diversity_report(
    mu: Sequence[float],
    lam: Sequence[float],
    kinetics: Sequence,
) -> DiversityReport:
    """Check the region-diversity condition behind unique identifiability.

    For every arterial exponent ``mu_j0`` there must be three regions whose
    ``k3`` and ``k2 + k3`` values are pairwise distinct, whose ``mu_j0 + k3``
    does not vanish, and in which either ``mu_j0 + k2 + k3 = 0`` or the sum
    ``sum_j lambda_j / (k2 + k3 + mu_j)`` over non-resonant terms is nonzero.
    When this holds, the tissue curves of the three regions carry enough
    independent exponential structure to separate the kinetic rates.
    Equality is decided to the absolute tolerance :data:`EQ_TOL`.

    Parameters
    ----------
    mu, lam :
        Arterial exponents and weights (equal length, exponents distinct).
    kinetics :
        Per-region rate parameters with ``K1``/``k2``/``k3`` attributes.

    Returns
    -------
    DiversityReport
        With one witness triple per exponent when satisfied, otherwise the
        failing clauses of every candidate triple.
    """
    mu = np.asarray(mu, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if mu.size == 0 or lam.size != mu.size:
        raise ValueError("mu and lambda must be nonempty and of equal length")
    n = len(kinetics)
    if n < 3:
        return DiversityReport(
            satisfied=False, violations=(f"n < 3 (only {n} regions)",), margin=0.0
        )
    k2 = np.array([k.k2 for k in kinetics], dtype=float)
    k3 = np.array([k.k3 for k in kinetics], dtype=float)
    beta = k2 + k3
    # the coefficient sum over non-resonant terms does not depend on mu_j0
    sums = np.empty(n)
    for i, b in enumerate(beta):
        denom = b + mu
        keep = np.abs(denom) > EQ_TOL
        sums[i] = abs(np.sum(lam[keep] / denom[keep]))
    # every clause is decided at once for all C(n, 3) triples, in combinations order
    triples = np.fromiter(combinations(range(n), 3), dtype=(np.intp, 3))
    columns = triples.T

    witnesses, failed_at = [], []
    for j0, mu0 in enumerate(mu):
        shift = np.abs(mu0 + k3)
        # a resonant region satisfies the disjunction through its first branch
        coefficient = np.where(np.abs(mu0 + beta) <= EQ_TOL, np.inf, sums)
        clauses = chain(
            (np.abs(rate[a] - rate[b]) for a, b in combinations(columns, 2) for rate in (k3, beta)),
            (values[column] for column in columns for values in (shift, coefficient)),
        )
        # a triple's margin is its running minimum, and the number of clauses
        # it passes before that minimum first falls to EQ_TOL is the index
        # of its first failing clause
        margin = np.full(len(triples), np.inf)
        passed = np.zeros(len(triples), dtype=np.intp)
        for values in clauses:
            np.fmin(margin, values, out=margin)
            passed += margin > EQ_TOL
        failed_at.append(passed)
        best = int(np.argmax(margin))
        if passed[best] < len(_CLAUSE_FAILURES):
            violations = (
                f"exponent {j + 1}, regions {regions}: {_CLAUSE_FAILURES[k].format(*regions)}"
                for j, clauses_passed in enumerate(failed_at)
                for regions, k in zip(map(tuple, (triples + 1).tolist()), clauses_passed.tolist())
                if k < len(_CLAUSE_FAILURES)
            )
            return DiversityReport(False, tuple(witnesses), tuple(violations), margin=0.0)
        witnesses.append(DiversityWitness(j0, tuple(triples[best].tolist()), float(margin[best])))
    return DiversityReport(True, tuple(witnesses), margin=min(w.margin for w in witnesses))


@np.errstate(invalid="ignore")  # equal infinities differ by nan: not distinct
def has_distinct_rate_regions(kinetics: Sequence, p: int) -> bool:
    """Sufficient diversity test: is there a subset of ``p + 3`` regions whose
    ``k3`` values are pairwise distinct and whose ``k2 + k3`` values are
    pairwise distinct, by more than :data:`EQ_TOL`?

    This implies the condition checked by :func:`region_diversity_report`
    but is not necessary for it.  The subsets are searched depth first.
    """
    if p < 1:
        raise ValueError("polyexponential degree p must be >= 1")
    need = p + 3
    # equal rate pairs conflict, and either stands in for the other: one is kept
    rates = np.unique(np.reshape([(k.k3, k.k2 + k.k3) for k in kinetics], (-1, 2)), axis=0)

    def bins(values) -> list:
        # greedy bins from below, each opened by the first value more than
        # EQ_TOL above the last opener: two values in one bin conflict (a nan
        # sorts last and conflicts with every value)
        found, count, last = [0] * len(values), -1, None
        for i in np.argsort(values).tolist():
            if last is None or values[i] - last > EQ_TOL:
                count, last = count + 1, values[i]
            found[i] = count
        return found

    def matches(pairs, size: int) -> bool:
        # regions distinct in both rates hold distinct bins of each: is there
        # a matching of `size` edges between the k3 and the k2 + k3 bins?
        # The bins a failed augmenting search saw stay seen until one succeeds
        edges = {}
        for a, b in zip(*map(bins, pairs.T)):
            edges.setdefault(a, []).append(b)
        owner, seen = {}, set()

        def augment(a) -> bool:
            for b in edges[a]:
                if b not in seen:
                    seen.add(b)
                    if b not in owner or augment(owner[b]):
                        owner[b] = a
                        return True
            return False

        for a in edges:
            if augment(a):
                if len(owner) == size:
                    return True
                seen.clear()
        return False

    def search(chosen: int, pairs) -> bool:
        # `pairs`: the later regions distinct in both rates from every `chosen` one;
        # no more of them can join than a largest matching of their bins
        if matches(pairs, need - chosen):
            for i, pair in enumerate(pairs):
                later = pairs[i + 1 :][np.all(np.abs(pairs[i + 1 :] - pair) > EQ_TOL, axis=1)]
                if chosen + 1 == need or search(chosen + 1, later):
                    return True
        return False

    return search(0, rates)
