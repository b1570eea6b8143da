"""Exact first-moment machinery for small-separator subsets.

For a triple (a, b, s) — a degree-1 vertices inside, b degree-3 vertices
inside, s crossing edges — the counting construction behind the paper's
first-moment argument gives the exact rational X*Y*Z with

    X = (3b)! (3chi-3b)! / (3chi)! = 1 / C(3chi, 3b)
    Y = 2^s M! / (s! i! o!),  M = (3chi-n)/2,
        i = (3b-a-s)/2, o = (3chi-n-(3b-a)-s)/2
    Z = C(n,a) C(chi,b)

and Y = 0 whenever parity or negativity makes the configuration vacuous.
Since i + o + s = M, Y is 2^s times a multinomial coefficient, an integer,
and so is Z: the product is the integer Z*Y over C(3chi, 3b), which depends
on b alone.  A sum over many triples therefore adds integer numerators per
denominator and reduces one Fraction per b (sum_terms), instead of
normalising three Fractions of factorials for every triple; mu_pair_terms
yields the integers and xyz_bound is a view of the same formulas.

The construction pairs every crossing half-edge of the subset with a
half-edge of an outside degree-3 vertex, and X*Y*Z is exactly E_{0,0}
(subset_mean_rt, r = t = 0), the mean number of vertex subsets with
statistics (a, b, s) and no crossing edge at a degree-1 vertex: both reduce
to (3b)! (3chi-3b)! M! 2^s / ((3chi)! s! i! o!) times Z.  So X*Y*Z bounds
the connected subsets of this *interior-cut* class only
(count_all_Nabs_interior_cut).  The pendant term P (pendant_term) sums the
other E_{r,t}, so first_moment_bound = X*Y*Z + P is the exact mean over all
vertex subsets with statistics (a, b, s), and bounds the unrestricted
connected count (count_all_Nabs).  mu_pair_sum and the `bounds` CLI table
keep the X*Y*Z form, so they bound the interior-cut class only.

Both counts come from one pass of _mincut_py.connected_subsets, the batched
engine of the exact Cheeger search, run under the bound best_k = 0, which
prunes nothing, and without pendant bundles, since every connected subset
counts; the batches are tallied with array operations; one pass takes the
graphs of one size, one graph or the members of one family, and sums
their counts.  numpy and the engine are imported only inside
_connected_subset_counts, the engine tally, so the exact rational tables
(and the `bounds` command) never load numpy.
"""

from __future__ import annotations

import functools
import math
import statistics
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .errors import GuardExceededError
from .graph_core import MultiGraph, check_parity, exact_fraction, is_connected
from .sampler import Z95, SampleConfig, count_family, matching_count, sample_graph

NABS_INTERIOR_GUARD = 20

# (a, b, s, C, Y, Z): a triple and its integer factors, X*Y*Z = Z*Y/C
Term = tuple[int, int, int, int, int, int]


@dataclass(frozen=True)
class MuPairBound:
    x: Fraction
    y: Fraction
    z: Fraction

    @property
    def product(self) -> Fraction:
        return self.x * self.y * self.z


def _as_mu(mu) -> Fraction:
    """Exact positive threshold: floats are read as their decimal literal."""
    mu = exact_fraction(mu)
    if mu <= 0:
        raise ValueError("mu must be positive")
    return mu


def is_mu_pair(a: int, b: int, s: int, chi: int, n: int, mu) -> bool:
    """The three mu-pair conditions, compared in exact rationals:
    1 <= a+b <= (chi+n)/2;  1 <= s <= mu*(a+b);  b >= a+s-2."""
    mu = _as_mu(mu)
    if min(a, b, s) < 0:
        return False
    if not (1 <= a + b and Fraction(a + b) <= Fraction(chi + n, 2)):
        return False
    if not (1 <= s and Fraction(s) <= mu * (a + b)):
        return False
    return b >= a + s - 2


def _xyz_terms(
    chi: int, n: int, triples: Iterable[tuple[int, int, int]]
) -> Iterator[Term]:
    """(a, b, s, C, Y, Z) per triple, all ints, with X = 1/C: the one site
    of the X, Y, Z formulas (see the module docstring).  C(3chi, 3b) is
    computed once per b."""
    check_parity(chi, n)
    m = (3 * chi - n) // 2
    denominator = functools.cache(lambda b: math.comb(3 * chi, 3 * b))
    for a, b, s in triples:
        if not (0 <= a <= n and 0 <= b <= chi):
            raise ValueError("need 0 <= a <= n and 0 <= b <= chi")
        inner = 3 * b - a - s
        outer = 3 * chi - n - (3 * b - a) - s
        if inner < 0 or outer < 0 or inner % 2 != 0 or outer % 2 != 0:
            y = 0
        else:
            y = math.comb(m, s) * math.comb(m - s, inner // 2) << s
        yield a, b, s, denominator(b), y, math.comb(n, a) * math.comb(chi, b)


def xyz_bound(chi: int, n: int, a: int, b: int, s: int) -> MuPairBound:
    """Exact X, Y, Z factors; Y = 0 for vacuous (parity/negativity) cases."""
    [(_, _, _, c, y, z)] = _xyz_terms(chi, n, [(a, b, s)])
    return MuPairBound(x=Fraction(1, c), y=Fraction(y), z=Fraction(z))


def _falling(x: int, j: int) -> int:
    """Falling factorial (x)_j = x (x-1) ... (x-j+1); 0 when j > x."""
    return math.perm(x, j) if 0 <= j <= x else 0


def subset_mean_rt(
    chi: int, n: int, a: int, b: int, s: int, r: int, t: int
) -> Fraction:
    """E_{r,t}: the exact expected number of vertex subsets (connected or
    not) with statistics (a, b, s) whose crossing edges split as r from an
    inside degree-1 vertex to an outside degree-3 vertex, t from an inside
    degree-3 vertex to an outside degree-1 vertex, and k = s-r-t between
    two degree-3 vertices.

    Counts (subset, pairing) pairs: choose the subset, the r crossing
    inside pendants and their outside partners, the inside partners of the
    other a-r, the t crossing outside pendants and their inside partners,
    the outside partners of the other n-a-t, then k of the I remaining
    inside degree-3 half-edges matched into the O outside ones, and perfect
    matchings of what is left on each side.  Divides by |F_{chi,n}|.
    """
    check_parity(chi, n)
    if not (0 <= a <= n and 0 <= b <= chi):
        raise ValueError("need 0 <= a <= n and 0 <= b <= chi")
    k = s - r - t
    if min(r, t, k) < 0 or r > a or t > n - a:
        return Fraction(0)
    inside = 3 * b - a + r  # inside degree-3 half-edges not taken by inside pendants
    outside = 3 * chi - 3 * b - r
    I = inside - t
    O = outside - (n - a - t)
    if min(I - k, O - k) < 0 or (I - k) % 2 or (O - k) % 2:
        return Fraction(0)
    count = (
        math.comb(n, a) * math.comb(chi, b)
        * math.comb(a, r) * _falling(3 * b, a - r) * _falling(3 * chi - 3 * b, r)
        * math.comb(n - a, t) * _falling(inside, t) * _falling(outside, n - a - t)
        * math.comb(I, k) * _falling(O, k)
        * matching_count((I - k) // 2) * matching_count((O - k) // 2)
    )
    return Fraction(count, count_family(chi, n))


def pendant_term(chi: int, n: int, a: int, b: int, s: int) -> Fraction:
    """P(a, b, s): the exact expected number of vertex subsets with
    statistics (a, b, s) and at least one crossing edge at a degree-1
    vertex, i.e. the sum of E_{r,t} over (r, t) != (0, 0)."""
    return sum(
        (
            subset_mean_rt(chi, n, a, b, s, r, t)
            for r in range(min(a, s) + 1)
            for t in range(min(n - a, s - r) + 1)
            if (r, t) != (0, 0)
        ),
        Fraction(0),
    )


def first_moment_bound(chi: int, n: int, a: int, b: int, s: int) -> Fraction:
    """X*Y*Z + P, the sum of every E_{r,t}: the exact mean number of vertex
    subsets with statistics (a, b, s), so it bounds the expected unrestricted
    connected-subset count."""
    return xyz_bound(chi, n, a, b, s).product + pendant_term(chi, n, a, b, s)


def iter_mu_pairs(chi: int, n: int, mu) -> Iterator[tuple[int, int, int]]:
    """All mu-pairs (a, b, s) for the given model parameters, in (a, b, s)
    order; ValueError if mu <= 0."""
    mu = _as_mu(mu)
    for a in range(0, n + 1):
        for b in range(0, chi + 1):
            tot = a + b
            if tot < 1 or 2 * tot > chi + n:
                continue
            # s <= floor(mu*tot) and b >= a + s - 2
            s_max = min(mu.numerator * tot // mu.denominator, b - a + 2)
            for s in range(1, s_max + 1):
                yield (a, b, s)


def mu_pair_terms(chi: int, n: int, mu) -> Iterator[Term]:
    """(a, b, s, C, Y, Z) over the mu-pairs: X*Y*Z = Fraction(Z*Y, C)."""
    return _xyz_terms(chi, n, iter_mu_pairs(chi, n, mu))


def sum_terms(terms: Iterable[Term]) -> Fraction:
    """Exact sum of Z*Y/C over (a, b, s, C, Y, Z) terms.

    The numerators are integers, so they are added per denominator C (at
    most one per b) and only those few sums become Fractions; the terms are
    streamed, not stored.
    """
    numerators: dict[int, int] = defaultdict(int)
    for _, _, _, c, y, z in terms:
        numerators[c] += z * y
    return sum((Fraction(num, c) for c, num in numerators.items()), Fraction(0))


def mu_pair_sum(chi: int, n: int, mu) -> Fraction:
    """Sum of the X*Y*Z bound over all mu-pairs, exact.

    X = 1/C(3chi, 3b) and Y, Z are integers, so the sum takes one Fraction
    per b (sum_terms), not three per mu-pair.

    X*Y*Z bounds only interior-cut subsets (count_all_Nabs_interior_cut),
    so this sum, and the `bounds` CLI table, which sums the same terms,
    leaves out the pendant terms.  They can dominate: at chi=20, n=4, mu=1/2 the sum is
    555.6 and the pendant terms over the same mu-pairs add 734.9.  Sum
    first_moment_bound instead for a bound on the unrestricted count.
    """
    return sum_terms(mu_pair_terms(chi, n, mu))


def _connected_subset_counts(graphs: Iterable[MultiGraph]) -> tuple[Counter, Counter]:
    """Counters of (a, b, s) over every connected vertex subset of the
    graphs and over the interior-cut ones, summed over the graphs and
    filled in one engine pass; a disconnected graph counts nothing.  The
    connected graphs must have one vertex count and one edge count, as the
    members of one family do."""
    import numpy as np

    from ._mincut_py import MAX_VERTICES, bitmask_stack, connected_subsets, popcount
    from .spectra import _edge_array

    unrestricted, interior_cut = Counter(), Counter()
    edges, pendants = [], []
    for g in graphs:
        if not is_connected(g):
            continue
        degs = g.degrees()
        n_interior = sum(1 for d in degs if d == 3)
        if n_interior > NABS_INTERIOR_GUARD:
            raise GuardExceededError(
                f"{n_interior} interior vertices exceed guard {NABS_INTERIOR_GUARD}"
            )
        if g.num_vertices > MAX_VERTICES:
            raise GuardExceededError(
                f"{g.num_vertices} vertices exceed {MAX_VERTICES}-bit subset masks"
            )
        if edges and g.num_vertices != nv:
            raise ValueError(f"graphs of {nv} and {g.num_vertices} vertices in one pass")
        nv = g.num_vertices
        edges.append(_edge_array(g))
        pendants.append(sum(1 << v for v, d in enumerate(degs) if d == 1))
    if not edges:
        return unrestricted, interior_cut
    adj, mult = bitmask_stack(np.stack(edges), nv)
    pendants = np.array(pendants, dtype=np.uint64)

    none = np.zeros(len(edges), dtype=np.int64)  # best_k = 0: nothing is pruned
    for size, graph, S, nbrs, s in connected_subsets(adj, mult, nv, none, none):
        p = pendants[graph]
        # a degree-1 vertex p has one neighbour, so p is in nbrs exactly
        # when that neighbour is in S, and p's edge crosses exactly when p
        # is in one of S and nbrs
        inner = (p & (S ^ nbrs)) == 0
        # one key per (a, size, s, interior-cut flag); b = size - a
        base = int(s.max()) + 1
        keys = 2 * ((popcount(S & p) * (nv + 1) + size) * base + s) + inner
        counts = np.bincount(keys)
        (uniq,) = np.nonzero(counts)
        for key, c in zip(uniq.tolist(), counts[uniq].tolist()):
            rest, s_key = divmod(key, 2 * base)
            a, k = divmod(rest, nv + 1)
            triple = (a, k - a, s_key // 2)
            unrestricted[triple] += c
            if s_key % 2:
                interior_cut[triple] += c
    return unrestricted, interior_cut


def count_all_Nabs(g: MultiGraph) -> dict[tuple[int, int, int], int]:
    """Counts of connected subsets keyed by (a, b, s); {} if disconnected.

    a/b classify by vertex degree (1 vs 3); s is the crossing-edge count
    with multiplicity, loops never crossing.
    """
    return dict(_connected_subset_counts([g])[0])


def count_Nabs(g: MultiGraph, a: int, b: int, s: int) -> int:
    """Number of connected subsets with the given statistics; 0 for a
    disconnected graph by convention."""
    return count_all_Nabs(g).get((a, b, s), 0)


def count_all_Nabs_interior_cut(g: MultiGraph) -> dict[tuple[int, int, int], int]:
    """Like count_all_Nabs, but only subsets whose crossing edges join two
    degree-3 vertices.

    This is exactly the class of configurations the four-step counting
    construction behind the X*Y*Z bound enumerates: it pairs every boundary
    half-edge of the subset with a half-edge of an outside degree-3 vertex,
    so subsets with a crossing edge ending at a degree-1 vertex are never
    counted.  The X*Y*Z inequality holds for this restricted count but can
    fail for the unrestricted one (e.g. a single degree-1 vertex as the
    subset), which first_moment_bound covers instead.  Minimum-ratio
    subsets of a small-Cheeger graph fall in this class after absorbing
    attached degree-1 vertices, which is why the restriction is harmless
    where the bound is applied.
    """
    return dict(_connected_subset_counts([g])[1])


@dataclass(frozen=True)
class FirstMomentAudit:
    estimate: float
    ci_low: float
    ci_high: float
    bound_float: float
    passes: bool
    trials: int


def audit_first_moment(
    chi: int, n: int, a: int, b: int, s: int, trials: int, seed: int
) -> FirstMomentAudit:
    """Monte Carlo estimate of E[N_{a,b,s}] checked against first_moment_bound.

    Disconnected samples contribute 0, matching the random-variable
    convention.  Passes when the estimate is below the bound plus the CI
    half-width.
    """
    cfg = SampleConfig(chi=chi, n=n, trials=trials, seed=seed)
    values = [count_Nabs(sample_graph(cfg, t), a, b, s) for t in range(trials)]
    mean = statistics.fmean(values)
    half = Z95 * statistics.stdev(values) / math.sqrt(trials) if trials > 1 else 0.0
    bound = float(first_moment_bound(chi, n, a, b, s))
    return FirstMomentAudit(
        estimate=mean,
        ci_low=mean - half,
        ci_high=mean + half,
        bound_float=bound,
        passes=mean <= bound + half,
        trials=trials,
    )
