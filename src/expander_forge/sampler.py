"""Uniform sampling and exhaustive enumeration of the good-partition family.

Counting formula: |F_{chi,n}| = n! * C(3*chi, n) * N((3*chi - n)/2) with
N(m) = (2m)!/(m! 2^m).  The sampler factors this exactly: stage (i) draws a
uniform injective assignment of the n boundary labels onto distinct interior
labels, stage (ii) a uniform perfect matching on the remaining interior
labels, so the output is exactly uniform on the family.

RNG contract: the generator is numpy PCG64.  Trial t of a run with seed s
uses ``default_rng(SeedSequence(entropy=s, spawn_key=(t,)))``; parallel and
serial execution therefore produce identical trial streams.

Monte Carlo connectivity draws each trial under that contract and decides
connectivity a block of trials at a time: one breadth-first search on the
disjoint union of the block's interior multigraphs, a neighbour table read
straight off the paired labels, so batching changes no draw and no
verdict.  One driver, `_block_verdicts`, cuts the blocks: the Monte Carlo
trials and the exhaustive enumeration both feed it their pairings.
numpy is the only array library here, imported inside the functions that
call it, so commands that never call them do not pay for it:
`count_family`, `matching_count`, `SampleConfig` and `wilson_interval`
need none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import TYPE_CHECKING, Iterable, Iterator

from .errors import GuardExceededError
from .graph_core import HalfEdgePairing, build_graph, check_parity

if TYPE_CHECKING:
    import numpy as np

ENUM_GUARD = 10**7
# Interior vertices per block of trials (at least one trial per block);
# bounds the working set of the batched connectivity check.
BLOCK_VERTICES = 4096
# Two-sided 95% normal quantile, for the Wilson and Monte Carlo intervals.
Z95 = 1.959963984540054


@dataclass(frozen=True)
class SampleConfig:
    chi: int
    n: int
    trials: int
    seed: int

    def __post_init__(self):
        check_parity(self.chi, self.n)
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


@dataclass(frozen=True)
class ConnectivityEstimate:
    fraction: Fraction
    ci_low: float
    ci_high: float
    trials: int


def matching_count(m: int) -> int:
    """Number of perfect matchings on 2m labeled points: (2m)!/(m! 2^m)."""
    return math.factorial(2 * m) // (math.factorial(m) * 2**m)


def count_family(chi: int, n: int) -> int:
    """Exact size of the good-partition family F_{chi,n}."""
    check_parity(chi, n)
    return (
        math.factorial(n)
        * math.comb(3 * chi, n)
        * matching_count((3 * chi - n) // 2)
    )


def trial_rng(seed: int, trial_index: int) -> np.random.Generator:
    """The per-trial generator mandated by the RNG contract."""
    import numpy as np

    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(trial_index,))
    )


def _sample_label_pairs(chi: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw the label pairs of a uniform good partition as an (m, 2) array
    (labels 1-based): the n boundary pairs first, then the shuffled rest
    of the interior labels paired off consecutively."""
    import numpy as np

    boundary_targets = rng.choice(3 * chi, size=n, replace=False)
    free = np.ones(3 * chi, dtype=bool)
    free[boundary_targets] = False
    remaining = np.flatnonzero(free)  # ascending, as the stream requires
    rng.shuffle(remaining)
    boundary = np.column_stack(
        (boundary_targets + 1, np.arange(3 * chi + 1, 3 * chi + n + 1))
    )
    return np.concatenate((boundary, remaining.reshape(-1, 2) + 1))


def sample_partition(cfg: SampleConfig, trial_index: int) -> HalfEdgePairing:
    """Uniformly distributed good partition, deterministic in
    (cfg.seed, trial_index)."""
    pairs = _sample_label_pairs(cfg.chi, cfg.n, trial_rng(cfg.seed, trial_index))
    return HalfEdgePairing(chi=cfg.chi, n=cfg.n, pairs=pairs.tolist())


def sample_graph(cfg: SampleConfig, trial_index: int):
    return build_graph(sample_partition(cfg, trial_index))


def _interior_connected(pairs: np.ndarray, chi: int) -> np.ndarray:
    """Connectivity of k good partitions of F_{chi,n}, given as a (k, m, 2)
    array of their 1-based label pairs, as a bool array of length k.

    Only the interior multigraph is built, and that suffices.  A good
    partition never pairs two boundary labels, so every boundary vertex is
    a leaf on the interior vertex that owns its partner label; removing
    leaves changes no connectivity, and chi >= 1 (check_parity) leaves an
    interior vertex.  So G is connected exactly when its interior multigraph
    is, and pairs that touch a label above 3*chi are dropped wherever they
    sit.

    Label l of partition i is entry i*3*chi + l - 1 of one partner array,
    which holds its partner label, or l itself when that partner is a
    boundary label; divided by 3, the three entries of a vertex are its
    neighbours.  A level-synchronous breadth-first search starts from
    vertex 0 of every partition at once, and partition i is connected
    exactly when it reaches all of its chi vertices, since no edge leaves a
    partition.  A boolean level mask holds each vertex once, however many
    parallel edges reach it.

    Cost: each level is O(chi*k) array work, and the number of levels is the
    largest distance from vertex 0 within any partition.  For uniform
    samples that is O(log chi), since random cubic graphs have logarithmic
    diameter (Bollobas and Fernandez de la Vega, 1982); a path-like
    partition costs O(chi^2).  A ring of 2000 double-edge beads (chi = 4000,
    2000 levels) takes about 10 ms on a 2-core host, against 0.3 ms for
    scipy's csgraph, with the same verdict.
    """
    import numpy as np

    k = len(pairs)
    size = 3 * chi * k
    # a pair (l, b) with b a boundary label becomes (l, l): l points at its
    # own vertex, as it would with the pair dropped
    pairs = np.where(pairs > 3 * chi, pairs[..., ::-1], pairs)
    labels = pairs - 1 + (3 * chi * np.arange(k))[:, None, None]
    partner = np.arange(size)
    partner[labels[..., 0]] = labels[..., 1]
    partner[labels[..., 1]] = labels[..., 0]
    nbrs = (partner // 3).reshape(-1, 3)  # the three neighbours of each vertex
    seen = np.zeros(chi * k, dtype=bool)
    frontier = chi * np.arange(k)  # vertex 0 of every partition
    seen[frontier] = True
    while frontier.size:
        level = np.zeros(chi * k, dtype=bool)
        level[nbrs[frontier]] = True
        level &= ~seen
        seen |= level
        frontier = np.flatnonzero(level)
    return seen.reshape(k, chi).all(axis=1)


def _block_verdicts(pairs: Iterable[np.ndarray], chi: int) -> np.ndarray:
    """Connectivity of each good partition of F_{chi,n} that `pairs` yields
    (at least one), given as its label pairs, all or the interior ones, as
    a bool array in input order.  The pairs are read lazily, a block of up
    to BLOCK_VERTICES interior vertices (at least one partition) at a
    time, and each block is one `_interior_connected` call."""
    import numpy as np

    pairs = iter(pairs)
    per_block = max(1, BLOCK_VERTICES // chi)
    verdicts = []
    while block := list(islice(pairs, per_block)):
        verdicts.append(_interior_connected(np.array(block), chi))
    return np.concatenate(verdicts)


def _connected_trials(cfg: SampleConfig) -> np.ndarray:
    """Connectivity of the sampled graphs of trials 0..cfg.trials-1, as a
    bool array in trial order, without building a MultiGraph: each trial's
    interior pairs are drawn under the RNG contract and fed to
    `_block_verdicts`."""
    chi, n = cfg.chi, cfg.n
    draws = (
        _sample_label_pairs(chi, n, trial_rng(cfg.seed, t))[n:] for t in range(cfg.trials)
    )
    return _block_verdicts(draws, chi)


def wilson_interval(successes: int, trials: int):
    """95% Wilson score interval, stable near fractions 0 and 1.  It starts
    at exactly 0 when no trial succeeds and ends at exactly 1 when all do."""
    if trials == 0:
        return 0.0, 1.0
    z = Z95
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (
        z * math.sqrt(p * (1.0 - p) / trials + z * z / (4 * trials * trials)) / denom
    )
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


def estimate_connectivity(cfg: SampleConfig) -> ConnectivityEstimate:
    """Monte Carlo connected fraction with a 95% Wilson interval."""
    hits = int(_connected_trials(cfg).sum())
    lo, hi = wilson_interval(hits, cfg.trials)
    return ConnectivityEstimate(
        fraction=Fraction(hits, cfg.trials), ci_low=lo, ci_high=hi, trials=cfg.trials
    )


def enumerate_family(chi: int, n: int) -> Iterator[HalfEdgePairing]:
    """Yield every good partition of F_{chi,n} exactly once, for families of
    at most ENUM_GUARD members.

    Enumeration order is deterministic: the smallest unmatched label is
    paired with each admissible partner in increasing order.
    """
    if count_family(chi, n) > ENUM_GUARD:
        raise GuardExceededError(
            f"count_family({chi},{n}) = {count_family(chi, n)} "
            f"exceeds guard {ENUM_GUARD}"
        )
    total = 3 * chi + n

    def rec(unmatched: list[int], acc: list[tuple[int, int]]):
        if not unmatched:
            yield HalfEdgePairing(chi=chi, n=n, pairs=tuple(acc))
            return
        i = unmatched[0]
        if i > 3 * chi:
            return  # only boundary labels left: any pair would be bad
        rest = unmatched[1:]
        for k, j in enumerate(rest):
            acc.append((i, j))
            yield from rec(rest[:k] + rest[k + 1 :], acc)
            acc.pop()

    yield from rec(list(range(1, total + 1)), [])


def exact_connectivity_fraction(chi: int, n: int) -> Fraction:
    """Connected fraction of the family by exhaustive enumeration, within
    ENUM_GUARD: `_block_verdicts` on the pairs of `enumerate_family`."""
    verdicts = _block_verdicts((p.pairs for p in enumerate_family(chi, n)), chi)
    return Fraction(int(verdicts.sum()), len(verdicts))
