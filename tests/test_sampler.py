import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from expander_forge.errors import GuardExceededError, ParityError
from expander_forge.graph_core import (
    HalfEdgePairing,
    build_graph,
    is_connected,
    validate_partition,
)
from expander_forge.sampler import (
    BLOCK_VERTICES,
    SampleConfig,
    _connected_trials,
    _interior_connected,
    count_family,
    enumerate_family,
    estimate_connectivity,
    exact_connectivity_fraction,
    matching_count,
    sample_graph,
    sample_partition,
    wilson_interval,
)


def brute_force_count(chi, n):
    return sum(1 for _ in enumerate_family(chi, n))


@pytest.mark.parametrize(
    "chi,n,expected", [(1, 3, 6), (2, 0, 15), (3, 1, 945), (1, 1, 3)]
)
def test_count_family_known_values(chi, n, expected):
    assert count_family(chi, n) == expected
    assert brute_force_count(chi, n) == expected


def test_matching_count():
    assert [matching_count(m) for m in range(5)] == [1, 1, 3, 15, 105]


def test_count_family_parity_error():
    with pytest.raises(ParityError):
        count_family(1, 2)
    with pytest.raises(ParityError):
        count_family(1, 4)  # 3*chi - n negative


@pytest.mark.parametrize("chi,n", [(1, 1), (1, 3), (2, 0), (2, 2), (3, 1), (3, 3)])
def test_enumeration_matches_count_and_validates(chi, n):
    seen = set()
    for p in enumerate_family(chi, n):
        assert validate_partition(chi, n, p.pairs)
        seen.add(p.pairs)
    assert len(seen) == count_family(chi, n)


def test_enumeration_guard():
    with pytest.raises(GuardExceededError):
        list(enumerate_family(8, 0))  # |F_{8,0}| is about 3.2e11


def test_sampling_deterministic():
    cfg = SampleConfig(chi=4, n=2, trials=3, seed=123)
    assert sample_partition(cfg, 1).pairs == sample_partition(cfg, 1).pairs
    assert sample_partition(cfg, 0).pairs != sample_partition(cfg, 1).pairs


def test_sampled_partitions_validate():
    cfg = SampleConfig(chi=5, n=3, trials=50, seed=9)
    for t in range(cfg.trials):
        p = sample_partition(cfg, t)
        assert validate_partition(5, 3, p.pairs)


def test_sampler_uniform_on_small_family():
    """(chi=2, n=0) has 15 members; 1e5 draws hit each within 3 sigma."""
    trials = 100_000
    cfg = SampleConfig(chi=2, n=0, trials=trials, seed=2024)
    freq = Counter(sample_partition(cfg, t).pairs for t in range(trials))
    assert len(freq) == 15
    p = 1 / 15
    sigma = math.sqrt(trials * p * (1 - p))
    for count in freq.values():
        assert abs(count - trials * p) <= 3 * sigma


def test_sampled_pairs_are_pinned():
    """Literal draws under the RNG contract: a change to the sampling stream
    (such as the order of the leftover interior labels) shows here."""
    assert sample_partition(SampleConfig(4, 2, 1, 123), 0).pairs == (
        (1, 9), (2, 6), (3, 13), (4, 7), (5, 10), (8, 12), (11, 14),
    )
    assert sample_partition(SampleConfig(5, 3, 1, 2024), 3).pairs == (
        (1, 16), (2, 17), (3, 11), (4, 13), (5, 15), (6, 9), (7, 18), (8, 14),
        (10, 12),
    )


@pytest.mark.parametrize(
    "chi,n,trials",
    [
        pytest.param(16, 4, 150, id="16-4"),
        pytest.param(50, 18, 150, id="50-18"),
        pytest.param(400, 100, 150, id="400-100"),
        # several blocks of BLOCK_VERTICES // 16 trials, the last one partial
        pytest.param(16, 4, 2 * (BLOCK_VERTICES // 16) + 7, id="several-blocks"),
        # two trials' chi above the block cap: one trial per block
        pytest.param(4000, 800, 12, id="one-trial-per-block"),
        pytest.param(16, 4, 1, id="one-trial"),
    ],
)
def test_trial_connectivity_follows_the_rng_contract(chi, n, trials):
    """The block-batched check sees the same graphs as sample_graph, trial
    by trial."""
    cfg = SampleConfig(chi=chi, n=n, trials=trials, seed=17)
    verdicts = _connected_trials(cfg)
    assert verdicts.dtype == bool and verdicts.shape == (trials,)
    expected = [is_connected(sample_graph(cfg, t)) for t in range(trials)]
    assert verdicts.tolist() == expected
    if trials > 1:
        assert True in expected and False in expected


@pytest.mark.parametrize(
    "chi,n",
    [
        pytest.param(1, 3, id="star"),  # n = 3*chi: connected
        pytest.param(2, 6, id="two-stars"),  # n = 3*chi: disconnected
        pytest.param(1, 1, id="loop"),
        # families with triple edges
        pytest.param(2, 0, id="2-0"),
        pytest.param(3, 1, id="3-1"),
        pytest.param(3, 3, id="3-3"),
        pytest.param(4, 0, id="4-0"),
    ],
)
def test_interior_graph_decides_connectivity(chi, n):
    """The interior-multigraph kernel, on every member of the family in one
    call, gives the verdict of the whole graph, boundary leaves included."""
    pairings = list(enumerate_family(chi, n))
    verdicts = _interior_connected(np.array([p.pairs for p in pairings]), chi)
    assert verdicts.tolist() == [is_connected(build_graph(p)) for p in pairings]


def necklace_pairing(rings):
    """Necklaces of double-edge beads as one good partition with n = 0: a
    ring of m beads has 2m vertices and diameter m.  Bead j of a ring is
    vertices (a, b) joined twice through their first two labels; b's third
    label pairs with the third label of the next bead's a."""
    pairs, start = [], 0
    for m in rings:
        for j in range(m):
            a, b = start + 2 * j, start + 2 * j + 1
            nxt = start + 2 * ((j + 1) % m)
            pairs += [(3 * a + 1, 3 * b + 1), (3 * a + 2, 3 * b + 2),
                      (3 * b + 3, 3 * nxt + 3)]
        start += 2 * m
    return HalfEdgePairing(chi=start, n=0, pairs=pairs)


@pytest.mark.parametrize(
    "block",
    [
        pytest.param([[10]], id="ring-10"),
        pytest.param([[200]], id="ring-200"),
        pytest.param([[2000]], id="ring-2000"),
        pytest.param([[3, 7]], id="two-rings"),
        pytest.param([[100, 100], [200], [50, 150]], id="mixed-block"),
    ],
)
def test_interior_graph_decides_deep_multigraphs(block):
    """Path-like partitions with parallel edges, one search level per bead:
    the kernel must run every level and read all three neighbour slots."""
    pairings = [necklace_pairing(rings) for rings in block]
    chi = pairings[0].chi
    verdicts = _interior_connected(np.array([p.pairs for p in pairings]), chi)
    expected = [is_connected(build_graph(p)) for p in pairings]
    assert verdicts.tolist() == expected == [len(rings) == 1 for rings in block]


def test_exact_connectivity_small_families():
    assert exact_connectivity_fraction(2, 0) == 1
    assert exact_connectivity_fraction(1, 3) == 1
    assert exact_connectivity_fraction(1, 1) == 1


@pytest.mark.parametrize(
    "chi,n", [(2, 0), (1, 3), (3, 1), (2, 2), (3, 3), (4, 2)]
)
def test_monte_carlo_matches_exact_within_ci(chi, n):
    exact = float(exact_connectivity_fraction(chi, n))
    est = estimate_connectivity(SampleConfig(chi=chi, n=n, trials=4000, seed=31))
    assert est.ci_low <= exact <= est.ci_high
    assert est.ci_low <= float(est.fraction) <= est.ci_high


def test_disconnection_grows_with_n_exact():
    """Brute-force check of the direction of the phase transition."""
    f3 = [exact_connectivity_fraction(3, n) for n in (1, 3, 5)]
    assert f3[0] >= f3[1] >= f3[2]
    assert f3[2] < f3[0]
    f4 = [exact_connectivity_fraction(4, n) for n in (0, 2)]
    assert f4[0] >= f4[1]
    assert f3 == [Fraction(6, 7), Fraction(24, 35), Fraction(3, 7)]
    assert f4 == [Fraction(72, 77), Fraction(60, 77)]


def test_exact_connectivity_matches_union_find_over_blocks():
    """F_{3,3} has 7560 members, six blocks of BLOCK_VERTICES // 3 with the
    last one partial: every block's verdicts count, in order or not."""
    assert count_family(3, 3) % (BLOCK_VERTICES // 3) != 0
    assert count_family(3, 3) > 5 * (BLOCK_VERTICES // 3)
    hits = sum(is_connected(build_graph(p)) for p in enumerate_family(3, 3))
    assert exact_connectivity_fraction(3, 3) == Fraction(hits, count_family(3, 3))


def test_wilson_interval_degenerate_edges():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and hi < 0.05
    lo, hi = wilson_interval(100, 100)
    assert hi == 1.0 and lo > 0.95
    assert wilson_interval(0, 3)[0] == 0.0
    assert wilson_interval(3, 3)[1] == 1.0
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
