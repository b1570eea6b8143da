"""Acceptance suite: twelve numbered criteria, one pass/fail line each.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the lines on
passing runs).  Criterion 9 checks the first-moment step exactly: X*Y*Z
bounds the interior-cut connected-subset count, and X*Y*Z plus the pendant
term P bounds the unrestricted count.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from expander_forge.bounds import (
    _connected_subset_counts,
    first_moment_bound,
    mu_pair_sum,
    xyz_bound,
)
from expander_forge.cheeger import cheeger_exact, cheeger_upper
from expander_forge.cli import parity_adjust
from expander_forge.construct import (
    FamilySpec,
    balanced_boundary_subset,
    expander_family,
    k4_graph,
    plant_trees,
    steklov_test_function,
    tree_planting_lower_bound,
    two_tree_split,
)
from expander_forge.graph_core import (
    build_graph,
    components,
    is_connected,
    topology,
)
from expander_forge.sampler import (
    SampleConfig,
    count_family,
    enumerate_family,
    estimate_connectivity,
    exact_connectivity_fraction,
    sample_graph,
)
from expander_forge.spectra import (
    lambda1,
    laplacian_spectrum,
    steklov_spectrum,
    verify_domination,
)

TOL = 1e-9


def report(num, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"CRITERION {num}: {status} — {detail}")
    assert passed, f"criterion {num}: {detail}"


def test_criterion_01_exact_counting():
    t0 = time.time()
    ok = True
    details = []
    for chi, n, expected in [(1, 3, 6), (2, 0, 15), (3, 1, 945)]:
        formula = count_family(chi, n)
        brute = sum(1 for _ in enumerate_family(chi, n))
        ok &= formula == expected == brute
        details.append(f"({chi},{n})={formula}")
    elapsed = time.time() - t0
    ok &= elapsed < 1.0
    report(1, ok, f"{', '.join(details)} in {elapsed:.2f}s")


def test_criterion_02_exact_connectivity_small():
    t0 = time.time()
    ok = True
    for chi, n in [(2, 0), (1, 3)]:
        exact = exact_connectivity_fraction(chi, n)
        mc = estimate_connectivity(SampleConfig(chi=chi, n=n, trials=500, seed=8))
        ok &= exact == 1 and mc.fraction == 1
    elapsed = time.time() - t0
    ok &= elapsed < 1.0
    report(2, ok, f"F_2,0 and F_1,3 fully connected, MC agrees, {elapsed:.2f}s")


def test_criterion_03_connectivity_phase_transition():
    trials = 10_000
    chis = [50, 100, 200, 400]

    def sweep(rule):
        rows = []
        for chi in chis:
            n = parity_adjust(chi, rule(chi))
            est = estimate_connectivity(
                SampleConfig(chi=chi, n=n, trials=trials, seed=90)
            )
            rows.append(est)
        return rows

    up = sweep(lambda chi: math.floor(chi ** (1 / 3)))
    down = sweep(lambda chi: 3 * chi)
    # monotone modulo overlapping 95% CIs
    inc_ok = all(
        up[i + 1].ci_high >= up[i].ci_low for i in range(len(up) - 1)
    )
    dec_ok = all(
        down[i + 1].ci_low <= down[i].ci_high for i in range(len(down) - 1)
    )
    last_up = float(up[-1].fraction)
    last_down = float(down[-1].fraction)
    ok = inc_ok and dec_ok and last_up >= 0.8 and last_down <= 0.2
    report(
        3,
        ok,
        f"n~chi^(1/3) fractions {[float(e.fraction) for e in up]} "
        f"(final {last_up} >= 0.8); n=3chi final {last_down} <= 0.2",
    )


def test_criterion_04_spectral_closed_forms():
    t0 = time.time()
    from expander_forge.graph_core import HalfEdgePairing

    star = build_graph(HalfEdgePairing(chi=1, n=3, pairs=((1, 4), (2, 5), (3, 6))))
    theta = build_graph(HalfEdgePairing(chi=2, n=0, pairs=((1, 4), (2, 5), (3, 6))))
    lp = build_graph(HalfEdgePairing(chi=1, n=1, pairs=((1, 4), (2, 3))))
    ok = np.allclose(laplacian_spectrum(star), [0, 1, 1, 2], atol=TOL)
    ok &= np.allclose(steklov_spectrum(star), [0, 1, 1], atol=TOL)
    ok &= np.allclose(laplacian_spectrum(theta), [0, 2], atol=TOL)
    ok &= np.allclose(laplacian_spectrum(lp), [0, 4 / 3], atol=TOL)
    elapsed = time.time() - t0
    ok &= elapsed < 1.0
    report(4, ok, f"star/theta/loop-pendant spectra at 1e-9, {elapsed:.2f}s")


def _samples_for_5_6_7():
    combos = [(3, 3), (4, 2), (5, 3), (6, 2), (7, 1), (5, 5), (7, 3), (6, 4)]
    out = []
    for chi, n in combos:
        cfg = SampleConfig(chi=chi, n=n, trials=60, seed=55)
        for t in range(cfg.trials):
            g = sample_graph(cfg, t)
            if is_connected(g):
                out.append(g)
            if len(out) >= 300:
                return out
    return out


SAMPLES_300 = _samples_for_5_6_7()


def test_criterion_05_cheeger_inequality():
    violations = 0
    for g in SAMPLES_300:
        h = float(cheeger_exact(g).h)
        lam1 = lambda1(g)
        if lam1 < h * h / 18 - TOL:
            violations += 1
    report(
        5,
        violations == 0 and len(SAMPLES_300) >= 300,
        f"lambda1 >= h^2/18 on {len(SAMPLES_300)} samples, "
        f"{violations} violations",
    )


def test_criterion_06_steklov_domination():
    violations = 0
    count = 0
    for g in SAMPLES_300:
        if g.n < 1:
            continue
        count += 1
        ok, _ = verify_domination(g)
        violations += not ok
    report(6, violations == 0, f"sigma_i >= lambda_i on {count} samples")


def test_criterion_07_test_function_bound():
    violations = 0
    count = 0
    for g in SAMPLES_300:
        if g.n < 2:
            continue
        count += 1
        genus = topology(g).genus
        bal = balanced_boundary_subset(g)
        f, rq = steklov_test_function(g, bal)
        if sum(f[v] for v in g.boundary_indices()) != 0:
            violations += 1
        if rq > Fraction(16 * (genus + 1), 3 * g.n):
            violations += 1
        if steklov_spectrum(g)[1] > float(rq) + TOL:
            violations += 1
    report(
        7,
        violations == 0 and count > 0,
        f"sum f = 0, R(f) <= 16(g+1)/(3n), sigma1 <= R(f)+tol on {count} samples",
    )


def test_criterion_08_split_and_balanced_subset():
    combos = [(3, 3), (4, 2), (5, 5), (6, 4), (7, 3), (8, 6), (4, 6), (8, 2)]
    samples = []
    for chi, n in combos:
        cfg = SampleConfig(chi=chi, n=n, trials=120, seed=66)
        for t in range(cfg.trials):
            g = sample_graph(cfg, t)
            if is_connected(g):
                samples.append(g)
            if len(samples) >= 500:
                break
        if len(samples) >= 500:
            break
    violations = 0
    for g in samples:
        genus = topology(g).genus
        split = two_tree_split(g)
        if len(split.removed_edges) != genus + 1:
            violations += 1
        remaining = list(g.edges)
        for e in split.removed_edges:
            remaining.remove(e)
        for side in (split.side_a, split.side_b):
            inner = [e for e in remaining if e[0] in side and e[1] in side]
            idx = {v: i for i, v in enumerate(sorted(side))}
            sub = components(len(side), [(idx[u], idx[v]) for u, v in inner])
            if len(inner) != len(side) - 1 or len(sub) != 1:
                violations += 1
        if g.n >= 2:
            bal = balanced_boundary_subset(g)
            c = bal.boundary_vertices_inside
            if bal.boundary_edges > genus + 1 or not (
                g.n <= 4 * c and 2 * c <= g.n
            ):
                violations += 1
    report(
        8,
        violations == 0 and len(samples) >= 500,
        f"two-tree split + balanced subset on {len(samples)} samples, "
        f"{violations} violations",
    )


def test_criterion_09_first_moment_bound():
    """Exact first-moment check on every member of the small families, for
    a+b <= 4: the mean unrestricted connected-subset count is at most
    first_moment_bound = X*Y*Z + P, and the mean interior-cut count (every
    crossing edge joins two degree-3 vertices) is at most X*Y*Z.  X*Y*Z
    alone does not bound the unrestricted count: its counting construction
    never pairs a crossing half-edge with a degree-1 vertex (smallest case:
    chi=1, n=1, a=0, b=1, s=1 with mean 1 vs X*Y*Z = 0); the pendant term P
    counts exactly those configurations.
    """
    t0 = time.time()
    families = [
        (chi, n)
        for chi in range(1, 5)
        for n in range(3 * chi + 1)
        if (3 * chi - n) % 2 == 0 and count_family(chi, n) <= 10**4
    ]
    violations = []
    for chi, n in families:
        graphs = [build_graph(p) for p in enumerate_family(chi, n)]
        members = len(graphs)
        # one engine pass over the family fills both summed counters
        totals, interior = _connected_subset_counts(graphs)
        for (a, b, s), tot in sorted(totals.items()):
            if a + b > 4:
                continue
            mean = Fraction(tot, members)
            if mean > first_moment_bound(chi, n, a, b, s):
                violations.append(("full", chi, n, a, b, s, mean))
        for (a, b, s), tot in sorted(interior.items()):
            if a + b > 4:
                continue
            mean = Fraction(tot, members)
            if mean > xyz_bound(chi, n, a, b, s).product:
                violations.append(("xyz", chi, n, a, b, s, mean))
    elapsed = time.time() - t0
    report(
        9,
        len(violations) == 0 and elapsed < 300,
        f"{len(violations)} violations over {len(families)} families "
        f"(first: {violations[0] if violations else None}); unrestricted "
        f"mean <= X*Y*Z + P, interior-cut mean <= X*Y*Z; {elapsed:.1f} s",
    )


def test_criterion_10_mu_pair_sum_trend():
    sums = []
    for chi in (200, 400, 800):
        n = parity_adjust(chi, math.isqrt(chi))
        sums.append(mu_pair_sum(chi, n, Fraction(1, 100)))
    ok = sums[0] >= sums[1] >= sums[2]
    report(
        10, ok, f"mu-pair sums {[float(s) for s in sums]} non-increasing"
    )


def test_criterion_11_tree_planting_certificate():
    t0 = time.time()
    h_k4 = cheeger_exact(k4_graph()).h
    p1 = plant_trees(k4_graph(), 1)
    bound1 = tree_planting_lower_bound(h_k4, 1)
    h1 = cheeger_exact(p1).h
    ok = bound1 == Fraction(1, 3) and h1 >= bound1

    p2 = plant_trees(k4_graph(), 2)
    bound2 = tree_planting_lower_bound(h_k4, 2)
    try:
        h2 = cheeger_exact(p2, guard=28).h
        ok &= h2 >= bound2
        detail2 = f"h(G_2)={h2} >= {bound2} (exact)"
    except Exception:
        up = cheeger_upper(p2).h
        ok &= up >= bound2
        detail2 = f"upper {up} >= {bound2} (consistency only)"
    elapsed = time.time() - t0
    report(
        11,
        ok and elapsed < 1800,
        f"h(G_1)={h1} >= 1/3; {detail2}; {elapsed:.1f}s",
    )


def test_criterion_12_family_and_lambda1_distribution():
    ok = True
    details = []
    for theta in (1, 3):
        spec = FamilySpec.from_theta(theta)
        prev = None
        for g in range(2, 13):
            member = expander_family(spec, g)
            top = topology(member.graph)
            ok &= top.genus == g and top.components == 1
            ok &= member.graph.chi == 2 * g - 2 + member.graph.n
            dev = abs(Fraction(member.graph.n, g) - theta)
            if prev is not None:
                ok &= dev <= prev
            prev = dev
        details.append(f"theta={theta} genus/deviation ok")

    floor_val = 0.02**2 / 18
    for chi in (100, 200):
        cfg = SampleConfig(chi=chi, n=0, trials=1000, seed=77)
        lams = []
        for t in range(cfg.trials):
            g = sample_graph(cfg, t)
            lams.append(lambda1(g))
        p5 = float(np.percentile(lams, 5))
        ok &= p5 > floor_val
        details.append(f"chi={chi} p5(lambda1)={p5:.4f} > {floor_val:.1e}")
    report(12, ok, "; ".join(details))
