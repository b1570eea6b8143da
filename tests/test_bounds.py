import json
import math
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from expander_forge.bounds import (
    _connected_subset_counts,
    audit_first_moment,
    count_all_Nabs,
    count_all_Nabs_interior_cut,
    first_moment_bound,
    is_mu_pair,
    mu_pair_groups,
    mu_pair_sum,
    pendant_term,
    subset_mean_rt,
    xyz_bound,
)
from expander_forge.cli import _quotient, main
from expander_forge.construct import add_loops, plant_trees, theta_base
from expander_forge.errors import GuardExceededError, ParityError
from expander_forge.graph_core import (
    HalfEdgePairing,
    MultiGraph,
    build_graph,
    is_connected,
)
from expander_forge.sampler import (
    SampleConfig,
    count_family,
    enumerate_family,
    sample_graph,
)

STAR = build_graph(HalfEdgePairing(chi=1, n=3, pairs=((1, 4), (2, 5), (3, 6))))
THETA = build_graph(HalfEdgePairing(chi=2, n=0, pairs=((1, 4), (2, 5), (3, 6))))


def _terms(chi, n, mu):
    """(a, b, s, C, Y, Z) per mu-pair, X*Y*Z = Z*Y/C: the groups of
    mu_pair_groups row by row."""
    return [
        (a, b, s, c, y, z)
        for a, b, c, z, ys in mu_pair_groups(chi, n, mu)
        for s, y in enumerate(ys, 1)
    ]


def test_is_mu_pair_examples():
    assert not is_mu_pair(0, 1, 1, 10, 2, 0.02)  # s=1 > 0.02*1
    assert is_mu_pair(0, 1, 1, 4, 2, 1.5)
    assert not is_mu_pair(2, 1, 2, 10, 4, 10)  # b < a+s-2


def test_is_mu_pair_exact_rational_threshold():
    # s = mu*(a+b) exactly must pass: mu=1/2, a+b=2, s=1
    assert is_mu_pair(0, 2, 1, 10, 2, Fraction(1, 2))
    assert not is_mu_pair(0, 2, 2, 10, 2, Fraction(1, 2))


def test_xyz_regression_8_11():
    b = xyz_bound(4, 2, 0, 1, 1)
    assert (b.x, b.y, b.z) == (Fraction(1, 220), Fraction(40), Fraction(4))
    assert b.product == Fraction(8, 11)


def test_xyz_parity_vacuity():
    b = xyz_bound(4, 2, 1, 1, 1)  # 3b-a-s = 1 odd
    assert b.y == 0 and b.product == 0


def test_xyz_whole_graph_case():
    # b = chi, a = n, s = 0: X = 1 and Y = 1 (all half-edges internal)
    b = xyz_bound(2, 0, 0, 2, 0)
    assert (b.x, b.y, b.z) == (Fraction(1), Fraction(1), Fraction(1))


def test_xyz_argument_validation():
    with pytest.raises(ParityError):
        xyz_bound(1, 2, 0, 1, 1)
    with pytest.raises(ValueError):
        xyz_bound(2, 2, 3, 1, 1)  # a > n


def test_mu_pair_sum_empty_at_small_mu():
    assert mu_pair_sum(10, 0, 0.02) == 0


def test_mu_pair_sum_matches_brute_force():
    mu = Fraction(1, 2)
    chi, n = 4, 2
    total = Fraction(0)
    for a in range(n + 1):
        for b in range(chi + 1):
            for s in range(1, 3 * chi + n + 1):
                if (
                    1 <= a + b
                    and Fraction(a + b) <= Fraction(chi + n, 2)
                    and Fraction(s) <= mu * (a + b)
                    and b >= a + s - 2
                ):
                    total += xyz_bound(chi, n, a, b, s).product
    assert mu_pair_sum(chi, n, mu) == total
    assert total > 0


@settings(max_examples=200, deadline=None)
@given(
    a=st.integers(0, 3),
    b=st.integers(0, 4),
    s=st.integers(0, 6),
)
def test_xyz_bound_nonnegative_and_iter_consistent(a, b, s):
    chi, n = 4, 4
    bound = xyz_bound(chi, n, a, b, s)
    assert bound.x > 0 and bound.z >= 0 and bound.y >= 0
    assert bound.product == bound.x * bound.y * bound.z
    mu = Fraction(3, 4)
    in_iter = (a, b, s) in {t[:3] for t in _terms(chi, n, mu)}
    assert in_iter == (s >= 1 and is_mu_pair(a, b, s, chi, n, mu))


def _xyz_oracle(chi, n, a, b, s):
    """X, Y, Z straight from the factorial formulas, one Fraction each: the
    reference for the integer tables of mu_pair_groups."""
    fact = math.factorial
    x = Fraction(fact(3 * b) * fact(3 * chi - 3 * b), fact(3 * chi))
    z = Fraction(math.comb(n, a) * math.comb(chi, b))
    inner = 3 * b - a - s
    outer = 3 * chi - n - (3 * b - a) - s
    if inner < 0 or outer < 0 or inner % 2 != 0 or outer % 2 != 0:
        y = Fraction(0)
    else:
        y = Fraction(
            2**s * fact((3 * chi - n) // 2),
            fact(s) * fact(inner // 2) * fact(outer // 2),
        )
    return x, y, z


@settings(max_examples=60, deadline=None)
@given(
    chi=st.integers(1, 24),
    half_n=st.integers(0, 10),
    mu=st.fractions(Fraction(1, 12), Fraction(2), max_denominator=12),
)
def test_bounds_table_matches_factorial_oracle(chi, half_n, mu):
    n = 2 * half_n + chi % 2  # 3*chi - n even
    assume(n <= 3 * chi)
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "b"
        argv = ["bounds", "--chi", str(chi), "--n", str(n), "--mu",
                f"{mu.numerator}/{mu.denominator}", "--out", str(base)]
        assert main(argv) == 0
        doc = json.loads(base.with_suffix(".json").read_text())
    triples = [(q["a"], q["b"], q["s"]) for q in doc["pairs"]]
    assert triples == [
        (a, b, s)
        for a in range(n + 1)
        for b in range(chi + 1)
        for s in range(1, 2 * (a + b) + 1)  # mu <= 2
        if is_mu_pair(a, b, s, chi, n, mu)
    ]
    total = Fraction(0)
    for q in doc["pairs"]:
        x, y, z = _xyz_oracle(chi, n, q["a"], q["b"], q["s"])
        assert (q["x"], q["y"], q["z"], q["product"]) == tuple(
            map(str, (x, y, z, x * y * z))
        )
        bound = xyz_bound(chi, n, q["a"], q["b"], q["s"])
        assert (bound.x, bound.y, bound.z) == (x, y, z)
        total += x * y * z
    assert doc["sum"] == str(total)
    assert mu_pair_sum(chi, n, mu) == total


@settings(max_examples=25, deadline=None)
@given(
    chi=st.integers(25, 300),
    half_n=st.integers(0, 6),
    mu=st.fractions(Fraction(1, 40), Fraction(1, 8), max_denominator=40),
)
def test_group_route_matches_direct_formula_at_large_chi(chi, half_n, mu):
    """mu_pair_groups steps Y in s within each (a, b) group, and the table
    reduces each product by gcd(Z, C) and then gcd(Y, C/gcd(Z, C)): every
    row must equal xyz_bound's direct per-triple values, far beyond the
    chi of the factorial oracle."""
    n = 2 * half_n + chi % 2
    terms = _terms(chi, n, mu)
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "b"
        argv = ["bounds", "--chi", str(chi), "--n", str(n), "--mu",
                f"{mu.numerator}/{mu.denominator}", "--out", str(base)]
        assert main(argv) == 0
        doc = json.loads(base.with_suffix(".json").read_text())
    assert len(doc["pairs"]) == len(terms)
    for (a, b, s, c, y, z), q in zip(terms, doc["pairs"]):
        bound = xyz_bound(chi, n, a, b, s)
        assert (Fraction(1, c), Fraction(y), Fraction(z)) == (bound.x, bound.y, bound.z)
        assert (q["a"], q["b"], q["s"], q["x"], q["y"], q["z"], q["product"]) == (
            a, b, s, str(bound.x), str(bound.y), str(bound.z), str(bound.product)
        )
    assert Fraction(doc["sum"]) == mu_pair_sum(chi, n, mu)


# (chi, n, mu) tables for the JSON writer: (1, 3, 2) has only b = 0 rows,
# most tables have y = 0 rows, and mu = 1/50 at chi = 10 is the empty table
WRITER_GRID = [(1, 3, "2"), (2, 4, "1"), (3, 3, "2"), (4, 2, "3/2"), (5, 1, "3"),
               (6, 2, "1/2"), (20, 4, "1/2"), (10, 4, "1/50")]


def test_bounds_json_is_json_dumps_indent_2_of_the_terms(tmp_path):
    seen = set()
    for chi, n, mu in WRITER_GRID:
        base = tmp_path / f"b{chi}_{n}"
        assert main(["bounds", "--chi", str(chi), "--n", str(n), "--mu", mu,
                     "--out", str(base)]) == 0
        text = base.with_suffix(".json").read_text()
        doc = json.loads(text)
        assert text == json.dumps(doc, indent=2) + "\n"
        assert doc["pairs"] == [
            {"a": a, "b": b, "s": s, "x": str(Fraction(1, c)), "y": str(y),
             "z": str(z), "product": str(Fraction(z * y, c))}
            for a, b, s, c, y, z in _terms(chi, n, Fraction(mu))
        ]
        for q in doc["pairs"]:
            if q["b"] == 0 and q["x"] == "1":
                seen.add("b = 0")
            if q["y"] == q["product"] == "0":
                seen.add("y = 0, an integral product")
        if not doc["pairs"]:
            assert '"pairs": []' in text
            seen.add("empty")
    assert seen == {"b = 0", "y = 0, an integral product", "empty"}


def test_quotient_is_the_fraction_text():
    # the writer's X and product cells, integral quotients included
    for p in range(0, 40):
        for q in range(1, 13):
            assert _quotient(p, q) == str(Fraction(p, q))


def test_count_nabs_examples():
    assert count_all_Nabs(STAR)[1, 0, 1] == 3
    assert count_all_Nabs(STAR)[0, 1, 3] == 1
    assert count_all_Nabs(THETA)[0, 1, 3] == 2
    disc = MultiGraph(chi=2, n=0, edges=())
    assert count_all_Nabs(disc) == {}  # disconnected convention
    assert count_all_Nabs(MultiGraph(chi=0, n=0, edges=())) == {}


def test_count_nabs_total_is_all_connected_subsets():
    counts = count_all_Nabs(STAR)
    # star connected subsets: 3 leaves, center, 3 center+leaf, 3 center+2,
    # 1 whole graph = 11
    assert sum(counts.values()) == 11


def test_count_nabs_guard():
    from expander_forge.sampler import SampleConfig, sample_graph

    from expander_forge.graph_core import is_connected

    cfg = SampleConfig(chi=22, n=0, trials=20, seed=0)
    g = next(
        sample_graph(cfg, t) for t in range(20) if is_connected(sample_graph(cfg, t))
    )
    with pytest.raises(GuardExceededError):
        count_all_Nabs(g)


def test_count_nabs_rejects_more_than_63_vertices():
    """The counters run on 63-bit subset masks.  A 64-vertex path has no
    degree-3 vertex, so only the mask width stops it."""
    path = MultiGraph(chi=64, n=0, edges=tuple((v, v + 1) for v in range(63)))
    for counter in (count_all_Nabs, count_all_Nabs_interior_cut):
        with pytest.raises(GuardExceededError):
            counter(path)
    path63 = MultiGraph(chi=63, n=0, edges=tuple((v, v + 1) for v in range(62)))
    assert sum(count_all_Nabs(path63).values()) == 63 * 64 // 2


def _nabs_brute_force(g):
    """Both N_{a,b,s} counters by definition: every vertex mask, the induced
    subgraph's connectivity checked by depth-first search, and every
    crossing edge classified by the degrees of its ends."""
    nv = g.num_vertices
    degs = g.degrees()
    nbrs = [set() for _ in range(nv)]
    for u, v in g.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)

    def connected(vs):
        start = next(iter(vs))
        seen, stack = {start}, [start]
        while stack:
            for w in nbrs[stack.pop()] & vs - seen:
                seen.add(w)
                stack.append(w)
        return seen == vs

    if not connected(set(range(nv))):
        return {}, {}
    unrestricted, interior_cut = {}, {}
    for mask in range(1, 1 << nv):
        inside = {v for v in range(nv) if (mask >> v) & 1}
        if not connected(inside):
            continue
        crossing = [(u, v) for u, v in g.edges if (u in inside) != (v in inside)]
        a = sum(1 for v in inside if degs[v] == 1)
        key = (a, len(inside) - a, len(crossing))
        unrestricted[key] = unrestricted.get(key, 0) + 1
        if all(degs[u] == 3 and degs[v] == 3 for u, v in crossing):
            interior_cut[key] = interior_cut.get(key, 0) + 1
    return unrestricted, interior_cut


def test_nabs_counters_match_brute_force():
    graphs = [
        sample_graph(SampleConfig(chi=chi, n=n, trials=8, seed=9), t)
        for chi, n in [(1, 1), (2, 2), (3, 1), (3, 3), (4, 2), (2, 6), (5, 3), (6, 0)]
        for t in range(8)
    ]
    planted = plant_trees(theta_base(), 2)
    graphs += [planted, add_loops(planted, planted.boundary_indices()[::2])]
    assert any(u == v for g in graphs for u, v in g.edges)  # loops
    assert any(len(set(g.edges)) < g.num_edges for g in graphs)  # parallel edges
    assert any(not is_connected(g) for g in graphs)
    families = {}
    for g in graphs:
        unrestricted, interior_cut = _nabs_brute_force(g)
        assert count_all_Nabs(g) == unrestricted, g.edges
        assert count_all_Nabs_interior_cut(g) == interior_cut, g.edges
        summed = families.setdefault((g.chi, g.n), ([], Counter(), Counter()))
        summed[0].append(g)
        summed[1].update(unrestricted)
        summed[2].update(interior_cut)
    # one engine pass over the graphs of a family sums the same counts
    assert len(families) == 10
    for members, unrestricted, interior_cut in families.values():
        assert _connected_subset_counts(members) == (unrestricted, interior_cut)
    # a pass takes graphs of one size only, also where the edge counts agree
    six, eight = families[6, 0][0], families[5, 3][0]
    assert any(map(is_connected, six)) and any(map(is_connected, eight))
    with pytest.raises(ValueError, match="graphs of 6 and 8 vertices"):
        _connected_subset_counts(six + eight)


def test_interior_cut_count_is_a_subset():
    for chi, n in [(2, 2), (3, 1), (3, 3)]:
        for t, p in enumerate(enumerate_family(chi, n)):
            if t >= 40:
                break
            g = build_graph(p)
            full = count_all_Nabs(g)
            restricted = count_all_Nabs_interior_cut(g)
            for key, cnt in restricted.items():
                assert cnt <= full.get(key, 0)


def test_interior_cut_mean_respects_xyz_bound():
    """The four-step counting construction is exact for this subset class."""
    for chi, n in [(1, 1), (1, 3), (2, 2), (3, 1)]:
        total: dict = {}
        members = 0
        for p in enumerate_family(chi, n):
            members += 1
            for k, v in count_all_Nabs_interior_cut(build_graph(p)).items():
                total[k] = total.get(k, 0) + v
        for (a, b, s), tot in total.items():
            assert Fraction(tot, members) <= xyz_bound(chi, n, a, b, s).product


def test_literal_mean_can_exceed_xyz_bound():
    """Documented gap: a crossing edge ending at a degree-1 vertex is not
    covered by the counting construction, so the bound fails for the
    unrestricted subset count (pendant singleton in the 6-member family)."""
    chi, n = 1, 3
    tot = sum(
        count_all_Nabs(build_graph(p)).get((1, 0, 1), 0) for p in enumerate_family(chi, n)
    )
    mean = Fraction(tot, count_family(chi, n))
    assert mean == 3
    assert xyz_bound(chi, n, 1, 0, 1).product == 0


def _subset_rt_totals(chi, n):
    """Sum over F_{chi,n} of the number of vertex subsets per
    (a, b, s, r, t), by enumerating every subset of every member."""
    totals: dict = {}
    for p in enumerate_family(chi, n):
        g = build_graph(p)
        degs = g.degrees()
        nv = g.num_vertices
        for mask in range(1 << nv):
            inside = [(mask >> v) & 1 for v in range(nv)]
            a = sum(1 for v in range(nv) if inside[v] and degs[v] == 1)
            b = sum(inside) - a
            r = t = k = 0
            for u, v in g.edges:
                if inside[u] == inside[v]:
                    continue
                i, o = (u, v) if inside[u] else (v, u)
                if degs[i] == 1:
                    r += 1
                elif degs[o] == 1:
                    t += 1
                else:
                    k += 1
            key = (a, b, r + t + k, r, t)
            totals[key] = totals.get(key, 0) + 1
    return totals


def test_subset_mean_rt_matches_enumeration():
    """Every E_{r,t}, (0, 0) included, equals the exhaustive mean; so the
    sum over (r, t) is the mean over all vertex subsets and P is the mean
    over those with a crossing edge at a degree-1 vertex."""
    for chi, n in [(1, 1), (1, 3), (2, 0), (2, 2), (2, 4), (3, 1)]:
        totals = _subset_rt_totals(chi, n)
        members = count_family(chi, n)
        for a in range(n + 1):
            for b in range(chi + 1):
                for s in range(3 * chi + n + 1):
                    pendant = Fraction(0)
                    for r in range(s + 1):
                        for t in range(s - r + 1):
                            mean = Fraction(totals.get((a, b, s, r, t), 0), members)
                            assert subset_mean_rt(chi, n, a, b, s, r, t) == mean
                            if (r, t) != (0, 0):
                                pendant += mean
                    assert pendant_term(chi, n, a, b, s) == pendant


@pytest.mark.parametrize("chi, n", [(8, 0), (20, 4), (30, 6)])
def test_xyz_product_is_the_interior_cut_mean(chi, n):
    """X*Y*Z equals E_{0,0} exactly on every (a, b, s), vacuous ones
    included: two formulas for one mean, tied here far above the
    enumerable families."""
    for a in range(n + 1):
        for b in range(chi + 1):
            for s in range(3 * b + a + 1):
                xyz = xyz_bound(chi, n, a, b, s).product
                assert xyz == subset_mean_rt(chi, n, a, b, s, 0, 0), (a, b, s)


def test_pendant_term_covers_literal_gap():
    # the pendant singletons of the star: mean 3, X*Y*Z = 0
    assert pendant_term(1, 3, 1, 0, 1) == 3
    assert first_moment_bound(1, 3, 1, 0, 1) == 3
    # the looped vertex of F_{1,1} with its pendant outside: mean 1, X*Y*Z = 0
    assert xyz_bound(1, 1, 0, 1, 1).product == 0
    assert pendant_term(1, 1, 0, 1, 1) == first_moment_bound(1, 1, 0, 1, 1) == 1
    # no degree-1 vertices: P = 0 and the full bound is X*Y*Z
    assert pendant_term(2, 0, 0, 1, 3) == 0
    assert first_moment_bound(2, 0, 0, 1, 3) == xyz_bound(2, 0, 0, 1, 3).product


def test_unrestricted_mean_respects_first_moment_bound():
    for chi, n in [(1, 1), (1, 3), (2, 2), (3, 1)]:
        total: dict = {}
        members = 0
        for p in enumerate_family(chi, n):
            members += 1
            for k, v in count_all_Nabs(build_graph(p)).items():
                total[k] = total.get(k, 0) + v
        for (a, b, s), tot in total.items():
            assert Fraction(tot, members) <= first_moment_bound(chi, n, a, b, s)


def test_audit_first_moment():
    # exact mean of the (0,1,3) count over F_{2,0} is 2/5 * 2 = 0.8,
    # meeting the bound with equality; the Monte Carlo audit must pass
    rep = audit_first_moment(2, 0, 0, 1, 3, trials=500, seed=4)
    assert abs(rep.bound_float - 0.8) < 1e-12
    assert rep.passes
    assert rep.ci_low <= rep.estimate <= rep.ci_high


def test_audit_vacuous_configuration_estimates_zero():
    # s = 2 between two cubic vertices is parity-impossible: Y = 0
    rep = audit_first_moment(2, 0, 0, 1, 2, trials=200, seed=4)
    assert rep.estimate == 0.0 and rep.bound_float == 0.0 and rep.passes
