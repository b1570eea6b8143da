"""Golden digests of the construction outputs, of the small-genus chain,
of the tree-split descent, of the first-moment tables, of the Monte Carlo
sweep and of `sample` on both sides of the sparse-solve threshold.

Any change to a family member, a manifest row, a two-tree split, a
balanced subset, a `bounds` CSV/JSON, a `sweep` CSV or a `sample` CSV
changes them; outputs must stay byte-identical.
"""

import hashlib

import pytest

from expander_forge import spectra
from expander_forge.cli import main
from expander_forge.construct import (
    _first_connected_member,
    balanced_boundary_subset,
    two_tree_split,
)
from expander_forge.graph_core import is_connected, to_text
from expander_forge.sampler import SampleConfig, sample_graph

# sha256 over manifest.csv and g1.txt..g16.txt of `construct --g-min 1 --g-max 16`;
# theta = 5/2 starts planting at genus 6, so genera 1..5 are small-genus chains
CONSTRUCT_DIGESTS = {
    "1": "04048043de6511a772cb775a61ee6c3028478240f4cace344be18357966aebcf",
    "3/2": "7b0eaab7cedfe2254dcef2a959b0a9d2e36f58a638b71354ce73230ace55756b",
    "2": "11a0d1b26682ea707395cb582ccc8ace28ce4ab574bf9ff168e014356618e66f",
    "5/2": "692e5a84e3e65c5b60b5c019b30c86a177e28b948e24533cfdb163d8cae4a4c0",
    "3": "79dacb6f092319f853c4457627aac0382cfc9b6ac821fd26533503b1b3d21f02",
    "4": "a1e2f59af3c076be896239f9f02a119cd02968ff4ddd11c2e3aeef6aa2a22a58",
    "6": "43303f3879a1ed94d3e60caa0163666e74f8efc988934c926f874614a7ea818a",
    "9": "ef446d9658c02188d338f40d961c3843b28b7fec84b6eaf82967882fb8bab441",
}

# sha256 over to_text of the first connected member of F_{2g,2}, g = 1..60,
# as the exhaustive walk with a connectivity prune found it
FIRST_MEMBER_DIGEST = "b79843212fe846d10c6c3b082e4652c97ce07721d0906ee0f7a646f8c625527b"

# sha256 over the split and balanced subset of the connected draws among
# trials 0..19 of SampleConfig(chi, n, seed=7)
SPLIT_DIGESTS = {
    (4, 2): "b91ffc67526b4658694962a918fd221d082d062d0da7f934d41b67f46d76a086",
    (5, 3): "88d831192a3f10462db80a848882ed926f97ae08f74c54953ff86ff2a02f2356",
    (6, 4): "ad881df51887ebe52498915a908476ae9e6fff38d82745d3e7b2e6d56f785341",
    (8, 6): "24868d400d665c5cce9dd4b4cb5cc5afca5d8b9cf6b94b7ef0d184e5e9ef98e7",
    (10, 4): "643618b6ee9e27a1e9cd077b727a60317773f0a0a7931a03eeca5ff7a3e8c572",
    (12, 8): "3476ddfb69e2f777b174bb60414b836fe8abd42f448ab9e61ad66b5fe028a1a6",
    (16, 6): "15939251f4547a1227cd09b5b86d657513b9ede81233ccd5cc9b23660c0693e6",
    (20, 10): "af97864bfb58abe540c53d7b043cfcf532b520f51b12739e34d0ae3bb0be85cd",
    (30, 12): "adcf73a25609811b511ecaa04a81587f4dc9c965ff9507ef0f809e47048f00da",
    (40, 20): "265c512810c16b5884cf93c19b2a3c9fd7c020f9caa3bd85d3d8decb9633da60",
    (60, 16): "1f5ef389e789166aa351967d4c5b328657cd140e96b9fd4a1f3ef832e3798e6d",
    (80, 40): "008d56a1f0f3ad8a33bc35f360a6d287847279f5002110dc590313e1a3f3e98c",
    (120, 30): "eb6e3ed31eb3d6dd42c2ad95fddc2d2084684370152deeed605d81197ed1a77e",
    (160, 50): "e1577812fc3de594cc725b87220c8ddd050a39a29c82f7e0e4f9f52bcfb3cd04",
    (200, 24): "12051e7f95d268978f26c390dac7957b3f037489dc02b302279dfc1e71aeb8ae",
    (200, 60): "4380243ac7b8f9658077b227813ec50105199977e6cd14b3519478be7a029baa",
}

# sha256 of the .csv and of the .json that `bounds --chi --n --mu` writes;
# mu = 0.02 at chi = 10 is the empty table
BOUNDS_DIGESTS = {
    (20, 4, "1/2"): (
        "e918e8fc51db28743bfa531199cd1fc19e71ca170a239e36b8f337f2122c2500",
        "3d701c86e865f531f462c4d12e0a4ad030f6755ef4e61a430b6323cabbaaee4a",
    ),
    (50, 14, "1/2"): (
        "da7005a392a1f534071e0118d6e0bc8e7e154e0df3e5da5be599a0788e1f7225",
        "37f31441af6fda223da79c7103e6641afda19511892ad2cd42dd74bbe2d6d045",
    ),
    (80, 14, "1/4"): (
        "7be653edf286163cb0bad6ff86fe5219d5002013cd486a0079d9b631d55981a0",
        "6d6aa10545a6bc9059b69ea3d18b02e5b83fedaeeb5e9e14cdac894fbb8d2bd6",
    ),
    (4, 2, "3/2"): (
        "9e790254a670b6e58adb7495ccb88cdb825107be7476cc3c8033aa9bd9e0b6d8",
        "8f21c694649cb4f89bed187841537632eb83ad2525799b789db41c69f9801d26",
    ),
    (10, 0, "0.02"): (
        "c326be51ebc889bd3dea6aac975dc2bfca2e2353e71fb503ff57992884b54266",
        "a2d9a7406cd42c5265c74aa020ba8a0c972904ec803ceb0106988541e1a2a022",
    ),
}

# sha256 of the CSV that `sweep --chi-list 10,50,400 --trials 200 --seed 3`
# writes; every connected fraction lies strictly between 0 and 1
SWEEP_DIGESTS = {
    "pow:0.5": "d8928e5defba84ca93a032e378994001ecfd8a9613374f33aea8756d3d182fc6",
    "linear:0.25": "31969c7c5efb622b898d7f3296417ed22552729b3f14b86c394f42eefc1d2818",
}

# sha256 of the CSV that `sample --chi --n --trials --seed` writes, recorded
# with the dense lambda1 of every size; 420 vertices is under LANCZOS_FROM
# and (16, 4) has disconnected trials, whose lambda1 is exactly 0.  The
# 200-trial run spans four blocks of at most 51 trials, recorded when each
# trial was its own graph
SAMPLE_DIGESTS = {
    (400, 20, 5, 12): "31429623b310be0475da0f12d06550be693157809450d91082240ec44f5324da",
    (16, 4, 40, 11): "e93c0a28751a27371ac49959d8e225973b3fc083dc6377a02d694968778d957f",
    (16, 4, 200, 3): "43842cf25fdb566dfd3348b4c72d69f1ac82d1f38128a629fbd5cde877c25b82",
}


# the same from spectra.LANCZOS_FROM vertices on (1538 here), recorded
# when sigma1 came from a dense Cholesky solve: the sparse LU solve moves
# it by rounding only, below the CSV's 12 significant digits
SAMPLE_SPARSE_DIGESTS = {
    (1500, 38, 2, 0): "1b97e2fab1284a0b42eb76bf718125df69496373a7d8a49846b59b812807fede",
}


@pytest.mark.parametrize("theta", sorted(CONSTRUCT_DIGESTS))
def test_construct_outputs_match_golden(tmp_path, theta):
    out = tmp_path / "family"
    argv = ["construct", "--theta", theta, "--g-min", "1", "--g-max", "16"]
    assert main(argv + ["--out", str(out)]) == 0
    digest = hashlib.sha256()
    for name in ["manifest.csv"] + [f"g{g}.txt" for g in range(1, 17)]:
        digest.update(name.encode() + b"\0" + (out / name).read_bytes())
    assert digest.hexdigest() == CONSTRUCT_DIGESTS[theta]


def test_first_connected_members_match_golden():
    digest = hashlib.sha256()
    for g in range(1, 61):
        digest.update(to_text(_first_connected_member(2 * g, 2)).encode())
    assert digest.hexdigest() == FIRST_MEMBER_DIGEST


@pytest.mark.parametrize("chi,n", sorted(SPLIT_DIGESTS))
def test_split_and_balanced_subset_match_golden(chi, n):
    cfg = SampleConfig(chi=chi, n=n, trials=20, seed=7)
    digest = hashlib.sha256()
    for t in range(cfg.trials):
        g = sample_graph(cfg, t)
        if not is_connected(g):
            continue
        split = two_tree_split(g)
        bal = balanced_boundary_subset(g)
        record = [
            t,
            split.removed_edges,
            sorted(split.side_a),
            sorted(bal.h_set),
            bal.boundary_edges,
            bal.boundary_vertices_inside,
        ]
        digest.update(repr(record).encode())
    assert digest.hexdigest() == SPLIT_DIGESTS[chi, n]


@pytest.mark.parametrize("chi,n,mu", sorted(BOUNDS_DIGESTS))
def test_bounds_outputs_match_golden(tmp_path, chi, n, mu):
    base = tmp_path / "b"
    argv = ["bounds", "--chi", str(chi), "--n", str(n), "--mu", mu]
    assert main(argv + ["--out", str(base)]) == 0
    digests = tuple(
        hashlib.sha256(base.with_suffix(ext).read_bytes()).hexdigest()
        for ext in (".csv", ".json")
    )
    assert digests == BOUNDS_DIGESTS[chi, n, mu]


@pytest.mark.parametrize("rule", sorted(SWEEP_DIGESTS))
def test_sweep_output_matches_golden(tmp_path, rule):
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--chi-list", "10,50,400", "--rule", rule, "--trials", "200"]
    assert main(argv + ["--seed", "3", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SWEEP_DIGESTS[rule]


def _sample_digest(tmp_path, chi, n, trials, seed) -> str:
    out = tmp_path / "sample.csv"
    argv = ["sample", "--chi", str(chi), "--n", str(n), "--trials", str(trials)]
    assert main(argv + ["--seed", str(seed), "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("chi,n,trials,seed", sorted(SAMPLE_DIGESTS))
def test_sample_output_below_lanczos_threshold_matches_golden(tmp_path, chi, n, trials, seed):
    digest = _sample_digest(tmp_path, chi, n, trials, seed)
    assert digest == SAMPLE_DIGESTS[chi, n, trials, seed]


@pytest.mark.parametrize("chi,n,trials,seed", sorted(SAMPLE_SPARSE_DIGESTS))
def test_sample_output_above_lanczos_threshold_matches_golden(tmp_path, chi, n, trials, seed):
    assert chi + n >= spectra.LANCZOS_FROM
    digest = _sample_digest(tmp_path, chi, n, trials, seed)
    assert digest == SAMPLE_SPARSE_DIGESTS[chi, n, trials, seed]
