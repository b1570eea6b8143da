"""The four benchmark workloads: fixed lists of real CLI commands.

Each workload is a list of `Command`s built from the benchmark seed.  The
program sees only the generated argv lists and graph files; the seed picks
the CLI `--seed` values and the sampled graphs written to disk.  Every list
is sized so that its cost hardly depends on the seed: many small,
independent pieces of work rather than one graph whose search cost varies
several-fold.  `smoke=True` gives the same commands at toy sizes, used for
the warm-up and by the self-test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

from expander_forge.construct import k4_graph, plant_trees, theta_base
from expander_forge.graph_core import MultiGraph, is_connected, to_text
from expander_forge.sampler import SampleConfig, sample_graph

WORKLOADS = ("mc-connectivity", "sample-spectral", "exact-certify", "exact-rational")


@dataclass
class Command:
    """One CLI invocation and what the correctness gate needs to check it."""

    kind: str
    argv: list[str]
    outputs: list[Path] = field(default_factory=list)
    graph: MultiGraph | None = None  # input graph of file-based commands
    params: dict = field(default_factory=dict)


def _connected_sample(chi: int, n: int, seed: int) -> MultiGraph:
    cfg = SampleConfig(chi=chi, n=n, trials=1000, seed=seed)
    for t in range(cfg.trials):
        g = sample_graph(cfg, t)
        if is_connected(g):
            return g
    raise RuntimeError(f"no connected sample at chi={chi}, n={n}, seed={seed}")


class _CommandList:
    def __init__(self, name: str, seed: int, workdir: Path):
        self.rng = random.Random(f"{name}:{seed}")
        self.workdir = workdir
        self.commands: list[Command] = []

    def cli_seed(self) -> int:
        return self.rng.randrange(2**31)

    def path(self, stem: str) -> Path:
        return self.workdir / f"{len(self.commands):02d}-{stem}"

    def sweep(self, chis: list[int], rule: str, trials: int) -> None:
        out = self.path("sweep.csv")
        seed = self.cli_seed()
        argv = ["sweep", "--chi-list", ",".join(map(str, chis)), "--rule", rule,
                "--trials", str(trials), "--seed", str(seed), "--out", str(out)]
        self.commands.append(Command("sweep", argv, [out], params=dict(
            chis=chis, rule=rule, trials=trials, seed=seed)))

    def sample(self, chi: int, n: int, trials: int, guard: int | None = None) -> None:
        out = self.path("sample.csv")
        seed = self.cli_seed()
        argv = ["sample", "--chi", str(chi), "--n", str(n), "--trials", str(trials),
                "--seed", str(seed), "--out", str(out)]
        if guard is not None:
            argv += ["--guard", str(guard)]
        self.commands.append(Command("sample", argv, [out], params=dict(
            chi=chi, n=n, trials=trials, seed=seed, guard=guard or 24)))

    def on_graph(self, kind: str, g: MultiGraph, *extra: str) -> None:
        gfile = self.path(f"{kind}-input.txt")
        gfile.write_text(to_text(g))
        self.commands.append(Command(kind, [kind, str(gfile), *extra], graph=g))

    def on_sampled_graph(self, kind: str, chi: int, n: int, *extra: str) -> None:
        self.on_graph(kind, _connected_sample(chi, n, self.cli_seed()), *extra)

    def construct(self, theta: str, g_min: int, g_max: int) -> None:
        out = self.path("family")
        argv = ["construct", "--theta", theta, "--g-min", str(g_min),
                "--g-max", str(g_max), "--out", str(out)]
        self.commands.append(Command("construct", argv, [out / "manifest.csv"],
                                     params=dict(g_min=g_min, g_max=g_max)))

    def bounds(self, chi: int, n: int, mu: str) -> None:
        base = self.path("bounds")
        argv = ["bounds", "--chi", str(chi), "--n", str(n), "--mu", mu,
                "--out", str(base)]
        self.commands.append(Command(
            "bounds", argv, [base.with_suffix(".csv"), base.with_suffix(".json")],
            params=dict(chi=chi, n=n, mu=mu)))


def build(name: str, seed: int, workdir: Path, smoke: bool = False) -> list[Command]:
    """The command list of workload `name` for benchmark seed `seed`.

    Graph files are written into `workdir`; CLI outputs go there too.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    workdir.mkdir(parents=True, exist_ok=True)
    b = _CommandList(name, seed, workdir)
    if name == "mc-connectivity":
        # chi=2000 rows take 4-5 ms a trial, chi=50 rows 0.1 ms; the
        # linear:0.25 row has n=100 boundary labels on the same sampler path.
        # Short commands: each command's best time over the passes is kept.
        small, large, trials = ([20], [50], 5) if smoke else ([50, 400], [2000], 60)
        for rule in ("pow:0.3333", "pow:0.5"):
            b.sweep(small, rule, trials)
            b.sweep(large, rule, trials)
        b.sweep(large if smoke else [400], "linear:0.25", trials)
    elif name == "sample-spectral":
        # Both sample sizes are above the Cheeger guard and below DENSE_LIMIT.
        if smoke:
            b.sample(40, 4, 2)
            b.on_sampled_graph("spectra", 40, 6)
            b.on_sampled_graph("split", 20, 4)
        else:
            b.sample(400, 20, 5)
            b.sample(1500, 38, 1)
            b.on_sampled_graph("spectra", 1000, 30)
            b.on_sampled_graph("spectra", 600, 24)
            # two_tree_split is quadratic in |E|: 0.6 s at chi=200, 7 s at 400.
            b.on_sampled_graph("split", 150, 14)
    elif name == "exact-certify":
        # Exact search cost varies several-fold between random graphs of one
        # size (28-vertex cubic: 0.4-1.9 s), so the random part is many small
        # graphs whose costs average; the 28-vertex input is a fixed planted one.
        if smoke:
            b.sample(8, 2, 4)
            b.on_graph("cheeger", plant_trees(k4_graph(), 1))
            b.on_sampled_graph("cheeger", 10, 0)
            b.construct("3", 1, 3)
        else:
            for _ in range(5):
                b.sample(16, 4, 40)
            b.on_graph("cheeger", plant_trees(k4_graph(), 2), "--guard", "28")
            b.on_graph("cheeger", plant_trees(theta_base(), 3))
            for _ in range(3):
                b.on_sampled_graph("cheeger", 22, 0)
            # g = 14..16 take the m >= 13 upper-bound screen path.
            b.construct("3", 1, 16)
    else:  # exact-rational: no random input, so the seed changes nothing here
        if smoke:
            b.bounds(20, 4, "0.5")
        else:
            for chi in (50, 60, 70):
                b.bounds(chi, 14, "0.5")
            for chi in (70, 80):
                b.bounds(chi, 14, "0.25")
    return b.commands
