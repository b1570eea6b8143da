"""Command-line experiment harness.

Subcommands: sample, sweep, bounds, construct, spectra, cheeger, split.
Exit codes (errors.EXIT_CODES): 0 success, 2 invalid arguments, parity or
graph input, 3 guard exceeded, 4 base certification failure; these errors
print one `error:` line on stderr instead of a traceback.  Every
file-writing command also writes a JSON run manifest with sha256 digests of
its outputs; the data files themselves contain no timestamps, so re-runs
are byte-identical.  A command that exits with an error writes no file:
each `cmd_*` returns the files it would write and `main` writes them.

numpy, and the modules that compute with it (spectra, cheeger, construct),
are imported inside the commands that use them: the parser, `--help`,
usage errors and the whole `bounds` command run without loading numpy.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path
from typing import Iterator

from . import __version__
from .bounds import mu_pair_terms, sum_terms
from .errors import DEFAULT_GUARD, ExpanderForgeError, ParityError, exit_code
from .graph_core import (
    GraphBlock, MultiGraph, Topology, exact_fraction, from_text, genus, label_owners,
    to_text, topology,
)
from .sampler import SampleConfig, estimate_connectivity, sample_partition
from .sampler import sample_graph  # noqa: F401  perfbench/selftest.py traces it here


def _fmt(x: float) -> str:
    return format(x, ".12g")


def _ratio(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _parse_fraction(text: str) -> Fraction:
    """A --mu/--theta value: "p/q" exactly, a decimal as its float's
    literal; ValueError (exit 2) for anything else, a zero denominator or
    a decimal beyond the floats (1e400, inf, nan) too, naming the text."""
    try:
        if "/" in text:
            return Fraction(text)
        x = float(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
    if not math.isfinite(x):
        raise ValueError(f"not a finite number: {text!r}")
    return exact_fraction(x)


def _out_path(path: Path) -> None:
    """Create the parent directory of a file to write; ValueError (exit 2)
    when that directory cannot be made or the file is a directory."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot create directory {path.parent}: {exc}") from None
    if path.is_dir():
        raise ValueError(f"cannot write {path}: it is a directory")


def _write_outputs(files: dict[Path, str], argv: list[str], seed, started: str) -> None:
    """Write each file, then the run manifest beside the first; every path
    passes `_out_path` before any byte is written."""
    first = next(iter(files))
    target = first.with_suffix(first.suffix + ".manifest.json")
    for path in [*files, target]:
        _out_path(path)
    digests = {}
    for path, text in files.items():
        data = text.encode()
        path.write_bytes(data)
        digests[str(path)] = hashlib.sha256(data).hexdigest()
    manifest = {
        "command": argv,
        "seed": seed,
        "version": __version__,
        "started": started,
        "finished": datetime.now(timezone.utc).isoformat(),
        "outputs": digests,
    }
    target.write_text(json.dumps(manifest, indent=2) + "\n")


def _sample_trials(cfg: SampleConfig, guard: int) -> Iterator[tuple]:
    """(trial, connected, lambda1, sigma1, certificate) of each trial of cfg,
    in order; sigma1 is None unless the trial is connected with n >= 2, and
    the certificate is cheeger_exact_within's, None for a disconnected trial.

    A block holds as many trials as one engine pass of _mincut_py.BATCH
    vertices (at least one, so one from 1025 vertices on), and only one
    block is held at a time.  Its trials are drawn by sample_partition and
    their label pairs stacked: one sampler._block_verdicts search gives the
    connected flags, label_owners the vertex pairs, and the connected
    trials, one GraphBlock, get one spectra.lambda1, one stacked
    steklov_spectrum and one cheeger_exact_block engine pass; no
    MultiGraph is built.  The spectra choose their dense or sparse solves
    by the block's size.
    """
    import numpy as np

    from . import spectra
    from ._mincut_py import BATCH
    from .cheeger import cheeger_exact_block
    from .sampler import _block_verdicts

    chi, n = cfg.chi, cfg.n
    per_block = max(1, BATCH // (chi + n))
    owner = np.array(label_owners(chi, n))
    for first in range(0, cfg.trials, per_block):
        trials = range(first, min(first + per_block, cfg.trials))
        pairs = np.array([sample_partition(cfg, t).pairs for t in trials])
        connected = _block_verdicts(pairs, chi)
        block = GraphBlock(chi, n, owner[pairs[connected] - 1])
        lam1 = np.zeros(len(trials))
        sigma1 = certs = []
        if connected.any():
            lam1[connected] = spectra.lambda1(block)
            if n >= 2:
                sigma1 = spectra.steklov_spectrum(block)[:, 1].tolist()
            certs = cheeger_exact_block(block, guard)
        sigma1, certs = iter(sigma1), iter(certs)
        for t, c, lam in zip(trials, connected.tolist(), lam1.tolist()):
            yield t, c, lam, next(sigma1) if c and n >= 2 else None, next(certs) if c else None


def cmd_sample(args) -> dict[Path, str]:
    """One CSV row per trial of _sample_trials, with its genus, which
    depends on (chi, n) alone, then a summary line."""
    import numpy as np

    cfg = SampleConfig(chi=args.chi, n=args.n, trials=args.trials, seed=args.seed)
    top = genus(cfg.chi, cfg.n)
    lines = ["trial,connected,lambda1,sigma1,h,genus"]
    lam1s = []
    hits = 0
    for t, connected, lam1, sigma1, cert in _sample_trials(cfg, args.guard):
        sigma = "" if sigma1 is None else _fmt(sigma1)
        h = _ratio(cert.h) if cert else ""
        lines.append(f"{t},{int(connected)},{_fmt(lam1)},{sigma},{h},{top}")
        lam1s.append(lam1)
        hits += connected
    q = np.quantile(np.array(lam1s), [0.25, 0.5, 0.75])
    lines.append(
        f"# summary connected_fraction={hits}/{cfg.trials}"
        f" lambda1_q25={_fmt(q[0])} lambda1_q50={_fmt(q[1])}"
        f" lambda1_q75={_fmt(q[2])}"
    )
    return {Path(args.out): "\n".join(lines) + "\n"}


def parity_adjust(chi: int, n: int) -> int:
    """Largest n' <= n with 3*chi - n' non-negative and even."""
    bound = min(n, 3 * chi)
    n = bound - (3 * chi - bound) % 2
    if n < 0:
        raise ParityError(f"no valid n <= {bound} for chi={chi}")
    return n


def _parse_rule(rule: str):
    kind, _, val = rule.partition(":")
    if kind not in ("pow", "linear"):
        raise ValueError(f"unknown rule {rule!r} (expected pow:a or linear:c)")
    x = float(val)
    if not math.isfinite(x):
        raise ValueError(f"rule parameter must be finite, got {val!r}")

    def n_of(chi: int) -> int:
        try:
            return math.floor(chi**x if kind == "pow" else x * chi)
        except OverflowError:  # |n| beyond floats; parity_adjust caps n > 3*chi
            return 3 * chi if x > 0 else -1

    return n_of


def cmd_sweep(args) -> dict[Path, str]:
    rule = _parse_rule(args.rule)
    chis = [int(c) for c in args.chi_list.split(",")]
    if min(chis) < 1:
        raise ValueError(f"every chi must be >= 1, got {args.chi_list!r}")
    lines = ["chi,n,trials,connected_fraction,ci_low,ci_high,seed"]
    for chi in chis:
        n = parity_adjust(chi, rule(chi))
        cfg = SampleConfig(chi=chi, n=n, trials=args.trials, seed=args.seed)
        est = estimate_connectivity(cfg)
        lines.append(
            f"{chi},{n},{est.trials},{_fmt(float(est.fraction))},"
            f"{_fmt(est.ci_low)},{_fmt(est.ci_high)},{args.seed}"
        )
    return {Path(args.out): "\n".join(lines) + "\n"}


# One `bounds` pair as json.dumps(..., indent=2) writes it inside the table.
# Every field is an int or str(Fraction) text, which uses only [-0-9/]:
# JSON escapes none of those, so the row needs no encoder.
_PAIR_JSON = (
    '    {{\n      "a": {},\n      "b": {},\n      "s": {},\n      "x": "{}",\n'
    '      "y": "{}",\n      "z": "{}",\n      "product": "{}"\n    }}'
)


def _quotient(p: int, q: int) -> str:
    """str(Fraction(p, q)) for q > 0, without building the Fraction."""
    d = math.gcd(p, q)
    return f"{p // d}/{q // d}" if d != q else str(p // d)


def cmd_bounds(args) -> dict[Path, str]:
    mu = _parse_fraction(args.mu)
    pairs = []
    x_text = {}  # X = 1/C(3chi, 3b) per denominator

    def recorded(terms):
        for a, b, s, c, y, z in terms:
            if c not in x_text:
                x_text[c] = _quotient(1, c)
            pairs.append(_PAIR_JSON.format(a, b, s, x_text[c], y, z, _quotient(z * y, c)))
            yield a, b, s, c, y, z

    total = sum_terms(recorded(mu_pair_terms(args.chi, args.n, mu)))
    table = "[\n" + ",\n".join(pairs) + "\n  ]" if pairs else "[]"
    base = Path(args.out)
    return {
        base.with_suffix(".csv"): (
            "chi,n,mu,sum_num,sum_den,sum_float\n"
            f"{args.chi},{args.n},{mu},{total.numerator},{total.denominator},"
            f"{_fmt(float(total))}\n"
        ),
        base.with_suffix(".json"): (
            f'{{\n  "chi": {args.chi},\n  "n": {args.n},\n  "mu": "{mu}",\n'
            f'  "sum": "{total}",\n  "pairs": {table}\n}}\n'
        ),
    }


def cmd_construct(args) -> dict[Path, str]:
    from .cheeger import cheeger_exact_within
    from .construct import FamilySpec, expander_family
    from .spectra import DEFAULT_TOL, lambda1

    spec = FamilySpec.from_theta(_parse_fraction(args.theta))
    out = Path(args.out)
    genera = range(args.g_min, args.g_max + 1)
    if not genera:
        raise ValueError(f"empty genus range: --g-min {args.g_min} > --g-max {args.g_max}")
    bases = {}  # one certified base per size for this command
    members = [expander_family(spec, g, args.guard, bases) for g in genera]
    lines = ["g,n,chi,h_lower,lambda1,h_exact,cheeger_check"]
    graphs = {}
    for g, member in zip(genera, members):
        graphs[out / f"g{g}.txt"] = to_text(member.graph)
        cert = cheeger_exact_within(member.graph, args.guard)
        lam1 = lambda1(member.graph)
        h_exact = check = ""
        if cert is not None:
            h_exact = _ratio(cert.h)
            check = str(int(lam1 >= float(cert.h) ** 2 / 18 - DEFAULT_TOL))
        lines.append(
            f"{g},{member.graph.n},{member.graph.chi},{_ratio(member.h_lower)},"
            f"{_fmt(lam1)},{h_exact},{check}"
        )
    return {out / "manifest.csv": "\n".join(lines) + "\n", **graphs}


def _read_graph(args) -> tuple[MultiGraph, Topology]:
    """The graph of a graph file and its topology, checked by from_text (its
    records) and topology (the model-graph rule); ExpanderForgeError (exit
    2) otherwise."""
    g = from_text(Path(args.graphfile).read_text())
    return g, topology(g)


def cmd_spectra(args) -> dict[Path, str]:
    from .spectra import report_json

    g, top = _read_graph(args)
    print(json.dumps(report_json(g, top), indent=2))
    return {}


def cmd_cheeger(args) -> dict[Path, str]:
    from .cheeger import cheeger_exact

    g, _ = _read_graph(args)
    cert = cheeger_exact(g, guard=args.guard)
    print(json.dumps(cert.to_json(g), indent=2))
    return {}


def cmd_split(args) -> dict[Path, str]:
    from .construct import balanced_boundary_subset, two_tree_split

    g, top = _read_graph(args)
    split = two_tree_split(g)
    out = {
        "removed_edges": [
            [g.names[u], g.names[v]] for u, v in split.removed_edges
        ],
        "side_a": sorted(g.names[v] for v in split.side_a),
        "side_b": sorted(g.names[v] for v in split.side_b),
    }
    if g.n >= 2:
        bal = balanced_boundary_subset(g, top)
        out["balanced_subset"] = {
            "h_set": sorted(g.names[v] for v in bal.h_set),
            "boundary_edges": bal.boundary_edges,
            "boundary_vertices_inside": bal.boundary_vertices_inside,
            "genus": top.genus,
        }
    print(json.dumps(out, indent=2))
    return {}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expander-forge",
        description="Sampling, spectra and expander constructions for the "
        "degree-3/degree-1 configuration model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="per-trial spectral/Cheeger CSV")
    p.add_argument("--chi", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--guard", type=int, default=DEFAULT_GUARD)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("sweep", help="connectivity sweep over chi values")
    p.add_argument("--chi-list", required=True, help="comma-separated chi values")
    p.add_argument("--rule", required=True, help="pow:<alpha> or linear:<c>")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "bounds",
        help="mu-pair sum and per-pair dump of the X*Y*Z bound, which covers "
        "interior-cut subsets only (bounds.first_moment_bound adds the pendant "
        "term for all connected subsets)",
    )
    p.add_argument("--chi", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--out", required=True, help="basename for .csv/.json")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("construct", help="expander family over a genus range")
    p.add_argument("--theta", required=True)
    p.add_argument("--g-min", type=int, required=True)
    p.add_argument("--g-max", type=int, required=True)
    p.add_argument("--guard", type=int, default=DEFAULT_GUARD)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("spectra", help="JSON spectral report of a graph file")
    p.add_argument("graphfile")
    p.set_defaults(func=cmd_spectra)

    p = sub.add_parser("cheeger", help="exact Cheeger certificate of a graph file")
    p.add_argument("graphfile")
    p.add_argument("--guard", type=int, default=DEFAULT_GUARD)
    p.set_defaults(func=cmd_cheeger)

    p = sub.add_parser("split", help="two-tree split / balanced subset report")
    p.add_argument("graphfile")
    p.set_defaults(func=cmd_split)
    return parser


def _signed_values_joined(argv: list[str]) -> list[str]:
    """argv with a --theta or --mu value that starts with one "-" joined to
    its option, as --theta=-1/2: argparse reads a separate token such as
    -1/2 or -1e400 as an unknown option, so the value check, which names
    the token or says the value must be positive, would never see it."""
    out: list[str] = []
    for token in argv:
        after = out and out[-1] in ("--theta", "--mu")
        if after and token.startswith("-") and not token.startswith("--"):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_signed_values_joined(argv))
        started = datetime.now(timezone.utc).isoformat()
        files = args.func(args)
        if files:
            _write_outputs(files, argv, getattr(args, "seed", None), started)
    except (ExpanderForgeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code(exc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
