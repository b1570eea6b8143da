import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from expander_forge import _mincut_py, cli, construct, spectra
from expander_forge.cheeger import cheeger_exact, cheeger_exact_within
from expander_forge.cli import main, parity_adjust
from expander_forge.construct import (
    FamilySpec, balanced_boundary_subset, expander_family, plant_trees, theta_base
)
from expander_forge.errors import DEFAULT_GUARD, CertificationError, ExpanderForgeError
from expander_forge.graph_core import from_text, is_connected, to_text, topology
from expander_forge.sampler import SampleConfig, sample_graph


def test_parity_adjust():
    assert parity_adjust(3, 5) == 5
    assert parity_adjust(3, 4) == 3
    assert parity_adjust(3, 100) == 9
    assert parity_adjust(4, 0) == 0


def test_sample_csv_and_rerun_identical(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["sample", "--chi", "2", "--n", "2", "--trials", "15", "--seed", "5"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "trial,connected,lambda1,sigma1,h,genus"
    assert len([ln for ln in lines if not ln.startswith("#")]) == 16
    assert lines[-1].startswith("# summary connected_fraction=")
    manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
    assert str(out1) in manifest["outputs"]


def test_sample_all_connected_unique_shape(tmp_path):
    out = tmp_path / "s.csv"
    assert main(
        ["sample", "--chi", "1", "--n", "3", "--trials", "10", "--seed", "7",
         "--out", str(out)]
    ) == 0
    rows = [ln.split(",") for ln in out.read_text().splitlines()[1:] if ln[0] != "#"]
    assert all(r[1] == "1" for r in rows)
    assert all(abs(float(r[2]) - 1.0) < 1e-9 for r in rows)  # star lambda1


def test_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(
        ["sweep", "--chi-list", "10,20", "--rule", "pow:0.3333",
         "--trials", "200", "--seed", "1", "--out", str(out)]
    ) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "chi,n,trials,connected_fraction,ci_low,ci_high,seed"
    assert len(lines) == 3
    chi, n, *_ = lines[1].split(",")
    assert (chi, n) == ("10", "2")  # floor(10^(1/3)) = 2, parity ok


def test_sweep_no_valid_n_names_the_requested_bound(tmp_path, capsys):
    # linear:0.25 asks for n = 0 at chi = 3, where 3*chi - n is odd
    code = main(
        ["sweep", "--chi-list", "2,3,5", "--rule", "linear:0.25",
         "--out", str(tmp_path / "x.csv")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "n <= 0" in err and "chi=3" in err


def test_sweep_bad_rule_exit_2(tmp_path):
    code = main(
        ["sweep", "--chi-list", "10", "--rule", "cubic:1",
         "--out", str(tmp_path / "x.csv")]
    )
    assert code == 2


@pytest.mark.parametrize(
    "chis,rule",
    [("50", "linear:inf"), ("50", "pow:inf"), ("50", "pow:nan"),
     ("50", "linear:-1e308"), ("0", "pow:-1"), ("-2", "pow:0.5")],
)
def test_sweep_non_finite_rule_or_bad_chi_exit_2(tmp_path, capsys, chis, rule):
    out = tmp_path / "x.csv"
    assert main(["sweep", "--chi-list", chis, "--rule", rule, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("rule", ["pow:1000", "linear:1e308"])
def test_sweep_overflowing_n_is_capped_like_any_large_n(tmp_path, rule):
    # n far above 3*chi is capped to 3*chi = 150, whether or not it fits a float
    rows = []
    for i, r in enumerate((rule, "pow:2")):
        out = tmp_path / f"{i}.csv"
        assert main(["sweep", "--chi-list", "50", "--rule", r, "--trials", "3",
                     "--out", str(out)]) == 0
        rows.append(out.read_text().splitlines()[1])
    assert rows[0] == rows[1]
    assert rows[0].startswith("50,150,")


def test_sweep_zero_hits_has_ci_low_zero(tmp_path):
    # no trial at chi = 50, n = 150 is connected: the interval must contain 0
    out = tmp_path / "s.csv"
    assert main(["sweep", "--chi-list", "50", "--rule", "pow:2", "--trials", "3",
                 "--out", str(out)]) == 0
    chi, n, trials, frac, lo, hi, seed = out.read_text().splitlines()[1].split(",")
    assert (frac, lo) == ("0", "0")
    assert 0 < float(hi) < 1


def test_bounds_outputs(tmp_path):
    from expander_forge.bounds import mu_pair_sum

    base = tmp_path / "b"
    assert main(
        ["bounds", "--chi", "4", "--n", "2", "--mu", "1.5", "--out", str(base)]
    ) == 0
    expected = mu_pair_sum(4, 2, "1.5")
    csv = (tmp_path / "b.csv").read_text().splitlines()
    assert csv[0] == "chi,n,mu,sum_num,sum_den,sum_float"
    assert csv[1].startswith(
        f"4,2,3/2,{expected.numerator},{expected.denominator},"
    )
    js = json.loads((tmp_path / "b.json").read_text())
    assert js["sum"] == str(expected)
    # (0,1,1) is a mu-pair at mu=1.5 and carries the 8/11 hand value
    assert {"a": 0, "b": 1, "s": 1, "x": "1/220", "y": "40", "z": "4",
            "product": "8/11"} in js["pairs"]


def test_bounds_out_is_a_basename_kept_whole(tmp_path):
    # a dot in --out starts no suffix: mu0.5 and mu0.25 are two tables side
    # by side, neither overwriting the other
    argv = ["bounds", "--chi", "20", "--n", "4", "--mu"]
    for mu in ("0.5", "0.25"):
        assert main(argv + [mu, "--out", str(tmp_path / f"mu{mu}")]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "mu0.25.csv", "mu0.25.csv.manifest.json", "mu0.25.json",
        "mu0.5.csv", "mu0.5.csv.manifest.json", "mu0.5.json",
    ]
    for tag, mu in (("0.5", "1/2"), ("0.25", "1/4")):
        assert json.loads((tmp_path / f"mu{tag}.json").read_text())["mu"] == mu
        csv = (tmp_path / f"mu{tag}.csv").read_text().splitlines()
        assert csv[1].startswith(f"20,4,{mu},")


def test_bounds_parity_exit_2(tmp_path):
    code = main(
        ["bounds", "--chi", "1", "--n", "2", "--mu", "0.5",
         "--out", str(tmp_path / "x")]
    )
    assert code == 2
    assert not (tmp_path / "x.csv").exists()
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("chi,n,message", [
    ("1", "2", "error: 3*chi - n = 1 must be a non-negative even integer"),
    ("2", "2", "error: mu must be positive"),
])
def test_bounds_parity_error_comes_before_the_mu_check(tmp_path, capsys, chi, n, message):
    """(chi, n) is checked before mu: a bad pair with --mu 0 names the
    parity, and a good pair names mu."""
    out = tmp_path / "x"
    assert main(["bounds", "--chi", chi, "--n", n, "--mu", "0", "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [message]
    assert not out.with_suffix(".csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--chi", "4", "--n", "2", "--mu", "0"],
        ["bounds", "--chi", "4", "--n", "2", "--mu", "-1"],
        ["bounds", "--chi", "4", "--n", "2", "--mu", "1/0"],
        ["construct", "--theta", "1/0", "--g-min", "1", "--g-max", "1"],
        ["construct", "--theta", "3", "--g-min", "0", "--g-max", "2"],
        ["construct", "--theta", "3", "--g-min", "5", "--g-max", "3"],
    ],
)
def test_bad_mu_or_theta_exit_2_without_traceback(tmp_path, capsys, argv):
    # a run that exits with an error creates no file and no directory
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out / "b")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("token", ["1e400", "-1e400", "inf", "nan"])
@pytest.mark.parametrize("command", [
    ["bounds", "--chi", "4", "--n", "2", "--mu={}"],
    ["construct", "--theta={}", "--g-min", "1", "--g-max", "1"],
])
def test_non_finite_mu_or_theta_names_the_token(tmp_path, capsys, command, token):
    argv = [a.format(token) for a in command]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and token in lines[0]


@pytest.mark.parametrize("command,token,message", [
    (["bounds", "--chi", "4", "--n", "2", "--mu"], "-1/2", "error: mu must be positive"),
    (["construct", "--g-min", "1", "--g-max", "1", "--theta"], "-1/2",
     "error: theta must be positive"),
    (["bounds", "--chi", "4", "--n", "2", "--mu"], "-1e400",
     "error: not a finite number: '-1e400'"),
    (["construct", "--g-min", "1", "--g-max", "1", "--theta"], "-1e400",
     "error: not a finite number: '-1e400'"),
    (["construct", "--g-min", "1", "--g-max", "1", "--theta"], "-inf",
     "error: not a finite number: '-inf'"),
    (["sweep", "--rule", "pow:0.5", "--chi-list"], "-1,5",
     "error: every chi must be >= 1, got '-1,5'"),
    (["sweep", "--rule", "pow:0.5", "--chi-list"], "-2",
     "error: every chi must be >= 1, got '-2'"),
])
def test_negative_mu_or_theta_as_a_separate_token(tmp_path, capsys, command, token, message):
    """A value that starts with "-" after --mu, --theta or --chi-list is the
    value, not an option: the value check answers it with its one error
    line, no usage line."""
    out = tmp_path / "out"
    assert main(command + [token, "--out", str(out / "o")]) == 2
    assert capsys.readouterr().err.splitlines() == [message]
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--chi", "4", "--n", "2", "--mu", "1/2"],
        ["sweep", "--chi-list", "4", "--rule", "pow:0.5", "--trials", "5"],
        ["sample", "--chi", "4", "--n", "2", "--trials", "2"],
    ],
)
def test_out_parent_directory_is_created(tmp_path, argv):
    out = tmp_path / "missing" / "dir" / "o"
    assert main(argv + ["--out", str(out)]) == 0
    assert list(out.parent.glob("*.manifest.json"))


@pytest.mark.parametrize(
    "argv, out",
    [
        (["bounds", "--chi", "4", "--n", "2", "--mu", "1/2"], "file/b"),
        (["sweep", "--chi-list", "4", "--rule", "pow:0.5", "--trials", "5"],
         "file/s.csv"),
        (["construct", "--theta", "3", "--g-min", "2", "--g-max", "2"], "file"),
        (["sample", "--chi", "4", "--n", "2", "--trials", "2"], "dir"),
    ],
    ids=["bounds", "sweep", "construct", "sample"],
)
def test_unusable_out_exit_2_without_traceback(tmp_path, capsys, argv, out):
    # a parent that is a file cannot become a directory, and a directory
    # cannot be written as a file
    (tmp_path / "file").write_text("x\n")
    (tmp_path / "dir").mkdir()
    assert main(argv + ["--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "file"]
    assert (tmp_path / "file").read_text() == "x\n"
    assert not any((tmp_path / "dir").iterdir())


def test_out_checks_the_files_written(tmp_path, capsys):
    # bounds --out is a basename: an existing directory d gets d.csv and
    # d.json beside it
    (tmp_path / "d").mkdir()
    argv = ["bounds", "--chi", "4", "--n", "2", "--mu", "1/2"]
    assert main(argv + ["--out", str(tmp_path / "d")]) == 0
    assert (tmp_path / "d.csv").is_file() and (tmp_path / "d.json").is_file()
    # each graph of construct and the run manifest pass the same check,
    # before any file is written
    (tmp_path / "fam" / "g2.txt").mkdir(parents=True)
    (tmp_path / "s.csv.manifest.json").mkdir()
    runs = [
        ["construct", "--theta", "3", "--g-min", "1", "--g-max", "2",
         "--out", str(tmp_path / "fam")],
        ["sample", "--chi", "4", "--n", "2", "--trials", "2",
         "--out", str(tmp_path / "s.csv")],
    ]
    for argv in runs:
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
    assert [p.name for p in (tmp_path / "fam").iterdir()] == ["g2.txt"]
    assert not (tmp_path / "s.csv").exists()


def test_construct_family_and_rerun(tmp_path):
    d1 = tmp_path / "f1"
    d2 = tmp_path / "f2"
    for d in (d1, d2):
        assert main(
            ["construct", "--theta", "3", "--g-min", "2", "--g-max", "4",
             "--out", str(d)]
        ) == 0
    assert (d1 / "manifest.csv").read_bytes() == (d2 / "manifest.csv").read_bytes()
    lines = (d1 / "manifest.csv").read_text().splitlines()
    assert lines[0].startswith("g,n,chi,h_lower,lambda1")
    assert len(lines) == 4
    ratios = []
    for ln in lines[1:]:
        g, n, *_ = ln.split(",")
        ratios.append(int(n) / int(g))
    assert ratios == sorted(ratios)  # n(g)/g = 3(g-1)/g increases toward 3
    for g in (2, 3, 4):
        graph = from_text((d1 / f"g{g}.txt").read_text())
        assert graph.num_vertices == graph.chi + graph.n


def test_construct_guard_proves_base(tmp_path):
    out = tmp_path / "f"
    argv = ["construct", "--theta", "3", "--g-min", "14", "--g-max", "14"]
    assert main(argv + ["--guard", "26", "--out", str(out)]) == 0
    row = (out / "manifest.csv").read_text().splitlines()[1].split(",")
    assert (row[0], row[3]) == ("14", "1/9")


def test_construct_certifies_each_base_size_once(tmp_path, monkeypatch):
    # theta 2 over g = 1..16 plants m = 4, 7 and 10 at several genera
    calls = []
    provider = construct.default_base_provider

    def counted(m, guard):
        calls.append(m)
        return provider(m, guard)

    monkeypatch.setattr(construct, "default_base_provider", counted)
    argv = ["construct", "--theta", "2", "--g-min", "1", "--g-max", "16"]
    assert main(argv + ["--out", str(tmp_path / "f")]) == 0
    assert len(calls) == len(set(calls)) and {4, 7, 10} <= set(calls)


def test_sample_guard_above_mask_width(tmp_path):
    # chi = 60, n = 4 graphs have 64 vertices, one more than the subset
    # masks hold: --guard 64 leaves h blank, as the default guard does
    argv = ["sample", "--chi", "60", "--n", "4", "--trials", "3", "--seed", "0"]
    assert main(argv + ["--out", str(tmp_path / "d.csv")]) == 0
    assert main(argv + ["--guard", "64", "--out", str(tmp_path / "g.csv")]) == 0
    assert (tmp_path / "g.csv").read_bytes() == (tmp_path / "d.csv").read_bytes()


def _sample_rows(path):
    return [ln.split(",") for ln in path.read_text().splitlines()[1:] if ln[0] != "#"]


@pytest.fixture
def engine_passes(monkeypatch):
    """The graph counts of the cross-graph kernel passes a run makes."""
    passes = []
    kernel = _mincut_py.min_ratio_cuts

    def counted(adj, mult, half):
        passes.append(len(adj))
        return kernel(adj, mult, half)

    monkeypatch.setattr(_mincut_py, "min_ratio_cuts", counted)
    return passes


def test_sample_all_disconnected_runs_no_search(tmp_path, engine_passes):
    # chi = 2, n = 6: eight vertices and six edges, so no trial is connected
    out = tmp_path / "s.csv"
    argv = ["sample", "--chi", "2", "--n", "6", "--trials", "5", "--seed", "0"]
    assert main(argv + ["--out", str(out)]) == 0
    rows = _sample_rows(out)
    assert len(rows) == 5 and all(r[1] == "0" and r[4] == "" for r in rows)
    assert engine_passes == []


def test_sample_guard_below_vertex_count_runs_no_search(tmp_path, engine_passes):
    out = tmp_path / "s.csv"
    argv = ["sample", "--chi", "16", "--n", "4", "--trials", "6", "--seed", "1"]
    assert main(argv + ["--guard", "19", "--out", str(out)]) == 0
    rows = _sample_rows(out)
    assert any(r[1] == "1" for r in rows)  # 20 vertices, above the guard
    assert all(r[4] == "" for r in rows)
    assert engine_passes == []


def test_sample_one_connected_trial(tmp_path, engine_passes):
    # seed 2 of F_{4,6} connects trial 2 only
    out = tmp_path / "s.csv"
    argv = ["sample", "--chi", "4", "--n", "6", "--trials", "6", "--seed", "2"]
    assert main(argv + ["--out", str(out)]) == 0
    assert engine_passes == [1]
    rows = _sample_rows(out)
    assert [r[1] for r in rows] == ["0", "0", "1", "0", "0", "0"]
    cert = cheeger_exact(sample_graph(SampleConfig(chi=4, n=6, trials=6, seed=2), 2))
    assert [r[4] for r in rows] == ["", "", f"{cert.h.numerator}/{cert.h.denominator}",
                                   "", "", ""]


def test_sample_certifies_in_shared_passes(tmp_path, engine_passes):
    """Every connected trial of a sample run within the guard is certified
    in one engine pass, with the certificate cheeger_exact gives it."""
    cfg = SampleConfig(chi=16, n=4, trials=12, seed=3)
    out = tmp_path / "s.csv"
    argv = ["sample", "--chi", "16", "--n", "4", "--trials", "12", "--seed", "3"]
    assert main(argv + ["--out", str(out)]) == 0
    rows = _sample_rows(out)
    connected = [t for t, r in enumerate(rows) if r[1] == "1"]
    assert len(connected) > 1 and engine_passes == [len(connected)]
    for t, r in enumerate(rows):
        h = cheeger_exact(sample_graph(cfg, t)).h if t in connected else None
        assert r[4] == (f"{h.numerator}/{h.denominator}" if h else "")


@st.composite
def sample_runs(draw):
    """(chi, n, trials, seed, guard) of a `sample` run below LANCZOS_FROM.
    The guard is 0, |V| - 1, 24 or 63, and 63 only up to 30 vertices:
    beyond that the exact search costs from tens of milliseconds to
    seconds a graph, twice per trial here."""
    chi = draw(st.integers(1, 70))
    n = draw(st.integers(0, 3 * chi).filter(lambda n: (3 * chi - n) % 2 == 0))
    guards = [0, chi + n - 1, 24] + ([63] if chi + n <= 30 else [])
    return (chi, n, draw(st.integers(1, 120)), draw(st.integers(0, 2**32 - 1)),
            draw(st.sampled_from(guards)))


@settings(max_examples=30, deadline=None, derandomize=True)
@example(run=(16, 4, 120, 3, 24))  # three blocks, 51 + 51 + 18, disconnected trials
@example(run=(16, 4, 52, 0, 63))  # a last block of one graph
@example(run=(70, 4, 30, 5, 24))  # chi > SCHUR_PANEL: three Schur panels a graph
@example(run=(34, 2, 40, 2, 24))  # two panels
@example(run=(26, 4, 70, 6, 63))  # 30 searched vertices a graph, two blocks
@example(run=(2, 0, 25, 1, 24))  # n = 0: no sigma1
@example(run=(5, 1, 60, 4, 5))  # n = 1: no sigma1, |V| - 1 guard: no search
@example(run=(4, 6, 80, 2, 24))  # mostly disconnected
@given(run=sample_runs())
def test_sample_blocks_match_the_per_trial_definitions(run):
    """Every trial of the block path equals the per-trial definitions on
    g = sample_graph(cfg, t), floats bit for bit."""
    chi, n, trials, seed, guard = run
    assert spectra.SCHUR_PANEL < 70 and chi + n < spectra.LANCZOS_FROM
    cfg = SampleConfig(chi=chi, n=n, trials=trials, seed=seed)
    rows = list(cli._sample_trials(cfg, guard))
    assert [r[0] for r in rows] == list(range(trials))
    for t, connected, lam1, sigma1, cert in rows:
        g = sample_graph(cfg, t)
        assert connected == is_connected(g)
        assert lam1 == spectra.lambda1(g)
        assert sigma1 == (spectra.steklov_spectrum(g)[1] if connected and n >= 2 else None)
        want = cheeger_exact_within(g, guard) if connected else None
        assert (cert and cert.h) == (want and want.h)


@pytest.mark.parametrize("chi,n,trials,threshold", [
    (60, 4, 40, 50),  # blocks of 16 graphs on the Lanczos and sparse LU solves
    (1500, 38, 1, None),  # one graph a block at the real threshold
])
def test_sample_sparse_blocks_match_the_per_trial_definitions(
    monkeypatch, chi, n, trials, threshold
):
    """From LANCZOS_FROM vertices on, the one `sample` route gives every
    trial the connected flag, lambda1 and sigma1 that the per-graph calls
    give g = sample_graph(cfg, t), floats bit for bit."""
    if threshold is not None:
        monkeypatch.setattr(spectra, "LANCZOS_FROM", threshold)
    assert chi + n >= spectra.LANCZOS_FROM
    cfg = SampleConfig(chi=chi, n=n, trials=trials, seed=0)
    rows = list(cli._sample_trials(cfg, DEFAULT_GUARD))
    assert [r[0] for r in rows] == list(range(trials))
    for t, connected, lam1, sigma1, cert in rows:
        g = sample_graph(cfg, t)
        assert connected == is_connected(g)
        assert lam1 == spectra.lambda1(g)
        assert sigma1 == (spectra.steklov_spectrum(g)[1] if connected else None)
        assert cert is None
    assert sum(r[1] for r in rows) > trials // 2


def test_exact_search_rejects_a_disconnected_graph():
    graphs = [sample_graph(SampleConfig(chi=4, n=6, trials=6, seed=2), t) for t in (2, 0)]
    assert is_connected(graphs[0]) and not is_connected(graphs[1])
    assert cheeger_exact_within(graphs[0], 24) == cheeger_exact(graphs[0])
    for search in (cheeger_exact, lambda g: cheeger_exact_within(g, 24)):
        with pytest.raises(ExpanderForgeError):
            search(graphs[1])


def test_construct_guard_above_mask_width(tmp_path):
    # the g = 9 member has more than 63 vertices: --guard 64 leaves
    # h_exact blank, as the default guard does
    argv = ["construct", "--theta", "3", "--g-min", "9", "--g-max", "9"]
    assert main(argv + ["--out", str(tmp_path / "d")]) == 0
    assert main(argv + ["--guard", "64", "--out", str(tmp_path / "g")]) == 0
    manifest = (tmp_path / "g" / "manifest.csv").read_bytes()
    assert manifest == (tmp_path / "d" / "manifest.csv").read_bytes()


def test_one_manifest_per_file_writing_command(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runs = [
        (["sample", "--chi", "2", "--n", "2", "--trials", "3", "--seed", "4",
          "--out", "s.csv"], ["s.csv"], 4),
        (["sweep", "--chi-list", "4", "--rule", "pow:0.5", "--trials", "5",
          "--seed", "6", "--out", "w.csv"], ["w.csv"], 6),
        (["bounds", "--chi", "4", "--n", "2", "--mu", "1/2", "--out", "b"],
         ["b.csv", "b.json"], None),
        (["construct", "--theta", "3", "--g-min", "2", "--g-max", "3",
          "--out", "fam"], ["fam/manifest.csv", "fam/g2.txt", "fam/g3.txt"], None),
    ]
    for argv, outputs, seed in runs:
        assert main(argv) == 0
        manifest = Path(outputs[0] + ".manifest.json")
        doc = json.loads(manifest.read_text())
        assert doc["command"] == argv and list(doc["outputs"]) == outputs
        assert doc["seed"] == seed and type(doc["seed"]) is type(seed)
        for p in outputs:
            assert doc["outputs"][p] == hashlib.sha256(Path(p).read_bytes()).hexdigest()
    for command in ("spectra", "cheeger", "split"):
        assert main([command, "fam/g2.txt"]) == 0
    assert len(list(tmp_path.rglob("*.manifest.json"))) == len(runs)


def test_construct_small_genus_below_threshold(tmp_path):
    # theta = 5/2 starts planting at genus 6; genera 1..5 are the first
    # connected members of F_{2g,2}, the closed-form chains
    out = tmp_path / "f"
    argv = ["construct", "--theta", "5/2", "--g-min", "1", "--g-max", "8"]
    assert main(argv + ["--out", str(out)]) == 0
    rows = [ln.split(",") for ln in (out / "manifest.csv").read_text().splitlines()[1:]]
    assert [r[:3] for r in rows[:5]] == [[str(g), "2", str(2 * g)] for g in range(1, 6)]
    assert all(int(r[1]) > 2 for r in rows[5:])


def test_spectra_cheeger_split_subcommands(tmp_path, capsys):
    d = tmp_path / "fam"
    assert main(
        ["construct", "--theta", "3", "--g-min", "2", "--g-max", "2",
         "--out", str(d)]
    ) == 0
    gf = str(d / "g2.txt")

    assert main(["spectra", gf]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["connected"] and rep["genus"] == 2

    assert main(["cheeger", gf]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["exact"] and cert["h_num"] >= 1

    assert main(["split", gf]) == 0
    split = json.loads(capsys.readouterr().out)
    assert len(split["removed_edges"]) == 3  # genus 2
    assert "balanced_subset" in split


def test_cheeger_guard_exit_3(tmp_path, capsys):
    d = tmp_path / "fam"
    main(["construct", "--theta", "3", "--g-min", "4", "--g-max", "4",
          "--out", str(d)])
    capsys.readouterr()
    code = main(["cheeger", str(d / "g4.txt"), "--guard", "5"])
    assert code == 3


def test_cheeger_over_63_vertices_exit_3(tmp_path, capsys):
    cfg = SampleConfig(chi=60, n=4, trials=20, seed=0)
    graphs = (sample_graph(cfg, t) for t in range(cfg.trials))
    g = next(g for g in graphs if is_connected(g))
    path = tmp_path / "g64.txt"
    path.write_text(to_text(g))
    assert main(["cheeger", str(path), "--guard", "64"]) == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_certification_failure_exit_4(tmp_path, monkeypatch):
    def failing(spec, g, guard, bases=None):
        raise CertificationError("forced")

    monkeypatch.setattr(construct, "expander_family", failing)
    code = main(
        ["construct", "--theta", "3", "--g-min", "2", "--g-max", "2",
         "--out", str(tmp_path / "x")]
    )
    assert code == 4


def test_construct_base_above_mask_width_exit_4(tmp_path, capsys):
    # g = 33 at theta 3 plants a 64-vertex base, which no exact search
    # proves: exit 4 with one error line, and no file or directory
    out = tmp_path / "x"
    argv = ["construct", "--theta", "3", "--g-min", "33", "--g-max", "33"]
    assert main(argv + ["--out", str(out)]) == 4
    assert capsys.readouterr().err.count("error:") == 1
    assert list(tmp_path.iterdir()) == []


def test_sample_lanczos_failure_exit_2_without_traceback(tmp_path, monkeypatch, capsys):
    import scipy.sparse.linalg

    def failing(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("forced", [], [])

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", failing)
    monkeypatch.setattr(spectra, "LANCZOS_FROM", 100)
    code = main(
        ["sample", "--chi", "200", "--n", "20", "--trials", "2", "--seed", "1",
         "--out", str(tmp_path / "s.csv")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_sample_above_threshold_never_builds_the_dense_laplacian(tmp_path, monkeypatch):
    def dense(g):
        raise AssertionError("dense Laplacian built")

    monkeypatch.setattr(spectra, "normalized_laplacian", dense)
    monkeypatch.setattr(spectra, "combinatorial_laplacian", dense)
    out = tmp_path / "big.csv"
    argv = ["sample", "--chi", "1500", "--n", "38", "--trials", "1", "--seed", "0"]
    assert 1538 >= spectra.LANCZOS_FROM
    assert main(argv + ["--out", str(out)]) == 0
    row = out.read_text().splitlines()[1].split(",")
    assert row[1] == "1" and 0.0 < float(row[2]) < 2.0  # a connected trial
    assert 0.0 < float(row[3])  # and its sigma1
    # the Steklov solve of that trial allocates far less than one dense
    # 1538 x 1538 float64 array (18.9 MB); tracemalloc sees numpy's
    # allocations, not SuperLU's own factor storage
    g = sample_graph(SampleConfig(chi=1500, n=38, trials=1, seed=0), 0)
    spectra.steklov_spectrum(g)  # imports and caches outside the measurement
    tracemalloc.start()
    try:
        spectra.steklov_spectrum(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    dense_bytes = 8 * g.num_vertices**2
    assert peak < dense_bytes / 8


def test_sample_parity_exit_2(tmp_path):
    code = main(
        ["sample", "--chi", "1", "--n", "2", "--trials", "5", "--seed", "0",
         "--out", str(tmp_path / "x.csv")]
    )
    assert code == 2


ISOLATED = "G 2 2\nE v1 v2\n"  # interior vertices of degree 1: not a model graph
LONE = "G 1 0\n"  # one vertex, no edge to split
SHORT_HEADER = "G 2\n"
BOUNDARY_PAIR = "G 1 3\nE v1 v1\nE v1 w1\nE w2 w3\n"  # every degree right
BOUNDARY_LOOP = "G 2 2\nE v1 v2\nE v1 v2\nE v1 w1\nE v2 w2\nE w2 w2\n"
BOUNDARY_OF_DEGREE_2 = "G 2 2\nE v1 v2\nE v1 v2\nE v1 w1\nE v2 w1\n"  # w2 unused

BAD_GRAPH_ERRORS = {
    ISOLATED: "interior vertex v1 has degree 1, not 3",
    LONE: "interior vertex v1 has degree 0, not 3",
    SHORT_HEADER: "expected a `G <chi> <n>` header, got 'G 2'",
    "": "expected a `G <chi> <n>` header, got ''",
    BOUNDARY_PAIR: "edge w2 w3 joins two boundary vertices",
    BOUNDARY_LOOP: "edge w2 w2 joins two boundary vertices",
    BOUNDARY_OF_DEGREE_2: "boundary vertex w1 has degree 2, not 1",
}


@pytest.mark.parametrize(
    "command,text",
    [("cheeger", ISOLATED), ("spectra", ISOLATED), ("split", ISOLATED),
     ("spectra", LONE), ("split", LONE), ("cheeger", LONE),
     ("cheeger", SHORT_HEADER), ("split", ""), ("cheeger", BOUNDARY_PAIR),
     ("spectra", BOUNDARY_LOOP), ("cheeger", BOUNDARY_OF_DEGREE_2)],
)
def test_bad_graph_file_exit_2_without_traceback(tmp_path, capsys, command, text):
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    assert main([command, str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {BAD_GRAPH_ERRORS[text]}\n"


@pytest.mark.parametrize("command", ["cheeger", "spectra", "split"])
@pytest.mark.parametrize(
    "name, error",
    [("missing.txt", "FileNotFoundError: No such file or directory"),
     (".", "IsADirectoryError: Is a directory")],
)
def test_unreadable_graph_file_exit_2_without_traceback(tmp_path, capsys, command, name, error):
    """A graph file that is missing or a directory is one `error:` line
    naming the path and the error class, not a traceback."""
    path = tmp_path / name
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot read graph file {str(path)!r}: {error}\n"


@pytest.mark.parametrize(
    "header", ["G \u0662 0", "G " + "1" * 4301 + " 0"], ids=["arabic-indic-2", "4301-digits"]
)
def test_header_counts_are_ascii_within_the_digit_limit(tmp_path, capsys, header):
    """`G ٢ 0` used to read as chi = 2, and a 4301-digit count printed the
    interpreter's digit-limit text: both are header errors."""
    bad = tmp_path / "bad.txt"
    bad.write_text(f"{header}\nE v1 v1\nE v1 v2\nE v2 v2\n")
    assert main(["cheeger", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: expected a `G <chi> <n>` header, got {header!r}\n"


@pytest.mark.parametrize("command", ["spectra", "cheeger", "split"])
@pytest.mark.parametrize("text", ["G 0 0\n", "G 0 2\nE w1 w2\n"])
def test_graph_without_interior_vertex_exit_2(tmp_path, capsys, command, text):
    """`G 0 0` has no vertex at all: spectra used to report it connected
    of genus 1.  Without an interior vertex no file is a model graph."""
    bad = tmp_path / "empty.txt"
    bad.write_text(text)
    assert main([command, str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: a model graph needs an interior vertex, got chi = 0\n"


@pytest.mark.parametrize("theta", ["2", "5/2", "3"])
def test_every_construct_graph_is_a_model_graph(tmp_path, theta):
    spec = FamilySpec.from_theta(theta)
    for g in range(1, 17):
        graph = expander_family(spec, g).graph
        path = tmp_path / f"g{g}.txt"
        path.write_text(to_text(graph))
        assert cli._read_graph(argparse.Namespace(graphfile=str(path))) == (
            graph, topology(graph)
        )


@pytest.mark.parametrize("command", ["spectra", "split"])
def test_graph_file_topology_runs_once(tmp_path, monkeypatch, command):
    # _read_graph checks the model-graph rule and hands its Topology on to
    # the report, the split genus and the balanced-subset descent
    path = tmp_path / "planted.txt"
    path.write_text(to_text(plant_trees(theta_base(), 3)))  # n = 9
    calls = []

    def counted(g):
        calls.append(g)
        return topology(g)

    for module in (cli, spectra, construct):
        monkeypatch.setattr(module, "topology", counted)
    assert main([command, str(path)]) == 0
    assert len(calls) == 1


# K_{3,3} with one side named boundary: every degree is 3, so the degree
# counts alone would read genus 4, but a boundary vertex needs degree 1
BOUNDARY_OF_DEGREE_3 = "G 3 3\n" + "".join(
    f"E v{i} w{j}\n" for i in (1, 2, 3) for j in (1, 2, 3)
)


def test_degree_3_boundary_vertex_exit_2(tmp_path, capsys):
    g = from_text(BOUNDARY_OF_DEGREE_3)
    with pytest.raises(ExpanderForgeError, match="boundary vertex"):
        balanced_boundary_subset(g)
    bad = tmp_path / "k33.txt"
    bad.write_text(BOUNDARY_OF_DEGREE_3)
    assert main(["split", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "text,error",
    [
        ("G 2 0\n\nE v1\n", "line 3: bad edge record: 'E v1'"),
        ("G 2 0\nE v1 v2\n\nE v1 v9\n", "line 4: unknown vertex id in 'E v1 v9'"),
        ("\nG 2 0\nX v1 v2\n", "line 3: bad edge record: 'X v1 v2'"),
    ],
)
def test_malformed_record_names_its_line(tmp_path, capsys, text, error):
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    assert main(["cheeger", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"


def _first_connected_sample(chi: int, n: int, seed: int):
    cfg = SampleConfig(chi=chi, n=n, trials=20, seed=seed)
    return next(g for g in (sample_graph(cfg, t) for t in range(cfg.trials)) if is_connected(g))


# two valid graph files to mutate: a connected F_{16,4} sample (20 vertices,
# within the default guard) and the theta base with one planted tree
FUZZ_BASES = tuple(
    to_text(g).splitlines()
    for g in (_first_connected_sample(16, 4, 0), plant_trees(theta_base(), 1))
)
FUZZ_TOKENS = st.one_of(
    st.integers(-2, 40).map(str),  # a count
    st.builds("{}{}".format, st.sampled_from("vw"), st.integers(0, 30)),  # an id
    st.sampled_from(["G", "E"]),
)


@st.composite
def mutated_graph_files(draw):
    """A base file after one to three line deletions, duplications, swaps
    or single-token replacements."""
    lines = list(draw(st.sampled_from(FUZZ_BASES)))
    for _ in range(draw(st.integers(1, 3))):
        i, j = (draw(st.integers(0, len(lines) - 1)) for _ in range(2))
        kind = draw(st.sampled_from(["delete", "duplicate", "swap", "token"]))
        if kind == "delete":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(j, lines[i])
        elif kind == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        else:
            tokens = lines[i].split()
            k = draw(st.integers(0, len(tokens) - 1))
            tokens[k] = draw(FUZZ_TOKENS)
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=mutated_graph_files())
def test_mutated_graph_files_exit_with_a_documented_code(tmp_path, capsys, text):
    """Never a traceback: every graph-reading command either reports or
    exits 2 (bad input) or 3 (guard) with one error line."""
    path = tmp_path / "mutated.txt"
    path.write_text(text)
    for command in ("cheeger", "spectra", "split"):
        code = main([command, str(path)])
        assert code in (0, 2, 3)
        err = capsys.readouterr().err
        assert (code == 0) == (err == "")


# Each pool mixes valid values with bad ones, about half of each: counts
# below 1, non-numbers, zero denominators, non-finite and overflowing
# floats, and rule-shaped text.  The valid values keep every graph small.
ARG_COUNTS = st.one_of(st.integers(1, 6), st.integers(-2, 40)).map(str)
FRACTION_TOKENS = st.one_of(
    st.sampled_from(["1", "1/2", "5/2", "3"]),
    st.sampled_from(["0", "-1", "-1/2", "-1e400", "1/0", "nan", "inf", "1e400", "abc",
                     "pow:", "foo:1"]),
)
RULE_TOKENS = st.one_of(
    st.sampled_from(["pow:0.5", "pow:1", "linear:1", "linear:0.5"]),
    st.sampled_from(["0", "-1", "1/0", "nan", "abc", "pow:", "foo:1", "linear:-1",
                     "pow:nan", "linear:1e400"]),
)


@st.composite
def command_lines(draw):
    """argv for sample, sweep, bounds or construct, each option given as
    --name=value so that a negative value is read as a value; --mu,
    --theta and --chi-list, which read a negative value either way, are
    given as two tokens in about half the runs."""
    command = draw(st.sampled_from(["sample", "sweep", "bounds", "construct"]))
    if command == "sample":
        opts = {"chi": draw(ARG_COUNTS), "n": draw(ARG_COUNTS),
                "trials": draw(st.integers(-1, 4)), "guard": draw(st.integers(-1, 30))}
    elif command == "sweep":
        opts = {"chi-list": ",".join(draw(st.lists(ARG_COUNTS, min_size=1, max_size=3))),
                "rule": draw(RULE_TOKENS), "trials": draw(st.integers(-1, 4))}
    elif command == "bounds":
        opts = {"chi": draw(ARG_COUNTS), "n": draw(ARG_COUNTS), "mu": draw(FRACTION_TOKENS)}
    else:
        opts = {"theta": draw(FRACTION_TOKENS), "g-min": draw(ARG_COUNTS),
                "g-max": draw(st.integers(-1, 6)), "guard": draw(st.integers(-1, 30))}
    apart = draw(st.booleans())
    argv = [command]
    for name, value in opts.items():
        two = apart and name in ("mu", "theta", "chi-list")
        argv += [f"--{name}", value] if two else [f"--{name}={value}"]
    return argv


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(argv=["sweep", "--chi-list", "-1,5", "--rule=pow:0.5", "--trials=2"])
@given(argv=command_lines())
def test_fuzzed_arguments_exit_with_a_documented_code(tmp_path, capsys, argv):
    """Never a traceback: the commands that take no graph file either
    succeed or exit 2, 3 or 4 with exactly one error line."""
    code = main(argv + [f"--out={tmp_path / 'out' / 'o'}"])
    assert code in (0, 2, 3, 4)
    err = capsys.readouterr().err
    assert err.count("error:") == (code != 0), (argv, err)


SRC = Path(__file__).resolve().parents[1] / "src"
COLD_MAIN = """
import json, sys
from expander_forge import cli
try:
    code = cli.main(sys.argv[1:])
except SystemExit as exc:  # argparse exits on --help and usage errors
    code = exc.code
loaded = {
    root: sorted(m for m in sys.modules if m == root or m.startswith(root + "."))
    for root in ("scipy", "numpy")
}
with open("cold.json", "w") as f:
    json.dump({"code": code, **loaded}, f)
"""


def _fresh_python(cwd: Path, code: str, argv: list[str]) -> str:
    """`python -c code *argv` in a fresh interpreter running in `cwd`, with
    src/ on its path: its stdout, once it exits 0."""
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        cwd=cwd, env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _cold_main(cwd: Path, argv: list[str]) -> dict:
    """cli.main(argv) in a fresh interpreter running in `cwd`: its exit
    code and the scipy and numpy modules it loaded."""
    _fresh_python(cwd, COLD_MAIN, argv)
    return json.loads((cwd / "cold.json").read_text())


@pytest.mark.parametrize(
    "text,error",
    [
        ("G 1000000000000 0\nE v1 v2\n", "interior vertex v1 has degree 1, not 3"),
        ("G 1 1000000000000\nE v1 v1\nE v1 w1000000000000\n",
         "boundary vertex w1 has degree 0, not 1"),
    ],
)
def test_header_counts_size_no_work(tmp_path, text, error):
    """A header of 10^12 vertices over one or two edges: no table of vertex
    names or degrees may be sized by it, so `cheeger` exits 2 in 1 GB of
    address space, well inside 20 s."""

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    (tmp_path / "huge.txt").write_text(text)
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "expander_forge.cli", "cheeger", "huge.txt"],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True, text=True, timeout=20, preexec_fn=limit_memory,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: {error}\n"


def test_package_import_loads_no_submodule(tmp_path):
    # names are imported from their modules; the package root binds only
    # __version__, so importing it loads neither numpy nor any submodule
    code = ("import sys, expander_forge; print(sorted(m for m in sys.modules"
            " if m == 'numpy' or m.startswith('expander_forge.')))")
    assert _fresh_python(tmp_path, code, []) == "[]\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--chi", "20", "--n", "4", "--mu", "1/2", "--out", "b"],
        ["cheeger", "planted.txt"],
        ["split", "planted.txt"],
        ["construct", "--theta", "3", "--g-min", "1", "--g-max", "4",
         "--out", "fam"],
        ["sweep", "--chi-list", "50,400", "--rule", "pow:0.5", "--trials", "20",
         "--out", "s.csv"],
        # below LANCZOS_FROM vertices: lambda1 from the dense spectrum, the
        # Steklov Schur complement from the numpy blocked Cholesky
        ["sample", "--chi", "16", "--n", "4", "--trials", "3", "--out", "s.csv"],
        ["spectra", "planted.txt"],
    ],
    ids=["bounds", "cheeger", "split", "construct", "sweep", "sample", "spectra"],
)
def test_certified_commands_never_import_scipy(tmp_path, argv):
    (tmp_path / "planted.txt").write_text(to_text(plant_trees(theta_base(), 3)))
    record = _cold_main(tmp_path, argv)
    assert (record["code"], record["scipy"]) == (0, [])


@pytest.mark.parametrize(
    "argv,code",
    [
        (["bounds", "--chi", "20", "--n", "4", "--mu", "1/2", "--out", "b"], 0),
        (["--help"], 0),
        (["bounds", "--chi", "twenty", "--n", "4", "--mu", "1/2", "--out", "b"], 2),
    ],
    ids=["bounds", "help", "usage-error"],
)
def test_parser_and_bounds_never_import_numpy(tmp_path, argv, code):
    # cli.main builds the parser first: the parser, argparse's exits and the
    # exact rational tables of `bounds` compute with no array
    assert _cold_main(tmp_path, argv) == {"code": code, "scipy": [], "numpy": []}


def test_model_graph_layer_never_imports_numpy(tmp_path):
    # gluing a pairing, the text format, the model-graph rule and
    # components are integer work
    code = """
import sys
from expander_forge.graph_core import (
    HalfEdgePairing, build_graph, components, from_text, to_text, topology,
)
g = build_graph(HalfEdgePairing(chi=2, n=2, pairs=((1, 7), (2, 4), (3, 5), (6, 8))))
g = from_text(to_text(g))
topology(g)
components(g.num_vertices, g.edges)
print(sorted(m for m in sys.modules if m == "numpy" or m.startswith("numpy.")))
"""
    assert _fresh_python(tmp_path, code, []) == "[]\n"


def _data_files(cwd: Path) -> dict[Path, bytes]:
    """Every file under cwd but the run manifests, which carry timestamps,
    and COLD_MAIN's record."""
    return {
        p.relative_to(cwd): p.read_bytes()
        for p in sorted(cwd.rglob("*"))
        if p.is_file() and not p.name.endswith(".manifest.json") and p.name != "cold.json"
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--chi", "16", "--n", "4", "--trials", "3", "--out", "out.csv"],
        ["sweep", "--chi-list", "50", "--rule", "pow:0.5", "--trials", "20",
         "--out", "out.csv"],
        ["cheeger", "planted.txt"],
        ["split", "planted.txt"],
        ["construct", "--theta", "3", "--g-min", "1", "--g-max", "4", "--out", "fam"],
        ["spectra", "planted.txt"],
    ],
    ids=["sample", "sweep", "cheeger", "split", "construct", "spectra"],
)
def test_scipy_commands_run_cold(tmp_path, monkeypatch, capsys, argv):
    # numpy, and scipy where a command calls it, are first imported inside
    # the call in a clean process: its stdout and files are the bytes the
    # same command writes in this warm process
    cold, warm = tmp_path / "cold", tmp_path / "warm"
    planted = to_text(plant_trees(theta_base(), 3))
    for cwd in (cold, warm):
        cwd.mkdir()
        (cwd / "planted.txt").write_text(planted)
    cold_out = _fresh_python(cold, COLD_MAIN, argv)
    assert json.loads((cold / "cold.json").read_text())["code"] == 0
    monkeypatch.chdir(warm)
    assert main(argv) == 0
    assert cold_out == capsys.readouterr().out
    assert _data_files(cold) == _data_files(warm)
