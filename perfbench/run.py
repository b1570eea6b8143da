"""expander-forge benchmark: real CLI commands, timed and checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's command list (see workloads.py) in-process through
`expander_forge.cli.main(argv)`, one command at a time (a closed loop with
one client), repeating the list for S seconds after an untimed warm-up.
Before each command the process pins itself to the currently quietest CPU.
Every output is checked (checks.py).  The last line of stdout is one JSON
object: `correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: set-up time of
a fresh CLI process, median wall time of the command list, and peak RSS.
--trace 1 spends half the time untraced and half with spans installed
(tracing.py) and reports the per-layer metrics plus the tracing overhead.

--record-reference rewrites the reference outputs at the default seed.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: with the 2-thread OpenBLAS default the dense
# spectra of sample-spectral are both slower and far less steady on 2 cores.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
os.environ.pop("EXPANDER_FORGE_GUARD", None)  # the guard default is part of the workload

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 1
SETUP_SPAWNS = 5
SETUP_CODE = "import expander_forge.cli as c; c.build_parser()"
PINNABLE = os.sched_getaffinity(0)  # the CPUs this process may use


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


if not (SRC / "expander_forge" / "cli.py").is_file():
    _fail(f"no program to measure: {SRC / 'expander_forge'} is missing")
sys.path.insert(0, str(SRC))
sys.path.insert(1, str(HERE))

import expander_forge  # noqa: E402

if Path(expander_forge.__file__).resolve().parent != SRC / "expander_forge":
    _fail(f"imported expander_forge from {expander_forge.__file__}, not {SRC}")

from expander_forge import cli  # noqa: E402
from expander_forge.cheeger import HAVE_COMPILED_KERNEL, _bitmask_inputs  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@dataclass
class Result:
    seconds: float
    ok: bool  # returned 0 without raising
    stdout: str
    digest: str  # sha256 of stdout and output files; manifests carry timestamps
    nbytes: int  # bytes written: stdout, outputs and manifests
    error: str = ""


def _output_files(cmd) -> list[Path]:
    if cmd.kind == "construct":
        return sorted(cmd.outputs[0].parent.glob("g*.txt")) + cmd.outputs
    return list(cmd.outputs)


def _manifest(cmd) -> Path | None:
    if not cmd.outputs:
        return None
    first = cmd.outputs[0]
    return first.with_suffix(first.suffix + ".manifest.json")


def _spin() -> float:
    t0 = time.perf_counter()
    sum(i * i % 7 for i in range(20000))
    return time.perf_counter() - t0


def pin_quietest_cpu() -> None:
    """Pin this process to the CPU that runs a 2 ms loop fastest right now.

    On a shared host each virtual CPU is slowed 1.5x or more, for stretches
    of a fraction of a second to minutes, by whatever shares its physical
    core; on a shared 2-CPU Xeon VM one CPU was often fast while the
    other was slow.
    """
    cpus = sorted(PINNABLE)[:4]
    if len(cpus) < 2:
        return
    timings = []
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        timings.append((_spin(), cpu))
    os.sched_setaffinity(0, {min(timings)[1]})


def run_command(cmd, tracer: tracing.Tracer | None = None) -> Result:
    pin_quietest_cpu()
    out, err = io.StringIO(), io.StringIO()
    error = ""
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                rc = cli.main(cmd.argv)
            else:
                with tracer.span("cli", "main"):
                    rc = cli.main(cmd.argv)
    except SystemExit as exc:  # argparse rejects bad argv this way
        rc = exc.code
    except Exception:  # a command that raises is a failed operation, not a crash
        rc, error = None, traceback.format_exc(limit=3)
    seconds = time.perf_counter() - t0
    if rc != 0 and not error:
        error = f"exit code {rc}: {err.getvalue().strip()}"
    h = hashlib.sha256(out.getvalue().encode())
    nbytes = len(out.getvalue().encode())
    for path in _output_files(cmd):
        if path.is_file():
            data = path.read_bytes()
            h.update(data)
            nbytes += len(data)
    manifest = _manifest(cmd)
    if manifest is not None and manifest.is_file():
        nbytes += manifest.stat().st_size
    return Result(seconds, rc == 0 and not error, out.getvalue(), h.hexdigest(),
                  nbytes, error)


def run_list(cmds, tracer: tracing.Tracer | None = None) -> list[Result]:
    results = []
    for i, cmd in enumerate(cmds):
        if tracer is not None:
            tracer.cmd = i
        results.append(run_command(cmd, tracer))
    return results


def timed_loop(cmds, seconds: float, tracer: tracing.Tracer | None = None):
    """Repeat the command list until `seconds` have passed (at least once).

    Returns the results of each pass and, when traced, each pass's
    per-layer metrics.
    """
    passes, layers = [], []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        passes.append(run_list(cmds, tracer))
        if tracer is not None:
            layers.append(tracing.layer_metrics(tracer.spans))
            tracer.spans.clear()
    return passes, layers


def _check_manifest(cmd) -> list[str]:
    manifest = _manifest(cmd)
    if manifest is None:
        return []
    doc = json.loads(manifest.read_text())
    bad = [f"manifest digest of {name} is stale" for name, digest in doc["outputs"].items()
           if hashlib.sha256(Path(name).read_bytes()).hexdigest() != digest]
    if doc["command"] != cmd.argv:
        bad.append("manifest command differs from argv")
    return bad


def gate(cmds, passes, reference) -> tuple[int, int, list[str]]:
    """Correctness gate over every pass: (attempted, failed, problems).

    The outputs on disk are the last pass's; they are checked in full and
    every earlier pass must have produced byte-identical outputs.  With a
    reference (default seed) the outputs must also match it.
    """
    problems: dict[int, list[str]] = {}
    last = passes[-1]
    for i, (cmd, res) in enumerate(zip(cmds, last)):
        if not res.ok:
            problems[i] = [res.error]
            continue
        try:
            rec = checks.summarize(cmd, res.stdout)
            bad = checks.verify(cmd, rec) + _check_manifest(cmd)
        except (OSError, KeyError, IndexError, ValueError) as exc:
            bad = [f"unreadable output: {type(exc).__name__}: {exc}"]
            rec = None
        if reference is not None and rec is not None:
            ref = reference[i] if i < len(reference) else None
            bad += ["no reference recorded"] if ref is None else checks.compare(ref, rec)
        if bad:
            problems[i] = bad
    failed = 0
    for results in passes:
        for i, res in enumerate(results):
            if i in problems or not res.ok or res.digest != last[i].digest:
                failed += 1
    lines = [f"command {i} ({cmds[i].kind}): {p}" for i, ps in problems.items()
             for p in ps[:3]]
    return sum(len(p) for p in passes), failed, lines


def measure_setup() -> float:
    """Median wall time of fresh interpreters importing the CLI and building
    its parser: what every CLI invocation pays before any work."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for i in range(SETUP_SPAWNS + 1):
        pin_quietest_cpu()  # the child inherits the pinning
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                       check=True, timeout=60, stdout=subprocess.DEVNULL)
        if i:  # the first spawn writes bytecode caches
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def compare_kernels(cmds) -> tuple[list[str], bool]:
    """Run every available Cheeger kernel on the `cheeger` inputs; results,
    visited counts included, must agree."""
    from expander_forge import _mincut_py

    kernels = {"python": _mincut_py}
    try:
        from expander_forge import _mincut_core
        kernels["compiled"] = _mincut_core
    except ImportError:
        pass
    lines, ok = [], True
    graphs = [c.graph for c in cmds if c.kind == "cheeger"]
    if not graphs:
        return lines, ok
    if "compiled" not in kernels:
        lines.append("kernel comparison: compiled kernel (_mincut_core) not built; "
                     "only the pure-Python kernel runs")
    nodes, secs, results = {}, {}, {}
    for name, kernel in kernels.items():
        nodes[name], secs[name], results[name] = 0, 0.0, []
        for g in graphs:
            adj, mult = _bitmask_inputs(g)
            nv = g.num_vertices
            pin_quietest_cpu()
            t0 = time.perf_counter()
            r = kernel.min_ratio_cut(adj, mult, nv, nv // 2)
            secs[name] += time.perf_counter() - t0
            nodes[name] += r[3]
            results[name].append(tuple(int(x) for x in r))
        lines.append(f"kernel {name}: {nodes[name]} nodes in {secs[name]:.4f} s, "
                     f"{nodes[name] / secs[name]:.0f} nodes/s")
    if "compiled" in kernels:
        ok = results["compiled"] == results["python"]
        lines.append(f"kernel compiled/python speedup {secs['python'] / secs['compiled']:.2f}x"
                     f"; (s, k, mask, visited) {'agree' if ok else 'DISAGREE'}")
    return lines, ok


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = ref_file.read_text().strip() if ref_file and ref_file.is_file() else ref
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "compiled_kernel": HAVE_COMPILED_KERNEL,
        "commit": commit,
        "seed": seed,
    }


def _wall(results) -> float:
    return sum(r.seconds for r in results)


def best_times(passes) -> list[float]:
    """Each command's fastest time over the passes.

    Other tenants of a shared host only ever add time: on a 2-core VM the
    median of a fixed loop swung 1.1-1.6x between 16 s windows while its
    minimum stayed within 2%.  Best-of-N per command (as `timeit` advises)
    is therefore the steady estimate of the list's cost.
    """
    return [min(p[i].seconds for p in passes) for i in range(len(passes[0]))]


def _by_kind(cmds, seconds) -> dict[str, float]:
    out: dict[str, float] = {}
    for cmd, s in zip(cmds, seconds):
        out[f"cli.{cmd.kind}_s"] = out.get(f"cli.{cmd.kind}_s", 0.0) + s
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="rewrite this workload's reference at the default seed")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work_root = ROOT / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        return _run(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, spec, workdir: Path) -> int:
    if args.record_reference:
        args.seed = DEFAULT_SEED
    print("env " + json.dumps(environment(args.seed)))
    cmds = workloads.build(args.workload, args.seed, workdir / "run")
    warm = workloads.build(args.workload, args.seed, workdir / "warm", smoke=True)

    if args.record_reference:
        results = run_list(cmds)
        bad = [f"{c.kind}: {r.error}" for c, r in zip(cmds, results) if not r.ok]
        records = [checks.summarize(c, r.stdout) for c, r in zip(cmds, results)]
        bad += [f"{c.kind}: {p}" for c, rec in zip(cmds, records)
                for p in checks.verify(c, rec)]
        if bad:
            _fail("not recording a reference that fails its checks:\n" + "\n".join(bad))
        refs = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
        refs["seed"] = DEFAULT_SEED
        refs.setdefault("workloads", {})[args.workload] = records
        REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
        print(f"recorded {len(records)} reference records for {args.workload}")
        return 0

    reference = None
    if args.seed == DEFAULT_SEED:
        refs = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
        reference = refs.get("workloads", {}).get(args.workload, [])

    metrics: dict[str, float] = {}
    notes: list[str] = []
    kernels_ok = True
    if args.trace == 0:
        metrics["setup_s"] = measure_setup()
        run_list(warm)
        passes, _ = timed_loop(cmds, args.seconds)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["wall_s"] = sum(best_times(passes))
        notes.append(f"median pass {statistics.median(_wall(p) for p in passes):.4f} s")
        wanted = spec["end_to_end"]
    else:
        run_list(warm)
        plain, _ = timed_loop(cmds, args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced, layers = timed_loop(cmds, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        passes = plain + traced
        metrics.update(_by_kind(cmds, best_times(plain)))
        # Layer figures all come from the fastest traced pass, so they add up.
        fastest = min(range(len(traced)), key=lambda i: _wall(traced[i]))
        metrics.update(layers[fastest])
        traced_wall = _wall(traced[fastest])
        plain_wall = min(_wall(p) for p in plain)
        metrics["cli.bytes_written"] = sum(r.nbytes for r in traced[fastest])
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_frac"] = (traced_wall - plain_wall) / plain_wall
        metrics["trace.accounted_frac"] = sum(
            v for k, v in layers[fastest].items() if k.endswith(".self_s")) / traced_wall
        kernel_notes, kernels_ok = compare_kernels(cmds)
        notes += kernel_notes
        wanted = spec["per_layer"]

    attempted, failed, problems = gate(cmds, passes, reference)
    if not kernels_ok:
        problems.append("compiled and pure-Python kernels disagree")
    for line in problems + notes:
        print(line)
    print(f"workload {args.workload}: {len(passes)} passes of {len(cmds)} commands, "
          f"{attempted} attempted, {failed} failed")
    out = {}
    for m in wanted:
        value = float(metrics.get(m["name"], 0.0))
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<40} {value:>16.6g} {m['unit']}")
    correct = failed == 0 and kernels_ok
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
