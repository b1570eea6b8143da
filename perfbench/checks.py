"""Correctness gate: every command's outputs are checked.

`summarize` reduces a command's outputs to a JSON-able record.  At the
default seed that record is compared with the reference recorded from the
program (`compare`): exact fields exactly, floats within `REL_TOL`.  On every
seed, `verify` re-derives what can be checked independently of the code that
produced it: recounted cut sizes, re-summed rationals, recomputed trials and
spectral identities (eigenvalue traces, Steklov domination, Cheeger bounds).
Both return a list of problems; an empty list means the command passed.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from fractions import Fraction

import numpy as np

from expander_forge.cheeger import boundary_size, cheeger_upper
from expander_forge.graph_core import MultiGraph, connected_components, from_text
from expander_forge.sampler import SampleConfig, sample_graph

REL_TOL = 1e-9
ABS_TOL = 1e-12  # floor for values that are zero up to rounding (lambda_0)
SUBSAMPLE = 8  # trials recomputed per sweep row and sample command


def _float(s: str) -> float | None:
    return float(s) if s != "" else None


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b)) + ABS_TOL


def _csv(path) -> tuple[list[list[str]], list[str]]:
    """Data rows and `#` comment lines of a CSV file, header dropped."""
    lines = path.read_text().splitlines()[1:]
    return ([ln.split(",") for ln in lines if not ln.startswith("#")],
            [ln for ln in lines if ln.startswith("#")])


# --- summaries ---------------------------------------------------------------


def summarize(cmd, stdout: str) -> dict:
    """The record of one command's outputs that references are kept for."""
    if cmd.kind == "sweep":
        rows, _ = _csv(cmd.outputs[0])
        return {"rows": [[int(r[0]), int(r[1]), int(r[2]), float(r[3]),
                          float(r[4]), float(r[5]), int(r[6])] for r in rows]}
    if cmd.kind == "sample":
        rows, comments = _csv(cmd.outputs[0])
        return {
            "rows": [[int(r[0]), int(r[1]), float(r[2]), _float(r[3]), r[4], int(r[5])]
                     for r in rows],
            "summary": comments,
        }
    if cmd.kind in ("spectra", "cheeger", "split"):
        return json.loads(stdout)
    if cmd.kind == "construct":
        outdir = cmd.outputs[0].parent
        rows, _ = _csv(cmd.outputs[0])
        return {
            "rows": [[int(r[0]), int(r[1]), int(r[2]), r[3], float(r[4]), r[5], r[6]]
                     for r in rows],
            "graphs": {f"g{r[0]}": _sha((outdir / f"g{r[0]}.txt").read_bytes())
                       for r in rows},
        }
    if cmd.kind == "bounds":
        doc = json.loads(cmd.outputs[1].read_text())
        pairs = json.dumps(doc["pairs"], sort_keys=True).encode()
        return {"csv": cmd.outputs[0].read_text(), "sum": doc["sum"],
                "pairs": len(doc["pairs"]), "pairs_sha256": _sha(pairs)}
    raise ValueError(f"no summary for {cmd.kind!r}")


def compare(ref, got, where: str = "") -> list[str]:
    """Differences between a reference record and a fresh one."""
    if isinstance(ref, float) or isinstance(got, float):
        if isinstance(ref, (int, float)) and isinstance(got, (int, float)) \
                and not isinstance(ref, bool) and close(float(ref), float(got)):
            return []
        return [f"{where}: {got!r} != reference {ref!r}"]
    if isinstance(ref, dict) and isinstance(got, dict):
        if ref.keys() != got.keys():
            return [f"{where}: keys {sorted(got)} != reference {sorted(ref)}"]
        return [p for k in ref for p in compare(ref[k], got[k], f"{where}.{k}")]
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return [f"{where}: length {len(got)} != reference {len(ref)}"]
        return [p for i, (r, g) in enumerate(zip(ref, got))
                for p in compare(r, g, f"{where}[{i}]")]
    return [] if ref == got else [f"{where}: {got!r} != reference {ref!r}"]


# --- independent checks ------------------------------------------------------


def _components(nv: int, edges) -> list[set[int]]:
    parent = list(range(nv))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    comps: dict[int, set[int]] = {}
    for v in range(nv):
        comps.setdefault(find(v), set()).add(v)
    return list(comps.values())


def _normalized_laplacian(g: MultiGraph) -> np.ndarray:
    nv = g.num_vertices
    a = np.zeros((nv, nv))
    for u, v in g.edges:
        a[u, v] += 1.0
        a[v, u] += 1.0  # a loop adds 2 to its diagonal entry
    d = 1.0 / np.sqrt(a.sum(axis=1))
    return np.eye(nv) - d[:, None] * a * d[None, :]


def _lambda1(g: MultiGraph) -> float:
    return float(np.linalg.eigvalsh(_normalized_laplacian(g))[1])


def _steklov(g: MultiGraph) -> np.ndarray:
    """Steklov spectrum via an LU solve of the Schur complement (the
    program uses a Cholesky factorization)."""
    nv = g.num_vertices
    a = np.zeros((nv, nv))
    for u, v in g.edges:
        a[u, v] += 1.0
        a[v, u] += 1.0
    lap = np.diag(a.sum(axis=1)) - a
    bd = [v for v in range(nv) if g.roles[v] == "boundary"]
    it = [v for v in range(nv) if g.roles[v] != "boundary"]
    schur = lap[np.ix_(bd, bd)] - lap[np.ix_(bd, it)] @ np.linalg.solve(
        lap[np.ix_(it, it)], lap[np.ix_(it, bd)])
    return np.linalg.eigvalsh((schur + schur.T) / 2)


def _close_spectra(got, want) -> bool:
    """Spectra from different solvers agree to 1e-7 (1e-9 absolute)."""
    return len(got) == len(want) and all(
        abs(x - y) <= 1e-7 * abs(y) + 1e-9 for x, y in zip(got, want))


def _genus(g: MultiGraph) -> int:
    degs = g.degrees()
    return (sum(d == 3 for d in degs) - sum(d == 1 for d in degs)) // 2 + 1


def _connected(g: MultiGraph) -> bool:
    return len(connected_components(g)) == 1


def _wilson(hits: int, trials: int) -> tuple[float, float]:
    z = 1.959963984540054
    p = hits / trials
    den = 1 + z * z / trials
    mid = (p + z * z / (2 * trials)) / den
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials**2)) / den
    return max(0.0, mid - half), min(1.0, mid + half)


def _rule_n(rule: str, chi: int) -> int:
    kind, _, val = rule.partition(":")
    n = math.floor(chi ** float(val)) if kind == "pow" else math.floor(float(val) * chi)
    n = min(n, 3 * chi)
    return n - (3 * chi - n) % 2


def _check_sweep(cmd, rec) -> list[str]:
    p = cmd.params
    bad = []
    if [r[0] for r in rec["rows"]] != p["chis"]:
        return [f"chi column {[r[0] for r in rec['rows']]} != {p['chis']}"]
    for chi, n, trials, frac, lo, hi, seed in rec["rows"]:
        if (n, trials, seed) != (_rule_n(p["rule"], chi), p["trials"], p["seed"]):
            bad.append(f"chi={chi}: n/trials/seed {n}/{trials}/{seed} wrong")
            continue
        hits = round(frac * trials)
        if not close(frac, hits / trials):
            bad.append(f"chi={chi}: fraction {frac} is not k/{trials}")
        if not all(close(x, y) for x, y in zip((lo, hi), _wilson(hits, trials))):
            bad.append(f"chi={chi}: Wilson interval ({lo}, {hi}) wrong")
        cfg = SampleConfig(chi=chi, n=n, trials=trials, seed=seed)
        # Small rows are recomputed in full, large rows on a subsample.
        ts = range(trials) if chi <= 50 else range(min(SUBSAMPLE, trials))
        conn = sum(_connected(sample_graph(cfg, t)) for t in ts)
        if len(ts) == trials and conn != hits:
            bad.append(f"chi={chi}: {hits} connected, recomputed {conn}")
        if not (conn <= hits <= trials - (len(ts) - conn)):
            bad.append(f"chi={chi}: {hits} hits contradict recomputed trials")
    return bad


def _check_sample(cmd, rec) -> list[str]:
    p = cmd.params
    rows = rec["rows"]
    if [r[0] for r in rows] != list(range(p["trials"])):
        return ["trial column wrong"]
    bad = []
    cfg = SampleConfig(chi=p["chi"], n=p["n"], trials=p["trials"], seed=p["seed"])
    genus = (p["chi"] - p["n"]) // 2 + 1
    lam1s = [r[2] for r in rows]
    q = statistics.quantiles(lam1s, n=4, method="inclusive") if len(rows) > 1 \
        else [lam1s[0]] * 3
    want = f"# summary connected_fraction={sum(r[1] for r in rows)}/{p['trials']}"
    summary = rec["summary"][0] if rec["summary"] else ""
    got_q = [float(part.split("=")[1]) for part in summary.split()[3:]]
    if not summary.startswith(want + " ") or len(got_q) != 3 \
            or not all(close(a, b) for a, b in zip(got_q, q)):
        bad.append(f"summary line {summary!r} disagrees with the rows")
    nv = p["chi"] + p["n"]
    for t, conn, lam1, sigma1, h, g_col in rows:
        if g_col != genus:
            bad.append(f"trial {t}: genus {g_col} != {genus}")
        if not (-ABS_TOL <= lam1 <= 2 + REL_TOL) or (conn and lam1 <= 0):
            bad.append(f"trial {t}: lambda1 {lam1} out of range")
        if (sigma1 is not None) != bool(conn and p["n"] >= 2):
            bad.append(f"trial {t}: sigma1 present={sigma1 is not None} wrong")
        elif sigma1 is not None and sigma1 < lam1 - REL_TOL * max(1, lam1):
            bad.append(f"trial {t}: sigma1 {sigma1} < lambda1 {lam1}")
        if (h != "") != bool(conn and nv <= p["guard"]):
            bad.append(f"trial {t}: h present={h != ''} wrong")
        elif h and lam1 < float(Fraction(h)) ** 2 / 18 - REL_TOL:
            bad.append(f"trial {t}: lambda1 {lam1} < h^2/18 for h={h}")
    # Per trial cost is small below ~100 vertices, so recheck every trial there.
    ts = range(p["trials"]) if nv <= 100 else range(min(SUBSAMPLE, p["trials"]))
    for t in ts:
        g = sample_graph(cfg, t)
        conn, lam1, sigma1, h = rows[t][1], rows[t][2], rows[t][3], rows[t][4]
        if conn != _connected(g):
            bad.append(f"trial {t}: connected flag {conn} wrong")
            continue
        if t == 0 and not close(lam1, _lambda1(g)):
            bad.append(f"trial {t}: lambda1 {lam1} != recomputed {_lambda1(g)}")
        if t == 0 and sigma1 is not None and \
                not _close_spectra([sigma1], _steklov(g)[1:2]):
            bad.append(f"trial {t}: sigma1 {sigma1} != recomputed")
        if h and t < 64 and Fraction(h) > cheeger_upper(g).h:
            bad.append(f"trial {t}: h {h} above the sweep upper bound")
    return bad


def _check_spectra(cmd, rec) -> list[str]:
    g = cmd.graph
    bad = []
    if (rec["chi"], rec["n"], rec["genus"], rec["connected"]) != \
            (g.chi, g.n, _genus(g), True):
        bad.append("chi/n/genus/connected header wrong")
    lam, sig = rec["lambda"], rec["sigma"]
    if len(lam) != g.num_vertices or lam != sorted(lam) or abs(lam[0]) > 1e-9:
        return bad + ["lambda is not a sorted spectrum starting at 0"]
    trace = float(np.trace(_normalized_laplacian(g)))
    if not close(sum(lam), trace):
        bad.append(f"sum(lambda) {sum(lam)} != trace {trace}")
    if rec["lambda1"] != lam[1]:
        bad.append("lambda1 != lambda[1]")
    if len(sig) != g.n or sig != sorted(sig) or abs(sig[0]) > 1e-9 \
            or rec["sigma1"] != sig[1]:
        return bad + ["sigma is not a sorted Steklov spectrum starting at 0"]
    if any(s < l - rec["tol"] for s, l in zip(sig, lam)):
        bad.append("Steklov domination sigma_i >= lambda_i violated")
    if not _close_spectra(sig, _steklov(g)):
        bad.append("sigma differs from an independently solved Steklov spectrum")
    return bad


def _check_cheeger(cmd, rec) -> list[str]:
    g = cmd.graph
    idx = {name: i for i, name in enumerate(g.names)}
    omega = [idx.get(name) for name in rec["omega"]]
    if None in omega or len(set(omega)) != len(omega) or not omega:
        return [f"witness {rec['omega']} is not a set of vertices"]
    if 2 * len(omega) > g.num_vertices:
        return [f"witness has {len(omega)} > |V|/2 vertices"]
    s = boundary_size(g, set(omega))
    h = Fraction(rec["h_num"], rec["h_den"])
    bad = []
    if s != rec["boundary"] or h != Fraction(s, len(omega)) or not rec["exact"]:
        bad.append(f"h={h}, boundary={rec['boundary']} but recount gives "
                   f"{s}/{len(omega)}")
    if h > cheeger_upper(g).h:
        bad.append(f"h={h} above the sweep upper bound")
    return bad


def _check_split(cmd, rec) -> list[str]:
    g = cmd.graph
    idx = {name: i for i, name in enumerate(g.names)}
    removed = sorted(tuple(sorted((idx[a], idx[b]))) for a, b in rec["removed_edges"])
    rest = list(g.edges)
    for e in removed:
        if e not in rest:
            return [f"removed edge {e} is not an edge left in the graph"]
        rest.remove(e)
    bad = []
    if len(removed) != g.num_edges - g.num_vertices + 2:
        bad.append(f"{len(removed)} edges removed, want genus + 1")
    sides = sorted(sorted(g.names[v] for v in c)
                   for c in _components(g.num_vertices, rest))
    got = sorted([sorted(rec["side_a"]), sorted(rec["side_b"])])
    if len(rest) != g.num_vertices - 2 or sides != got:
        bad.append("remaining edges are not two trees spanning side_a, side_b")
    bal = rec.get("balanced_subset")
    if bal is not None:
        h_set = {idx[name] for name in bal["h_set"]}
        c = sum(g.roles[v] == "boundary" for v in h_set)
        genus = _genus(g)
        if bal["boundary_edges"] != boundary_size(g, h_set) \
                or bal["boundary_vertices_inside"] != c or bal["genus"] != genus:
            bad.append("balanced subset counts disagree with a recount")
        if not (2 * c <= g.n <= 4 * c) or bal["boundary_edges"] > genus + 1:
            bad.append("balanced subset outside n/4 <= c <= n/2, |dH| <= g+1")
    return bad


def _check_construct(cmd, rec) -> list[str]:
    p = cmd.params
    outdir = cmd.outputs[0].parent
    bad = []
    if [r[0] for r in rec["rows"]] != list(range(p["g_min"], p["g_max"] + 1)):
        return ["genus column wrong"]
    for genus, n, chi, h_lower, lam1, h_exact, check in rec["rows"]:
        g = from_text((outdir / f"g{genus}.txt").read_text())
        if (_genus(g), g.n, g.chi) != (genus, n, chi) or not _connected(g):
            bad.append(f"g{genus}: file has genus/n/chi {_genus(g)}/{g.n}/{g.chi}")
            continue
        if g.num_vertices <= 200 and not close(lam1, _lambda1(g)):
            bad.append(f"g{genus}: lambda1 {lam1} != recomputed {_lambda1(g)}")
        if h_exact:
            h = Fraction(h_exact)
            if h < Fraction(h_lower) or check != "1" or h > cheeger_upper(g).h \
                    or lam1 < float(h) ** 2 / 18 - REL_TOL:
                bad.append(f"g{genus}: h_exact {h_exact} inconsistent")
    return bad


def _mu_pairs(chi: int, n: int, mu: Fraction):
    """The mu-pair conditions of the paper, enumerated directly."""
    for a in range(n + 1):
        for b in range(chi + 1):
            s = 1
            while s * mu.denominator <= mu.numerator * (a + b):
                if 1 <= a + b and 2 * (a + b) <= chi + n and b >= a + s - 2:
                    yield (a, b, s)
                s += 1


def _check_bounds(cmd, rec) -> list[str]:
    p = cmd.params
    doc = json.loads(cmd.outputs[1].read_text())
    mu = Fraction(p["mu"])
    total = sum((Fraction(q["product"]) for q in doc["pairs"]), Fraction(0))
    bad = []
    if Fraction(doc["sum"]) != total:
        bad.append(f"sum {doc['sum']} != re-summed products {total}")
    want = f"chi,n,mu,sum_num,sum_den,sum_float\n{p['chi']},{p['n']},{mu}," \
           f"{total.numerator},{total.denominator},"
    if not rec["csv"].startswith(want) or \
            not close(float(rec["csv"].rsplit(",", 1)[1]), float(total)):
        bad.append("CSV row disagrees with the re-summed JSON")
    triples = [(q["a"], q["b"], q["s"]) for q in doc["pairs"]]
    if triples != list(_mu_pairs(p["chi"], p["n"], mu)):
        bad.append("pair list differs from a direct mu-pair enumeration")
    fact = math.factorial
    chi, n = p["chi"], p["n"]
    for q in doc["pairs"][::97]:  # spot-check X, Y, Z from the formulas
        a, b, s = q["a"], q["b"], q["s"]
        inner, outer = 3 * b - a - s, 3 * chi - n - (3 * b - a) - s
        x = Fraction(fact(3 * b) * fact(3 * chi - 3 * b), fact(3 * chi))
        y = Fraction(0) if min(inner, outer) < 0 or inner % 2 or outer % 2 else \
            Fraction(2**s * fact((3 * chi - n) // 2),
                     fact(s) * fact(inner // 2) * fact(outer // 2))
        z = Fraction(math.comb(n, a) * math.comb(chi, b))
        if (Fraction(q["x"]), Fraction(q["y"]), Fraction(q["z"]),
                Fraction(q["product"])) != (x, y, z, x * y * z):
            bad.append(f"pair {(a, b, s)}: X, Y, Z or product wrong")
    return bad


_CHECKS = {
    "sweep": _check_sweep,
    "sample": _check_sample,
    "spectra": _check_spectra,
    "cheeger": _check_cheeger,
    "split": _check_split,
    "construct": _check_construct,
    "bounds": _check_bounds,
}


def verify(cmd, rec) -> list[str]:
    """Independent checks of one command's summarized outputs."""
    try:
        return _CHECKS[cmd.kind](cmd, rec)
    except (OSError, KeyError, IndexError, ValueError, TypeError,
            ZeroDivisionError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]
