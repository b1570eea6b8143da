"""Spans around the package's functions, installed from outside the program.

`Tracer.install()` replaces each traced function at every binding a caller
uses: the defining module and every package module that imported it by name
(`cli`, `construct`, `bounds`, `spectra` and `cheeger` do), plus the active
Cheeger kernel reached as `cheeger._kernel`, the `NAMED_BASES` table and the
`MuPairBound.product` property.  Each call records a span: layer, function,
start, end, parent span and the id of the CLI command it ran under.  Spans
stay in memory; `layer_metrics` turns one iteration's spans into the
per-layer figures.  `uninstall()` restores every original binding.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("sampler", "graph_core", "spectra", "cheeger", "bounds", "construct", "cli")

# Traced functions per layer.  Tiny helpers called per edge or per label
# (label_to_vertex, check_parity, trial_rng, ...) are left out: a span costs
# microseconds, so they would mostly measure the tracer.  Their time counts
# as self time of the traced caller.
TRACED = {
    "sampler": ["estimate_connectivity", "sample_partition", "sample_graph",
                "_sample_label_pairs", "exact_connectivity_fraction"],
    "graph_core": ["build_graph", "relabel_canonical", "validate_partition",
                   "is_connected", "connected_components", "topology",
                   "to_text", "from_text"],
    "spectra": ["laplacian_spectrum", "steklov_spectrum", "normalized_laplacian",
                "combinatorial_laplacian", "report_json", "harmonic_extension",
                "rayleigh_quotient", "verify_domination"],
    "cheeger": ["cheeger_exact", "cheeger_upper", "cheeger_exact_naive"],
    "bounds": ["mu_pair_sum", "xyz_bound", "count_all_Nabs",
               "count_all_Nabs_interior_cut", "audit_first_moment"],
    "construct": ["expander_family", "default_base_provider", "plant_trees",
                  "add_loops", "two_tree_split", "balanced_boundary_subset",
                  "steklov_test_function", "build_Tk", "_first_connected_member"],
    "cli": ["cmd_sample", "cmd_sweep", "cmd_bounds", "cmd_construct",
            "cmd_spectra", "cmd_cheeger", "cmd_split"],
}

# The function whose subtree (within its own layer) each timed metric covers.
# A span's self time goes to its nearest same-layer ancestor-or-self named
# here; spans with no such ancestor count only towards `<layer>.self_s`.
OWNERS = {
    "sampler": {"estimate_connectivity": "connectivity_s",
                "sample_partition": "partition_s",
                "_sample_label_pairs": "partition_s"},
    "graph_core": {"build_graph": "build_s", "relabel_canonical": "build_s",
                   "validate_partition": "build_s",
                   "is_connected": "connectivity_s",
                   "connected_components": "connectivity_s",
                   "topology": "topology_s", "to_text": "text_s",
                   "from_text": "text_s"},
    "spectra": {"laplacian_spectrum": "lambda_s", "steklov_spectrum": "steklov_s"},
    "cheeger": {"cheeger_exact": "exact_self_s", "min_ratio_cut": "kernel_s",
                "cheeger_upper": "upper_s"},
    "bounds": {"mu_pair_sum": "sum_s", "xyz_bound": "xyz_s"},
    "construct": {"expander_family": "family_s", "two_tree_split": "split_s",
                  "balanced_boundary_subset": "balanced_s"},
    "cli": {},
}


class Span:
    __slots__ = ("layer", "name", "parent", "cmd", "t0", "t1", "error", "result")

    def __init__(self, layer, name, parent, cmd, t0=0.0, t1=0.0):
        self.layer, self.name, self.parent, self.cmd = layer, name, parent, cmd
        self.t0, self.t1 = t0, t1
        self.error = False
        self.result = None

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class Tracer:
    """Collects spans while installed; one instance per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._undo: list = []
        self.cmd = None

    # --- recording -----------------------------------------------------------

    @contextmanager
    def span(self, layer: str, name: str):
        """Record one span around a block (the benchmark's CLI root span)."""
        sp = self._open(layer, name)
        try:
            yield sp
        except BaseException:
            self._close(sp, True)
            raise
        self._close(sp, False)

    def _open(self, layer: str, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        sp = Span(layer, name, parent, self.cmd)
        self._stack.append(sp)
        sp.t0 = time.perf_counter()
        return sp

    def _close(self, sp: Span, error: bool) -> None:
        sp.t1 = time.perf_counter()
        sp.error = error
        self._stack.pop()
        self.spans.append(sp)

    def wrap(self, layer: str, name: str, fn, keep_result: bool = False):
        tracer = self

        def traced(*args, **kwargs):
            sp = tracer._open(layer, name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(sp, True)
                raise
            tracer._close(sp, False)
            if keep_result:
                sp.result = (args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # --- installation --------------------------------------------------------

    def install(self) -> None:
        pkg = "expander_forge"
        modules = [importlib.import_module(f"{pkg}.{m}") for m in LAYERS]
        modules.append(importlib.import_module(pkg))
        for layer in LAYERS:
            home = importlib.import_module(f"{pkg}.{layer}")
            for name in TRACED[layer]:
                fn = getattr(home, name)
                if inspect.isgeneratorfunction(fn):
                    raise TypeError(f"{layer}.{name} is a generator; spans "
                                    "would end before its work")
                wrapped = self.wrap(layer, name, fn,
                                    keep_result=name == "estimate_connectivity")
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is fn:
                            self._set(mod, attr, wrapped)
        cheeger = importlib.import_module(f"{pkg}.cheeger")
        kernel = cheeger._kernel
        self._set(kernel, "min_ratio_cut", self.wrap(
            "cheeger", "min_ratio_cut", kernel.min_ratio_cut, keep_result=True))
        construct = importlib.import_module(f"{pkg}.construct")
        for m, fn in list(construct.NAMED_BASES.items()):
            self._undo.append((construct.NAMED_BASES, m, fn, True))
            construct.NAMED_BASES[m] = self.wrap("construct", "named_base", fn)
        bounds = importlib.import_module(f"{pkg}.bounds")
        prop = bounds.MuPairBound.__dict__["product"]
        self._set(bounds.MuPairBound, "product",
                  property(self.wrap("bounds", "product", prop.fget)))

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr), False))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, key, original, is_item in reversed(self._undo):
            if is_item:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._undo.clear()


# --- analysis ----------------------------------------------------------------


def _covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of `intervals`."""
    total, cursor = 0.0, start
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, end)
        if b > a:
            total += b - a
            cursor = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of each span (keyed by id): its duration minus the part
    of its interval that its child spans cover."""
    children = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[id(sp.parent)].append((sp.t0, sp.t1))
    return {id(sp): sp.duration - _covered(sp.t0, sp.t1, children[id(sp)])
            for sp in spans}


def _owner(sp: Span) -> str | None:
    """Timed metric of the nearest same-layer ancestor-or-self owner."""
    owners = OWNERS[sp.layer]
    while sp.name not in owners:
        if sp.parent is None or sp.parent.layer != sp.layer:
            return None
        sp = sp.parent
    return owners[sp.name]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and self times of one traced iteration."""
    selfs = self_times(spans)
    m: dict[str, float] = defaultdict(float)
    count: dict[tuple[str, str], int] = defaultdict(int)
    for sp in spans:
        st = selfs[id(sp)]
        m[f"{sp.layer}.self_s"] += st
        m[f"{sp.layer}.errors"] += sp.error
        owner = _owner(sp)
        if owner:
            m[f"{sp.layer}.{owner}"] += st
        count[sp.layer, sp.name] += 1
        parent = sp.parent.name if sp.parent is not None else None
        if sp.name == "estimate_connectivity" and sp.result:
            m["sampler.trials"] += sp.result[0][0].trials
        if sp.name == "min_ratio_cut" and sp.result:
            m["cheeger.kernel_nodes"] += sp.result[1][3]
        if sp.name == "xyz_bound" and parent == "mu_pair_sum":
            m["bounds.mu_pairs"] += 1
        if sp.name == "connected_components" and parent == "is_connected":
            count["graph_core", "connected_components"] -= 1
        if parent == "default_base_provider" and sp.name in ("sample_graph", "named_base"):
            m["construct.base_attempts"] += 1
    m["sampler.trials"] += count["sampler", "sample_partition"]
    m["sampler.trials_per_s"] = _ratio(m["sampler.trials"], m["sampler.self_s"])
    graphs = (count["graph_core", "build_graph"] + count["graph_core", "from_text"]
              + count["graph_core", "relabel_canonical"])
    m["graph_core.graphs_built"] = graphs
    m["graph_core.connectivity_calls"] = (count["graph_core", "is_connected"]
                                          + count["graph_core", "connected_components"])
    m["graph_core.connectivity_calls_per_graph"] = _ratio(
        m["graph_core.connectivity_calls"], graphs)
    m["spectra.lambda_calls"] = count["spectra", "laplacian_spectrum"]
    m["spectra.steklov_calls"] = count["spectra", "steklov_spectrum"]
    m["cheeger.exact_calls"] = count["cheeger", "cheeger_exact"]
    m["cheeger.upper_calls"] = count["cheeger", "cheeger_upper"]
    m["cheeger.kernel_nodes_per_s"] = _ratio(m["cheeger.kernel_nodes"],
                                             m["cheeger.kernel_s"])
    m["cheeger.certified_per_graph"] = _ratio(m["cheeger.exact_calls"], graphs)
    m["bounds.xyz_calls"] = count["bounds", "xyz_bound"]
    m["bounds.xyz_calls_per_pair"] = _ratio(m["bounds.xyz_calls"], m["bounds.mu_pairs"])
    m["bounds.pairs_per_s"] = _ratio(m["bounds.mu_pairs"], m["bounds.self_s"])
    accepted = sum(1 for sp in spans
                   if sp.name == "default_base_provider" and not sp.error)
    m["construct.base_accept_ratio"] = _ratio(accepted, m["construct.base_attempts"])
    return dict(m)
