"""In-memory span recorder for the traced run, and the layer functions it wraps.

Each span is (name, start, end, parent, op): `parent` is the index of the
enclosing span in the list, or None, and `op` the op id.  Functions are
wrapped where they are bound, in every `spinwedge` module that holds them,
so no source file is edited.  Spans are recorded only while an op is open.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import json
import sys
import time
from collections import defaultdict

VERIFY_CHECKS = (
    "check_structure",
    "check_sector_spectra",
    "check_block_matvec",
    "check_signed_oracle",
    "check_lift",
    "check_heis_psd_kernel",
    "check_field_shift",
    "check_complement_isomorphism",
    "check_dynamics",
    "check_path_closed_form",
    "check_johnson_family",
    "check_named_isomorphisms",
)

# layer -> (module that defines the functions, wrapped function names)
LAYERS = {
    "cli": ("spinwedge.cli", ("main",)),
    "verify": ("spinwedge.verify", VERIFY_CHECKS),
    "wedge": (
        "spinwedge.wedge",
        ("build_wedge_graph", "signed_matrix", "wedge_adjacency", "wedge_laplacian", "alt_delta_oracle"),
    ),
    "spins": (
        "spinwedge.spins",
        ("block_hamiltonian", "block_matvec", "full_hamiltonian", "project_full_to_blocks", "SpinBasisMap"),
    ),
    "spectra": ("spinwedge.spectra", ("eigh", "lift_eigenvector", "lift_spectrum", "compare_spectra")),
    "dynamics": ("spinwedge.dynamics", ("propagate", "evolve_block")),
    "graphs": ("spinwedge.graphs", ("find_isomorphism", "connected_components")),
    "linalg": ("numpy.linalg", ("eigh", "eigvalsh", "det")),
}

def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run emits, with its unit."""
    units = {}
    for layer, (_, names) in LAYERS.items():
        for fname in names:
            units[f"{layer}.{fname}.calls"] = "1/op"
            units[f"{layer}.{fname}.self_s"] = "s/op"
            if layer == "verify":
                units[f"{layer}.{fname}.total_s"] = "s/op"
    units.update({
        "verify.checks": "1/op",
        "wedge.hops": "1/op",
        "wedge.build_unique_ratio": "ratio",
        "linalg.eig_n3": "1/op",
        "trace.overhead_ops_per_s": "1/s",
    })
    return units


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]


class SpanRecorder:
    """Records spans and per-op counts around the wrapped layer functions."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.ops = 0
        self._stack: list[int] = []
        self._op = None
        self._builds: set = set()
        self._patches: list = []

    @contextlib.contextmanager
    def op(self, op_id):
        """Record spans for the calls made inside this block as op `op_id`."""
        self._op, self._builds = op_id, set()
        try:
            yield
        finally:
            self._op = None
            self.ops += 1
            self.counts["wedge.unique_builds"] += len(self._builds)

    def wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(index)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self._op)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced

    # Counters taken at the layer boundaries.

    def _count_checks(self, args, kwargs, result):
        self.counts["verify.checks"] += 0 if result is None else len(result) if isinstance(result, list) else 1

    def _count_build(self, args, kwargs, result):
        g = args[0] if args else kwargs["g"]
        k = args[1] if len(args) > 1 else kwargs["k"]
        self._builds.add((g, k))
        self.counts["wedge.builds"] += 1
        self.counts["wedge.hops"] += len(result.signed_edges)

    def _count_eig(self, args, kwargs, result):
        m = args[0] if args else kwargs["a"]
        self.counts["linalg.eig_n3"] += float(len(m)) ** 3

    def _hook(self, layer: str, fname: str):
        if layer == "verify":
            return self._count_checks
        if (layer, fname) == ("wedge", "build_wedge_graph"):
            return self._count_build
        if (layer, fname) in (("linalg", "eigh"), ("linalg", "eigvalsh")):
            return self._count_eig
        return None

    def install(self) -> None:
        """Wrap every layer function wherever a spinwedge module binds it.

        A function the program no longer defines is skipped and reports zeros.
        """
        holders = [m for key, m in list(sys.modules.items()) if key == "spinwedge" or key.startswith("spinwedge.")]
        for layer, (module_name, names) in LAYERS.items():
            home = importlib.import_module(module_name)
            for fname in names:
                original = getattr(home, fname, None)
                if original is None:
                    continue
                name = f"{layer}.{fname}"
                if isinstance(original, type):
                    init = original.__init__
                    self._patches.append((original, "__init__", init))
                    setattr(original, "__init__", self.wrap(name, init))
                    continue
                wrapped = self.wrap(name, original, self._hook(layer, fname))
                for module in {home, *holders}:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, value))
                            setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    def metrics(self) -> dict[str, float]:
        """Per-layer numbers, each divided by the number of traced ops."""
        calls: defaultdict[str, int] = defaultdict(int)
        own: defaultdict[str, float] = defaultdict(float)
        total: defaultdict[str, float] = defaultdict(float)
        for (name, start, end, _, _), self_s in zip(self.spans, self_times(self.spans)):
            calls[name] += 1
            own[name] += self_s
            total[name] += end - start
        ops = max(self.ops, 1)
        out = {}
        for key in metric_units():
            layer_fn, _, stat = key.rpartition(".")
            if stat == "calls":
                out[key] = calls[layer_fn] / ops
            elif stat == "self_s":
                out[key] = own[layer_fn] / ops
            elif stat == "total_s":
                out[key] = total[layer_fn] / ops
        for key in ("verify.checks", "wedge.hops", "linalg.eig_n3"):
            out[key] = self.counts[key] / ops
        builds = self.counts["wedge.builds"]
        out["wedge.build_unique_ratio"] = self.counts["wedge.unique_builds"] / builds if builds else 1.0
        return out

    def write(self, path: str) -> None:
        """Write the spans as gzipped JSON lines: [name, start, end, parent, op]."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
