"""The benchmark's workloads: seeded CLI inputs and the checks on their outputs.

A workload turns a seed into a fixed pool of `spinwedge` argument lists, one
per operation (op), and checks each op's output by a route that shares no
code with the route being timed.  Ops are issued in pool order; a run stops
only on a round boundary, so every run covers the same mix of op kinds.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import re

import numpy as np
import scipy.linalg

# The 22 graphs of the built-in verification corpus, spelled as the CLI takes
# them.  Fixed here so that a change to the corpus does not change the workload.
CORPUS = (
    [f"path:{n}" for n in range(2, 9)]
    + [f"cycle:{n}" for n in range(3, 8)]
    + [f"complete:{n}" for n in range(2, 7)]
    + [f"er:6:0.5:{s}" for s in range(5)]
)

_SUMMARY_RE = re.compile(r"^verification: (\d+) checks, (\d+) passed, 0 failed")


def colex_subsets(n: int, k: int) -> list[tuple[int, ...]]:
    """All k-subsets of range(n) in ascending bitmask order (the CLI's rank order)."""
    return sorted(itertools.combinations(range(n), k), key=lambda s: sum(1 << v for v in s))


class VerifyCorpus:
    """`spinwedge verify --graph <g> --seed <s>` over every corpus graph, pass after pass.

    Each pass visits the graphs in a seeded order with a fresh verify seed.
    Many tiny sectors make this workload bound by Python overhead.
    """

    name = "verify_corpus"

    def __init__(self, seed: int, graphs=CORPUS, passes: int = 16, warmup_graph: str = "path:8"):
        rng = random.Random(seed)
        self.graphs = tuple(graphs)
        self.round_size = len(self.graphs)
        self.warmup_graph = warmup_graph
        self.pool = []
        for _ in range(passes):
            verify_seed = str(rng.randrange(2**31))
            for g in rng.sample(self.graphs, len(self.graphs)):
                self.pool.append(["verify", "--graph", g, "--seed", verify_seed])

    def params(self) -> dict:
        return {"graphs": list(self.graphs), "pool_ops": len(self.pool), "warmup_graph": self.warmup_graph}

    def warmup_argv(self) -> list[str]:
        return ["verify", "--graph", self.warmup_graph, "--seed", "0"]

    def check(self, argv, rc, out: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        lines = out.splitlines()
        body, summary = lines[:-1], lines[-1] if lines else ""
        if not body:
            return "no check lines"
        bad = next((line for line in body if not line.startswith("[PASS]")), None)
        if bad is not None:
            return f"not a PASS line: {bad!r}"
        m = _SUMMARY_RE.match(summary)
        if not m or int(m.group(1)) != len(body) or int(m.group(2)) != len(body):
            return f"summary does not match {len(body)} PASS lines: {summary!r}"
        return None


class SpectrumCap:
    """`spinwedge spectrum -k <k> --model {xy,heis}` on seeded G(n, p) near the dense cap.

    Every graph is run under both models, xy first.  The graphs are written as
    JSON files, so the program receives them only through its argv.  Checks:
    sector dimension C(n, k), and the first two spectral moments against the
    base graph's cut sizes, since tr(A) = 0, tr(A^2) = sum cut(S),
    tr(L) = sum cut(S) and tr(L^2) = sum cut(S)^2 + cut(S).
    """

    name = "spectrum_cap"
    round_size = 2
    models = ("xy", "heis")

    def __init__(self, seed: int, workdir: str, n: int = 14, p: float = 0.3, k: int = 5, graphs: int = 24):
        rng = random.Random(seed)
        self.n, self.p, self.k = n, p, k
        self.dim = math.comb(n, k)
        bits = np.array([[v in s for v in range(n)] for s in colex_subsets(n, k)], dtype=np.int64)
        self.pool = []
        self.expected = {}
        for j in range(graphs):
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            path = os.path.join(workdir, f"g{j}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"n": n, "edges": edges}, fh)
            cut = sum((bits[:, u] ^ bits[:, v] for u, v in edges), np.zeros(self.dim, dtype=np.int64))
            self.expected[path] = {
                "xy": (0.0, float(cut.sum())),
                "heis": (float(cut.sum()), float((cut * cut + cut).sum())),
            }
            for model in self.models:
                self.pool.append(["spectrum", "--graph", path, "-k", str(k), "--model", model])

    def params(self) -> dict:
        return {"n": self.n, "p": self.p, "k": self.k, "dim": self.dim, "pool_ops": len(self.pool)}

    def warmup_argv(self) -> list[str]:
        return self.pool[0]

    def check(self, argv, rc, out: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        payload = json.loads(out)
        blocks = payload["blocks"]
        if len(blocks) != 1 or blocks[0]["k"] != self.k or blocks[0]["dim"] != self.dim:
            return f"expected one block k={self.k} of dimension {self.dim}"
        values = np.array(blocks[0]["spectrum"]["values"])
        if values.shape != (self.dim,):
            return f"{values.size} eigenvalues, expected {self.dim}"
        want1, want2 = self.expected[argv[2]][argv[-1]]
        scale = max(1.0, float(np.abs(values).max()))
        tol = 1e-9 * self.dim * scale
        got1, got2 = math.fsum(values), math.fsum(values * values)
        if abs(got1 - want1) > tol:
            return f"sum of eigenvalues {got1!r}, expected {want1}"
        if abs(got2 - want2) > tol * scale:
            return f"sum of squared eigenvalues {got2!r}, expected {want2}"
        return None


class EvolveChain:
    """`spinwedge evolve --graph path:<n> -k <k> --subset <S0> --times <t...>` in the XY model.

    Each op starts from a seeded subset and evaluates a seeded set of time
    points.  Checks: the probabilities at each time sum to 1 and equal
    |det U1(t)[S, S0]|^2, with U1 = exp(-iAt) the n x n path propagator
    computed here by scipy's matrix exponential.
    """

    name = "evolve_chain"
    round_size = 1

    def __init__(self, seed: int, n: int = 12, k: int = 4, times: int = 16, ops: int = 40):
        rng = random.Random(seed)
        self.n, self.k, self.n_times = n, k, times
        self.subsets = np.array(colex_subsets(n, k))
        self.adjacency = np.eye(n, k=1) + np.eye(n, k=-1)
        self.pool = []
        for _ in range(ops):
            subset = sorted(rng.sample(range(n), k))
            ts = sorted(round(rng.uniform(0.1, 8.0), 6) for _ in range(times))
            self.pool.append([
                "evolve", "--graph", f"path:{n}", "--model", "xy", "-k", str(k),
                "--subset", ",".join(map(str, subset)), "--times", ",".join(map(repr, ts)),
            ])

    def params(self) -> dict:
        return {"n": self.n, "k": self.k, "times": self.n_times, "dim": len(self.subsets), "pool_ops": len(self.pool)}

    def warmup_argv(self) -> list[str]:
        return self.pool[0]

    def check(self, argv, rc, out: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        start = [int(v) for v in argv[argv.index("--subset") + 1].split(",")]
        times = [float(t) for t in argv[argv.index("--times") + 1].split(",")]
        series = json.loads(out)
        if [row["t"] for row in series] != times:
            return "time points differ from the request"
        for row in series:
            probs = np.array(row["probabilities"])
            if probs.shape != (len(self.subsets),):
                return f"{probs.size} probabilities, expected {len(self.subsets)}"
            if abs(math.fsum(probs) - 1.0) > 1e-9:
                return f"probabilities sum to {math.fsum(probs)!r} at t={row['t']}"
            u1 = scipy.linalg.expm(-1j * row["t"] * self.adjacency)
            minors = u1[self.subsets[:, :, None], np.array(start)[None, None, :]]
            want = np.abs(np.linalg.det(minors)) ** 2
            err = float(np.max(np.abs(probs - want)))
            if err > 1e-9:
                return f"probabilities differ from |det U1[S, S0]|^2 by {err:.3e} at t={row['t']}"
        return None


def make(name: str, seed: int, workdir: str):
    """The named workload with its benchmark sizes."""
    if name == VerifyCorpus.name:
        return VerifyCorpus(seed)
    if name == SpectrumCap.name:
        return SpectrumCap(seed, workdir)
    if name == EvolveChain.name:
        return EvolveChain(seed)
    raise ValueError(f"unknown workload {name!r}")
