"""Command-line surface: wedge powers, spectra, closed forms, verify, evolve, export.

Exit codes: 0 success, 1 verification mismatch, 2 usage or input error.
Graphs are given inline ("path:6", "cycle:5", "complete:4", "er:6:0.5:0") or
as a JSON file path.  JSON output is compact, one line.  Output to a regular
file is written atomically.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
import tempfile

import numpy as np

from .dynamics import Sides, evolve_subset
from .graphs import (
    Graph,
    check_graph_size,
    complete_graph,
    cycle_graph,
    erdos_renyi_graph,
    export_dot,
    graph_from_json,
    graph_to_json,
    path_graph,
)
from .spectra import DEFAULT_TOL, complete_sector_spectrum, spectrum_dict, spectrum_gap, xy_path_spectrum
from .spins import ModelSpec
from .verify import run_verification
from .wedge import (
    build_wedge_graph,
    sector_dimension,
    subset_name,
    subset_table,
    wedge_to_dot,
    wedge_to_json,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2

_FAMILY_RE = re.compile(r"^(path|cycle|complete):(\d+)$")
_ER_RE = re.compile(r"^er:(\d+):([0-9.eE+-]+):(\d+)$")


def parse_graph_source(text: str) -> Graph:
    """Inline family spec or a JSON file path.  What a family constructor
    examines, vertices or vertex pairs, passes the graph size guard first."""
    m = _FAMILY_RE.match(text)
    if m:
        family, n = m.group(1), int(m.group(2))
        pairs = family == "complete"
        check_graph_size(text, math.comb(n, 2) if pairs else n, "vertex pairs" if pairs else "vertices")
        return {"path": path_graph, "cycle": cycle_graph, "complete": complete_graph}[family](n)
    m = _ER_RE.match(text)
    if m:
        n = int(m.group(1))
        check_graph_size(text, math.comb(n, 2), "vertex pairs")
        return erdos_renyi_graph(n, float(m.group(2)), int(m.group(3)))
    with open(text, "r", encoding="utf-8") as fh:
        return graph_from_json(fh.read())


def _parse_k(text: str, n: int, allow_all: bool) -> range:
    if text == "all":
        if not allow_all:
            raise ValueError('k="all" is only valid for spectrum and closed-form')
        return range(n + 1)
    try:
        k = int(text)
    except ValueError:
        raise ValueError(f"k must be an integer or 'all', got {text!r}") from None
    if not 0 <= k <= n:
        raise ValueError(f"k={k} out of range for a graph on {n} vertices")
    return range(k, k + 1)


def _emit(text: str, output: str | None) -> None:
    text = text if text.endswith("\n") else text + "\n"
    if output is None or output == "-":
        sys.stdout.write(text)
        return
    if os.path.exists(output) and not os.path.isfile(output):  # a FIFO or a device: written in place
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
        return
    directory = os.path.dirname(os.path.abspath(output))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".spinwedge-")
    except OSError as exc:  # it names the temporary file, not the one asked for
        raise OSError(exc.errno, exc.strerror, output) from None
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, output)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _model_spec(args) -> ModelSpec:
    return ModelSpec(args.model, getattr(args, "field", 0.0))


def cmd_wedge(args) -> int:
    g = parse_graph_source(args.graph)
    (k,) = _parse_k(args.k, g.n, allow_all=False)
    w = build_wedge_graph(g, k)
    text = wedge_to_dot(w) if args.format == "dot" else wedge_to_json(w)
    _emit(text, args.output)
    return EXIT_OK


def _spectrum_payload(g: Graph, label: str, spec: ModelSpec, ks: range, want_union: bool):
    """Sector spectra by :meth:`Side.values`, each side computed once for
    sectors k and n-k, after every sector passes the capacity guard."""
    for k in ks:
        sector_dimension(g.n, k)
    sides = Sides(g, spec)
    blocks = []
    union_vals: list[float] = []
    for k in ks:
        side = sides(k)
        vals = side.values(k)
        union_vals.extend(vals)
        blocks.append({"k": k, "dim": len(vals), "route": side.route, "spectrum": spectrum_dict(vals)})
    payload = {
        "graph": label,
        "n": g.n,
        "model": spec.model,
        "field": spec.sector_shift(1, 0),  # B: one spin, none flipped
        "tol": DEFAULT_TOL,
        "blocks": blocks,
        "ground_energy": min(union_vals),
    }
    if want_union:
        payload["union"] = spectrum_dict(union_vals)
    return payload


def _spectrum_csv(payload) -> str:
    lines = ["k,index,value"]
    for block in payload["blocks"]:
        for i, v in enumerate(block["spectrum"]["values"]):
            lines.append(f"{block['k']},{i},{v!r}")
    return "\n".join(lines)


def cmd_spectrum(args) -> int:
    g = parse_graph_source(args.graph)
    ks = _parse_k(args.k, g.n, allow_all=True)
    payload = _spectrum_payload(g, args.graph, _model_spec(args), ks, args.k == "all")
    text = _spectrum_csv(payload) if args.format == "csv" else json.dumps(payload)
    _emit(text, args.output)
    return EXIT_OK


def cmd_closed_form(args) -> int:
    """The closed forms of the requested sectors.  --check compares each with
    the route that ``spectrum`` takes, :meth:`Side.values` of one
    :class:`Sides`, and exits 1 when a gap is above ``DEFAULT_TOL``."""
    n = args.n
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if args.family == "path" and args.model != "xy":
        raise ValueError("closed forms on the path cover the xy model only")
    if args.family == "path":
        check_graph_size(f"path:{n}", n, "vertices")  # the formula lists n single-particle values
    ks = _parse_k(args.k, n, allow_all=True)
    for k in ks:
        sector_dimension(n, k)
    sides = Sides(parse_graph_source(f"{args.family}:{n}"), _model_spec(args)) if args.check else None
    blocks = []
    union_vals: list[float] = []
    for k in ks:
        vals = xy_path_spectrum(n, k) if args.family == "path" else complete_sector_spectrum(n, k, args.model)
        union_vals.extend(vals)
        blocks.append({"k": k, "dim": len(vals), "spectrum": spectrum_dict(vals)})
    payload = {
        "family": args.family,
        "n": n,
        "model": args.model,
        "blocks": blocks,
        "union": spectrum_dict(union_vals),
        "ground_energy": min(union_vals),
    }
    equal = True
    if sides is not None:
        gaps = [spectrum_gap(sides(k).values(k), block["spectrum"]["values"]) for k, block in zip(ks, blocks)]
        equal = all(gap <= DEFAULT_TOL for gap in gaps)
        payload["cross_check"] = {"ran": True, "equal": equal, "max_gap": max(gaps)}
    _emit(json.dumps(payload), args.output)
    return EXIT_OK if equal else EXIT_VERIFY_FAIL


def cmd_verify(args) -> int:
    corpus = None
    if args.graph is not None:
        corpus = [(args.graph, parse_graph_source(args.graph))]
    report = run_verification(seed=args.seed, random_states=args.random_states, corpus=corpus)
    _emit("\n".join(report.lines()), args.output)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


def _parse_times(text: str) -> list[float]:
    try:
        times = [float(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise ValueError(f"bad time list {text!r}") from None
    if not times or any(not math.isfinite(t) for t in times):
        raise ValueError(f"bad time list {text!r}")
    return times


def _parse_subset(text: str) -> tuple[int, ...]:
    try:
        return tuple(sorted(int(part) for part in text.split(",") if part != ""))
    except ValueError:
        raise ValueError(f"bad subset list {text!r}") from None


def cmd_evolve(args) -> int:
    g = parse_graph_source(args.graph)
    (k,) = _parse_k(args.k, g.n, allow_all=False)
    spec = _model_spec(args)
    times = _parse_times(args.times)

    if args.from_vertex is not None and args.subset is not None:
        raise ValueError("give either --from or --subset, not both")
    if args.from_vertex is not None:
        if k != 1:
            raise ValueError("--from selects a single vertex and needs -k 1")
        subset = (args.from_vertex,)
    elif args.subset is not None:
        subset = _parse_subset(args.subset)
    else:
        raise ValueError("an initial state is required: --from VERTEX or --subset V0,V1,...")
    if len(subset) != k:
        raise ValueError(f"initial subset {subset} must have exactly k={k} vertices")
    if args.to is not None:
        if k != 1:
            raise ValueError("--to tracks a single vertex and needs -k 1")
        if not 0 <= args.to < g.n:
            raise ValueError(f"--to vertex {args.to} out of range for n={g.n}")

    amplitudes, route = evolve_subset(g, spec, subset, times)
    if args.to is not None:
        amplitudes = amplitudes[:, [args.to]]
    probabilities = (np.abs(amplitudes) ** 2).tolist()
    series = [{"t": t, "probabilities": p, "route": route} for t, p in zip(times, probabilities)]

    if args.format == "csv":
        if args.to is None:
            labels = [subset_name(row) for row in subset_table(g.n, k).tolist()]
        else:
            labels = [subset_name((args.to,))]
        lines = ["t," + ",".join(f"p_{label}" for label in labels)]
        for row in series:
            lines.append(",".join([repr(row["t"])] + [repr(p) for p in row["probabilities"]]))
        _emit("\n".join(lines), args.output)
    else:
        _emit(json.dumps(series), args.output)
    return EXIT_OK


def cmd_export(args) -> int:
    g = parse_graph_source(args.graph)
    _emit(export_dot(g) if args.format == "dot" else graph_to_json(g), args.output)
    return EXIT_OK


def _at_least(low: int, text: str) -> int:
    """argparse type, with ``low`` bound by functools.partial: an integer >= low."""
    try:
        value = int(text)
    except ValueError:
        value = low - 1
    if value < low:
        raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
    return value


def _add_common(p):
    p.add_argument("--graph", required=True, help="family spec like path:6 or a JSON file path")
    p.add_argument("--output", "-o", default=None, help="output file (default stdout)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing reads it and
    never changes it."""
    parser = argparse.ArgumentParser(
        prog="spinwedge",
        description="Wedge powers of graphs and the sector spectra/dynamics of XY and Heisenberg spin models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("wedge", help="build a wedge power with signed edges")
    _add_common(p)
    p.add_argument("-k", required=True, help="excitation count")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.set_defaults(func=cmd_wedge)

    p = sub.add_parser("spectrum", help="sector spectra of a spin model on a graph")
    _add_common(p)
    p.add_argument("-k", default="all", help="sector (integer) or 'all'")
    p.add_argument("--model", choices=("xy", "heis", "heisenberg"), default="xy")
    p.add_argument("--field", type=float, default=0.0, help="uniform z-field coefficient")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("closed-form", help="closed-form spectra without diagonalization")
    p.add_argument("family", choices=("path", "complete"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("-k", default="all", help="sector (integer) or 'all'")
    p.add_argument("--model", choices=("xy", "heis", "heisenberg"), default="xy")
    p.add_argument("--check", action="store_true", help="cross-check against the route `spectrum` takes")
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_closed_form)

    p = sub.add_parser("verify", help="run the verification corpus")
    p.add_argument("--graph", default=None, help="verify one graph instead of the built-in corpus")
    p.add_argument("--seed", type=functools.partial(_at_least, 0), default=0, help="seed for the random-state checks")
    # At least one random state, as none would check nothing.
    states = functools.partial(_at_least, 1)
    p.add_argument("--random-states", type=states, default=20, help="random states per graph and sector")
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("evolve", help="evolve a basis state and report probabilities")
    _add_common(p)
    p.add_argument("-k", required=True, help="excitation count")
    p.add_argument("--model", choices=("xy", "heis", "heisenberg"), default="xy")
    p.add_argument("--field", type=float, default=0.0)
    p.add_argument("--from", dest="from_vertex", type=int, default=None, help="initial vertex (k=1)")
    p.add_argument("--subset", default=None, help="initial occupied subset, e.g. 0,1")
    p.add_argument("--to", type=int, default=None, help="track only this vertex (k=1)")
    p.add_argument("--times", required=True, help="comma-separated evolution times")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("export", help="write a graph as JSON or DOT")
    _add_common(p)
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return 0 if code in (0, None) else int(code)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run_main()
