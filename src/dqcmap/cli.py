"""Command line interface.

Subcommands: map (compile one circuit), ablate (stage-isolation comparison),
sweep-ratio (cost-ratio sweep), gen-bench (emit a benchmark as OpenQASM),
gen-topology (emit a cluster config). The first three share one path: the
same circuit, topology and parameter flags, read and checked in one place.
Exit codes: 0 success, 2 invalid input (an --out that cannot be written
included), 3 infeasible instance, 4 internal error.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
import traceback

from .anneal import AnnealParams
from .bench import gen_adder, gen_qaoa, gen_qft
from .circuit import Circuit, parse_qasm, serialize_qasm
from .cost import CostParams
from .errors import InfeasibleError, InputError
from .hardware import (
    ClusterTopology,
    TOPOLOGY_KINDS,
    gen_topology,
    load_cluster,
    serialize_cluster,
)
from .harness import (SCHEMA_VERSION, render_json, render_sweep_csv, run_ablate, run_map,
                      run_sweep_ratio)
from .placement import check_fits
from .segmentation import SegmentationParams

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_INTERNAL = 4

SEED_ENV = "DQCMAP_SEED"
BENCHES = ("qft", "qaoa", "adder")
RUNNERS = {"map": run_map, "ablate": run_ablate, "sweep-ratio": run_sweep_ratio}


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"{SEED_ENV} must be an integer, got '{raw}'") from None


def _parse_sizes(raw: str | None) -> list[int]:
    if not raw:
        raise InputError("--gen requires --sizes")
    try:
        return [int(s) for s in raw.split(",")]
    except ValueError:
        raise InputError(f"--sizes must be comma-separated integers, got '{raw}'") from None


def _parse_ratios(raw: str) -> list[float]:
    out = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            raise InputError(f"--ratios has a blank item: '{raw}'")
        num, colon, den = part.partition(":")
        try:
            val = float(num) / float(den) if colon else float(num)
        except (ValueError, ZeroDivisionError):
            raise InputError(f"bad ratio '{part}'") from None
        if not (math.isfinite(val) and val > 0):
            raise InputError(f"ratio must be finite and positive, got '{part}'")
        out.append(val)
    return out


def _load_circuit(args: argparse.Namespace, seed: int,
                  cluster: ClusterTopology | None = None) -> Circuit:
    """The --circuit file, or the --bench circuit of --size qubits. A
    circuit too wide for `cluster` is refused before it is built: a file at
    its qreg line, a benchmark before it is generated, as building it costs
    time and memory that grow with the register size."""
    # gen-bench has no --circuit flag but shares this loader
    if getattr(args, "circuit", None):
        try:
            with open(args.circuit, "r", encoding="utf-8") as f:
                text = f.read()
        except OSError as exc:
            raise InputError(f"cannot read circuit file: {exc}") from exc
        name = os.path.splitext(os.path.basename(args.circuit))[0]
        return parse_qasm(text, name=name,
                          max_qubits=cluster.total_capacity if cluster is not None else None)
    if args.size is None:
        raise InputError("--bench requires --size")
    if cluster is not None:
        check_fits(args.size, cluster)
    try:
        if args.bench == "qft":
            return gen_qft(args.size)
        if args.bench == "qaoa":
            return gen_qaoa(args.size, args.qaoa_layers, seed)
        return gen_adder(args.size)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _load_topology(args: argparse.Namespace, seed: int) -> ClusterTopology:
    # gen-topology has no --topology flag but shares this loader
    if getattr(args, "topology", None):
        try:
            with open(args.topology, "r", encoding="utf-8") as f:
                text = f.read()
        except OSError as exc:
            raise InputError(f"cannot read topology file: {exc}") from exc
        return load_cluster(text)
    try:
        return gen_topology(args.gen, _parse_sizes(args.sizes), seed)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _run_settings(args: argparse.Namespace, circuit: Circuit) -> dict:
    """The runner's keyword settings from the parameter flags, checked in
    this order: segmentation, top-k against the circuit, annealing,
    --lambda, sweep-ratio's --ratios, costs. A record that refuses its
    values is an input error. The gammas are taken at --ratio for map and
    ablate; sweep-ratio applies each of its --ratios itself."""
    settings = {"seg_params": None, "anneal_params": None, "decay": args.decay}
    try:
        seg = (args.window, args.top_k, args.theta)
        if seg != (None, None, None):
            if None in seg:
                raise InputError("--window, --top-k and --theta must be given together")
            settings["seg_params"] = SegmentationParams(window=args.window, top_k=args.top_k,
                                                        threshold=args.theta)
            if args.top_k > circuit.n_qubits:
                raise InputError(f"--top-k {args.top_k} exceeds the circuit's "
                                 f"{circuit.n_qubits} qubits")
        if (args.iters, args.t0, args.cooling_rate) != (None, None, None):
            settings["anneal_params"] = AnnealParams(t0=args.t0, cooling_rate=args.cooling_rate,
                                                     iters_per_segment=args.iters)
        if args.decay is not None and not (math.isfinite(args.decay) and args.decay >= 0):
            raise InputError(f"--lambda must be finite and >= 0, got {args.decay}")
        sweep = args.command == "sweep-ratio"
        if sweep:
            settings["ratios"] = _parse_ratios(args.ratios)
        cp = CostParams(gamma1=args.gamma1, gamma2=args.gamma2, gamma3=args.gamma3)
        settings["cost_params"] = cp if sweep else cp.with_ratio(args.ratio)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    return settings


def _require_finite(report) -> None:
    """Refuse a report whose numbers overflowed: finite but huge cost
    parameters can push a run's totals to inf, and its ratios to nan."""
    stack = [report]
    while stack:
        x = stack.pop()
        if isinstance(x, dict):
            stack.extend(x.values())
        elif isinstance(x, list):
            stack.extend(x)
        elif isinstance(x, float) and not math.isfinite(x):
            raise InputError("a run's totals are not finite; lower the cost parameters "
                             "(--ratio or --ratios, --gamma1, --gamma2, --gamma3)")


def _emit(text: str, out: str | None) -> None:
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as f:
            f.write(text)
    except OSError as exc:
        raise InputError(f"cannot write report: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dqcmap",
        description="Map logical qubits onto a cluster of interconnected QPUs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for command, summary in (("map", "compile one circuit to a mapping plan"),
                             ("ablate", "compare pipeline stages on one circuit"),
                             ("sweep-ratio", "sweep the inter:intra cost ratio")):
        sweep = command == "sweep-ratio"
        # no abbreviations in sweep-ratio, so that --ratio is refused, not read as --ratios
        p = sub.add_parser(command, help=summary, allow_abbrev=not sweep)
        circuit = p.add_mutually_exclusive_group(required=True)
        circuit.add_argument("--circuit", metavar="FILE", help="OpenQASM 2.0 file to map")
        circuit.add_argument("--bench", choices=BENCHES,
                             help="generate a benchmark instead of reading a file")
        p.add_argument("--size", type=int, help="qubit count for --bench")
        p.add_argument("--qaoa-layers", type=int, default=1,
                       help="ansatz depth for --bench qaoa (default 1)")
        topology = p.add_mutually_exclusive_group(required=True)
        topology.add_argument("--topology", metavar="FILE", help="cluster config JSON")
        topology.add_argument("--gen", choices=TOPOLOGY_KINDS,
                              help="generate the interconnect instead of reading a file")
        p.add_argument("--sizes", metavar="A,B,...",
                       help="per-QPU capacities for --gen, comma separated")
        p.add_argument("--seed", type=int, default=None,
                       help=f"top-level seed (default ${SEED_ENV} or 0)")
        p.add_argument("--window", type=int, help="segmentation density window")
        p.add_argument("--top-k", type=int, help="active-set size per layer")
        p.add_argument("--theta", type=float, help="segment boundary threshold")
        p.add_argument("--lambda", dest="decay", type=float,
                       help="interaction graph decay rate (default 3/segments)")
        p.add_argument("--gamma1", type=float, default=1.0)
        p.add_argument("--gamma2", type=float, default=1.0)
        p.add_argument("--gamma3", type=float, default=1.0)
        p.add_argument("--iters", type=int, help="annealing iterations per segment")
        p.add_argument("--t0", type=float, help="initial temperature (default: calibrated)")
        p.add_argument("--cooling-rate", type=float, help="cooling rate (default 10/iters)")
        p.add_argument("--out", metavar="FILE", help="write the report here (default stdout)")
        if sweep:
            p.add_argument("--ratios", default="5,4,3,2,1",
                           help="comma list, each a number or N:1 form (default 5,4,3,2,1)")
            p.add_argument("--format", choices=("csv", "json"), default="csv",
                           help="report format (default csv)")
        else:
            p.add_argument("--ratio", type=float, default=5.0,
                           help="inter:intra cost ratio (default 5)")

    p_bench = sub.add_parser("gen-bench", help="emit a benchmark circuit as OpenQASM")
    p_bench.add_argument("--bench", choices=BENCHES, required=True)
    p_bench.add_argument("--size", type=int, required=True)
    p_bench.add_argument("--qaoa-layers", type=int, default=1)
    p_bench.add_argument("--seed", type=int, default=None)
    p_bench.add_argument("--out", metavar="FILE")

    p_topo = sub.add_parser("gen-topology", help="emit a cluster config JSON")
    p_topo.add_argument("--gen", choices=TOPOLOGY_KINDS, required=True)
    p_topo.add_argument("--sizes", metavar="A,B,...", required=True)
    p_topo.add_argument("--seed", type=int, default=None)
    p_topo.add_argument("--out", metavar="FILE")

    return parser


def _dispatch(args: argparse.Namespace) -> int:
    seed = args.seed if args.seed is not None else _default_seed()

    if args.command == "gen-bench":
        _emit(serialize_qasm(_load_circuit(args, seed)), args.out)
        return EXIT_OK

    cluster = _load_topology(args, seed)
    if args.command == "gen-topology":
        _emit(serialize_cluster(cluster), args.out)
        return EXIT_OK

    circuit = _load_circuit(args, seed, cluster)
    report = RUNNERS[args.command](circuit, cluster, seed=seed,
                                   **_run_settings(args, circuit))
    _require_finite(report)
    if args.command != "sweep-ratio":
        text = render_json(report)
    elif args.format == "csv":
        text = render_sweep_csv(report)
    else:
        text = render_json({"schema_version": SCHEMA_VERSION, "rows": report})
    _emit(text, args.out)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
