"""Per-segment simulated annealing and the end-to-end compile pipeline.

Each segment's assignment is refined by simulated annealing over two move
kinds, single-qubit relocation and cross-QPU swap, under the hyperbolic
cooling schedule T_k = T0 / (1 + rate * k). Downhill moves are always
accepted, uphill moves with probability exp(-dE / T_k). Segments are chained:
segment s starts from segment s-1's final assignment and pays movement cost
against it. The best assignment seen is returned, so the result is never
worse than the initial one.

The chain keeps the assignment as qpu_of, one qubit bitmask and one load per
QPU, so a move's layout-cache keys are the current masks with the moved bits
flipped. Beside them it keeps, per QPU, what only an accepted move changes
(Fiduccia-Mattheyses-style bookkeeping): the ascending qubits not on it and
the ascending other QPUs with slack, which the move generator _draws reads
instead of the masks, and the (cost, W, P) of its current set, which
SegmentCostEvaluator.delta reads instead of looking the set up. Moves come
from _draws as the transfers delta reads, and the samples that calibrate t0
come from the same generator on their own rng. An accepted move is applied
in place to all of these lists. A move whose lower bound on dE (see
SegmentCostEvaluator.delta) is positive is surely uphill, so it takes its
draw before the exact dE; when that draw rejects the bound, the move is
rejected without building the layouts of its new QPU sets. The random
stream, every accept decision and the exact dE of every other move are those
of evaluating every move exactly. A temperature that underflows to 0.0
rejects every uphill move after its draw, the limit of exp(-dE / T). compile
builds one SegmentCostEvaluator per segment and reads the step's costs from
the same cache the annealing chain filled. A plan step holds the segment,
its qubit->QPU assignment and its costs; the intra-QPU layouts that price
the local term stay inside the evaluator.
"""
from __future__ import annotations

import math
import random
from bisect import bisect_left, insort
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, replace
from itertools import islice

from .circuit import Circuit, LayeredCircuit, layerize
from .cost import CostBreakdown, CostParams, SegmentCostEvaluator, qpu_masks
from .hardware import ClusterTopology, QuantumSwitch
from .placement import (
    Assignment,
    _left_sum,
    build_graph,
    check_fits,
    cluster_graph,
    default_decay,
    random_placement,
)
from .seeding import split_seed
from .segmentation import Segment, SegmentationParams, random_segment, segment


@dataclass(frozen=True)
class AnnealParams:
    """Knobs for one annealing chain. None means derive the default:
    t0 by sampling the initial move neighborhood, iters as 500 per qubit,
    cooling_rate as 10 / iters. The chain's seed is not a knob: compile
    derives one per segment from its run seed (see anneal_segment)."""

    t0: float | None = None
    cooling_rate: float | None = None
    iters_per_segment: int | None = None

    def __post_init__(self):
        for fieldname in ("t0", "cooling_rate"):
            value = getattr(self, fieldname)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ValueError(f"{fieldname} must be finite and positive")
        if self.iters_per_segment is not None and self.iters_per_segment < 1:
            raise ValueError("iters_per_segment must be >= 1")


def _dests(loads: list[int], caps: tuple[int, ...]) -> list[list[int]]:
    """dests[p], the QPUs other than p with slack, in ascending order, for
    each QPU p (index 0 unused)."""
    slack = [p for p in range(1, len(caps)) if loads[p] < caps[p]]
    return [[]] + [[d for d in slack if d != p] for p in range(1, len(caps))]


def _draws(rng: random.Random, qpu_of: list[int], outside: list[list[int]],
           dests: list[list[int]]) -> Iterator[tuple[tuple[int, int, int], ...]]:
    """Capacity-feasible moves of the assignment held in the caller's lists,
    read afresh at each draw, as transfers: ((q, from, to),) for a
    relocation, ((qa, pa, pb), (qb, pb, pa)) for a swap.

    outside[p] lists the qubits not on QPU p and dests[p] the other QPUs
    with slack, both in ascending order (index 0 unused); the caller keeps
    them current as it applies moves. Each kind is drawn with probability
    1/2. A relocation picks a uniform qubit and a uniform destination from
    its QPU's dests; when there is none it falls back to a swap. A swap
    picks a uniform qubit and a uniform partner from its QPU's outside list.
    Stops when a swap finds no qubit on another QPU, or at once when there
    are fewer than 2 QPUs or no qubits.
    """
    n = len(qpu_of)
    if len(outside) < 3 or n < 1:
        return
    # rng.randrange(m) for an int m > 0 is CPython's _randbelow_with_getrandbits:
    # getrandbits(m.bit_length()), drawn again while >= m. It is inlined here
    # with the same calls, so the stream is randrange's.
    random_, getrandbits = rng.random, rng.getrandbits
    kn = n.bit_length()
    while True:
        if random_() < 0.5:
            q = getrandbits(kn)
            while q >= n:
                q = getrandbits(kn)
            p = qpu_of[q]
            to = dests[p]
            if to:
                m = len(to)
                k = m.bit_length()
                r = getrandbits(k)
                while r >= m:
                    r = getrandbits(k)
                yield ((q, p, to[r]),)
                continue
        qa = getrandbits(kn)
        while qa >= n:
            qa = getrandbits(kn)
        pa = qpu_of[qa]
        others = outside[pa]
        m = len(others)
        if not m:
            return
        k = m.bit_length()
        r = getrandbits(k)
        while r >= m:
            r = getrandbits(k)
        qb = others[r]
        pb = qpu_of[qb]
        yield ((qa, pa, pb), (qb, pb, pa))


def calibrate_t0(ev: SegmentCostEvaluator, qpu_of: list[int], masks: list[int],
                 local: list, draws: Iterable[tuple[tuple[int, int, int], ...]]) -> float:
    """Mean |dE| over the first 100 moves of draws, none applied, from
    the assignment in qpu_of, masks and local (see SegmentCostEvaluator.delta);
    1.0 if the neighborhood is empty or flat."""
    magnitudes = [abs(ev.delta(qpu_of, masks, local, moved)) for moved in islice(draws, 100)]
    mean = _left_sum(magnitudes) / len(magnitudes) if magnitudes else 0.0
    return mean if mean > 0 else 1.0


@dataclass
class TraceEntry:
    """One annealing step, recorded when tracing is requested.

    delta_e is the exact dE, except for a move rejected on its lower bound
    (see SegmentCostEvaluator.delta): there it is the bound used, which is
    positive, at most dE, and fails the draw, so
    accepted == (draw < exp(-delta_e / temperature)) holds for every uphill
    entry."""

    k: int
    temperature: float
    delta_e: float
    draw: float | None
    accepted: bool


def anneal_segment(
    init: Assignment,
    ev: SegmentCostEvaluator,
    ap: AnnealParams,
    seed: int = 0,
    trace: list[TraceEntry] | None = None,
) -> tuple[Assignment, CostBreakdown]:
    """Refine one segment's assignment; returns the best assignment seen and
    its exact cost breakdown. ev carries the segment, the previous segment's
    assignment, the cluster and the cost parameters; its layout cache is left
    filled for the caller. seed governs the chain's moves and draws and the
    t0 calibration's samples. A single-QPU cluster or an assignment of no
    qubits is a no-op."""
    qpu_of = list(init.qpu_of)
    masks = qpu_masks(qpu_of, ev.cluster.n_qpus)
    loads = [mask.bit_count() for mask in masks]
    caps = ev.cluster.caps
    # The chain's per-QPU state beside the masks and loads, kept current in
    # the accept block below (index 0 unused): the qubits not on each QPU and
    # its relocation destinations, which _draws reads, and the (cost, W, P)
    # of its current set, which delta reads.
    outside = [[]] + [[q for q, p in enumerate(qpu_of) if p != pid]
                      for pid in range(1, len(masks))]
    dests = _dests(loads, caps)
    local = ev.local_costs(masks)
    cur_cost = ev.breakdown(init).e_total
    best = list(qpu_of)
    best_cost = cur_cost

    iters = ap.iters_per_segment
    if iters is None:
        iters = 500 * len(qpu_of)
    rate = ap.cooling_rate
    if rate is None:
        rate = 10.0 / max(iters, 1)  # no qubits: iters is 0, and nothing is drawn
    rng = random.Random(split_seed(seed, "chain"))
    t0 = ap.t0
    if t0 is None:
        t0_rng = random.Random(split_seed(seed, "t0"))
        t0 = calibrate_t0(ev, qpu_of, masks, local, _draws(t0_rng, qpu_of, outside, dests))

    draw = None
    random_, exp = rng.random, math.exp

    def surely_rejected(lb: float) -> bool:
        # A positive lower bound makes the move uphill, so its draw is taken
        # now, as it would be after the exact dE; a draw that rejects the
        # bound rejects the exact dE too.
        nonlocal draw
        if lb <= 0:
            return False
        draw = random_()
        return temperature <= 0 or draw >= exp(-lb / temperature)

    delta = ev.delta
    # range comes first in zip, so no move is drawn past the last iteration.
    for k, moved in zip(range(iters), _draws(rng, qpu_of, outside, dests)):
        temperature = t0 / (1.0 + rate * k)
        draw = None
        de = delta(qpu_of, masks, local, moved, surely_rejected)
        if draw is None and de > 0:
            draw = random_()
        accepted = draw is None or (temperature > 0 and draw < exp(-de / temperature))
        if trace is not None:
            trace.append(TraceEntry(k=k, temperature=temperature, delta_e=de,
                                    draw=draw, accepted=accepted))
        if accepted:
            for q, frm, to in moved:
                masks[frm] ^= 1 << q
                masks[to] ^= 1 << q
                loads[frm] -= 1
                loads[to] += 1
                qpu_of[q] = to
                insort(outside[frm], q)
                gone = outside[to]
                del gone[bisect_left(gone, q)]
            p1, p2 = moved[0][1:]
            if len(moved) == 1 and (loads[p1] == caps[p1] - 1 or loads[p2] == caps[p2]):
                # the relocation gave p1 slack or took p2's last slot; the
                # list is refilled in place, since _draws holds it
                dests[:] = _dests(loads, caps)
            # delta priced both new sets, or kept a set's core, so these
            # lookups build no layout
            local[p1] = ev.layout_and_local(p1, masks[p1])
            local[p2] = ev.layout_and_local(p2, masks[p2])
            cur_cost += de
            if cur_cost < best_cost:
                best_cost = cur_cost
                best = list(qpu_of)

    final = Assignment(tuple(best))
    return final, ev.breakdown(final)


# -- pipeline -------------------------------------------------------------------

@dataclass(frozen=True)
class Prepared:
    """A circuit's ASAP layering and its interaction-pattern segments. Treat
    as read-only."""

    layered: LayeredCircuit
    segments: list[Segment]


def prepare(circuit: Circuit, seg_params: SegmentationParams | None = None) -> Prepared:
    """Layerize and segment once, for every compile of this circuit under
    the same segmentation parameters."""
    lc = layerize(circuit)
    return Prepared(layered=lc, segments=segment(lc, seg_params))


@dataclass(frozen=True)
class PlanStep:
    segment: Segment
    assignment: Assignment
    costs: CostBreakdown


@dataclass(frozen=True)
class Plan:
    """Finished compilation: one step per segment, the run totals (the
    steps' costs summed in order; totals.epr_pairs is the run's EPR count)
    and the EPR pairs replay_epr finds on each link."""

    steps: tuple[PlanStep, ...]
    totals: CostBreakdown
    per_link_epr: dict[tuple[int, int], int] = field(default_factory=dict)

    @property
    def total_cost(self) -> float:
        return self.totals.e_total


def replay_epr(plan: Plan, cluster: ClusterTopology) -> QuantumSwitch:
    """Replay a plan's EPR use, one pair per link hop: each qubit moved
    between steps consumes one on every link of its path, and each cut pair
    of a segment one per gate on every link of its path."""
    per_link = {(a, b): 0 for a, b, _ in cluster.links}
    paths = cluster.distances.inter_path
    remote_ops = teleports = 0
    prev: tuple[int, ...] | None = None
    for step in plan.steps:
        qo = step.assignment.qpu_of
        uses = [] if prev is None else [(paths[p][q], 1) for p, q in zip(prev, qo) if p != q]
        teleports += len(uses)
        for (i, j), count in step.segment.pairs.items():
            if qo[i] != qo[j]:
                uses.append((paths[qo[i]][qo[j]], count))
                remote_ops += count
        for path, count in uses:
            for a, b in path:
                per_link[(a, b) if a < b else (b, a)] += count
        prev = qo
    return QuantumSwitch(per_link, remote_ops, teleports)


def compile(
    circuit: Circuit,
    cluster: ClusterTopology,
    seed: int = 0,
    cost_params: CostParams | None = None,
    anneal_params: AnnealParams | None = None,
    decay: float | None = None,
    segmentation_mode: str = "pattern",
    initial: str = "cluster",
    do_anneal: bool = True,
    prepared: Prepared | None = None,
) -> Plan:
    """Map a circuit onto a cluster.

    Pipeline: ASAP layering, segmentation (interaction-pattern based, or as
    many segments at uniform random boundaries when segmentation_mode is
    "random"), decayed interaction graph, clustering placement for the first
    segment (or a random feasible one when initial is "random"), then
    per-segment annealing chained through the movement cost. All
    randomness derives from `seed`. Each segment gets one
    SegmentCostEvaluator, whose cost cache serves the annealing chain and
    the step's breakdown.
    `prepared`, the result of prepare(circuit, seg_params), carries the
    layering and segmentation; without it they are prepared with the
    default SegmentationParams.
    """
    if segmentation_mode not in ("pattern", "random"):
        raise ValueError(f"unknown segmentation mode '{segmentation_mode}'")
    if initial not in ("cluster", "random"):
        raise ValueError(f"unknown initial placement '{initial}'")
    check_fits(circuit.n_qubits, cluster)
    cp = cost_params if cost_params is not None else CostParams()
    ap = anneal_params if anneal_params is not None else AnnealParams()

    if prepared is None:
        prepared = prepare(circuit)
    elif prepared.layered.circuit != circuit:
        raise ValueError("prepared is for another circuit")
    lc, pattern = prepared.layered, prepared.segments
    if segmentation_mode == "random":
        segments = random_segment(lc, len(pattern), split_seed(seed, "segmentation"))
    else:
        segments = pattern

    steps: list[PlanStep] = []
    prev: Assignment | None = None
    if segments:  # a circuit of no two-qubit gates places nothing
        if initial == "random":
            current = random_placement(circuit.n_qubits, cluster, split_seed(seed, "init"))
        else:
            graph = build_graph(segments, default_decay(len(segments)) if decay is None
                                else decay, circuit.n_qubits)
            current = cluster_graph(graph, cluster, min(cluster.n_qpus, circuit.n_qubits))
    for seg_ in segments:
        ev = SegmentCostEvaluator(cluster, seg_, cp, prev=prev)
        if do_anneal:
            # Each segment's chain draws from the run seed, so one top-level
            # seed governs the whole compilation.
            current, costs = anneal_segment(current, ev, ap,
                                            seed=split_seed(seed, f"anneal:{seg_.index}"))
        else:
            costs = ev.breakdown(current)
        steps.append(PlanStep(segment=seg_, assignment=current, costs=costs))
        prev = current

    totals = CostBreakdown(
        e_inter=_left_sum(s.costs.e_inter for s in steps),
        e_local=_left_sum(s.costs.e_local for s in steps),
        e_move=_left_sum(s.costs.e_move for s in steps),
        e_total=_left_sum(s.costs.e_total for s in steps),
        epr_pairs=sum(s.costs.epr_pairs for s in steps),
    )
    plan = Plan(steps=tuple(steps), totals=totals)
    return replace(plan, per_link_epr=replay_epr(plan, cluster).per_link_epr)
