"""Per-segment simulated annealing and the end-to-end compile pipeline.

Each segment's assignment is refined by simulated annealing over two move
kinds, single-qubit relocation and cross-QPU swap, under the hyperbolic
cooling schedule T_k = T0 / (1 + rate * k). Downhill moves are always
accepted, uphill moves with probability exp(-dE / T_k). Segments are chained:
segment s starts from segment s-1's final assignment and pays movement cost
against it. The best assignment seen is returned, so the result is never
worse than the initial one.

The search state keeps one qubit bitmask per QPU, so a move's layout-cache
keys are the current masks with the moved bits flipped. The loop draws each
move with the rng calls of propose, in the same order, as its transfers
(see cost.transfers), reads slack from per-QPU loads, and applies an
accepted move in place; propose, SearchState.apply and cooling are the
reference forms of these steps. A move whose lower bound on dE (see
SegmentCostEvaluator.delta) is positive is surely uphill, so it takes its
draw before the exact dE; when that draw rejects the bound, the move is
rejected without building the layouts of its new QPU sets. The random
stream, every accept decision and the exact dE of every other move are
those of evaluating every move exactly. A temperature that underflows to
0.0 rejects every uphill move after its draw, the limit of exp(-dE / T).
compile builds one SegmentCostEvaluator per segment and reads the step's
costs from the same cache the annealing chain filled. A plan step holds the
segment, its qubit->QPU assignment and its costs; the intra-QPU layouts
that price the local term stay inside the evaluator.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace

from .circuit import Circuit, LayeredCircuit, layerize
from .cost import CostBreakdown, CostParams, Move, SegmentCostEvaluator, qpu_masks, transfers
from .errors import InfeasibleError
from .hardware import ClusterTopology, QuantumSwitch, record_remote_op, record_teleport
from .placement import (
    Assignment,
    build_graph,
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
    cooling_rate as 10 / iters."""

    t0: float | None = None
    cooling_rate: float | None = None
    iters_per_segment: int | None = None
    seed: int = 0

    def __post_init__(self):
        for fieldname in ("t0", "cooling_rate"):
            value = getattr(self, fieldname)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ValueError(f"{fieldname} must be finite and positive")
        if self.iters_per_segment is not None and self.iters_per_segment < 1:
            raise ValueError("iters_per_segment must be >= 1")


def cooling(t0: float, rate: float, k: int) -> float:
    """Temperature at iteration k: t0 / (1 + rate * k)."""
    if t0 <= 0:
        raise ValueError("t0 must be positive")
    if rate <= 0:
        raise ValueError("rate must be positive")
    if k < 0:
        raise ValueError("iteration must be >= 0")
    return t0 / (1.0 + rate * k)


class SearchState:
    """Mutable assignment the annealer walks on.

    masks[p] has bit q set when qubit q sits on QPU p (masks[0] stays 0);
    these are the layout-cache keys of SegmentCostEvaluator.
    """

    def __init__(self, a: Assignment, cluster: ClusterTopology):
        self.cluster = cluster
        self.qpu_of: list[int] = list(a.qpu_of)
        self.masks = qpu_masks(self.qpu_of, cluster.n_qpus)
        self.caps = cluster.capacities()

    def apply(self, move: Move) -> None:
        masks, qpu_of = self.masks, self.qpu_of
        for q, frm, to in transfers(move, qpu_of):
            masks[frm] ^= 1 << q
            masks[to] ^= 1 << q
            qpu_of[q] = to


def _nth_bit(mask: int, k: int) -> int:
    """Position of the k-th lowest set bit of mask (k from 0), by bisecting
    on the count of set bits at or below a position."""
    lo, hi = 0, mask.bit_length() - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if (mask & ((2 << mid) - 1)).bit_count() > k:
            hi = mid
        else:
            lo = mid + 1
    return lo


def propose(state: SearchState, rng: random.Random) -> Move | None:
    """Draw one capacity-feasible move, or None when no move exists.

    Each kind is drawn with probability 1/2. A relocation picks a uniform
    qubit and a uniform destination among QPUs with slack; when none has
    slack it falls back to a swap. A swap picks a uniform qubit and a
    uniform partner among qubits on other QPUs, in ascending order, read
    from the union of the other QPUs' masks.
    """
    n = len(state.qpu_of)
    if state.cluster.n_qpus < 2 or n < 1:
        return None
    if rng.random() < 0.5:
        q = rng.randrange(n)
        dests = [p for p in range(1, state.cluster.n_qpus + 1)
                 if p != state.qpu_of[q] and state.masks[p].bit_count() < state.caps[p - 1]]
        if dests:
            return Move(kind="relocate", a=q, dest=dests[rng.randrange(len(dests))])
    qa = rng.randrange(n)
    others = ((1 << n) - 1) ^ state.masks[state.qpu_of[qa]]
    count = others.bit_count()
    if not count:
        return None
    return Move(kind="swap", a=qa, b=_nth_bit(others, rng.randrange(count)))


def calibrate_t0(
    ev: SegmentCostEvaluator,
    state: SearchState,
    rng: random.Random,
    samples: int = 100,
) -> float:
    """Mean |dE| over random proposals from the initial state; 1.0 if the
    neighborhood is empty or flat."""
    magnitudes = []
    for _ in range(samples):
        move = propose(state, rng)
        if move is None:
            break
        moved = transfers(move, state.qpu_of)
        magnitudes.append(abs(ev.delta(state.qpu_of, state.masks, moved)))
    mean = sum(magnitudes) / len(magnitudes) if magnitudes else 0.0
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
    trace: list[TraceEntry] | None = None,
) -> tuple[Assignment, CostBreakdown]:
    """Refine one segment's assignment; returns the best assignment seen and
    its exact cost breakdown. ev carries the segment, the previous segment's
    assignment, the cluster and the cost parameters; its layout cache is left
    filled for the caller. A single-QPU cluster is a no-op."""
    state = SearchState(init, ev.cluster)
    cur_cost = ev.breakdown(init).e_total
    best = list(state.qpu_of)
    best_cost = cur_cost

    iters = ap.iters_per_segment
    if iters is None:
        iters = 500 * len(init.qpu_of)
    rate = ap.cooling_rate if ap.cooling_rate is not None else 10.0 / iters
    rng = random.Random(split_seed(ap.seed, "chain"))
    t0 = ap.t0
    if t0 is None:
        t0 = calibrate_t0(ev, state, random.Random(split_seed(ap.seed, "t0")))

    draw = None
    random_, randrange, exp = rng.random, rng.randrange, math.exp

    def surely_rejected(lb: float) -> bool:
        # A positive lower bound makes the move uphill, so its draw is taken
        # now, as it would be after the exact dE; a draw that rejects the
        # bound rejects the exact dE too.
        nonlocal draw
        if lb <= 0:
            return False
        draw = random_()
        return temperature <= 0 or draw >= exp(-lb / temperature)

    qpu_of, masks = state.qpu_of, state.masks
    n = len(qpu_of)
    if ev.cluster.n_qpus < 2 or n < 1:
        iters = 0
    everyone = (1 << n) - 1
    qpus = range(1, ev.cluster.n_qpus + 1)
    caps = [0, *state.caps]
    loads = [mask.bit_count() for mask in masks]
    delta = ev.delta
    for k in range(iters):
        # The draw of propose: a relocation to a uniform QPU with slack, else
        # a swap with a uniform qubit on another QPU; qa == qb in a relocation.
        qb = -1
        if random_() < 0.5:
            qa = randrange(n)
            pa = qpu_of[qa]
            dests = [p for p in qpus if p != pa and loads[p] < caps[p]]
            if dests:
                qb, pb = qa, dests[randrange(len(dests))]
                moved = ((qa, pa, pb),)
        if qb < 0:
            qa = randrange(n)
            pa = qpu_of[qa]
            others = everyone ^ masks[pa]
            if not others:
                break
            qb = _nth_bit(others, randrange(others.bit_count()))
            pb = qpu_of[qb]
            moved = ((qa, pa, pb), (qb, pb, pa))
        temperature = t0 / (1.0 + rate * k)
        draw = None
        de = delta(qpu_of, masks, moved, surely_rejected)
        if draw is None and de > 0:
            draw = random_()
        accepted = draw is None or (temperature > 0 and draw < exp(-de / temperature))
        if trace is not None:
            trace.append(TraceEntry(k=k, temperature=temperature, delta_e=de,
                                    draw=draw, accepted=accepted))
        if accepted:
            flip = (1 << qa) | (1 << qb)
            masks[pa] ^= flip
            masks[pb] ^= flip
            qpu_of[qa] = pb
            if qa == qb:
                loads[pa] -= 1
                loads[pb] += 1
            else:
                qpu_of[qb] = pa
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
    """Finished compilation: one step per segment plus run totals."""

    steps: tuple[PlanStep, ...]
    totals: CostBreakdown
    epr_total: int
    per_link_epr: dict[tuple[int, int], int] = field(default_factory=dict)

    @property
    def total_cost(self) -> float:
        return self.totals.e_total


def replay_epr(plan: Plan, cluster: ClusterTopology) -> QuantumSwitch:
    """Walk a plan through a fresh switch, consuming EPR pairs per remote
    gate and per teleport, one per link hop. Returns the switch."""
    sw = cluster.fresh_switch()
    prev: Assignment | None = None
    for step in plan.steps:
        qo = step.assignment.qpu_of
        if prev is not None:
            for q in range(len(qo)):
                if prev.qpu_of[q] != qo[q]:
                    record_teleport(sw, cluster.inter_path(prev.qpu_of[q], qo[q]))
        for (i, j), count in sorted(step.segment.interactions.pairs.items()):
            if qo[i] != qo[j]:
                path = cluster.inter_path(qo[i], qo[j])
                for _ in range(count):
                    record_remote_op(sw, path)
        prev = step.assignment
    return sw


def compile(
    circuit: Circuit,
    cluster: ClusterTopology,
    seed: int = 0,
    seg_params: SegmentationParams | None = None,
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
    `prepared`, the result of prepare(circuit, seg_params), skips the
    layering and segmentation; seg_params is then not read.
    """
    if segmentation_mode not in ("pattern", "random"):
        raise ValueError(f"unknown segmentation mode '{segmentation_mode}'")
    if initial not in ("cluster", "random"):
        raise ValueError(f"unknown initial placement '{initial}'")
    if cluster.total_capacity < circuit.n_qubits:
        raise InfeasibleError(
            f"circuit needs {circuit.n_qubits} qubits, cluster offers "
            f"{cluster.total_capacity}"
        )
    cp = cost_params if cost_params is not None else CostParams()
    ap = anneal_params if anneal_params is not None else AnnealParams()

    if prepared is None:
        prepared = prepare(circuit, seg_params)
    elif prepared.layered.circuit != circuit:
        raise ValueError("prepared is for another circuit")
    lc, pattern = prepared.layered, prepared.segments
    if segmentation_mode == "random":
        segments = random_segment(lc, len(pattern), split_seed(seed, "segmentation"))
    else:
        segments = pattern

    if not segments:
        empty = CostBreakdown(0.0, 0.0, 0.0, 0.0, 0)
        return Plan(steps=(), totals=empty, epr_total=0)

    if initial == "random":
        first = random_placement(circuit.n_qubits, cluster, split_seed(seed, "init"))
    else:
        graph = build_graph(segments, decay if decay is not None
                            else default_decay(len(segments)))
        first = cluster_graph(graph, cluster, min(cluster.n_qpus, circuit.n_qubits),
                              n_qubits=circuit.n_qubits)

    steps: list[PlanStep] = []
    prev: Assignment | None = None
    current = first
    for seg_ in segments:
        ev = SegmentCostEvaluator(cluster, seg_, cp, prev=prev)
        if do_anneal:
            # Per-segment chains draw from the run seed, not ap.seed, so one
            # top-level seed governs the whole compilation.
            seg_ap = replace(ap, seed=split_seed(seed, f"anneal:{seg_.index}"))
            current, costs = anneal_segment(current, ev, seg_ap)
        else:
            costs = ev.breakdown(current)
        steps.append(PlanStep(segment=seg_, assignment=current, costs=costs))
        prev = current

    totals = CostBreakdown(
        e_inter=sum(s.costs.e_inter for s in steps),
        e_local=sum(s.costs.e_local for s in steps),
        e_move=sum(s.costs.e_move for s in steps),
        e_total=sum(s.costs.e_total for s in steps),
        epr_pairs=sum(s.costs.epr_pairs for s in steps),
    )
    plan = Plan(steps=tuple(steps), totals=totals, epr_total=0)
    switch = replay_epr(plan, cluster)
    return replace(plan, epr_total=switch.epr_consumed,
                   per_link_epr=dict(switch.per_link_epr))
