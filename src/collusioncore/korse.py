"""Core/periphery split via a coreness-threshold sweep scored by WICCI.

WICCI (weighted internal core collusive index) scores a candidate core as
``(core weight / total weight) * core_density ** beta``. The sweep walks
integer thresholds from the maximum weighted coreness down to zero; the
candidate at each threshold is every node whose coreness reaches it, and the
partition with the highest score wins (ties go to the higher threshold, i.e.
the smaller core).
"""

from dataclasses import dataclass
from pathlib import Path

from .graph import Ccn, density
from .kcore import coreness


@dataclass(frozen=True)
class WicciParams:
    beta: float = 1.0

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError("beta must be > 0")

    def score(self, core_size: int, weight_fraction: float, density: float) -> float:
        """WICCI of a candidate core; a core of fewer than two nodes scores 0."""
        if core_size < 2:
            return 0.0
        return weight_fraction * density ** self.beta


@dataclass(frozen=True)
class SweepPoint:
    threshold: int
    core_size: int
    density: float
    weight_fraction: float
    wicci: float


@dataclass(frozen=True)
class CorePartition:
    core: frozenset
    periphery: frozenset
    core_threshold: int
    normalized_threshold: float
    peak_wicci: float
    sweep_trace: tuple


def wicci(graph: Ccn, core_nodes, params: WicciParams = WicciParams()) -> float:
    """Score a candidate core subset of the graph.

    A core of fewer than two nodes scores 0; an edgeless graph is an error
    because the weight fraction is undefined.
    """
    core = set(core_nodes)
    if not core <= graph.nodes:
        raise ValueError("core_nodes must be a subset of the graph nodes")
    total = graph.total_weight
    if total == 0:
        raise ValueError("wicci is undefined on an edgeless graph")
    core_weight = 0
    core_edges = 0
    for (a, b), w in graph.edges.items():
        if a in core and b in core:
            core_weight += w
            core_edges += 1
    return params.score(len(core), core_weight / total, density(len(core), core_edges))


def korse(graph: Ccn, params: WicciParams = WicciParams()) -> CorePartition:
    """Sweep coreness thresholds and return the best-scoring partition.

    Candidates are nested (threshold t includes every node of coreness >= t),
    so the sweep accumulates edges incrementally while walking thresholds
    downward. The recorded trace has one row per integer threshold from the
    maximum coreness down to 0.
    """
    if graph.n_edges == 0:
        raise ValueError("korse requires a graph with at least one edge")
    cm = coreness(graph, "weighted")
    max_c = cm.max_coreness
    order = sorted(graph.nodes, key=lambda n: (-cm.values[n], n))
    total = graph.total_weight

    trace = []
    in_core: set = set()
    core_weight = 0
    core_edges = 0
    idx = 0
    best: SweepPoint | None = None
    for threshold in range(max_c, -1, -1):
        while idx < len(order) and cm.values[order[idx]] >= threshold:
            node = order[idx]
            idx += 1
            for nbr, w in graph.adjacency[node]:
                if nbr in in_core:
                    core_edges += 1
                    core_weight += w
            in_core.add(node)
        d = density(len(in_core), core_edges)
        fraction = core_weight / total
        point = SweepPoint(threshold, len(in_core), d, fraction,
                           params.score(len(in_core), fraction, d))
        trace.append(point)
        if best is None or point.wicci > best.wicci:  # strict: ties keep the higher threshold
            best = point

    core = frozenset(n for n in graph.nodes if cm.values[n] >= best.threshold)
    periphery = frozenset(graph.nodes - core)
    return CorePartition(
        core=core,
        periphery=periphery,
        core_threshold=best.threshold,
        normalized_threshold=best.threshold / max_c,
        peak_wicci=best.wicci,
        sweep_trace=tuple(trace),
    )


def _distinct_candidates(partition: CorePartition):
    """(normalized threshold, point) per distinct candidate of the sweep.

    Consecutive thresholds selecting the same candidate collapse into the
    point with the largest threshold.
    """
    max_threshold = max(p.threshold for p in partition.sweep_trace)
    last_size = None
    for point in partition.sweep_trace:
        if point.core_size == last_size:
            continue
        last_size = point.core_size
        yield (point.threshold / max_threshold if max_threshold else 0.0), point


def sweep_curves(partition: CorePartition) -> list[tuple[float, float, float, float]]:
    """Plot-ready (normalized threshold, density, weight fraction, wicci) rows,
    one per distinct candidate."""
    return [
        (norm, point.density, point.weight_fraction, point.wicci)
        for norm, point in _distinct_candidates(partition)
    ]


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def write_partition(partition: CorePartition, path) -> None:
    """Summary block (comment lines) followed by ``user_id<TAB>role`` rows.

    ``core_density`` is that of the chosen sweep point, so the partition must
    come from :func:`korse`, not from :func:`read_partition`.
    """
    chosen = [p for p in partition.sweep_trace if p.threshold == partition.core_threshold]
    if not chosen:
        raise ValueError("write_partition needs the sweep trace of a korse run")
    with Path(path).open("w", encoding="utf-8") as handle:
        handle.write(f"# core_threshold={partition.core_threshold}\n")
        handle.write(f"# normalized_threshold={partition.normalized_threshold!r}\n")
        handle.write(f"# peak_wicci={partition.peak_wicci!r}\n")
        handle.write(f"# core_size={len(partition.core)}\n")
        handle.write(f"# core_density={chosen[0].density!r}\n")
        for node in sorted(partition.core | partition.periphery):
            role = "core" if node in partition.core else "periphery"
            handle.write(f"{node}\t{role}\n")


def read_partition(path) -> CorePartition:
    """Read a partition file; the sweep trace is not round-tripped."""
    core: set = set()
    periphery: set = set()
    meta: dict = {}
    with Path(path).open(encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("# "):
                key, _, value = line[2:].partition("=")
                meta[key] = value
                continue
            parts = line.split("\t")
            if len(parts) != 2 or parts[1] not in ("core", "periphery"):
                raise ValueError(f"{path}:{lineno}: expected 'user<TAB>core|periphery'")
            if parts[0] in core or parts[0] in periphery:
                raise ValueError(f"{path}:{lineno}: user '{parts[0]}' listed twice")
            (core if parts[1] == "core" else periphery).add(parts[0])
    return CorePartition(
        core=frozenset(core),
        periphery=frozenset(periphery),
        core_threshold=int(meta.get("core_threshold", 0)),
        normalized_threshold=float(meta.get("normalized_threshold", 0.0)),
        peak_wicci=float(meta.get("peak_wicci", 0.0)),
        sweep_trace=(),
    )


def write_sweep(partition: CorePartition, path, params: WicciParams) -> None:
    """CSV of the deduplicated sweep, one row per distinct candidate, scored
    under ``params``; only the score depends on them, so one :func:`korse`
    run writes, byte for byte, the sweep of every ``params``."""
    with Path(path).open("w", encoding="utf-8") as handle:
        handle.write("norm_threshold,core_size,density,weight_fraction,wicci\n")
        for norm, point in _distinct_candidates(partition):
            wicci_score = params.score(point.core_size, point.weight_fraction, point.density)
            handle.write(
                f"{norm!r},{point.core_size},{point.density!r},"
                f"{point.weight_fraction!r},{wicci_score!r}\n"
            )
