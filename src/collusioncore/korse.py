"""Core/periphery split via a coreness-threshold sweep scored by WICCI.

WICCI (weighted internal core collusive index) scores a candidate core as
``(core weight / total weight) * core_density ** beta``. The sweep has one
point per distinct weighted coreness value, from the largest down; the
candidate at each value is every node whose coreness reaches it, and the
partition with the highest score wins (ties go to the higher threshold, i.e.
the smaller core).
"""

from dataclasses import dataclass

from .graph import Ccn, density, prefix_edges
from .kcore import coreness
from .settings import SETTINGS, check
from .tables import FLOAT, integer, read_roles, write_rows


def _wicci(core_size: int, weight_fraction: float, density: float, beta: float) -> float:
    """WICCI of a candidate core; a core of fewer than two nodes scores 0."""
    if core_size < 2:
        return 0.0
    return weight_fraction * density ** beta


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


def korse(graph: Ccn, beta: float = SETTINGS["beta"].default) -> CorePartition:
    """Sweep the weighted k-cores and return the best-scoring partition.

    Candidates are nested (the core at value c holds every node of coreness
    >= c), so each is a prefix of one descending-coreness order, whose edges
    :func:`prefix_edges` counts. The recorded trace has one point per
    distinct coreness value, largest first: every threshold between two such
    values selects the same candidate, so the sweep's cost is set by the
    graph, not by its weights.
    """
    check("beta", beta)
    if graph.n_edges == 0:
        raise ValueError("korse requires a graph with at least one edge")
    values = coreness(graph, "weighted")
    order = sorted(graph.nodes, key=lambda n: (-values[n], n))
    edges, weights = prefix_edges(graph, order)
    total = graph.total_weight

    trace = []
    for size, node in enumerate(order, start=1):
        if size < len(order) and values[order[size]] == values[node]:
            continue  # the candidate ends where the coreness next falls
        d = density(size, edges[size])
        fraction = weights[size] / total
        trace.append(SweepPoint(values[node], size, d, fraction, _wicci(size, fraction, d, beta)))
    best = max(trace, key=lambda p: p.wicci)  # the first maximum: ties keep the higher threshold

    core = frozenset(order[:best.core_size])
    periphery = frozenset(graph.nodes - core)
    return CorePartition(
        core=core,
        periphery=periphery,
        core_threshold=best.threshold,
        normalized_threshold=best.threshold / trace[0].threshold,
        peak_wicci=best.wicci,
        sweep_trace=tuple(trace),
    )


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def write_partition(partition: CorePartition, path) -> None:
    """Summary block (``# key=value`` lines, no tab) then ``user_id<TAB>role`` rows.

    ``core_density`` is that of the chosen sweep point, so the partition must
    come from :func:`korse`, not from :func:`read_partition`.
    """
    chosen = [p for p in partition.sweep_trace if p.threshold == partition.core_threshold]
    if not chosen:
        raise ValueError("write_partition needs the sweep trace of a korse run")
    rows = [
        (f"# core_threshold={partition.core_threshold}",),
        (f"# normalized_threshold={partition.normalized_threshold}",),
        (f"# peak_wicci={partition.peak_wicci}",),
        (f"# core_size={len(partition.core)}",),
        (f"# core_density={chosen[0].density}",),
    ]
    rows += [(node, "core" if node in partition.core else "periphery")
             for node in sorted(partition.core | partition.periphery)]
    write_rows(path, rows, "\t")


# the summary lines write_partition writes
SUMMARY = {"core_threshold": integer(0), "normalized_threshold": FLOAT, "peak_wicci": FLOAT,
           "core_size": integer(0), "core_density": FLOAT}


def read_partition(path) -> CorePartition:
    """Read a partition file; the sweep trace is not round-tripped, and a file
    without summary lines reads as threshold 0."""
    roles, summary = read_roles(path, ("core", "periphery"), SUMMARY)
    return CorePartition(core=frozenset(u for u, role in roles.items() if role == "core"),
                         periphery=frozenset(u for u, role in roles.items() if role != "core"),
                         core_threshold=summary.get("core_threshold", 0),
                         normalized_threshold=summary.get("normalized_threshold", 0.0),
                         peak_wicci=summary.get("peak_wicci", 0.0), sweep_trace=())


def write_sweep(partition: CorePartition, path, beta: float) -> None:
    """CSV of the sweep, one row per candidate, scored at ``beta``; only the
    score depends on it, so one :func:`korse` run writes, byte for byte, the
    sweep of every ``beta``."""
    check("beta", beta)
    if not partition.sweep_trace:
        raise ValueError("write_sweep needs the sweep trace of a korse run")
    top = partition.sweep_trace[0].threshold
    write_rows(path, [("norm_threshold", "core_size", "density", "weight_fraction", "wicci")] + [
        (point.threshold / top, point.core_size, point.density, point.weight_fraction,
         _wicci(point.core_size, point.weight_fraction, point.density, beta))
        for point in partition.sweep_trace], ",")
