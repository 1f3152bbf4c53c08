"""The optimality/speed trade-off — the paper's future-work question.

"In real applications such as the ATIS, the tradeoff between optimality
and speed may allow for sub-optimal algorithms to speed the processing.
Our future work will include analyzing the algorithms to find a way to
characterize the tradeoff."

This example characterizes it: weighted A* (estimator scaled by w >= 1)
sweeps the spectrum from exact search (w = 1) to near-greedy (w large),
and for each weight we measure node expansions and the sub-optimality
gap over the paper's four Minneapolis queries — plus the landmark (ALT)
estimator, which restores optimality without geometry assumptions.

Run:  python examples/estimator_tradeoffs.py
"""

from repro import RoutePlanner, kernel
from repro.core.estimators import (
    EuclideanEstimator,
    LandmarkEstimator,
    ManhattanEstimator,
    ScaledEstimator,
)
from repro.graphs.roadmap import make_minneapolis_map, road_queries


def main() -> None:
    road_map = make_minneapolis_map()
    graph = road_map.graph
    queries = road_queries(road_map)
    planner = RoutePlanner()

    optima = {
        label: planner.plan(graph, s, d, "dijkstra")
        for label, (s, d) in queries.items()
    }

    print("Weighted A* on the Minneapolis map (averages over the four")
    print("paper queries; gap = found cost / optimal cost - 1):\n")
    header = f"{'estimator':<26}{'avg expansions':>15}{'worst gap':>11}"
    print(header)
    print("-" * len(header))

    landmarks = [road_map.landmark(name) for name in ("A", "B", "C", "D")]
    candidates = [
        ("dijkstra (baseline)", None),
        ("euclidean w=1.0", ScaledEstimator(EuclideanEstimator(), 1.0)),
        ("euclidean w=1.5", ScaledEstimator(EuclideanEstimator(), 1.5)),
        ("euclidean w=3.0", ScaledEstimator(EuclideanEstimator(), 3.0)),
        ("manhattan w=1.0", ManhattanEstimator()),
        ("landmark (ALT)", LandmarkEstimator(landmarks)),
    ]
    for label, estimator in candidates:
        expansions, worst_gap = 0, 0.0
        for query_label, (s, d) in queries.items():
            if estimator is None:
                result = planner.plan(graph, s, d, "dijkstra")
            else:
                result = kernel.search(graph, s, d, "astar", estimator)
            expansions += result.stats.nodes_expanded
            gap = result.cost / optima[query_label].cost - 1.0
            worst_gap = max(worst_gap, gap)
        print(
            f"{label:<26}{expansions / len(queries):>15.0f}"
            f"{worst_gap:>10.1%}"
        )

    print(
        "\nReading the table: euclidean w=1 is admissible (0% gap) but"
        "\nconservative; inflating the weight buys large expansion"
        "\nsavings for bounded sub-optimality; manhattan is fast but"
        "\nunsafe on road geometry; ALT gets focused search AND a 0% gap"
        "\nat the price of per-landmark preprocessing."
    )


if __name__ == "__main__":
    main()
