"""Synthetic Minneapolis road map — substitute for the paper's data set.

The paper's map (Section 5.2) is proprietary MnDOT data: "1089 nodes
and 3300 edges that represented highway and freeway segments for a
20-square-mile section of the Minneapolis area", with

* a dense downtown core whose streets "are not parallel to the x or y
  axis",
* grid-like outlying areas,
* lakes interrupting the lower-left corner,
* the Mississippi river flowing "north to southeast in the upper right
  quadrant" (crossable only at bridges),
* one-way freeway segments making the graph directed,
* edge cost = distance between endpoints.

This generator reproduces each of those structural properties
deterministically from a seed:

1. a 33 x 33 jittered lattice (exactly 1089 nodes) over a ~4.6-mile
   square;
2. the central block rotated ~28 degrees and compressed (downtown);
3. nodes inside the lake disk displaced radially to its shore
   (roads bend around water; connectivity is preserved);
4. lattice edges crossing the river band removed except at three
   bridges;
5. random thinning of non-spanning-tree edges down to the paper's
   ~3300 directed-edge budget (connectivity always preserved);
6. two freeway corridors whose segments are one-way (directed).

Every segment carries road attributes (type, speed limit, average
occupancy) mirroring the fields the paper lists, which the route
evaluation extension consumes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.graphs.graph import Graph, NodeId

#: Lattice dimension: 33 x 33 = 1089 nodes, the paper's node count.
LATTICE = 33
#: Map side length in miles (about a 20-square-mile section).
SIDE_MILES = 4.6
#: Target directed edge count (the paper's 3300).
TARGET_DIRECTED_EDGES = 3300

GridCoord = Tuple[int, int]


@dataclass(frozen=True)
class RoadAttributes:
    """Per-segment attributes per the paper's data description."""

    road_type: str  # "freeway", "downtown", "arterial"
    speed_mph: float
    occupancy: float  # average occupancy fraction in [0, 1]


@dataclass
class MinneapolisMap:
    """The generated map: graph + named landmarks + segment attributes."""

    graph: Graph
    landmarks: Dict[str, NodeId]
    attributes: Dict[Tuple[NodeId, NodeId], RoadAttributes] = field(
        default_factory=dict
    )
    seed: int = 1993

    def landmark(self, name: str) -> NodeId:
        try:
            return self.landmarks[name]
        except KeyError:
            raise KeyError(
                f"unknown landmark {name!r}; known: "
                f"{', '.join(sorted(self.landmarks))}"
            ) from None

    def segment_attributes(self, u: NodeId, v: NodeId) -> RoadAttributes:
        key = (u, v) if (u, v) in self.attributes else (v, u)
        return self.attributes[key]


# ----------------------------------------------------------------------
# geometry helpers
# ----------------------------------------------------------------------
_SPACING = SIDE_MILES / (LATTICE - 1)
_CENTER = (SIDE_MILES * 0.5, SIDE_MILES * 0.5)
_DOWNTOWN_RADIUS = SIDE_MILES * 0.18
_DOWNTOWN_ANGLE = math.radians(28.0)
_LAKE_CENTER = (SIDE_MILES * 0.16, SIDE_MILES * 0.18)
_LAKE_RADIUS = SIDE_MILES * 0.11


def _river_offset(y: float) -> float:
    """x-position of the river at height y (north to southeast).

    The river enters at the top middle-right and slides east as it
    flows south, occupying the upper-right quadrant.
    """
    top = SIDE_MILES
    return SIDE_MILES * 0.62 + 0.45 * (top - y)


def _in_river_band(x: float, y: float) -> bool:
    if y < SIDE_MILES * 0.45:
        return False
    return abs(x - _river_offset(y)) < SIDE_MILES * 0.035


def _node_position(row: int, col: int, rng: random.Random) -> Tuple[float, float]:
    """Jittered lattice position with downtown rotation and lake push."""
    x = col * _SPACING + rng.uniform(-0.18, 0.18) * _SPACING
    y = row * _SPACING + rng.uniform(-0.18, 0.18) * _SPACING

    # Downtown: rotate and compress around the center.
    dx, dy = x - _CENTER[0], y - _CENTER[1]
    distance = math.hypot(dx, dy)
    if distance < _DOWNTOWN_RADIUS:
        blend = 1.0 - distance / _DOWNTOWN_RADIUS  # 1 at center, 0 at rim
        angle = _DOWNTOWN_ANGLE * blend
        cos_a, sin_a = math.cos(angle), math.sin(angle)
        rx = dx * cos_a - dy * sin_a
        ry = dx * sin_a + dy * cos_a
        shrink = 1.0 - 0.25 * blend
        x = _CENTER[0] + rx * shrink
        y = _CENTER[1] + ry * shrink

    # Lake: push nodes inside the disk out to the shore.
    lx, ly = x - _LAKE_CENTER[0], y - _LAKE_CENTER[1]
    lake_distance = math.hypot(lx, ly)
    if lake_distance < _LAKE_RADIUS:
        if lake_distance < 1e-9:
            lx, ly, lake_distance = _LAKE_RADIUS, 0.0, _LAKE_RADIUS
        scale = (_LAKE_RADIUS * 1.02) / lake_distance
        x = _LAKE_CENTER[0] + lx * scale
        y = _LAKE_CENTER[1] + ly * scale
    return x, y


def _is_downtown(x: float, y: float) -> bool:
    return math.hypot(x - _CENTER[0], y - _CENTER[1]) < _DOWNTOWN_RADIUS


# ----------------------------------------------------------------------
# generator
# ----------------------------------------------------------------------
def make_minneapolis_map(seed: int = 1993) -> MinneapolisMap:
    """Generate the synthetic Minneapolis map (deterministic per seed)."""
    rng = random.Random(seed)
    positions: Dict[GridCoord, Tuple[float, float]] = {}
    for row in range(LATTICE):
        for col in range(LATTICE):
            positions[(row, col)] = _node_position(row, col, rng)

    # Freeway corridors: two row corridors and the matching return lanes.
    freeway_rows = {8: +1, 9: -1, 24: +1, 25: -1}  # row -> direction of travel

    # Candidate undirected lattice edges (right and up neighbors).
    candidates: List[Tuple[GridCoord, GridCoord]] = []
    for row in range(LATTICE):
        for col in range(LATTICE):
            if col + 1 < LATTICE:
                candidates.append(((row, col), (row, col + 1)))
            if row + 1 < LATTICE:
                candidates.append(((row, col), (row + 1, col)))

    # River removal: drop edges whose midpoint is in the band, except at
    # three bridge columns.
    bridge_cols = (20, 23, 26)

    def crosses_river(u: GridCoord, v: GridCoord) -> bool:
        (ux, uy), (vx, vy) = positions[u], positions[v]
        my = (uy + vy) / 2.0
        if my < SIDE_MILES * 0.45:
            return False
        # The edge crosses if its endpoints lie on opposite sides of
        # the river centerline (each evaluated at its own height).
        side_u = ux - _river_offset(uy)
        side_v = vx - _river_offset(vy)
        if side_u * side_v >= 0:
            return False
        return u[1] not in bridge_cols and v[1] not in bridge_cols

    surviving = [edge for edge in candidates if not crosses_river(*edge)]

    # Spanning tree (BFS over surviving edges) to protect connectivity.
    adjacency: Dict[GridCoord, List[GridCoord]] = {}
    for u, v in surviving:
        adjacency.setdefault(u, []).append(v)
        adjacency.setdefault(v, []).append(u)
    root = (0, 0)
    tree_edges = set()
    visited = {root}
    queue = [root]
    while queue:
        u = queue.pop(0)
        for v in adjacency.get(u, ()):
            if v not in visited:
                visited.add(v)
                tree_edges.add((u, v) if u <= v else (v, u))
                queue.append(v)
    if len(visited) != LATTICE * LATTICE:
        raise RuntimeError(
            "road map generation left the lattice disconnected; "
            f"reached {len(visited)} of {LATTICE * LATTICE} nodes"
        )

    def is_freeway(u: GridCoord, v: GridCoord) -> bool:
        return u[0] == v[0] and u[0] in freeway_rows

    # Thin non-tree, non-freeway edges down to the directed-edge budget.
    # A freeway is one directed edge, any other road two; every
    # removable edge is a two-way road.
    directed = sum(1 if is_freeway(u, v) else 2 for u, v in surviving)
    removable = [
        edge
        for edge in surviving
        if (edge if edge[0] <= edge[1] else (edge[1], edge[0])) not in tree_edges
        and not is_freeway(*edge)
    ]
    rng.shuffle(removable)
    removed = set()
    for edge in removable:
        if directed <= TARGET_DIRECTED_EDGES:
            break
        removed.add(edge)
        directed -= 2
    kept = [edge for edge in surviving if edge not in removed]

    # Build the graph.
    graph = Graph(name=f"minneapolis-{seed}")
    for (row, col), (x, y) in positions.items():
        graph.add_node((row, col), x=x, y=y)

    attributes: Dict[Tuple[GridCoord, GridCoord], RoadAttributes] = {}
    for u, v in kept:
        (ux, uy), (vx, vy) = positions[u], positions[v]
        distance = math.hypot(ux - vx, uy - vy)
        if is_freeway(u, v):
            direction = freeway_rows[u[0]]
            source, target = (u, v) if (v[1] - u[1]) * direction > 0 else (v, u)
            graph.add_edge(source, target, distance)
            attrs = RoadAttributes("freeway", 55.0, rng.uniform(0.3, 0.7))
            attributes[(source, target)] = attrs
        else:
            graph.add_undirected_edge(u, v, distance)
            mx, my = (ux + vx) / 2.0, (uy + vy) / 2.0
            if _is_downtown(mx, my):
                attrs = RoadAttributes("downtown", 25.0, rng.uniform(0.4, 0.9))
            else:
                attrs = RoadAttributes("arterial", 35.0, rng.uniform(0.1, 0.5))
            attributes[(u, v)] = attrs

    landmarks = _place_landmarks()
    return MinneapolisMap(
        graph=graph, landmarks=landmarks, attributes=attributes, seed=seed
    )


def _place_landmarks() -> Dict[str, GridCoord]:
    """The paper's named query endpoints.

    A->B and C->D are the long diagonals; A->B is the dear one (it must
    fight both the lake detour near A and the river bridges near B,
    playing the role of the paper's against-the-downtown-grain
    diagonal), while C->D runs clear of both. G sits a few blocks from
    D (the 17-iteration short query); E and F are a moderate hop apart
    mid-map.
    """
    top = LATTICE - 1
    return {
        "A": (0, 0),          # southwest corner (lake side)
        "B": (top, top),      # northeast corner (across the river)
        "C": (top, 0),        # northwest corner
        "D": (0, top),        # southeast corner
        "G": (4, top - 3),    # a few blocks from D
        "E": (16, 6),         # mid-west
        "F": (12, 13),        # mid-map, ~11 blocks from E
    }


#: The four query pairs of Table 8 / Figure 9, in paper order.
PAPER_ROAD_QUERIES: Tuple[Tuple[str, str, str], ...] = (
    ("A to B", "A", "B"),
    ("C to D", "C", "D"),
    ("G to D", "G", "D"),
    ("E to F", "E", "F"),
)


def road_queries(road_map: MinneapolisMap) -> Dict[str, Tuple[NodeId, NodeId]]:
    """Resolve the paper's four query pairs to node ids."""
    return {
        label: (road_map.landmark(a), road_map.landmark(b))
        for label, a, b in PAPER_ROAD_QUERIES
    }
