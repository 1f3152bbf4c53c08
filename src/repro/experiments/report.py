"""Full-reproduction report generator.

Runs every registered experiment and emits a markdown report (the
content of EXPERIMENTS.md): per artifact, the measured table beside the
paper's published numbers, plus the qualitative figure claims that were
checked. ``python -m repro.experiments.report [output.md]`` regenerates
it from scratch.
"""

from __future__ import annotations

import sys
import time
from typing import Optional, TextIO

from repro.experiments.paper_data import FIGURE_CLAIMS
from repro.experiments.spec import all_experiments
from repro.experiments.tables import markdown_table

_HEADER = r"""# EXPERIMENTS — paper vs. measured

Reproduction of every table and figure in *Path Computation Algorithms
for Advanced Traveller Information System (ATIS)* (Shekhar, Kohli,
Coyle; ICDE 1993). All measurements come from the simulated relational
engine (`repro.engine`) with Table 4A cost units; "execution cost"
plays the role of the paper's measured execution time (the paper
itself validated that this cost model predicts its INGRES measurements
within 10%).

Measured cells show `ours (paper)` where the paper printed a number.
Absolute agreement is not expected — the substrate is a simulator, not
the authors' INGRES installation — but every ordering and growth shape
the paper calls out is asserted by the integration test suite
(`tests/test_paper_claims.py`).

Regenerate with: `python -m repro.experiments.report EXPERIMENTS.md`

## Known deviations from the paper, and why

1. **A\*-v3 iterations on uniform grids (Table 7)** — ours 38 vs the
   paper's 189 on the 20x20 diagonal. All rectangle nodes tie at
   f = 2(k-1) under uniform costs + manhattan, so the count is pure
   tie-breaking; our planner breaks f-ties toward the smaller heuristic
   (goal-directed), the paper's QUEL scan picked whatever tuple came
   first. The published *ordering* (uniform <= variance) holds either
   way.
2. **v2-vs-v3 gap at 30x30 (Figure 10)** — the paper reports v3 ~10x
   cheaper than v2; ours are nearly equal. With 20% variance both
   estimators admit nearly every node (f < C* for ~all of the grid),
   so expansions — and therefore cost — coincide; we cannot reproduce a
   10x gap from the estimator switch alone and attribute the paper's
   gap to implementation artifacts in its QUEL programs. v3 <= v2
   everywhere in our data, preserving the directional claim.
3. **Minneapolis diagonals (Table 8)** — our synthetic map reproduces
   the orderings (A->B dearer than C->D; short queries collapse) but
   not the absolute iteration counts, since the real MnDOT geometry is
   unavailable; see DESIGN.md for the substitution argument.
4. **Dijkstra skewed iterations (Table 7)** — ours 92 vs the paper's
   48: how far the cheap corridor pulls Dijkstra depends on the exact
   cheap/normal cost ratio, which the paper does not print (we use
   0.1/1.0). The collapse relative to variance (399 -> 92) reproduces.

## A note on update load (Figures 10-12 under live traffic)

Every execution-cost ordering below — A\* versions vs grid size
(Figure 10), vs path length (Figure 11), and vs cost model (Figure 12)
— is measured on **frozen** edge costs, exactly as the paper did. With
the live-traffic subsystem (`repro.traffic`) active, each relational
run additionally pays a `traffic-sync` charge before searching: the
dirty adjacency lists accumulated since the last run are re-fetched
via hash probe and rewritten in place at Table 4A rates (reported as
`sync_cost` on every run result). That charge depends on the update
workload, not on the algorithm — all of v1/v2/v3, Dijkstra and
iterative pay the same bill for the same backlog — so it shifts every
curve up by a common per-run constant. The asymptotic orderings the
paper claims are therefore unaffected, but *close* calls can flip
under heavy update load: where v2 and v3 run nearly equal (deviation
2 above), or near the v1-vs-v2 crossover at short path lengths in
Figure 11, a sync bill comparable to the search cost itself can
reorder adjacent points. Updates that bypass the feed are worse: they
break the epoch chain and force a full drop-and-reload of S, a cost
on the order of the initial load rather than the touched tuples. The
figures below keep the paper's static-cost protocol; see
perfbench's `relational` workload (engine runs before and after an
incident) and `atis-repro bench-chaos` for the update-load
measurements.
"""


def generate_report(stream: Optional[TextIO] = None, verbose: bool = True) -> str:
    """Run all experiments and return the markdown report."""
    sections = [_HEADER]
    for spec in all_experiments():
        started = time.time()
        if verbose:
            print(f"running {spec.experiment_id}: {spec.title} ...", file=sys.stderr)
        result = spec.runner()
        elapsed = time.time() - started
        artifact_list = ", ".join(spec.paper_artifacts)
        parts = [f"## {spec.experiment_id} — {spec.title} ({artifact_list})", ""]
        parts.append(result.title)
        parts.append("")
        if result.iterations:
            parts.append("**Iterations** (paper value in parentheses):")
            parts.append("")
            parts.append(
                markdown_table(
                    result.iterations,
                    result.conditions,
                    paper=result.paper_iterations,
                )
            )
            parts.append("")
        if result.execution_cost:
            label = (
                "**Execution cost** (Table 4A units; paper value in "
                "parentheses):"
                if result.paper_costs
                else "**Execution cost** (Table 4A units):"
            )
            parts.append(label)
            parts.append("")
            parts.append(
                markdown_table(
                    result.execution_cost,
                    result.conditions,
                    paper=result.paper_costs,
                )
            )
            parts.append("")
        has_figure = any(
            artifact.startswith("Figure") for artifact in spec.paper_artifacts
        )
        if has_figure and result.execution_cost:
            from repro.experiments.figures import chart_for_result

            parts.append("```")
            parts.append(chart_for_result(result))
            parts.append("```")
            parts.append("")
        for artifact in spec.paper_artifacts:
            claim_key = artifact.lower().replace(" ", "-")
            if claim_key in FIGURE_CLAIMS:
                parts.append(f"*{artifact} claim checked*: {FIGURE_CLAIMS[claim_key]}")
                parts.append("")
        if result.notes:
            parts.append("```")
            parts.append(result.notes)
            parts.append("```")
            parts.append("")
        parts.append(f"_Experiment wall time: {elapsed:.1f}s_")
        sections.append("\n".join(parts))
    report = "\n\n".join(sections) + "\n"
    if stream is not None:
        stream.write(report)
    return report


def main(argv: Optional[list] = None) -> int:
    argv = argv if argv is not None else sys.argv[1:]
    output_path = argv[0] if argv else None
    report = generate_report(verbose=True)
    if output_path:
        with open(output_path, "w") as handle:
            handle.write(report)
        print(f"wrote {output_path}", file=sys.stderr)
    else:
        print(report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
