"""Extension — the structure-agnostic traversal kernel across every index.

For each paged structure (hybrid tree + the seven ported baselines) the
benchmark measures, on the same clustered dataset and workload:

- **batch vs loop**: wall time of the kernel's shared-traversal ``*_many``
  call against the instrumented single-query loop (the ``*_loop`` methods), for
  box-range queries (distance-range on the M-tree, which has no box
  geometry) and k-NN — asserting the batch path wins the primary query
  kind for every structure, with bit-identical results;
- **parallel vs serial**: wall time of ``ParallelQueryEngine`` thread
  views of the live index at 1/2/4 workers, asserting bit-identical
  merged results (speedups are recorded, not asserted: small CI runners
  cannot beat the GIL-free serial loop).

Everything lands in ``benchmarks/results/BENCH_kernel.json``.  Scale knob:
``REPRO_SCALE`` as in every other benchmark.
"""

from __future__ import annotations

import json
import os
import time

from conftest import RESULTS_DIR, host_metadata, scaled

from repro.engine.mixins import LoopQueryMixin
from repro.datasets import clustered_dataset, range_workload
from repro.distances import L2
from repro.engine.parallel import ParallelQueryEngine
from repro.eval.harness import build_index
from repro.eval.report import render_table

K = 10
DIMS = 8
STRUCTURES = (
    "hybrid",
    "rtree",
    "xtree",
    "kdbtree",
    "sstree",
    "srtree",
    "mtree",
    "hbtree",
)


def _primary_queries(kind: str, index, workload):
    """The structure's primary bulk query: box range, or distance range
    for the M-tree (no box geometry)."""
    if getattr(index, "trav_supports_box", True):
        boxes = workload.boxes()
        return (
            "range",
            lambda: LoopQueryMixin.range_search_loop(
                index, boxes, return_metrics=True
            ),
            lambda: index.range_search_many(boxes),
        )
    centers, radii = workload.centers, 0.35
    return (
        "distance",
        lambda: LoopQueryMixin.distance_range_loop(
            index, centers, radii, L2, return_metrics=True
        ),
        lambda: index.distance_range_many(centers, radii, L2),
    )


def test_kernel_speedups(run_once, report):
    def experiment():
        data = clustered_dataset(scaled(6000), DIMS, seed=0)
        workload = range_workload(data, scaled(300, minimum=30), 0.002, seed=1)
        centers = workload.centers

        batch_rows = []
        parallel_rows = []
        for kind in STRUCTURES:
            index = build_index(kind, data)
            row = {"structure": kind}
            specs = [_primary_queries(kind, index, workload)]
            specs.append(
                (
                    "knn",
                    lambda: LoopQueryMixin.knn_loop(
                        index, centers, K, L2, return_metrics=True
                    ),
                    lambda: index.knn_many(centers, K, L2),
                )
            )
            for label, run_loop, run_batch in specs:
                start = time.perf_counter()
                loop_results, _ = run_loop()
                loop_wall = time.perf_counter() - start
                start = time.perf_counter()
                batch_results = run_batch()
                batch_wall = time.perf_counter() - start
                row[f"{label}_loop_s"] = round(loop_wall, 4)
                row[f"{label}_batch_s"] = round(batch_wall, 4)
                row[f"{label}_speedup"] = round(loop_wall / max(batch_wall, 1e-9), 2)
                row[f"{label}_identical"] = loop_results == batch_results
            row["primary"] = specs[0][0]
            batch_rows.append(row)

            serial = index.knn_many(centers, K, L2)
            base_wall = None
            for workers in (1, 2, 4):
                with ParallelQueryEngine(index, workers=workers) as engine:
                    engine.knn_many(centers[:2], K, L2)  # warm views
                    start = time.perf_counter()
                    results = engine.knn_many(centers, K, L2)
                    wall = time.perf_counter() - start
                if workers == 1:
                    base_wall = wall
                parallel_rows.append(
                    {
                        "structure": kind,
                        "workers": workers,
                        "wall_s": round(wall, 4),
                        "speedup_vs_1": round(base_wall / max(wall, 1e-9), 2),
                        "identical": results == serial,
                    }
                )
        return batch_rows, parallel_rows

    batch_rows, parallel_rows = run_once(experiment)
    payload = {
        "host": host_metadata(),
        "batch_vs_loop": batch_rows,
        "parallel_thread_views": parallel_rows,
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "BENCH_kernel.json"), "w") as f:
        json.dump(payload, f, indent=2)
    report(
        render_table(
            [
                {
                    "structure": r["structure"],
                    "primary": r["primary"],
                    "primary_speedup": r[f"{r['primary']}_speedup"],
                    "knn_speedup": r["knn_speedup"],
                }
                for r in batch_rows
            ],
            "kernel batch vs measured loop (wall-time speedup)",
        )
        + "\n\n"
        + render_table(parallel_rows, "live-index thread views, knn")
    )

    for row in batch_rows:
        kind, primary = row["structure"], row["primary"]
        assert row[f"{primary}_identical"], f"{kind}: batch diverged from loop"
        assert row["knn_identical"], f"{kind}: batch knn diverged from loop"
        assert row[f"{primary}_speedup"] > 1.0, (
            f"{kind}: kernel batch should beat the measured loop "
            f"({row[f'{primary}_batch_s']}s vs {row[f'{primary}_loop_s']}s)"
        )
    assert all(r["identical"] for r in parallel_rows), "parallel results diverged"
