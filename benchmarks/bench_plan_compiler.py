"""The per-batch plan compiler vs the interpreted per-operator path.

Drives a 10-query / 10-view workload over a 64-cell grid twice with
identical seeds: once with ``compile_plans=True`` (the default — one fused
program per chain, flatten/thin/partition decisions composed as index
masks and gathered once at delivery, shared view sorts) and once with
``compile_plans=False`` (the interpreted reference path).  Both runs must
deliver byte-identical streams; the comparison is pure execution cost.
Online SGD estimation is not part of the difference: both paths run the
same batched estimation phase before any chain executes.

The compiled path must win by at least 3x end-to-end (ISSUE 8 acceptance
criterion); the measured ratio and the plan cache's recompile counters are
persisted to ``BENCH_plan.json`` so the trajectory is tracked across PRs.
"""

import time

from repro.config import BudgetConfig, EngineConfig
from repro.core import CraqrEngine
from repro.geometry import Rectangle
from repro.metrics import ResultTable
from repro.sensing import (
    BernoulliParticipation,
    RainField,
    RandomWaypointMobility,
    SensingWorld,
    TemperatureField,
    WorldConfig,
)

REGION = Rectangle(0.0, 0.0, 8.0, 8.0)
BATCHES = 6

#: Minimum end-to-end speedup of the compiled path over the interpreted one.
REQUIRED_SPEEDUP = 3.0

#: Ten overlapping queries: a grid-wide sweep, quadrant queries, strips and
#: small hotspots, over both attributes, so chains share sources, stack
#: multiple thin levels and need partition masks.
QUERIES = [
    "ACQUIRE rain FROM RECT(0, 0, 8, 8) AT RATE 12 PER KM2 PER MIN AS Q0",
    "ACQUIRE rain FROM RECT(0, 0, 4, 4) AT RATE 24 PER KM2 PER MIN AS Q1",
    "ACQUIRE rain FROM RECT(4, 4, 8, 8) AT RATE 18 PER KM2 PER MIN AS Q2",
    "ACQUIRE rain FROM RECT(0, 4, 4, 8) AT RATE 9 PER KM2 PER MIN AS Q3",
    "ACQUIRE rain FROM RECT(2, 2, 6, 6) AT RATE 15 PER KM2 PER MIN AS Q4",
    "ACQUIRE rain FROM RECT(1.5, 0, 3.5, 2.5) AT RATE 30 PER KM2 PER MIN AS Q5",
    "ACQUIRE temp FROM RECT(0, 0, 8, 8) AT RATE 10 PER KM2 PER MIN AS Q6",
    "ACQUIRE temp FROM RECT(4, 0, 8, 4) AT RATE 20 PER KM2 PER MIN AS Q7",
    "ACQUIRE temp FROM RECT(2.5, 2.5, 5.5, 5.5) AT RATE 14 PER KM2 PER MIN AS Q8",
    "ACQUIRE temp FROM RECT(0, 6, 8, 8) AT RATE 7 PER KM2 PER MIN AS Q9",
]

#: One view per query, mixing aggregates, groupings and window shapes so
#: several views share a (slide, grouping) sort signature per query.
VIEWS = [
    "CREATE VIEW V0 ON Q0 AS AVG(value) GROUP BY CELL WINDOW 2",
    "CREATE VIEW V1 ON Q0 AS MAX(value) GROUP BY CELL WINDOW 4 SLIDE 2",
    "CREATE VIEW V2 ON Q1 AS COUNT(*) GROUP BY CELL WINDOW 2",
    "CREATE VIEW V3 ON Q2 AS AVG(value) GROUP BY CELL WINDOW 2",
    "CREATE VIEW V4 ON Q3 AS SUM(value) WINDOW 2",
    "CREATE VIEW V5 ON Q4 AS AVG(value) GROUP BY CELL WINDOW 2",
    "CREATE VIEW V6 ON Q5 AS MAX(value) WINDOW 4 SLIDE 2",
    "CREATE VIEW V7 ON Q6 AS AVG(value) GROUP BY CELL WINDOW 2",
    "CREATE VIEW V8 ON Q7 AS COUNT(*) GROUP BY CELL WINDOW 2",
    "CREATE VIEW V9 ON Q8 AS AVG(value) GROUP BY CELL WINDOW 4 SLIDE 2",
]


def make_world():
    """A fast-sim (vectorised RNG) crowd large enough to feed 64 cells."""
    world = SensingWorld(
        WorldConfig(
            region=REGION, sensor_count=900, seed=11, vectorized_rng=True
        ),
        mobility_factory=lambda r: RandomWaypointMobility(r, speed=0.3, pause=0.2),
        participation_factory=lambda sensor_id: BernoulliParticipation(
            0.7, mean_latency=0.1
        ),
    )
    world.register_field(RainField(REGION, band_width=2.0, period=60.0))
    world.register_field(TemperatureField(REGION))
    return world


def run_workload(compile_plans):
    config = EngineConfig(
        grid_cells=64,
        batch_duration=1.0,
        budget=BudgetConfig(initial=4000, delta=100, limit=8000),
        seed=42,
        online_estimation=True,
        compile_plans=compile_plans,
    )
    engine = CraqrEngine(config, make_world())
    for statement in QUERIES:
        engine.execute(statement)
    for statement in VIEWS:
        engine.execute(statement)
    start = time.perf_counter()
    engine.run(BATCHES)
    return time.perf_counter() - start, engine


def fingerprint(engine):
    """Cheap byte-identity proxy: delivered counts per query, frames per view."""
    per_query = {
        handle.query.label: len(handle.buffer) for handle in engine.query_handles()
    }
    per_view = {
        vh.name: (
            len(vh.frames()),
            sum(float(frame.values.sum()) for frame in vh.frames()),
        )
        for vh in engine.view_handles()
    }
    return engine.total_tuples_delivered(), per_query, per_view


def test_plan_compiler_end_to_end(record_table, record_plan_metric):
    # Warm-up run so allocator effects do not skew the first timed side.
    run_workload(True)
    interpreted_elapsed, interpreted = run_workload(False)
    compiled_elapsed, compiled = run_workload(True)

    # Identical seeds: the compiled kernels must keep exactly the tuples
    # the interpreted operators keep, batch for batch, view for view.
    assert fingerprint(compiled) == fingerprint(interpreted)
    assert compiled.plan_cache is not None and interpreted.plan_cache is None

    speedup = interpreted_elapsed / compiled_elapsed
    delivered = compiled.total_tuples_delivered()
    cache = compiled.plan_cache

    table = ResultTable(
        "E18 - plan compiler vs interpreted path (10 queries, 10 views, 64 cells)",
        ["path", "elapsed s", "tuples/s", "speedup"],
    )
    table.add_row("interpreted", f"{interpreted_elapsed:.3f}",
                  int(delivered / interpreted_elapsed), "1.0x")
    table.add_row("compiled", f"{compiled_elapsed:.3f}",
                  int(delivered / compiled_elapsed), f"{speedup:.1f}x")
    record_table("E18_plan_compiler", table)

    record_plan_metric(
        "plan_compiler_speedup",
        speedup,
        unit="x",
        detail={
            "queries": len(QUERIES),
            "views": len(VIEWS),
            "batches": BATCHES,
            "delivered": int(delivered),
            "interpreted_seconds": interpreted_elapsed,
            "compiled_seconds": compiled_elapsed,
            "cache_compiles": cache.compiles,
            "cache_reuses": cache.reuses,
        },
    )
    record_plan_metric(
        "plan_cache_reuse_ratio",
        cache.reuses / max(1, cache.reuses + cache.compiles),
        unit="",
        detail={"compiles": cache.compiles, "reuses": cache.reuses},
    )

    # The acceptance bar: the fused per-batch programs must carry the
    # whole workload at least 3x faster than the interpreted chain walk.
    assert speedup >= REQUIRED_SPEEDUP, (
        f"compiled path only {speedup:.2f}x faster than interpreted"
    )
