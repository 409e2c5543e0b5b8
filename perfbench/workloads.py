"""The benchmark's three workloads and the caller-side sessions that drive them.

Every workload is a closed loop: one caller asks for a batch, waits for it,
reads what it delivered, and only then asks for the next.  The program
only ever sees the generated inputs; the workload seed is split into the
world, engine and fault-plan seeds by :func:`derive_seeds`.

* ``city-3k`` — the stock rain + temperature city at 3000 strict-RNG
  sensors, default engine configuration.  The sensing layer (world
  advance, per-cell acquisition) does most of the work.
* ``online-64`` — ten overlapping queries and ten views over a 64-cell
  grid, a 900-sensor fast-sim crowd and online (SGD) intensity
  estimation.  The SGD estimator, the compiled plan executor and the view
  fold do the work; sensing runs the fused fast-sim path.
* ``served-flaky`` — the flaky-crowd scenario (every fault class, every
  mitigation) behind the serving layer, driven by one blocking client
  that runs, reads push events, fetches by resume token, checkpoints and
  alters a rate: the only workload that writes.
"""

from __future__ import annotations

import gc
import pathlib
import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.config import BudgetConfig, EngineConfig
from repro.core import CraqrEngine
from repro.errors import ServeError
from repro.geometry import Rectangle
from repro.sensing import (
    BernoulliParticipation,
    RainField,
    RandomWaypointMobility,
    SensingWorld,
    TemperatureField,
    WorldConfig,
)
from repro.serve import ServeClient, ServeConfig, serve_in_thread
from repro.streams.codec import decode_tuple_batch, decode_view_frame
from repro.workloads.scenarios import (
    build_rain_temperature_world,
    default_engine_config,
    flaky_crowd_scenario,
)


class WorkloadError(Exception):
    """A caller-visible operation of a workload failed."""


@dataclass(frozen=True)
class Seeds:
    world: int
    engine: int
    faults: int


def derive_seeds(seed: int) -> Seeds:
    """Split one workload seed into independent world/engine/fault seeds."""
    world, engine, faults = np.random.SeedSequence(seed).generate_state(3)
    return Seeds(int(world), int(engine), int(faults))


@dataclass
class StepSample:
    """What the caller observed for one batch."""

    batch_ms: float
    #: time from asking for the batch until the probe query's deliveries
    #: reached a subscriber (``None`` when the probe got nothing)
    push_lag_ms: Optional[float]
    fetch_ms: List[float]
    checkpoint_ms: Optional[float] = None
    #: caller-visible operations this step performed
    ops: int = 1


# ----------------------------------------------------------------------
# Statement sets
# ----------------------------------------------------------------------
CITY_STATEMENTS = (
    "ACQUIRE rain FROM RECT(0, 0, 2, 2) AT RATE 10 PER KM2 PER MIN AS Storm",
    "ACQUIRE temp FROM RECT(1, 1, 3, 3) AT RATE 6 PER KM2 PER MIN AS Heat",
    "ACQUIRE temp FROM RECT(0, 0, 4, 4) AT RATE 3 PER KM2 PER MIN AS City",
    "CREATE VIEW HeatAvg ON Heat AS AVG(value) GROUP BY CELL WINDOW 2",
)

#: The plan-compiler statement set: ten overlapping queries (a grid-wide
#: sweep, quadrants, strips, hotspots, both attributes) and one view each.
ONLINE_QUERIES = (
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
)
ONLINE_VIEWS = (
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
)

SERVED_STATEMENTS = CITY_STATEMENTS + (
    "CREATE VIEW CityMax ON City AS MAX(value) WINDOW 4 SLIDE 2",
)
SERVED_FETCHED = ("Storm", "Heat", "City")
SERVED_VIEWS = ("HeatAvg", "CityMax")
#: The served query whose rate the workload alters (every ALTER_EVERY
#: batches, alternating between the two rates).
ALTERED_QUERY = "Storm"
ALTER_RATES = (14, 10)
ALTER_EVERY = 25
#: Batches between checkpoints.  The heap is collected just before each
#: checkpoint, outside its time: a checkpoint allocates enough to set off
#: a full collection about every fifth time, and whether that lands on
#: it depends on what the batches before it left, so without the
#: collection one checkpoint in ten samples could move the median ~2x.
CHECKPOINT_EVERY = 10

#: Batches every workload runs during set-up, before timing starts: they
#: absorb scipy's lazy import and the first plan compile.
WARMUP_BATCHES = 5

#: Client socket timeout and the wait for one push event, in seconds.
CLIENT_TIMEOUT = 60.0
EVENT_TIMEOUT = 20.0


# ----------------------------------------------------------------------
# Sessions
# ----------------------------------------------------------------------
class InProcessSession:
    """The caller holds the engine: ``run_batch`` plus cursor reads.

    Each batch the caller pulls every query's new deliveries through a
    resumable cursor, and a push subscription on the probe query stamps
    when that query's deliveries reached a subscriber.  :meth:`step`
    never checkpoints: a capture slows this engine's later batches, and
    the in-process workloads are chosen to read, not write.  The
    benchmark calls :meth:`checkpoint` only on a spare session that it
    does not time.
    """

    served = False
    skipped = 0

    def __init__(self, engine: CraqrEngine, probe: str, scratch: pathlib.Path) -> None:
        self.engine = engine
        self.probe = probe
        self.steady_queries = [h.query.label for h in engine.query_handles()]
        self._checkpoint_path = scratch / "inprocess.ckpt"
        self._cursors = {h.query.label: h.cursor() for h in engine.query_handles()}
        self.fetched: Dict[str, list] = {label: [] for label in self._cursors}
        self.pushed: list = []
        self.pushed_frames: Dict[str, list] = {}
        self._pushed_at: Optional[float] = None
        engine.query(probe).subscribe(self._on_probe)

    def _on_probe(self, batch) -> None:
        self._pushed_at = time.perf_counter()
        self.pushed.append(batch)

    def step(self) -> StepSample:
        self._pushed_at = None
        start = time.perf_counter()
        self.engine.run_batch()
        end = time.perf_counter()
        lag = None if self._pushed_at is None else (self._pushed_at - start) * 1e3
        fetch_ms = []
        for label, cursor in self._cursors.items():
            t0 = time.perf_counter()
            batch = cursor.fetch_batch()
            fetch_ms.append((time.perf_counter() - t0) * 1e3)
            if len(batch):
                self.fetched[label].append(batch)
        return StepSample((end - start) * 1e3, lag, fetch_ms, ops=1 + len(fetch_ms))

    def checkpoint(self) -> float:
        gc.collect()  # see CHECKPOINT_EVERY
        start = time.perf_counter()
        self.engine.checkpoint(str(self._checkpoint_path))
        return (time.perf_counter() - start) * 1e3

    def close(self) -> None:
        self._checkpoint_path.unlink(missing_ok=True)


class ServedSession:
    """The engine lives behind ``serve_in_thread``; one blocking client drives it.

    Per batch the client sends ``run 1``, reads push events until the
    probe query's batch event arrives (view frames on the way are kept),
    fetches every :data:`SERVED_FETCHED` query by resume token, checkpoints
    every :data:`CHECKPOINT_EVERY` batches and alters
    :data:`ALTERED_QUERY`'s rate every :data:`ALTER_EVERY` batches.
    """

    served = True
    probe = "City"

    def __init__(self, engine: CraqrEngine, scratch: pathlib.Path) -> None:
        self.engine = engine
        self.steady_queries = [q for q in SERVED_FETCHED if q != ALTERED_QUERY]
        self._checkpoint_path = scratch / "served.ckpt"
        self._server, (host, port), self._stop = serve_in_thread(engine, ServeConfig())
        self.client = None
        try:
            self.client = ServeClient(host, port, timeout=CLIENT_TIMEOUT)
            for row in self.client.execute("\n".join(f"{s};" for s in SERVED_STATEMENTS)):
                if not row["ok"]:
                    raise WorkloadError(f"statement failed: {row['error']}")
            self.client.subscribe(query=self.probe)
            for view in SERVED_VIEWS:
                self.client.subscribe(view=view)
        except BaseException:
            self.close()
            raise
        self._tokens: Dict[str, Optional[str]] = {label: None for label in SERVED_FETCHED}
        self.fetched: Dict[str, list] = {label: [] for label in SERVED_FETCHED}
        self.pushed: list = []
        self.pushed_frames: Dict[str, list] = {view: [] for view in SERVED_VIEWS}
        self.batches = 0
        #: push events the server reported skipped (``skip`` backpressure)
        self.skipped = 0

    def _take_event(self, header: dict, payload: bytes) -> bool:
        """Keep one push event; ``True`` when it is the probe's batch."""
        self.skipped += header.get("skipped", 0)
        if header.get("event") == "frame":
            self.pushed_frames[header["view"]].append(decode_view_frame(payload))
            return False
        if header.get("event") == "batch" and header.get("query") == self.probe:
            self.pushed.append(decode_tuple_batch(payload))
            return True
        raise WorkloadError(f"unexpected push event {header!r}")

    def step(self) -> StepSample:
        ops = 2
        start = time.perf_counter()
        self.client.run(1)
        end = time.perf_counter()
        while True:
            header, payload = self.client.next_event(timeout=EVENT_TIMEOUT)
            if self._take_event(header, payload):
                lag = (time.perf_counter() - start) * 1e3
                break
        fetch_ms = []
        for label in SERVED_FETCHED:
            t0 = time.perf_counter()
            reply, payload = self.client.fetch(query=label, token=self._tokens[label])
            fetch_ms.append((time.perf_counter() - t0) * 1e3)
            self._tokens[label] = reply["token"]
            if reply["count"]:
                self.fetched[label].append(decode_tuple_batch(payload))
        ops += len(fetch_ms)
        self.batches += 1
        checkpoint_ms = None
        if self.batches % CHECKPOINT_EVERY == 0:
            gc.collect()  # see CHECKPOINT_EVERY
            t0 = time.perf_counter()
            self.client.checkpoint(str(self._checkpoint_path))
            checkpoint_ms = (time.perf_counter() - t0) * 1e3
            ops += 1
        if self.batches % ALTER_EVERY == 0:
            rate = ALTER_RATES[(self.batches // ALTER_EVERY - 1) % len(ALTER_RATES)]
            for row in self.client.execute(f"ALTER {ALTERED_QUERY} SET RATE {rate}"):
                if not row["ok"]:
                    raise WorkloadError(f"ALTER failed: {row['error']}")
            ops += 1
        return StepSample((end - start) * 1e3, lag, fetch_ms, checkpoint_ms, ops)

    def close(self) -> None:
        """Drain the push events still in flight, then stop client and server."""
        try:
            if self.client is not None:
                # Frames published by the last batch may still be on the
                # wire behind the probe's event.
                while True:
                    try:
                        header, payload = self.client.next_event(timeout=0.2)
                    except ServeError:  # no more events within the wait
                        break
                    self._take_event(header, payload)
        finally:
            if self.client is not None:
                self.client.close()
            self._stop()
            self._checkpoint_path.unlink(missing_ok=True)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def build_city_3k(seeds: Seeds, scratch: pathlib.Path) -> InProcessSession:
    world = build_rain_temperature_world(sensor_count=3000, seed=seeds.world)
    engine = CraqrEngine(default_engine_config(seed=seeds.engine), world)
    for statement in CITY_STATEMENTS:
        engine.execute(statement)
    return InProcessSession(engine, "City", scratch)


ONLINE_REGION = Rectangle(0.0, 0.0, 8.0, 8.0)


def build_online_64(seeds: Seeds, scratch: pathlib.Path) -> InProcessSession:
    world = SensingWorld(
        WorldConfig(
            region=ONLINE_REGION, sensor_count=900, seed=seeds.world, vectorized_rng=True
        ),
        mobility_factory=lambda r: RandomWaypointMobility(r, speed=0.3, pause=0.2),
        participation_factory=lambda sensor_id: BernoulliParticipation(
            0.7, mean_latency=0.1
        ),
    )
    world.register_field(RainField(ONLINE_REGION, band_width=2.0, period=60.0))
    world.register_field(TemperatureField(ONLINE_REGION))
    config = EngineConfig(
        grid_cells=64,
        batch_duration=1.0,
        # The floor pins the per-cell budget from the first batch, so the
        # timed batches are in steady state instead of walking the budget
        # down 10 requests per batch.
        budget=BudgetConfig(initial=200, delta=10, limit=800, floor=200),
        seed=seeds.engine,
        online_estimation=True,
    )
    engine = CraqrEngine(config, world)
    for statement in ONLINE_QUERIES + ONLINE_VIEWS:
        engine.execute(statement)
    return InProcessSession(engine, "Q0", scratch)


def build_served_flaky(seeds: Seeds, scratch: pathlib.Path) -> ServedSession:
    scenario = flaky_crowd_scenario(
        sensor_count=300, seed=seeds.world, fault_seed=seeds.faults
    )
    engine = CraqrEngine(replace(scenario.config, seed=seeds.engine), scenario.world)
    return ServedSession(engine, scratch)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: constructs the world and engine and returns a ready session
    build: Callable[[Seeds, pathlib.Path], object]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "city-3k",
            "default config at 3000 strict-RNG sensors: world advance and per-cell acquisition dominate",
            build_city_3k,
        ),
        Workload(
            "online-64",
            "10 queries + 10 views on 64 cells with online SGD estimation: estimator, compiled plans and view fold dominate",
            build_online_64,
        ),
        Workload(
            "served-flaky",
            "flaky crowd behind the server: fault/retry acquisition, push fan-out, token fetch, checkpoints and DDL",
            build_served_flaky,
        ),
    )
}
