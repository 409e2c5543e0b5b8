"""The compiled path's byte-identity contract, pinned across the matrix.

``EngineConfig.compile_plans`` (default on) must be purely an execution
strategy: for every mode combination — strict / fast-sim RNGs, columnar
on / off, the full flaky-crowd fault plan + mitigation bundle active, and
restore-from-checkpoint — the compiled fused kernels must serve exactly
the bytes the interpreted per-operator path serves.  The digests also pin
against the recovery suite's goldens, proving the default flip to
compiled plans changed nothing observable.
"""

from dataclasses import replace

import pytest

from recovery_harness import (
    engine_digest,
    make_engine,
    restore_latest_fresh,
    run_to,
)
from test_snapshot_roundtrip import GOLDEN_FAST_SIM, GOLDEN_STRICT

#: Digests of the recovery workload with ``online_estimation=True`` (every
#: Flatten tracks its intensity with the sliding-window SGD estimator).
#: Captured before the estimator's batched execution schedule landed; the
#: schedule may change, these bytes may not.
GOLDEN_ONLINE_STRICT = "5d1cf9e71a4c2817686d449fd032d69996439bc1b09e6ac5c82c8e35c5b520ff"
GOLDEN_ONLINE_FAST_SIM = "107922934e948a61a0657b8acc5f5a0c2c4dc334a41f5717eef286f8e09e7df0"


def make_engine_compiling(compile_plans, **kwargs):
    """The recovery harness's fully loaded engine, with the flag forced."""
    engine = make_engine(**kwargs)
    if engine.config.compile_plans != compile_plans:
        engine._config = replace(engine.config, compile_plans=compile_plans)
    return engine


class TestCompiledInterpretedEquivalence:
    @pytest.mark.parametrize("vectorized", [False, True], ids=["strict", "fast-sim"])
    def test_digest_matrix(self, vectorized):
        compiled = run_to(make_engine_compiling(True, vectorized=vectorized), 8)
        interpreted = run_to(make_engine_compiling(False, vectorized=vectorized), 8)
        golden = GOLDEN_FAST_SIM if vectorized else GOLDEN_STRICT
        assert engine_digest(compiled) == golden
        assert engine_digest(interpreted) == golden
        # The compiled run actually compiled (and reused) programs; the
        # interpreted run never touched the plan machinery.
        assert compiled.plan_cache is not None
        assert compiled.plan_cache.compiles > 0
        assert compiled.plan_cache.reuses > 0
        assert interpreted.plan_cache is None

    def test_object_path_ignores_the_flag(self):
        # columnar=False has no batches to compile; both flag values run
        # the object path and still hit the shared golden.
        engine = run_to(make_engine_compiling(True, columnar=False), 8)
        assert engine_digest(engine) == GOLDEN_STRICT
        assert engine.plan_cache is None

    def test_store_discarded_falls_back_to_interpreted(self, tmp_path):
        from repro.config import BudgetConfig, EngineConfig
        from repro.core import CraqrEngine
        from recovery_harness import make_world, simulate_fresh_process

        def build(store_discarded):
            simulate_fresh_process()
            config = EngineConfig(
                grid_cells=16,
                batch_duration=1.0,
                budget=BudgetConfig(
                    initial=40, delta=10, limit=400, violation_threshold=5.0
                ),
                seed=42,
                store_discarded=store_discarded,
            )
            engine = CraqrEngine(config, make_world())
            engine.execute(
                "ACQUIRE rain FROM RECT(0, 0, 2, 2) AT RATE 8 PER KM2 PER MIN AS Storm"
            )
            return run_to(engine, 4)

        recording = build(True)
        plain = build(False)
        # Discard recording needs the dropped tuples materialised, so the
        # compiled path stands down — and the streams still agree.
        assert recording.plan_cache is None
        assert plain.plan_cache is not None
        assert recording.discarded_store.total_discarded > 0
        assert engine_digest(recording) == engine_digest(plain)


class TestRestoreEquivalence:
    def test_restored_compiled_run_hits_the_golden(self, tmp_path):
        # Run A: uninterrupted to 8. Run B: crash after 5, restore from the
        # batch-4 checkpoint, continue to 8. Both compiled, both golden.
        run_to(make_engine_compiling(True, checkpoint_dir=tmp_path, every=2), 5)
        restored = restore_latest_fresh(tmp_path)
        # The plan cache is derived state: never checkpointed, rebuilt
        # lazily on the first batch after restore.
        assert restored.plan_cache is None
        run_to(restored, 8)
        assert restored.plan_cache is not None
        assert restored.plan_cache.compiles > 0
        assert engine_digest(restored) == GOLDEN_STRICT

    def test_cross_mode_restore(self, tmp_path):
        # A checkpoint taken by a compiled engine restores into an
        # interpreted continuation (and vice versa) with identical bytes:
        # nothing about the execution strategy leaks into the snapshot.
        run_to(make_engine_compiling(True, checkpoint_dir=tmp_path, every=2), 5)
        as_interpreted = restore_latest_fresh(tmp_path)
        as_interpreted._config = replace(
            as_interpreted.config, compile_plans=False
        )
        run_to(as_interpreted, 8)
        assert as_interpreted.plan_cache is None
        assert engine_digest(as_interpreted) == GOLDEN_STRICT


def _online_estimators_switched(engine):
    """Whether some Flatten now uses its SGD intensity instead of the MLE."""
    planner = engine._planner
    for key in planner.materialized_cells:
        topology = planner.cell_topology(key)
        for attribute in topology.attributes:
            flatten = topology.chain(attribute).flatten
            if flatten._online_estimator.updates >= 2 * flatten._min_batch_for_fit:
                return True
    return False


_MODES = pytest.mark.parametrize("vectorized", [False, True], ids=["strict", "fast-sim"])


def _online_golden(vectorized):
    return GOLDEN_ONLINE_FAST_SIM if vectorized else GOLDEN_ONLINE_STRICT


class TestOnlineEstimationGoldens:
    """The online SGD estimator's streams, pinned across execution paths."""

    @_MODES
    @pytest.mark.parametrize("compile_plans", [True, False], ids=["compiled", "interpreted"])
    def test_columnar_paths(self, vectorized, compile_plans):
        engine = run_to(
            make_engine_compiling(
                compile_plans, vectorized=vectorized, online_estimation=True
            ),
            8,
        )
        assert (engine.plan_cache is not None) == compile_plans
        assert _online_estimators_switched(engine)
        assert engine_digest(engine) == _online_golden(vectorized)

    def test_object_path(self):
        # Strict RNGs only: fast-sim acquisition is columnar-specific, so
        # its object-path streams differ by design (as with the MLE goldens).
        engine = run_to(
            make_engine_compiling(True, columnar=False, online_estimation=True), 8
        )
        assert engine.plan_cache is None
        assert _online_estimators_switched(engine)
        assert engine_digest(engine) == GOLDEN_ONLINE_STRICT

    @_MODES
    def test_restore_mid_run(self, vectorized, tmp_path):
        run_to(
            make_engine_compiling(
                True,
                vectorized=vectorized,
                online_estimation=True,
                checkpoint_dir=tmp_path,
                every=2,
            ),
            5,
        )
        restored = restore_latest_fresh(tmp_path)
        run_to(restored, 8)
        assert _online_estimators_switched(restored)
        assert engine_digest(restored) == _online_golden(vectorized)


class TestSharedViewSorts:
    def test_shared_sort_cache_is_byte_identical(self):
        def build(compile_plans):
            engine = make_engine_compiling(compile_plans)
            # Three more views on the same query: two share the default
            # view's (slide=2, cell) signature, one sorts alone.
            engine.execute(
                "CREATE VIEW RainMax ON Storm AS MAX(value) GROUP BY CELL WINDOW 2"
            )
            engine.execute(
                "CREATE VIEW RainSum ON Storm AS SUM(value) GROUP BY CELL WINDOW 4 SLIDE 2"
            )
            engine.execute("CREATE VIEW RainCount ON Storm AS COUNT(*) WINDOW 2")
            return run_to(engine, 8)

        compiled = build(True)
        interpreted = build(False)
        assert engine_digest(compiled) == engine_digest(interpreted)
        view = compiled._views["Rain"]
        cache = view._shared_sort
        assert cache is not None
        # All four views on Storm share one cache object; the three views
        # with the (slide=2, cell/region) signatures produced actual reuse.
        assert compiled._views["RainMax"]._shared_sort is cache
        assert compiled._views["RainCount"]._shared_sort is cache
        assert cache.hits > 0
        # The interpreted run installs no cache on views created after the
        # flag flipped off (the harness's default view predates the flip).
        assert interpreted._views["RainMax"]._shared_sort is None
        assert interpreted._views["RainCount"]._shared_sort is None

    def test_views_created_after_restore_share_the_cache(self, tmp_path):
        def drive(engine):
            run_to(engine, 6)
            engine.execute(
                "CREATE VIEW Late ON Storm AS MAX(value) GROUP BY CELL WINDOW 2"
            )
            return run_to(engine, 8)

        run_to(make_engine_compiling(True, checkpoint_dir=tmp_path, every=2), 5)
        restored = restore_latest_fresh(tmp_path)
        drive(restored)
        assert restored._views["Late"]._shared_sort is (
            restored._views["Rain"]._shared_sort
        )
        uninterrupted = drive(make_engine_compiling(True))
        assert engine_digest(restored) == engine_digest(uninterrupted)
