"""CampaignRunner: cache hits, resume, fan-out, harness integration."""

import numpy as np
import pytest

from repro.campaign import (
    CampaignError,
    CampaignPreempted,
    CampaignReport,
    CampaignRunner,
    ResultStore,
)
from repro.core.scenario import Scenario, SweepRunner
from repro.uwb.modulation import random_bits


def build_runner(store, processes=None, ns=(4, 8, 16)):
    runner = CampaignRunner(processes=processes, store=store)
    for n in ns:
        runner.add(Scenario(name=f"bits{n}", fn=random_bits, seed=5,
                            rng_param="rng", params={"n": n}))
    return runner


class TestCaching:
    def test_second_run_executes_zero(self, tmp_path):
        store = ResultStore(tmp_path, salt="s")
        first = build_runner(store).run()
        assert (first.executed, first.cached) == (3, 0)
        second = build_runner(store).run()
        assert (second.executed, second.cached) == (0, 3)
        assert store.misses == 3 and store.hits == 3
        for a, b in zip(first, second):
            assert np.array_equal(a.value, b.value)
            assert b.cached and not a.cached

    def test_interrupted_campaign_resumes(self, tmp_path):
        """Only the missing scenarios execute after an 'interrupt'
        (simulated by a first run over a prefix of the campaign)."""
        store = ResultStore(tmp_path, salt="s")
        build_runner(store, ns=(4,)).run()          # checkpointed part
        resumed = build_runner(store).run()          # full campaign
        assert (resumed.executed, resumed.cached) == (2, 1)
        # values equal a fresh uncached run of the full campaign
        fresh = build_runner(None).run()
        for a, b in zip(resumed, fresh):
            assert np.array_equal(a.value, b.value)

    def test_no_store_passthrough(self):
        report = build_runner(None).run()
        assert isinstance(report, CampaignReport)
        assert (report.executed, report.cached) == (3, 0)
        plain = SweepRunner(
            [Scenario(name=f"bits{n}", fn=random_bits, seed=5,
                      rng_param="rng", params={"n": n})
             for n in (4, 8, 16)]).run()
        for a, b in zip(report, plain):
            assert np.array_equal(a.value, b.value)

    def test_report_interface_preserved(self, tmp_path):
        store = ResultStore(tmp_path, salt="s")
        report = build_runner(store).run()
        assert len(report) == 3
        assert set(report.by_name()) == {"bits4", "bits8", "bits16"}
        assert "bits4" in report.format_table()
        report2 = build_runner(store).run()
        assert "(cached)" in report2.format_table()
        assert report2.executed_wall_time == 0.0

    def test_uncacheable_scenarios_always_execute(self, tmp_path):
        store = ResultStore(tmp_path, salt="s")
        def build():
            r = CampaignRunner(store=store)
            r.add(Scenario(name="u", fn=random_bits, rng_param="rng",
                           params={"n": 4}))
            return r
        assert build().run().executed == 1
        assert build().run().executed == 1
        assert store.entries() == []


def _flaky(n, fail):
    if fail:
        raise RuntimeError("boom")
    return n * 2


class TestFailureCheckpointing:
    def build(self, store, fail_first, processes=None):
        runner = CampaignRunner(processes=processes, store=store)
        runner.add(Scenario(name="bad", fn=_flaky,
                            params={"n": 1, "fail": fail_first}))
        runner.add(Scenario(name="good", fn=_flaky,
                            params={"n": 2, "fail": False}))
        return runner

    @pytest.mark.parametrize("processes", [None, 2])
    def test_sibling_results_survive_a_failure(self, tmp_path, processes):
        """One failing scenario must not discard completed siblings'
        checkpoints (the 'loses at most the run in flight' contract).
        Serial execution fails fast, so only earlier scenarios are
        checkpointed; the pool drains every completed future."""
        store = ResultStore(tmp_path, salt="s")
        with pytest.raises(CampaignError, match="boom"):
            self.build(store, fail_first=True, processes=processes).run()
        resumed = self.build(store, fail_first=False,
                             processes=processes).run()
        if processes:
            # the pool finished 'good' before the failure surfaced
            assert resumed.cached == 1 and resumed.executed == 1
        assert resumed.by_name() == {"bad": 2, "good": 4}

    @pytest.mark.parametrize("processes", [None, 2])
    def test_error_names_scenario_and_checkpoints(self, tmp_path,
                                                  processes):
        """CampaignError carries context: which scenario failed, the
        original exception as __cause__, and how many sibling results
        were still checkpointed."""
        store = ResultStore(tmp_path, salt="s")
        with pytest.raises(CampaignError) as info:
            self.build(store, fail_first=True, processes=processes).run()
        exc = info.value
        assert [name for name, _ in exc.failures] == ["bad"]
        assert isinstance(exc.failures[0][1], RuntimeError)
        assert isinstance(exc.__cause__, RuntimeError)
        assert "bad" in str(exc) and "checkpointed" in str(exc)
        if processes:
            # the pool drained 'good' before raising
            assert exc.checkpointed == 1
        # the message count matches what is really in the store
        assert len(store.entries()) == exc.checkpointed

    def test_plain_runtime_error_still_catchable(self, tmp_path):
        """CampaignError subclasses RuntimeError, so pre-existing
        harness code catching RuntimeError keeps working."""
        store = ResultStore(tmp_path, salt="s")
        with pytest.raises(RuntimeError, match="boom"):
            self.build(store, fail_first=True).run()


class TestProgressAndPreemption:
    def test_progress_reported_per_scenario(self, tmp_path):
        store = ResultStore(tmp_path, salt="s")
        ticks = []
        store.progress_hook = ticks.append
        build_runner(store).run()
        assert [t.done for t in ticks] == [1, 2, 3]
        assert all(t.total == 3 for t in ticks)
        assert ticks[-1].executed == 3 and ticks[-1].cached == 0
        # one sample is no basis for a projection; from the second
        # sample on the history yields an ETA
        assert ticks[0].eta_seconds is None
        assert all(t.eta_seconds is not None for t in ticks[1:])
        assert ticks[-1].eta_seconds == 0.0
        assert ticks[0].last_name == "bits4"

    def test_cache_hits_feed_the_eta_history(self, tmp_path):
        store = ResultStore(tmp_path, salt="s")
        build_runner(store).run()
        ticks = []
        store.progress_hook = ticks.append
        build_runner(store).run()
        assert [t.cached for t in ticks] == [1, 2, 3]
        # hits carry the original run's wall time into the estimate
        # (the first tick has a single sample and stays unknown)
        assert ticks[0].eta_seconds is None
        assert all(t.eta_seconds is not None for t in ticks[1:])

    def test_explicit_progress_argument_wins(self, tmp_path):
        store = ResultStore(tmp_path, salt="s")
        store.progress_hook = lambda p: (_ for _ in ()).throw(
            AssertionError("store hook must not fire"))
        ticks = []
        runner = CampaignRunner(store=store, progress=ticks.append)
        runner.add(Scenario(name="bits4", fn=random_bits, seed=5,
                            rng_param="rng", params={"n": 4}))
        runner.run()
        assert len(ticks) == 1

    def test_preempt_serial_checkpoints_and_requeues(self, tmp_path):
        store = ResultStore(tmp_path, salt="s")
        fired = []

        def preempt():
            # allow exactly one scenario through, then preempt
            return len(fired) >= 1

        store.progress_hook = fired.append
        store.preempt_hook = preempt
        with pytest.raises(CampaignPreempted) as info:
            build_runner(store).run()
        assert info.value.checkpointed == 1
        assert info.value.remaining == ["bits8", "bits16"]
        assert len(store.entries()) == 1
        # resuming with hooks removed completes only the remainder
        store.progress_hook = store.preempt_hook = None
        resumed = build_runner(store).run()
        assert (resumed.executed, resumed.cached) == (2, 1)

    def test_preempt_parallel_drains_in_flight(self, tmp_path):
        store = ResultStore(tmp_path, salt="s")
        done = []
        store.progress_hook = done.append
        store.preempt_hook = lambda: len(done) >= 1
        with pytest.raises(CampaignPreempted) as info:
            build_runner(store, processes=2).run()
        # everything the pool completed was checkpointed before raising
        assert info.value.checkpointed == len(store.entries())
        assert info.value.checkpointed >= 1
        assert set(info.value.remaining) <= {"bits4", "bits8", "bits16"}
        store.progress_hook = store.preempt_hook = None
        resumed = build_runner(store).run()
        assert resumed.cached == info.value.checkpointed
        assert resumed.executed == 3 - info.value.checkpointed

    def test_preempt_before_anything_runs(self, tmp_path):
        store = ResultStore(tmp_path, salt="s")
        store.preempt_hook = lambda: True
        with pytest.raises(CampaignPreempted) as info:
            build_runner(store).run()
        assert info.value.checkpointed == 0
        assert len(info.value.remaining) == 3


class TestKeyParams:
    def test_key_params_override_shares_cache(self, tmp_path):
        store = ResultStore(tmp_path, salt="s")

        def build(n):
            r = CampaignRunner(store=store)
            r.add(Scenario(name="x", fn=_flaky,
                           params={"n": n, "fail": False},
                           key_params={"n": "any", "fail": False}))
            return r

        assert build(1).run().executed == 1
        # different execution param, same content address -> cache hit
        report = build(99).run()
        assert (report.executed, report.cached) == (0, 1)


class TestParallel:
    def test_parallel_campaign_caches(self, tmp_path):
        store = ResultStore(tmp_path, salt="s")
        first = build_runner(store, processes=2).run()
        assert first.executed == 3
        second = build_runner(store, processes=2).run()
        assert (second.executed, second.cached) == (0, 3)
        for a, b in zip(first, second):
            assert np.array_equal(a.value, b.value)

    def test_parallel_matches_serial_order_and_values(self, tmp_path):
        serial = build_runner(
            ResultStore(tmp_path / "a", salt="s")).run()
        parallel = build_runner(
            ResultStore(tmp_path / "b", salt="s"), processes=2).run()
        assert [r.name for r in serial] == [r.name for r in parallel]
        for a, b in zip(serial, parallel):
            assert np.array_equal(a.value, b.value)


class TestHarnessIntegration:
    def test_fig6_campaign_cache_hits_and_artifact(self, tmp_path):
        from repro.experiments import run_fig6
        from repro.uwb.fastsim import AdaptiveStopping

        store = ResultStore(tmp_path, salt="s")
        grid = (4.0, 10.0)
        kwargs = dict(ebn0_grid=grid, quick=True, store=store,
                      adaptive=AdaptiveStopping(ber_floor=1e-3))
        # The batched default runs the whole figure as one sweep
        # scenario (both curves share the seed, hence the front end).
        first = run_fig6(**kwargs)
        assert store.misses == 1 and store.hits == 0
        second = run_fig6(**kwargs)
        assert store.misses == 1 and store.hits == 1  # 0 new executions
        assert np.array_equal(first.comparison.ber_a,
                              second.comparison.ber_a)
        assert np.array_equal(first.comparison.ber_b,
                              second.comparison.ber_b)
        # adaptive artifact: error counts + Wilson bounds survive the
        # store round trip
        for curve in second.curves.values():
            assert curve.ci_low is not None and curve.ci_high is not None
            assert np.all(curve.ci_low <= curve.ber + 1e-12)
            assert np.all(curve.ber <= curve.ci_high + 1e-12)
            assert np.all(curve.errors >= 0)

    def test_table2_campaign_matches_uncached(self, tmp_path):
        from repro.experiments import run_table2

        store = ResultStore(tmp_path, salt="s")
        cached = run_table2(iterations=3, store=store)
        replay = run_table2(iterations=3, store=store)
        plain = run_table2(iterations=3)
        for label in ("ideal", "circuit"):
            assert np.array_equal(
                cached.comparison.entries[label].distances,
                plain.comparison.entries[label].distances)
            assert np.array_equal(
                replay.comparison.entries[label].distances,
                plain.comparison.entries[label].distances)
