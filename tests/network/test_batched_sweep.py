"""Bit-identity of the scenario-batched sweep engine.

The sweep engine (``repro.link.pipeline.run_ber_sweep``) runs every
(integrator, Eb/N0) cell of a campaign from one shared entropy stream:
victim bits, interferer bits and the unit noise wave are drawn once per
chunk and only the noise *scale* differs per scenario row.  Under the
repository's per-run seeding convention - every BER point starts from
a generator freshly seeded with the run seed - cell ``(k, j)`` of a KxM
sweep must equal the 1x1 sweep ``FastsimBackend.ber_point(spec,
grid[j], fresh_rng, integrator=integrators[k])`` **bit for bit**, in
both fixed-n and adaptive modes, with and without interferers (the
1x1 sweep itself is pinned against the historic per-point loop by
``test_pipeline_parity.py``).  Cached campaign results and the
committed BENCH artifacts are only valid if these tests hold.
"""

import numpy as np
import pytest

from repro.link import FastsimBackend, LinkSpec, NetworkSpec, ops
from repro.link.backends import (
    _CALIBRATION_MEMO,
    _REALIZATION_MEMO,
    build_channel_realization,
    calibrate,
)
from repro.link.pipeline import run_ber_sweep
from repro.link.spec import ChannelSpec, FrontEndSpec, InterfererSpec
from repro.uwb.config import TEST_CONFIG
from repro.uwb.fastsim import AdaptiveStopping
from repro.uwb.integrator import IdealIntegrator
from repro.uwb.modulation import ppm_positions, ppm_waveform
from repro.uwb.pulse import sampled_pulse

BUDGET = dict(target_errors=40, max_bits=4_000, min_bits=1_000,
              chunk_bits=500)

#: fig6-convention link (BER drive, pulse-derived band-pass) on the
#: small test configuration.
SPEC = LinkSpec(config=TEST_CONFIG,
                frontend=FrontEndSpec(squarer_drive=0.05))

GRID = (2.0, 6.0, 10.0, 14.0)


def _pointwise(spec, grid, seed, integrator=None, adaptive=None,
               **budget):
    """The 1x1 oracle: each point from its own freshly seeded
    generator (the sharing convention the sweep engine exploits)."""
    backend = FastsimBackend()
    return [backend.ber_point(spec, p, np.random.default_rng(seed),
                              integrator=integrator, adaptive=adaptive,
                              **budget)
            for p in grid]


class TestCurveParity:
    @pytest.mark.parametrize("adaptive", [None,
                                          AdaptiveStopping(ber_floor=1e-2)],
                             ids=["fixed-n", "adaptive"])
    def test_fig6_grid_matches_pointwise(self, adaptive):
        curve = FastsimBackend().ber_curve(
            SPEC, GRID, np.random.default_rng(7),
            adaptive=adaptive, **BUDGET)
        expected = _pointwise(SPEC, GRID, 7, adaptive=adaptive,
                              **BUDGET)
        assert list(zip(curve.errors.tolist(),
                        curve.bits.tolist())) == expected

    def test_cm1_channel_grid_matches_pointwise(self):
        spec = LinkSpec(config=TEST_CONFIG,
                        channel=ChannelSpec(kind="cm1", distance=3.0))
        curve = FastsimBackend().ber_curve(
            spec, GRID[:2], np.random.default_rng(3), **BUDGET)
        expected = _pointwise(spec, GRID[:2], 3, **BUDGET)
        assert list(zip(curve.errors.tolist(),
                        curve.bits.tolist())) == expected

    @pytest.mark.parametrize("adaptive", [None,
                                          AdaptiveStopping(ber_floor=1e-2)],
                             ids=["fixed-n", "adaptive"])
    def test_mui_grid_matches_pointwise(self, adaptive):
        slot = TEST_CONFIG.slot
        network = NetworkSpec(
            victim=SPEC,
            interferers=(
                InterfererSpec(rel_power_db=-6.0,
                               timing_offset=0.21 * slot),
                InterfererSpec(rel_power_db=-6.0,
                               timing_offset=0.41 * slot)))
        curve = ops.mui_ber_curve(
            network, GRID[:3], np.random.default_rng(11),
            adaptive=adaptive, **BUDGET)
        expected = _pointwise(network, GRID[:3], 11,
                              adaptive=adaptive, **BUDGET)
        assert list(zip(curve.errors.tolist(),
                        curve.bits.tolist())) == expected


class TestMultiIntegratorSweep:
    def test_sweep_matches_standalone_curves(self):
        """One sweep over two integrators == two standalone curves ==
        every cell's 1x1 sweep: the shared front end changes
        nothing."""
        sweep = FastsimBackend().sweep(
            SPEC, GRID, np.random.default_rng(7),
            integrators=("ideal", "circuit"), **BUDGET)
        assert list(sweep) == ["ideal", "circuit"]
        for name in ("ideal", "circuit"):
            solo = FastsimBackend().ber_curve(
                SPEC, GRID, np.random.default_rng(7), integrator=name,
                **BUDGET)
            assert np.array_equal(sweep[name].errors, solo.errors)
            assert np.array_equal(sweep[name].bits, solo.bits)
            assert list(zip(sweep[name].errors.tolist(),
                            sweep[name].bits.tolist())) == _pointwise(
                SPEC, GRID, 7, integrator=name, **BUDGET)

    def test_ops_ber_sweep_rejects_sweepless_backend(self):
        with pytest.raises(TypeError, match="no batched sweep"):
            ops.ber_sweep(SPEC, GRID, np.random.default_rng(7),
                          backend="kernel")

    def test_sweep_label_validation(self):
        with pytest.raises(ValueError, match="labels"):
            FastsimBackend().sweep(SPEC, GRID, np.random.default_rng(7),
                                   integrators=("ideal", "circuit"),
                                   labels=("only-one",), **BUDGET)
        with pytest.raises(ValueError, match="duplicate"):
            FastsimBackend().sweep(SPEC, GRID, np.random.default_rng(7),
                                   integrators=("ideal", "circuit"),
                                   labels=("x", "x"), **BUDGET)


class TestRetirement:
    def test_resolved_cells_retire_without_perturbing_survivors(self):
        """Adaptive stopping drops resolved cells from the batch; the
        surviving cells' counters must equal their standalone runs
        (which never saw the retired scenarios at all)."""
        adaptive = AdaptiveStopping(ber_floor=1e-2)
        curve = FastsimBackend().ber_curve(
            SPEC, GRID, np.random.default_rng(13),
            adaptive=adaptive, **BUDGET)
        standalone = _pointwise(SPEC, GRID, 13, adaptive=adaptive,
                                **BUDGET)
        # the policy actually retired something mid-sweep (low-SNR
        # cells resolve fast, deep-SNR cells keep the batch alive)...
        assert len(set(curve.bits.tolist())) > 1
        # ...and every cell still matches its solo run bit for bit.
        assert list(zip(curve.errors.tolist(),
                        curve.bits.tolist())) == standalone

    def test_grid_subset_is_a_row_subset(self):
        """Removing scenarios from the batch does not move the
        survivors: a sweep over a sub-grid equals the matching rows of
        the full-grid sweep."""
        full = FastsimBackend().ber_curve(
            SPEC, GRID, np.random.default_rng(7), **BUDGET)
        sub = FastsimBackend().ber_curve(
            SPEC, GRID[1:3], np.random.default_rng(7), **BUDGET)
        assert np.array_equal(sub.errors, full.errors[1:3])
        assert np.array_equal(sub.bits, full.bits[1:3])


class TestValidation:
    def _front_and_decider(self):
        from repro.uwb.fastsim import _LinkCache
        from repro.link import pipeline as pipe

        cache = _LinkCache(TEST_CONFIG, None, None)
        front = pipe.SignalPipeline(stages=(
            pipe.TxStage(TEST_CONFIG),
            pipe.ChannelStage(TEST_CONFIG, None),
            pipe.CombineStage(TEST_CONFIG, ()),
            pipe.AnalogFrontEndStage(TEST_CONFIG, cache.bpf, 1.0)))
        return front, pipe.DecisionStage(TEST_CONFIG,
                                         IdealIntegrator(), None)

    @pytest.mark.parametrize("bad", [dict(chunk_bits=0),
                                     dict(max_bits=0),
                                     dict(min_bits=-1),
                                     dict(target_errors=0)])
    def test_nonsensical_budgets_raise(self, bad):
        front, decider = self._front_and_decider()
        budget = dict(BUDGET)
        budget.update(bad)
        with pytest.raises(ValueError):
            run_ber_sweep(front, [decider], np.array([1e-4]),
                          np.random.default_rng(0), **budget)

    def test_negative_sigma_raises(self):
        front, decider = self._front_and_decider()
        with pytest.raises(ValueError):
            run_ber_sweep(front, [decider], np.array([1e-4, -1.0]),
                          np.random.default_rng(0), **BUDGET)

    def test_empty_batch_returns_zero_counters(self):
        front, decider = self._front_and_decider()
        errors, bits = run_ber_sweep(front, [decider], np.zeros(0),
                                     np.random.default_rng(0), **BUDGET)
        assert errors.shape == (1, 0) and bits.shape == (1, 0)

    def test_cli_rejects_nonsensical_chunk_bits(self, capsys):
        from repro.campaign.cli import build_parser

        parser = build_parser()
        for bad in ("0", "-3", "many"):
            with pytest.raises(SystemExit):
                parser.parse_args(["run", "fig6", "--chunk-bits", bad])
        args = parser.parse_args(["run", "fig6", "--chunk-bits", "250"])
        assert args.chunk_bits == 250
        capsys.readouterr()


class TestMemoization:
    def test_calibration_memoized_per_spec(self):
        _CALIBRATION_MEMO.clear()
        a = calibrate(SPEC)
        b = calibrate(SPEC)
        assert a is b
        other = calibrate(LinkSpec(
            config=TEST_CONFIG,
            channel=ChannelSpec(kind="cm1", distance=3.0)))
        assert other is not a

    def test_explicit_channel_bypasses_memo(self):
        _CALIBRATION_MEMO.clear()
        spec = LinkSpec(config=TEST_CONFIG,
                        channel=ChannelSpec(kind="cm1", distance=3.0))
        channel = build_channel_realization(spec)
        assert calibrate(spec, channel=channel) \
            is not calibrate(spec, channel=channel)

    def test_realization_memoized_on_seeded_path(self):
        _REALIZATION_MEMO.clear()
        spec = LinkSpec(config=TEST_CONFIG,
                        channel=ChannelSpec(kind="cm1", distance=3.0))
        a = build_channel_realization(spec)
        b = build_channel_realization(spec)
        assert a is b
        # an explicit generator draws fresh (per-run realizations must
        # stay independent)
        c = build_channel_realization(spec, np.random.default_rng(1))
        assert c is not a


class TestVectorizedPpmWaveform:
    @staticmethod
    def _legacy(symbols, config, amplitude=1.0, extra_samples=0):
        """Verbatim copy of the pre-vectorization per-pulse loop."""
        config.validate()
        pulse = sampled_pulse(config.fs, config.pulse_tau,
                              config.pulse_order)
        half = len(pulse) // 2
        total = (len(symbols) * config.samples_per_symbol
                 + extra_samples)
        wave = np.zeros(total + len(pulse))
        for center in ppm_positions(symbols, config):
            wave[int(center):int(center) + len(pulse)] += \
                amplitude * pulse
        return wave[half:half + total]

    @pytest.mark.parametrize("amplitude", [1.0, 0.37])
    @pytest.mark.parametrize("extra", [0, 57])
    def test_disjoint_pulses_match_legacy(self, amplitude, extra):
        rng = np.random.default_rng(5)
        symbols = rng.integers(0, 2, size=64).astype(np.int8)
        got = ppm_waveform(symbols, TEST_CONFIG, amplitude=amplitude,
                           extra_samples=extra)
        want = self._legacy(symbols, TEST_CONFIG, amplitude=amplitude,
                            extra_samples=extra)
        assert np.array_equal(got, want)

    def test_overlapping_pulses_match_legacy(self):
        """A pulse longer than the slot makes neighboring supports
        overlap - the scatter must accumulate like the loop did."""
        import dataclasses

        config = dataclasses.replace(TEST_CONFIG,
                                     pulse_tau=TEST_CONFIG.pulse_tau * 8)
        pulse = sampled_pulse(config.fs, config.pulse_tau,
                              config.pulse_order)
        assert len(pulse) > config.samples_per_slot  # really overlaps
        rng = np.random.default_rng(6)
        symbols = rng.integers(0, 2, size=32).astype(np.int8)
        got = ppm_waveform(symbols, config)
        want = self._legacy(symbols, config)
        assert np.array_equal(got, want)

    def test_empty_symbols(self):
        got = ppm_waveform(np.zeros(0, dtype=np.int8), TEST_CONFIG,
                           extra_samples=13)
        assert np.array_equal(got, np.zeros(13))
