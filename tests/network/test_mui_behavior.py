"""Behavioral tests of the multi-user pipeline path.

Physics-level expectations: interference hurts a non-coherent energy
detector, weaker interference hurts less, SIR calibration lands exact
received ratios, the combine stage sums what it says it sums, and the
kernel backend refuses what it cannot synthesize.
"""

import numpy as np
import pytest

from repro.link import (
    AnalogFrontEndStage,
    ChannelStage,
    CombineStage,
    FastsimBackend,
    InterfererPath,
    InterfererSpec,
    KernelBackend,
    LinkSpec,
    NetworkSpec,
    SignalPipeline,
    TxStage,
    build_interferer_paths,
    calibrate,
    ops,
)
from repro.uwb.config import TEST_CONFIG
from repro.uwb.fastsim import BerResult
from repro.uwb.modulation import ppm_waveform, random_bits

BUDGET = dict(target_errors=100, max_bits=8_000, min_bits=4_000)
SPEC = LinkSpec(config=TEST_CONFIG)
EBN0 = 14.0


def _ber(network_or_spec, seed=21):
    errors, bits = FastsimBackend().ber_point(
        network_or_spec, EBN0, np.random.default_rng(seed), **BUDGET)
    return errors / bits


def _offset(fraction):
    return fraction * TEST_CONFIG.slot


class TestInterferenceBehavior:
    def test_equal_power_interferer_degrades_ber(self):
        clean = _ber(SPEC)
        jammed = _ber(NetworkSpec(victim=SPEC, interferers=(
            InterfererSpec(rel_power_db=0.0,
                           timing_offset=_offset(0.5)),)))
        assert jammed > max(clean * 5, 0.05)

    def test_weak_interferer_is_benign(self):
        clean = _ber(SPEC)
        faint = _ber(NetworkSpec(victim=SPEC, interferers=(
            InterfererSpec(rel_power_db=-30.0,
                           timing_offset=_offset(0.3)),)))
        assert faint <= max(clean * 2.0, 0.02)

    def test_more_interferers_hurt_more(self):
        def net(n):
            return NetworkSpec(victim=SPEC, interferers=tuple(
                InterfererSpec(rel_power_db=-3.0,
                               timing_offset=_offset(0.2 + 0.15 * i))
                for i in range(n)))

        one, four = _ber(net(1)), _ber(net(4))
        assert four > one

    def test_sir_calibration_exact(self):
        """rel_power_db is an exact received energy ratio: the
        calibrated amplitude reproduces it on the pilots."""
        network = NetworkSpec(victim=SPEC, interferers=(
            InterfererSpec(rel_power_db=-6.0),))
        cache = calibrate(SPEC)
        (path,) = build_interferer_paths(network, cache=cache)
        # The interferer's pilot energy through the victim's band-pass,
        # scaled by the calibrated amplitude, sits exactly 6 dB under
        # the victim's pilot energy.
        from repro.uwb.fastsim import _LinkCache

        pilot = _LinkCache(TEST_CONFIG, None, cache.bpf)
        ratio_db = 10 * np.log10(path.amplitude ** 2 * pilot.eb
                                 / cache.eb)
        assert ratio_db == pytest.approx(-6.0, abs=1e-9)

    def test_near_far_mode_uses_unit_amplitude(self):
        network = NetworkSpec(victim=SPEC, interferers=(
            InterfererSpec(rel_power_db=None),))
        (path,) = build_interferer_paths(network)
        assert path.amplitude == 1.0

    def test_independent_cm1_realizations(self):
        """Interferers draw their own channel, not the victim's."""
        spec = SPEC.with_channel(kind="cm1", distance=9.9,
                                 realization_seed=1234)
        network = NetworkSpec(victim=spec, interferers=(
            InterfererSpec(rel_power_db=None,
                           channel=spec.channel),
            InterfererSpec(rel_power_db=None,
                           channel=spec.channel.__class__(
                               kind="cm1", distance=9.9,
                               realization_seed=4321)),))
        same_seed, other_seed = build_interferer_paths(network)
        from repro.link import build_channel_realization

        victim_real = build_channel_realization(spec)
        assert np.array_equal(same_seed.channel.taps, victim_real.taps)
        assert not np.array_equal(other_seed.channel.taps,
                                  victim_real.taps)


def _front(cfg, interferers=()):
    """Tx -> Channel -> Combine -> AFE on an ideal link."""
    return SignalPipeline(stages=(
        TxStage(cfg), ChannelStage(cfg), CombineStage(cfg, interferers),
        AnalogFrontEndStage(cfg, calibrate(LinkSpec(config=cfg)).bpf,
                            1.0)))


class TestCombineStage:
    def test_sums_scaled_rolled_interferers(self):
        """The combined waveform is victim + sum(amp * roll(intf))
        with bits drawn victim-first, interferer order next."""
        cfg = TEST_CONFIG
        n = 16
        path = InterfererPath(amplitude=0.5, offset_samples=37)
        pipeline = _front(cfg, interferers=(path,))
        state = pipeline.run_chunk(n, np.random.default_rng(77),
                                   sigmas=[0.0])

        replay = np.random.default_rng(77)
        victim_bits = random_bits(n, replay)
        intf_bits = random_bits(n, replay)
        expected = ppm_waveform(victim_bits, cfg) + 0.5 * np.roll(
            ppm_waveform(intf_bits, cfg), 37)
        assert np.array_equal(state.bits, victim_bits)
        assert np.array_equal(state.interferer_bits[0], intf_bits)
        assert np.array_equal(state.waveform, expected)
        # sigma=0: the noise draw adds nothing.
        np.testing.assert_allclose(state.noisy, expected[None, :])

    def test_zero_interferers_leave_waveform_untouched(self):
        stage = CombineStage(TEST_CONFIG)
        assert stage.interferers == ()

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            _front(TEST_CONFIG).run_chunk(8, np.random.default_rng(1),
                                          sigmas=[0.1, -1.0])


class TestBackendSurface:
    def test_kernel_backend_rejects_networks(self):
        network = NetworkSpec(victim=SPEC)
        backend = KernelBackend(engine="reference")
        with pytest.raises(TypeError, match="NetworkSpec"):
            backend.ber_point(network, 8.0, np.random.default_rng(1))
        with pytest.raises(TypeError, match="NetworkSpec"):
            backend.packet(network, np.zeros(64))

    def test_ranging_rejects_networks(self):
        with pytest.raises(TypeError, match="NetworkSpec"):
            FastsimBackend().ranging(NetworkSpec(victim=SPEC), 3,
                                     np.random.default_rng(1))

    def test_ops_mui_ber_curve(self):
        network = NetworkSpec(victim=SPEC, interferers=(
            InterfererSpec(rel_power_db=0.0,
                           timing_offset=_offset(0.3)),))
        curve = ops.mui_ber_curve(network, (6.0, 14.0),
                                  np.random.default_rng(9),
                                  target_errors=50, max_bits=4_000,
                                  min_bits=2_000, label="jammed")
        assert isinstance(curve, BerResult)
        assert curve.label == "jammed"
        assert len(curve.ber) == 2
        assert curve.bits.sum() > 0

    def test_ops_mui_rejects_plain_link(self):
        with pytest.raises(TypeError, match="NetworkSpec"):
            ops.mui_ber_curve(SPEC, (8.0,), np.random.default_rng(1))
