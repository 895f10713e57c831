"""Bit-identity of the staged sweep engine against the historic loop.

A BER point of the golden model is a 1x1 run of the staged sweep
engine (``repro.link.pipeline.run_ber_sweep``), which replaced the
monolithic per-point chunk loop; cached campaign results and committed
BENCH artifacts are only valid if that changed *nothing* about the
numbers.  ``_legacy_simulate_ber_point`` below is a verbatim copy of
the pre-refactor loop; every test asserts exact equality of
``FastsimBackend.ber_point``'s ``(errors, bits)`` counters with it at
fixed seeds.
"""

import dataclasses

import numpy as np
import pytest

from repro.link import FastsimBackend, LinkSpec, NetworkSpec
from repro.link.spec import ChannelSpec, FrontEndSpec
from repro.uwb.adc import Adc
from repro.uwb.channel.awgn import noise_sigma_for_ebn0
from repro.uwb.channel.ieee802154a import Cm1Channel
from repro.uwb.config import TEST_CONFIG
from repro.uwb.fastsim import AdaptiveStopping, _LinkCache
from repro.uwb.integrator import (
    CircuitSurrogateIntegrator,
    IdealIntegrator,
    TwoPoleIntegrator,
)
from repro.uwb.modulation import ppm_waveform, random_bits


def _legacy_simulate_ber_point(config, integrator, ebn0_db, rng, *,
                               channel=None, bpf=None,
                               squarer_drive=0.05, adc=None,
                               target_errors=100, max_bits=200_000,
                               min_bits=2_000, chunk_bits=1_000,
                               adaptive=None, _cache=None):
    """Verbatim copy of the pre-refactor monolithic chunk loop."""
    config.validate()
    cache = _cache or _LinkCache(config, channel, bpf)
    sigma = noise_sigma_for_ebn0(cache.eb, ebn0_db, config.fs)
    scale = squarer_drive / cache.peak

    n_sym = config.samples_per_symbol
    n_slot = config.samples_per_slot
    errors = 0
    bits_done = 0
    while bits_done < max_bits and (errors < target_errors
                                    or bits_done < min_bits):
        if (adaptive is not None and bits_done >= min_bits
                and adaptive.resolved(errors, bits_done)):
            break
        n = min(chunk_bits, max_bits - bits_done)
        bits = random_bits(n, rng)
        wave = ppm_waveform(bits, config)
        if cache.channel is not None:
            wave = cache.channel.apply(wave)[
                cache.channel.delay_samples:
                cache.channel.delay_samples + n * n_sym]
        noisy = wave + rng.normal(0.0, sigma, size=len(wave))
        filtered = cache.bpf(noisy)[:n * n_sym]
        driven = scale * filtered
        squared = np.square(driven).reshape(n, 2, n_slot)
        values = integrator.window_outputs(squared, config.dt)
        if adc is not None:
            values = adc.quantize(values)
        decided = (values[:, 1] > values[:, 0]).astype(np.int8)
        errors += int(np.count_nonzero(decided != bits))
        bits_done += n
    return errors, bits_done


def _integrators():
    return [
        pytest.param(IdealIntegrator, id="ideal"),
        pytest.param(TwoPoleIntegrator, id="two_pole"),
        pytest.param(CircuitSurrogateIntegrator, id="surrogate"),
    ]


BUDGET = dict(target_errors=40, max_bits=4_000, min_bits=1_000,
              chunk_bits=500)


def _point(spec, integrator, ebn0, seed, **budget):
    return FastsimBackend().ber_point(spec, ebn0,
                                      np.random.default_rng(seed),
                                      integrator=integrator, **budget)


class TestBitIdentity:
    @pytest.mark.parametrize("integrator_cls", _integrators())
    @pytest.mark.parametrize("with_adc", [False, True],
                             ids=["no-adc", "adc"])
    @pytest.mark.parametrize("with_cm1", [False, True],
                             ids=["awgn", "cm1"])
    def test_counters_match_legacy(self, integrator_cls, with_adc,
                                   with_cm1):
        # The spec selects exactly the oracle's components: the CM1
        # realization seeded 42 at 3 m, a 5-bit ADC at 10 mV.
        config = dataclasses.replace(TEST_CONFIG, adc_bits=5,
                                     adc_vref=0.01)
        spec = LinkSpec(config=config, frontend=FrontEndSpec(
            adc="config" if with_adc else "auto"))
        integrator = integrator_cls()
        channel = None
        if with_cm1:
            spec = spec.with_(channel=ChannelSpec(
                kind="cm1", distance=3.0, realization_seed=42))
            channel = Cm1Channel(config.fs).realize(
                3.0, np.random.default_rng(42))
        adc = Adc(bits=5, vref=0.01) if with_adc else None
        for ebn0 in (4.0, 10.0):
            legacy = _legacy_simulate_ber_point(
                config, integrator, ebn0, np.random.default_rng(7),
                channel=channel, adc=adc,
                squarer_drive=spec.frontend.squarer_drive, **BUDGET)
            staged = _point(spec, integrator, ebn0, 7, **BUDGET)
            assert staged == legacy

    @pytest.mark.parametrize("ber_floor", [0.0, 1e-2])
    def test_adaptive_stopping_path_matches(self, ber_floor):
        """The adaptive early-exit decisions (and therefore the bit
        totals) are preserved chunk for chunk."""
        spec = LinkSpec(config=TEST_CONFIG)
        adaptive = AdaptiveStopping(ber_floor=ber_floor)
        legacy = _legacy_simulate_ber_point(
            TEST_CONFIG, IdealIntegrator(), 12.0,
            np.random.default_rng(3), adaptive=adaptive,
            squarer_drive=spec.frontend.squarer_drive, **BUDGET)
        staged = _point(spec, IdealIntegrator(), 12.0, 3,
                        adaptive=adaptive, **BUDGET)
        assert staged == legacy

    def test_backend_point_matches_legacy(self):
        """Spec-level entry: FastsimBackend.ber_point is the legacy
        loop for a plain LinkSpec and its registry integrator."""
        spec = LinkSpec(config=TEST_CONFIG)
        staged = FastsimBackend().ber_point(
            spec, 8.0, np.random.default_rng(11), **BUDGET)
        legacy = _legacy_simulate_ber_point(
            TEST_CONFIG, IdealIntegrator(), 8.0,
            np.random.default_rng(11),
            squarer_drive=spec.frontend.squarer_drive, **BUDGET)
        assert staged == legacy

    def test_empty_network_degenerates_to_link(self):
        """NetworkSpec with no interferers is the victim link,
        bit for bit (the generator sees no extra draws)."""
        spec = LinkSpec(config=TEST_CONFIG)
        backend = FastsimBackend()
        plain = backend.ber_point(spec, 8.0, np.random.default_rng(5),
                                  **BUDGET)
        network = backend.ber_point(NetworkSpec(victim=spec), 8.0,
                                    np.random.default_rng(5), **BUDGET)
        assert network == plain

    def test_curve_matches_legacy_pointwise(self):
        """Every point of a curve is the legacy loop started from a
        generator seeded like the curve's (the sweep's shared-draw
        convention)."""
        config = TEST_CONFIG
        grid = (4.0, 8.0, 12.0)
        cache = _LinkCache(config, None, None)
        expected = [_legacy_simulate_ber_point(
                        config, IdealIntegrator(), point,
                        np.random.default_rng(13), _cache=cache,
                        **BUDGET)
                    for point in grid]
        curve = FastsimBackend().ber_curve(
            LinkSpec(config=config), grid, np.random.default_rng(13),
            **BUDGET)
        got = list(zip(curve.errors.tolist(), curve.bits.tolist()))
        assert got == expected
