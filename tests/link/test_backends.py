"""Backend protocol: construction, operations, builder fidelity."""

import numpy as np
import pytest

from repro.link import (
    Backend,
    ChannelSpec,
    FastsimBackend,
    FrontEndSpec,
    KernelBackend,
    LinkSpec,
    build_bpf,
    build_channel_realization,
    build_receiver,
    calibrate,
    get_backend,
    ops,
    register_backend,
)
from repro.uwb.agc import Agc, TwoStageAgc
from repro.uwb.config import UwbConfig
from repro.uwb.integrator import (
    CircuitSurrogateIntegrator,
    IdealIntegrator,
    TwoPoleIntegrator,
    WindowIntegrator,
)
from repro.uwb.modulation import ppm_waveform, random_bits

FAST = UwbConfig(fs=8e9, symbol_period=16e-9, pulse_tau=0.225e-9,
                 pulse_order=5, integration_window=2e-9)
SPEC = LinkSpec(config=FAST)


class TestGetBackend:
    def test_by_name(self):
        assert isinstance(get_backend("fastsim"), FastsimBackend)
        kernel = get_backend("kernel", engine="reference")
        assert isinstance(kernel, KernelBackend)
        assert kernel.engine == "reference"

    def test_instance_passthrough(self):
        b = FastsimBackend()
        assert get_backend(b) is b

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend("eldo")

    def test_register_backend_duplicate_rejected(self):
        with pytest.raises(KeyError):
            register_backend("fastsim", FastsimBackend)


class TestBuilders:
    def test_bpf_from_band_and_pulse(self):
        explicit = build_bpf(SPEC.with_frontend(band=(1e9, 3e9)))
        assert explicit.band == (1e9, 3e9)
        derived = build_bpf(SPEC)
        assert 0 < derived.band[0] < derived.band[1] < FAST.fs / 2

    def test_channel_realization_deterministic(self):
        spec = SPEC.with_channel(kind="cm1", distance=4.0)
        a = build_channel_realization(spec)
        b = build_channel_realization(spec)
        assert np.array_equal(a.taps, b.taps)
        assert a.delay_samples == b.delay_samples
        assert build_channel_realization(SPEC) is None

    def test_calibrate_positive_energy(self):
        cache = calibrate(SPEC)
        assert cache.eb > 0 and cache.peak > 0

    def test_receiver_wiring_from_spec(self):
        spec = SPEC.with_frontend(agc="two_stage", agc_amp_target=0.06,
                                  detection_factor=8.0,
                                  toa_threshold_fraction=0.5)
        rx = build_receiver(spec)
        assert isinstance(rx.agc, TwoStageAgc)
        assert rx.agc.amp_target == 0.06
        assert rx.detection_factor == 8.0
        assert rx.toa_threshold_fraction == 0.5
        assert isinstance(rx.integrator, IdealIntegrator)
        single = build_receiver(SPEC)
        assert type(single.agc) is Agc

    def test_receiver_integrator_override(self):
        model = TwoPoleIntegrator()
        rx = build_receiver(SPEC, integrator=model)
        assert rx.integrator is model

    def test_receiver_rejects_gainless_integrator(self):
        class Opaque(WindowIntegrator):
            def window_outputs(self, x, dt):
                return np.sum(x, axis=-1) * dt

            def make_state(self):  # pragma: no cover - unused
                raise NotImplementedError

        with pytest.raises(ValueError, match="ideal_k"):
            build_receiver(SPEC, integrator=Opaque())


class TestFastsimBackend:
    def test_ber_point_matches_legacy_entry_point(self):
        """The backend point is the engine's 1x1 sweep over the
        components the spec builds: identical seed, identical
        counters."""
        from repro.uwb.fastsim import _ber_sweep

        budget = dict(target_errors=20, max_bits=3000, min_bits=500)
        spec = SPEC.with_frontend(band=(1.0e9, 3.5e9))
        via_backend = FastsimBackend().ber_point(
            spec, 8.0, np.random.default_rng(5), **budget)
        errors, bits = _ber_sweep(
            FAST, (IdealIntegrator(),), [8.0], np.random.default_rng(5),
            bpf=build_bpf(spec), **budget)
        assert via_backend == (errors[0, 0], bits[0, 0])

    def test_ber_curve_decreases_with_snr(self):
        curve = FastsimBackend().ber_curve(
            SPEC, [2.0, 8.0, 14.0], np.random.default_rng(3),
            target_errors=40, max_bits=8000, min_bits=800)
        assert curve.ber[0] > curve.ber[1] > curve.ber[2]
        assert curve.label == "ideal"

    def test_integrator_params_reach_model(self):
        spec = SPEC.with_(integrator="two_pole",
                          integrator_params={"fp2_hz": 2.5e9})
        curve = FastsimBackend().ber_curve(
            spec, [8.0], np.random.default_rng(3),
            target_errors=10, max_bits=1000, min_bits=400)
        assert curve.label == "two_pole"

    def test_circuit_resolves_to_surrogate(self):
        spec = SPEC.with_(integrator="circuit")
        e, b = FastsimBackend().ber_point(
            spec, 10.0, np.random.default_rng(4),
            target_errors=10, max_bits=1000, min_bits=400)
        assert b >= 400

    def test_packet_demodulates_clean_burst(self):
        bits = np.array([1, 0, 0, 1, 1, 0], dtype=np.int8)
        sig = _conditioned(bits)
        res = FastsimBackend().packet(SPEC, sig)
        assert np.array_equal(res.bits, bits)
        assert res.slot_values.shape == (len(bits), 2)

    def test_ranging_smoke(self):
        spec = LinkSpec(
            config=UwbConfig(preamble_symbols=16, payload_bits=16,
                             adc_vref=2e-3, agc_range_db=80.0),
            channel=ChannelSpec(kind="cm1", distance=3.0),
            frontend=FrontEndSpec(detection_factor=8.0,
                                  toa_threshold_fraction=0.5),
            integrator="ideal")
        res = FastsimBackend().ranging(spec, 2,
                                       np.random.default_rng(1),
                                       noise_sigma=9e-5)
        assert len(res.distances) == 2
        assert 1.0 < res.mean < 6.0


class TestKernelBackend:
    def test_packet_matches_fastsim_on_clean_burst(self):
        bits = np.array([1, 0, 1, 1, 0], dtype=np.int8)
        sig = _conditioned(bits)
        kernel = KernelBackend().packet(SPEC, sig)
        golden = FastsimBackend().packet(SPEC, sig)
        assert np.array_equal(kernel.bits, bits)
        assert np.array_equal(golden.bits, bits)

    def test_packet_engines_bit_identical(self):
        bits = np.array([0, 1, 1, 0], dtype=np.int8)
        sig = _conditioned(bits)
        ref = KernelBackend(engine="reference").packet(SPEC, sig)
        com = KernelBackend(engine="compiled").packet(SPEC, sig)
        assert np.array_equal(ref.bits, com.bits)
        assert np.array_equal(ref.slot_values, com.slot_values)

    def test_adc_none_disables_quantization_on_both_backends(self):
        """adc="none" must mean the same thing per backend: raw slot
        values decide, no converter in the path."""
        spec = SPEC.with_frontend(adc="none")
        bits = np.array([1, 0, 1, 0], dtype=np.int8)
        sig = _conditioned(bits)
        kernel = KernelBackend().packet(spec, sig)
        golden = FastsimBackend().packet(spec, sig)
        assert np.array_equal(kernel.bits, bits)
        assert np.array_equal(golden.bits, bits)
        # Unquantized: kernel decisions equal a raw comparison of its
        # own slot values (no ADC reconstruction in between).
        raw = (kernel.slot_values[:, 1]
               > kernel.slot_values[:, 0]).astype(np.int8)
        assert np.array_equal(kernel.bits, raw)

    def test_circuit_with_params_fails_with_intent(self):
        spec = SPEC.with_(integrator="circuit",
                          integrator_params={"fp2_hz": 3e9})
        with pytest.raises(ValueError, match="no integrator_params"):
            KernelBackend().packet(
                SPEC.with_(integrator="circuit",
                           integrator_params={"fp2_hz": 3e9}),
                _conditioned(np.array([1, 0], dtype=np.int8)))
        # the behavioral stand-in accepts the same spec
        e, b = FastsimBackend().ber_point(
            spec, 10.0, np.random.default_rng(4),
            target_errors=5, max_bits=500, min_bits=200)
        assert b >= 200

    def test_ber_point_reproducible(self):
        budget = dict(target_errors=5, max_bits=60, min_bits=30,
                      chunk_bits=30)
        a = KernelBackend().ber_point(SPEC, 8.0,
                                      np.random.default_rng(7), **budget)
        b = KernelBackend().ber_point(SPEC, 8.0,
                                      np.random.default_rng(7), **budget)
        assert a == b and a[1] >= 30

    def test_ber_curve_shape(self):
        curve = KernelBackend().ber_curve(
            SPEC, [4.0, 12.0], np.random.default_rng(9),
            target_errors=5, max_bits=40, min_bits=20, chunk_bits=20)
        assert len(curve.ber) == 2
        assert curve.ci_high[0] >= curve.ber[0] >= curve.ci_low[0]

    def test_ranging_uses_behavioral_model(self):
        # "circuit" in the packet-level receiver means the surrogate.
        spec = LinkSpec(
            config=UwbConfig(preamble_symbols=16, payload_bits=16,
                             adc_vref=2e-3, agc_range_db=80.0),
            channel=ChannelSpec(kind="cm1", distance=3.0),
            frontend=FrontEndSpec(detection_factor=8.0,
                                  toa_threshold_fraction=0.5),
            integrator="circuit")
        res = KernelBackend().ranging(spec, 1,
                                      np.random.default_rng(2),
                                      noise_sigma=9e-5)
        assert len(res.distances) == 1


class TestOps:
    def test_ops_are_campaign_safe(self):
        """spec-driven op params pickle and content-address."""
        import pickle

        from repro.campaign.store import ResultStore
        from repro.core.scenario import Scenario

        scenario = Scenario(
            name="x", fn=ops.ber_curve, seed=3, rng_param="rng",
            params=dict(spec=SPEC, ebn0_grid=[8.0], target_errors=5,
                        max_bits=500, min_bits=200))
        pickle.loads(pickle.dumps(scenario))
        key = ResultStore("/tmp/unused-root").scenario_key(scenario)
        assert key is not None and len(key) == 64

    def test_ops_ber_curve_and_testbench(self):
        curve = ops.ber_curve(SPEC, [10.0], np.random.default_rng(2),
                              target_errors=10, max_bits=1000,
                              min_bits=400)
        assert curve.bits[0] >= 400
        bits = np.array([1, 0], dtype=np.int8)
        res = ops.run_testbench(SPEC, _conditioned(bits))
        assert np.array_equal(res.bits, bits)
        assert res.cpu_time > 0

    def test_backend_is_abstract(self):
        with pytest.raises(TypeError):
            Backend()


def _conditioned(bits: np.ndarray) -> np.ndarray:
    """A clean filtered burst at a fixed drive (the packet-op input
    contract: post-BPF, pre-squarer)."""
    wave = ppm_waveform(np.asarray(bits, dtype=np.int8), FAST,
                        amplitude=1.0)
    sig = build_bpf(SPEC)(wave)
    return 0.25 * sig / np.max(np.abs(sig))


class TestKernelPreflight:
    """The static lint gate in front of the co-simulated netlist."""

    def _sabotaged_testbench(self, *args, **kwargs):
        from repro.circuits import build_id_testbench

        tb = build_id_testbench(*args, **kwargs)
        from repro.spice import Resistor

        tb.add(Resistor("rmut", "out_intp", "mut_dangling", 1e3))
        return tb

    def test_packet_refuses_broken_netlist(self, monkeypatch):
        import repro.uwb.system as system
        from repro.spice import NetlistLintError

        monkeypatch.setattr(system, "build_id_testbench",
                            self._sabotaged_testbench)
        sig = _conditioned(np.array([1, 0], dtype=np.int8))
        spec = SPEC.with_(integrator="circuit")
        with pytest.raises(NetlistLintError, match="SP-FLOAT-001") as exc:
            KernelBackend(cosim_substeps=1).packet(spec, sig)
        assert "mut_dangling" in str(exc.value)

    def test_opt_out_builds_the_sim(self, monkeypatch):
        import repro.uwb.system as system

        monkeypatch.setattr(system, "build_id_testbench",
                            self._sabotaged_testbench)
        config = FAST
        sim, _harvest = system.build_ams_receiver(
            config, "circuit", np.zeros(32), preflight=False)
        assert sim is not None

    def test_flag_threads_through_constructor(self):
        assert KernelBackend().preflight is True
        assert KernelBackend(preflight=False).preflight is False
