"""Pluggable execution backends behind the one front door.

A :class:`Backend` turns a :class:`~repro.link.spec.LinkSpec` into
results through four uniform operations:

* :meth:`Backend.ber_point` / :meth:`Backend.ber_curve` - Monte-Carlo
  BER (the figure-6 workload),
* :meth:`Backend.packet` - demodulate an already-conditioned waveform
  with ideal symbol alignment (the Table-1 / Phase-I workload),
* :meth:`Backend.ranging` - two-way ranging through the full
  packet-level receiver (the table-2 workload).

Two implementations ship:

* :class:`FastsimBackend` - the vectorized NumPy golden model
  (Phase I; "the Matlab description" of the paper),
* :class:`KernelBackend` - the mixed-signal testbench on the AMS
  kernel's reference or compiled engine (Phases II-IV, including
  transistor-netlist co-simulation for ``integrator="circuit"``).

Both resolve components from the spec the same way (integrators via
the :mod:`repro.link.registry`, BPF/ADC/receiver via the builders
below), which is what makes the cross-backend equivalence harness in
:mod:`repro.link.equivalence` a pure substitute-and-play comparison.
"""

from __future__ import annotations

import abc
import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.link.pipeline import InterfererPath, _cell_continues
from repro.link.registry import resolve_integrator
from repro.link.spec import InterfererSpec, LinkSpec, NetworkSpec
from repro.uwb.adc import Adc
from repro.uwb.agc import Agc, TwoStageAgc
from repro.uwb.bpf import BandPassFilter
from repro.uwb.channel.awgn import noise_sigma_for_ebn0
from repro.uwb.channel.ieee802154a import ChannelRealization, Cm1Channel
from repro.uwb.fastsim import (
    AdaptiveStopping,
    BerResult,
    _ber_sweep,
    _curve_result,
    _LinkCache,
)
from repro.uwb.frontend import Vga
from repro.uwb.integrator import WindowIntegrator, nominal_gain
from repro.uwb.modulation import ppm_waveform, random_bits
from repro.uwb.ranging import RangingResult, TwoWayRanging
from repro.uwb.receiver import EnergyDetectionReceiver
from repro.uwb.system import AmsRunResult, build_ams_receiver


# ----------------------------------------------------------------------
# component builders (the only place BPF / ADC / VGA / receiver wiring
# is assembled from a spec)
# ----------------------------------------------------------------------

def build_bpf(spec: LinkSpec) -> BandPassFilter:
    """The receiver band-pass of *spec* (explicit band or
    pulse-derived)."""
    cfg = spec.config
    fe = spec.frontend
    if fe.band is None:
        return BandPassFilter.for_pulse(cfg.fs, cfg.pulse_tau,
                                        cfg.pulse_order,
                                        order=fe.bpf_order)
    return BandPassFilter(fe.band, cfg.fs, order=fe.bpf_order)


def build_adc(spec: LinkSpec) -> Adc:
    """The configuration-referred ADC of *spec* (packet receiver
    path)."""
    cfg = spec.config
    return Adc(bits=cfg.adc_bits, vref=cfg.adc_vref)


def build_channel_model(spec: LinkSpec) -> Cm1Channel | None:
    """The channel *generator* of *spec* (draws per-run realizations),
    or ``None`` for the ideal delay-only link."""
    if spec.channel.kind == "none":
        return None
    return Cm1Channel(spec.config.fs)


#: memoized deterministic channel realizations keyed by
#: ``(ChannelSpec, fs)``.  Every Eb/N0 point of a curve (and every
#: curve of a campaign over the same spec) reuses one CM1 draw instead
#: of redoing the identical multipath work; the realization is seeded
#: by the spec, so sharing cannot change any number.
_REALIZATION_MEMO: dict = {}

#: memoized pilot calibrations keyed by
#: ``(UwbConfig, ChannelSpec, FrontEndSpec)`` - everything
#: :class:`~repro.uwb.fastsim._LinkCache` depends on.
_CALIBRATION_MEMO: dict = {}

_MEMO_CAP = 128


def _memoized(memo: dict, key, build):
    hit = memo.get(key)
    if hit is None:
        hit = build()
        if len(memo) >= _MEMO_CAP:
            memo.clear()
        memo[key] = hit
    return hit


def build_channel_realization(spec: LinkSpec,
                              rng: np.random.Generator | None = None
                              ) -> ChannelRealization | None:
    """One deterministic channel realization for BER sweeps (seeded by
    ``spec.channel.realization_seed`` unless *rng* is given).

    The seeded (``rng=None``) path is memoized per
    ``(channel spec, fs)``: identical specs share one realization
    object across points, curves and campaigns.
    """
    model = build_channel_model(spec)
    if model is None:
        return None
    if rng is not None:
        return model.realize(spec.channel.distance, rng)
    return _memoized(
        _REALIZATION_MEMO, (spec.channel, spec.config.fs),
        lambda: model.realize(
            spec.channel.distance,
            np.random.default_rng(spec.channel.realization_seed)))


def build_receiver(spec: LinkSpec, *,
                   integrator: WindowIntegrator | None = None
                   ) -> EnergyDetectionReceiver:
    """The packet-level receiver of *spec*: VGA, ADC and AGC built
    from the configuration, the band-pass and AGC policy from the
    front-end spec, the integrator from the registry."""
    cfg = spec.config
    fe = spec.frontend
    if integrator is None:
        resolved = resolve_integrator(spec.integrator, phase=spec.phase,
                                      params=spec.integrator_params,
                                      cosim=False)
    else:
        resolved = integrator
    vga = Vga(step_db=cfg.agc_steps_db, max_db=cfg.agc_range_db)
    adc = build_adc(spec)
    k = nominal_gain(resolved)
    if k is None:
        raise ValueError(
            f"integrator {type(resolved).__name__} exposes no "
            "ideal_k/k gain; the AGC needs the nominal integration "
            "constant (add an ideal_k property or pass agc= yourself)")
    if fe.agc == "two_stage":
        agc: Agc = TwoStageAgc(vga, adc, k, fill=fe.agc_fill,
                               amp_target=fe.agc_amp_target)
    else:
        agc = Agc(vga, adc, k, fill=fe.agc_fill)
    return EnergyDetectionReceiver(
        cfg, resolved, vga=vga, adc=adc, agc=agc, bpf=build_bpf(spec),
        detection_factor=fe.detection_factor,
        toa_threshold_fraction=fe.toa_threshold_fraction)


def calibrate(spec: LinkSpec, *,
              channel: ChannelRealization | None = None) -> _LinkCache:
    """Pilot calibration of *spec*: per-bit received energy ``eb`` and
    clean peak amplitude ``peak`` after channel + band-pass (the
    quantities every BER point needs for noise sizing and drive
    scaling).

    Without an explicit *channel*, the calibration is memoized per
    ``(config, channel spec, front end)``: every Eb/N0 point - and
    every curve of a campaign over the same link - shares one pilot
    measurement instead of re-filtering an identical pilot.
    """
    if channel is not None:
        return _LinkCache(spec.config, channel, build_bpf(spec))
    return _memoized(
        _CALIBRATION_MEMO, (spec.config, spec.channel, spec.frontend),
        lambda: _LinkCache(spec.config, build_channel_realization(spec),
                           build_bpf(spec)))


def build_interferer_realization(intf: InterfererSpec, spec: LinkSpec
                                 ) -> ChannelRealization | None:
    """The interferer's own channel realization (independent CM1 draw
    from its ``realization_seed``), or ``None`` for an ideal path.

    Exactly the victim's construction path, pointed at the
    interferer's :class:`~repro.link.spec.ChannelSpec` - victim and
    interferer channels can never diverge in how they are built.
    """
    return build_channel_realization(
        dataclasses.replace(spec, channel=intf.channel))


def build_interferer_paths(network: NetworkSpec, *,
                           cache: _LinkCache | None = None
                           ) -> tuple[InterfererPath, ...]:
    """Resolve a :class:`NetworkSpec`'s interferers into calibrated
    :class:`~repro.link.pipeline.InterfererPath` values.

    SIR calibration: with ``rel_power_db`` set, the interferer's
    amplitude is chosen so that its received per-bit energy (its own
    pilot through its own channel and the victim's band-pass) relative
    to the victim's received per-bit energy equals ``rel_power_db``
    exactly.  With ``rel_power_db=None`` the amplitude is the victim's
    unit transmit amplitude and the received ratio emerges from the
    channels' path losses (the near-far configuration).

    Args:
        network: the multi-user scenario.
        cache: the victim's pilot calibration, if the caller already
            has one (avoids recomputing the pilot).
    """
    victim = network.victim
    cfg = victim.config
    if cache is None:
        cache = calibrate(victim)
    paths = []
    for intf in network.interferers:
        realization = build_interferer_realization(intf, victim)
        if intf.rel_power_db is None:
            amplitude = 1.0
        else:
            if realization is None and cache.channel is None:
                # Identical pilot chains measure identical energies;
                # reuse the victim's calibration outright.
                pilot = cache
            else:
                pilot = _LinkCache(cfg, realization, cache.bpf)
            amplitude = math.sqrt(10.0 ** (intf.rel_power_db / 10.0)
                                  * cache.eb / pilot.eb)
        paths.append(InterfererPath(
            amplitude=amplitude,
            offset_samples=int(round(intf.timing_offset * cfg.fs)),
            channel=realization))
    return tuple(paths)


def _as_link_spec(spec: LinkSpec | NetworkSpec,
                  operation: str) -> LinkSpec:
    """Reject :class:`NetworkSpec` where only single links run."""
    if isinstance(spec, NetworkSpec):
        raise TypeError(
            f"{operation} runs single links only; multi-user "
            "NetworkSpec is supported by FastsimBackend.ber_point / "
            "ber_curve (the golden model synthesizes and sums the "
            "per-transmitter waveforms)")
    return spec


@dataclass
class PacketResult:
    """Demodulation outcome of :meth:`FastsimBackend.packet` (duck-type
    compatible with :class:`~repro.uwb.system.AmsRunResult`).

    Attributes:
        bits: demodulated bits, one per full symbol in the waveform.
        slot_values: integrator outputs per slot, shape (n_symbols, 2).
        cpu_time / steps: zero placeholders (the vectorized path has no
            kernel loop to account).
    """

    bits: np.ndarray
    slot_values: np.ndarray
    cpu_time: float = 0.0
    steps: int = 0


# ----------------------------------------------------------------------
# the backend protocol
# ----------------------------------------------------------------------

class Backend(abc.ABC):
    """Uniform execution interface over a :class:`LinkSpec`.

    Every operation takes the spec first and an explicit NumPy
    generator where entropy is consumed; the optional ``integrator=``
    override substitutes a concrete model instance (e.g. a
    characterized surrogate from
    :func:`repro.core.characterize.build_surrogate`) for the spec's
    registry selection - the substitute-and-play escape hatch.
    """

    #: registry name of the backend (see :func:`get_backend`).
    name: str = "backend"

    def _integrator(self, spec: LinkSpec,
                    override: str | WindowIntegrator | None,
                    cosim: bool) -> WindowIntegrator | str:
        return resolve_integrator(
            override if override is not None else spec.integrator,
            phase=spec.phase, params=spec.integrator_params,
            cosim=cosim)

    @abc.abstractmethod
    def ber_point(self, spec: LinkSpec, ebn0_db: float,
                  rng: np.random.Generator, *,
                  integrator: str | WindowIntegrator | None = None,
                  **budget: Any) -> tuple[int, int]:
        """Monte-Carlo ``(errors, bits)`` at one Eb/N0 point."""

    @abc.abstractmethod
    def ber_curve(self, spec: LinkSpec, ebn0_grid,
                  rng: np.random.Generator, *,
                  label: str | None = None,
                  integrator: str | WindowIntegrator | None = None,
                  **budget: Any) -> BerResult:
        """BER versus Eb/N0 (returns Wilson-bounded counters)."""

    @abc.abstractmethod
    def packet(self, spec: LinkSpec, waveform: np.ndarray, *,
               integrator: str | WindowIntegrator | None = None,
               **options: Any):
        """Demodulate an already-conditioned waveform (post band-pass,
        at squarer drive) with ideal symbol alignment from t=0.

        Returns an object exposing ``bits`` and ``slot_values``.
        """

    def ranging(self, spec: LinkSpec, iterations: int,
                rng: np.random.Generator, *,
                integrator: str | WindowIntegrator | None = None,
                noise_sigma: float = 1e-4,
                tx_amplitude: float = 1.0) -> RangingResult:
        """Two-way ranging at ``spec.channel.distance``.

        The exchange runs through the full packet-level receiver
        (NE -> PS -> AGC -> sync -> demod) built by
        :func:`build_receiver`; backends share this waveform-level
        implementation and differ only through the integrator model
        the spec installs.
        """
        spec = _as_link_spec(spec, "ranging")
        resolved = self._integrator(spec, integrator, cosim=False)
        if not isinstance(resolved, WindowIntegrator):
            raise ValueError("ranging needs a behavioral integrator "
                             "model (co-simulation is not supported in "
                             "the packet-level receiver)")
        twr = TwoWayRanging(
            spec.config,
            lambda: build_receiver(spec, integrator=resolved),
            distance=spec.channel.distance,
            tx_amplitude=tx_amplitude,
            noise_sigma=noise_sigma,
            channel=build_channel_model(spec))
        return twr.run(iterations, rng)


def split_network(spec: LinkSpec | NetworkSpec
                  ) -> tuple[LinkSpec, NetworkSpec | None]:
    """``(victim, network)`` of a spec that may be multi-user
    (``network`` is ``None`` for a plain link)."""
    if isinstance(spec, NetworkSpec):
        return spec.victim, spec
    return spec, None


class FastsimBackend(Backend):
    """The vectorized Monte-Carlo golden model (Phase I).

    The BER operations additionally accept a
    :class:`~repro.link.spec.NetworkSpec`: the staged pipeline
    synthesizes one waveform per transmitter, sums the interferers at
    their calibrated amplitudes, and grades the victim's bits."""

    name = "fastsim"

    def _ber_adc(self, spec: LinkSpec) -> Adc | None:
        # "auto" is the golden model's native choice: an unquantized
        # decision path (the kernel harvest's "auto" is an auto-ranged
        # converter instead - its native stand-in for a converged AGC).
        if spec.frontend.adc == "config":
            return build_adc(spec)
        return None

    def _sweep(self, spec: LinkSpec | NetworkSpec, integrators: tuple,
               ebn0_grid: np.ndarray, rng: np.random.Generator,
               **budget: Any) -> tuple[list, np.ndarray, np.ndarray]:
        """The one Monte-Carlo run behind every BER operation: resolve
        *integrators* (``None`` = the spec's own), calibrate the victim
        and run :func:`~repro.uwb.fastsim._ber_sweep` over
        ``integrators x ebn0_grid``.

        Returns:
            ``(resolved integrators, errors, bits)``; the counter
            arrays have one row per integrator.
        """
        victim, network = split_network(spec)
        resolved = [self._integrator(victim, integ, cosim=False)
                    for integ in integrators]
        # One (memoized) calibration drives the noise sizing, any
        # interferer SIR amplitudes and every cell of the sweep.
        cache = calibrate(victim)
        interferers: tuple[InterfererPath, ...] = ()
        if network is not None and network.interferers:
            interferers = build_interferer_paths(network, cache=cache)
        errors, bits = _ber_sweep(
            victim.config, tuple(resolved), ebn0_grid, rng,
            squarer_drive=victim.frontend.squarer_drive,
            adc=self._ber_adc(victim), interferers=interferers,
            _cache=cache, **budget)
        return resolved, errors, bits

    def ber_point(self, spec: LinkSpec | NetworkSpec, ebn0_db: float,
                  rng: np.random.Generator, *,
                  integrator: str | WindowIntegrator | None = None,
                  target_errors: int = 100,
                  max_bits: int = 200_000,
                  min_bits: int = 2_000,
                  chunk_bits: int = 1_000,
                  adaptive: AdaptiveStopping | None = None
                  ) -> tuple[int, int]:
        """Monte-Carlo ``(errors, bits)`` at one Eb/N0 point (a 1x1
        sweep)."""
        _, errors, bits = self._sweep(
            spec, (integrator,), np.array([float(ebn0_db)]), rng,
            target_errors=target_errors, max_bits=max_bits,
            min_bits=min_bits, chunk_bits=chunk_bits, adaptive=adaptive)
        return int(errors[0, 0]), int(bits[0, 0])

    def ber_curve(self, spec: LinkSpec | NetworkSpec, ebn0_grid,
                  rng: np.random.Generator, *,
                  label: str | None = None,
                  integrator: str | WindowIntegrator | None = None,
                  target_errors: int = 100,
                  max_bits: int = 200_000,
                  min_bits: int = 2_000,
                  chunk_bits: int = 1_000,
                  adaptive: AdaptiveStopping | None = None) -> BerResult:
        """BER versus Eb/N0 for one integrator (a 1xM sweep: every
        point is bit-identical to :meth:`ber_point` from a generator
        seeded like *rng*)."""
        ebn0_grid = np.asarray(ebn0_grid, dtype=float)
        (resolved,), errors, bits = self._sweep(
            spec, (integrator,), ebn0_grid, rng,
            target_errors=target_errors, max_bits=max_bits,
            min_bits=min_bits, chunk_bits=chunk_bits, adaptive=adaptive)
        return _curve_result(ebn0_grid, errors[0], bits[0],
                             label or resolved.name, adaptive)

    def sweep(self, spec: LinkSpec | NetworkSpec, ebn0_grid,
              rng: np.random.Generator, *,
              integrators: tuple = ("ideal", "circuit"),
              labels: tuple | None = None,
              target_errors: int = 100,
              max_bits: int = 200_000,
              min_bits: int = 2_000,
              chunk_bits: int = 1_000,
              adaptive: AdaptiveStopping | None = None
              ) -> dict[str, BerResult]:
        """Multi-curve BER sweep (KxM): one shared front end, one
        decision stage per integrator, every (integrator, Eb/N0) cell
        graded from the same bit/noise draws.

        Each cell is bit-identical to :meth:`ber_point` of its
        integrator and Eb/N0 from a generator seeded like *rng* - the
        batch only reorganizes the arithmetic, never the entropy
        stream.

        Args:
            integrators: registry names or model instances; their
                decision stages share the Tx/channel/AFE work.
            labels: one result key per integrator (defaults to the
                registry name / model name).
        """
        if labels is not None:
            if len(labels) != len(integrators):
                raise ValueError(
                    f"{len(integrators)} integrators need "
                    f"{len(integrators)} labels, got {len(labels)}")
            if len(set(labels)) != len(labels):
                raise ValueError(f"duplicate sweep labels: {labels!r}")
        ebn0_grid = np.asarray(ebn0_grid, dtype=float)
        resolved, errors, bits = self._sweep(
            spec, tuple(integrators), ebn0_grid, rng,
            target_errors=target_errors, max_bits=max_bits,
            min_bits=min_bits, chunk_bits=chunk_bits, adaptive=adaptive)
        if labels is None:
            labels = tuple(
                integ if isinstance(integ, str) else r.name
                for integ, r in zip(integrators, resolved))
        return {
            label: _curve_result(ebn0_grid, errors[k], bits[k],
                                 label, adaptive)
            for k, label in enumerate(labels)}

    def packet(self, spec: LinkSpec, waveform: np.ndarray, *,
               integrator: str | WindowIntegrator | None = None
               ) -> PacketResult:
        spec = _as_link_spec(spec, "FastsimBackend.packet")
        resolved = self._integrator(spec, integrator, cosim=False)
        cfg = spec.config
        waveform = np.asarray(waveform, dtype=float)
        n = len(waveform) // cfg.samples_per_symbol
        squared = np.square(
            waveform[:n * cfg.samples_per_symbol]
        ).reshape(n, 2, cfg.samples_per_slot)
        # Honor the spec's Integrate & Dump gate: the kernel testbench
        # dumps for t_dump and holds for t_hold within every slot, so
        # the golden decision integrates the same sample window.
        gate0 = int(round(spec.frontend.t_dump * cfg.fs))
        gate1 = cfg.samples_per_slot - int(round(
            spec.frontend.t_hold * cfg.fs))
        pairs = resolved.window_outputs(squared[:, :, gate0:gate1],
                                        cfg.dt)
        mode = spec.frontend.adc
        if mode == "none":
            quantized = pairs
        else:
            if mode == "config":
                adc = build_adc(spec)
            else:
                # Auto-ranged converter, mirroring the kernel harvest:
                # full scale tracks the observed slot peak (a converged
                # AGC stand-in), so both backends quantize alike.
                peak = float(np.max(pairs)) if pairs.size else 1.0
                adc = Adc(bits=cfg.adc_bits,
                          vref=max(peak, 1e-12) * 1.05)
            quantized = adc.quantize(np.maximum(pairs, 0.0))
        bits = (quantized[:, 1] > quantized[:, 0]).astype(np.int8)
        return PacketResult(bits=bits, slot_values=pairs)


class _NoQuantization:
    """Identity stand-in for an :class:`Adc`: implements the harvest's
    ``quantize`` so ``adc="none"`` really disables quantization on the
    kernel path too."""

    @staticmethod
    def quantize(values):
        return values


class KernelBackend(Backend):
    """The mixed-signal AMS-kernel testbench (Phases II-IV).

    Args:
        engine: kernel execution engine - ``"compiled"`` (segment
            vectorized) or ``"reference"`` (the lock-step oracle).
        cosim_substeps: circuit-level steps per kernel step when the
            spec selects the co-simulated netlist.
        preflight: statically lint a co-simulated netlist (error-level
            rules) before any MNA assembly; a broken circuit raises
            :class:`~repro.spice.errors.NetlistLintError` naming the
            rule and nodes.  ``False`` opts out.
    """

    name = "kernel"

    def __init__(self, engine: str = "compiled",
                 cosim_substeps: int = 1,
                 preflight: bool = True):
        self.engine = engine
        self.cosim_substeps = int(cosim_substeps)
        self.preflight = bool(preflight)

    def _harvest_adc(self, spec: LinkSpec
                     ) -> "Adc | _NoQuantization | None":
        # "auto" -> None lets the harvest auto-range its converter;
        # "config" -> the configuration-referred ADC; "none" disables
        # quantization outright, exactly as on the fastsim side.
        if spec.frontend.adc == "config":
            return build_adc(spec)
        if spec.frontend.adc == "none":
            return _NoQuantization()
        return None

    def packet(self, spec: LinkSpec, waveform: np.ndarray, *,
               integrator: str | WindowIntegrator | None = None,
               t_stop: float | None = None,
               record: bool = False) -> AmsRunResult:
        spec = _as_link_spec(spec, "KernelBackend.packet")
        resolved = self._integrator(spec, integrator, cosim=True)
        cfg = spec.config
        sim, harvest = build_ams_receiver(
            cfg, resolved, np.asarray(waveform, dtype=float),
            adc=self._harvest_adc(spec),
            cosim_substeps=self.cosim_substeps, record=record,
            t_hold=spec.frontend.t_hold, t_dump=spec.frontend.t_dump,
            engine=self.engine, preflight=self.preflight)
        if t_stop is None:
            n_symbols = len(waveform) // cfg.samples_per_symbol
            t_stop = n_symbols * cfg.symbol_period
        sim.run(t_stop)
        return harvest.result()

    def ber_point(self, spec: LinkSpec, ebn0_db: float,
                  rng: np.random.Generator, *,
                  integrator: str | WindowIntegrator | None = None,
                  target_errors: int = 25,
                  max_bits: int = 1_500,
                  min_bits: int = 200,
                  chunk_bits: int = 100,
                  adaptive: AdaptiveStopping | None = None
                  ) -> tuple[int, int]:
        """Monte-Carlo BER with kernel-demodulated decisions.

        The stimulus pipeline (pilot calibration, noise sizing, BPF,
        drive scaling) is identical to the golden model's; only the
        decision path runs through the event-driven testbench.  The
        default budget is far smaller than fastsim's - each chunk is a
        full kernel simulation.
        """
        spec = _as_link_spec(spec, "KernelBackend.ber_point")
        cfg = spec.config
        channel = build_channel_realization(spec)
        cache = calibrate(spec, channel=channel)
        sigma = noise_sigma_for_ebn0(cache.eb, float(ebn0_db), cfg.fs)
        scale = spec.frontend.squarer_drive / cache.peak
        n_sym = cfg.samples_per_symbol
        errors = 0
        bits_done = 0
        while _cell_continues(errors, bits_done, bits_done,
                              target_errors=target_errors,
                              max_bits=max_bits, min_bits=min_bits,
                              adaptive=adaptive):
            n = min(chunk_bits, max_bits - bits_done)
            bits = random_bits(n, rng)
            wave = ppm_waveform(bits, cfg)
            if cache.channel is not None:
                wave = cache.channel.apply(wave)[
                    cache.channel.delay_samples:
                    cache.channel.delay_samples + n * n_sym]
            noisy = wave + rng.normal(0.0, sigma, size=len(wave))
            driven = scale * cache.bpf(noisy)[:n * n_sym]
            decided = self.packet(spec, driven,
                                  integrator=integrator).bits
            errors += int(np.count_nonzero(decided != bits[:len(decided)]))
            bits_done += n
        return errors, bits_done

    def ber_curve(self, spec: LinkSpec, ebn0_grid,
                  rng: np.random.Generator, *,
                  label: str | None = None,
                  integrator: str | WindowIntegrator | None = None,
                  target_errors: int = 25,
                  max_bits: int = 1_500,
                  min_bits: int = 200,
                  chunk_bits: int = 100,
                  adaptive: AdaptiveStopping | None = None) -> BerResult:
        """Serial BER sweep, one kernel-demodulated :meth:`ber_point`
        per Eb/N0 point on the shared *rng* stream (each point is a
        kernel simulation; fan-out belongs at the campaign layer)."""
        ebn0_grid = np.asarray(ebn0_grid, dtype=float)
        errors = np.zeros(len(ebn0_grid), dtype=np.int64)
        bits = np.zeros(len(ebn0_grid), dtype=np.int64)
        for i, point in enumerate(ebn0_grid):
            errors[i], bits[i] = self.ber_point(
                spec, float(point), rng, integrator=integrator,
                target_errors=target_errors, max_bits=max_bits,
                min_bits=min_bits, chunk_bits=chunk_bits,
                adaptive=adaptive)
        if label is None:
            resolved = self._integrator(spec, integrator, cosim=True)
            label = resolved if isinstance(resolved, str) \
                else resolved.name
        return _curve_result(ebn0_grid, errors, bits, label, adaptive)


# ----------------------------------------------------------------------
# backend registry
# ----------------------------------------------------------------------

#: backend name -> constructor (extensible via :func:`register_backend`).
BACKENDS: dict[str, Callable[..., Backend]] = {
    FastsimBackend.name: FastsimBackend,
    KernelBackend.name: KernelBackend,
}


def register_backend(name: str,
                     factory: Callable[..., Backend]) -> None:
    """Register a new backend constructor under *name*."""
    if name in BACKENDS:
        raise KeyError(f"backend {name!r} is already registered")
    BACKENDS[name] = factory


def get_backend(name: str | Backend, **kwargs: Any) -> Backend:
    """Instantiate a backend by name (instances pass through).

    Extra keyword arguments go to the constructor, e.g.
    ``get_backend("kernel", engine="reference")``.
    """
    if isinstance(name, Backend):
        return name
    try:
        factory = BACKENDS[name]
    except KeyError:
        raise ValueError(f"unknown backend {name!r}; registered: "
                         f"{', '.join(sorted(BACKENDS))}") from None
    return factory(**kwargs)
