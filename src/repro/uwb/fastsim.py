"""Vectorized Monte-Carlo BER engine (the Phase-I "Matlab" golden model).

Phase I of the methodology validates the behavioral receiver against a
high-level golden model ("the coherence with another high level
description language (Matlab) was checked ... we obtained BER curves
which perfectly overlapped the Matlab ones").  This module is that golden
model: a chunked, fully vectorized waveform-level simulation of the
2-PPM energy-detection link with an ideal synchronizer, used for the
figure-6 BER curves and the Phase-I overlap benchmark.

The signal chain per chunk of symbols:

    2-PPM pulse train -> [CM1 channel] -> [+ interferers] ->
    AWGN (per Eb/N0) -> BPF -> drive scaling -> squarer ->
    integrator model per slot -> [ADC] -> larger-slot decision

The chunk computation itself lives in the staged
:mod:`repro.link.pipeline` (Tx -> Channel -> Combine -> AnalogFrontEnd
-> Decision), and its one Monte-Carlo loop is
:func:`repro.link.pipeline.run_ber_sweep`; this module keeps the
stopping policy, Wilson intervals, curve assembly, the pilot
calibration and :func:`_ber_sweep`, which wires a configuration into
that loop.  Every BER entry point of
:class:`repro.link.backends.FastsimBackend` is one call of
:func:`_ber_sweep`: a point is a 1x1 sweep, a curve a 1xM sweep and a
multi-integrator campaign a KxM sweep.  Multi-user scenarios enter
through the ``interferers`` argument (resolved
:class:`repro.link.pipeline.InterfererPath` values, normally produced
from a :class:`repro.link.spec.NetworkSpec` by the fastsim backend).

Swapping the integrator model (ideal / two-pole / circuit surrogate)
reproduces the paper's ideal-versus-ELDO BER comparison.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass

import numpy as np

from repro.obs import trace as _trace
from repro.uwb.adc import Adc
from repro.uwb.bpf import BandPassFilter
from repro.uwb.channel.awgn import noise_sigma_for_ebn0
from repro.uwb.channel.ieee802154a import ChannelRealization
from repro.uwb.config import UwbConfig
from repro.uwb.modulation import ppm_waveform


#: memoized two-sided z-scores per confidence level: wilson_interval
#: sits inside the adaptive-stopping hot loop (called after every
#: Monte-Carlo chunk), so the inverse-normal lookup must not re-enter
#: scipy's import machinery per call.
_Z_SCORES: dict[float, float] = {}

#: scipy-free fallback for the default confidence level; the value is
#: ``float(scipy.special.ndtri(0.975))`` verbatim, so both code paths
#: produce bit-identical intervals.
_Z_FALLBACK = {0.95: 1.959963984540054}

#: lazily-bound repro.link.pipeline module.  It cannot be imported at
#: module top (repro.link.backends imports this module, so a top-level
#: import of repro.link would cycle), and re-importing per sweep
#: re-enters the import machinery for nothing - so the module object
#: is resolved once and memoized here.
_PIPELINE = None


def _link_pipeline():
    """The :mod:`repro.link.pipeline` module, imported once."""
    global _PIPELINE
    if _PIPELINE is None:
        _PIPELINE = importlib.import_module("repro.link.pipeline")
    return _PIPELINE


def _wilson_z(confidence: float) -> float:
    """Two-sided z-score of *confidence*, memoized per level."""
    z = _Z_SCORES.get(confidence)
    if z is None:
        try:
            from scipy.special import ndtri
        except ImportError:
            z = _Z_FALLBACK.get(confidence)
            if z is None:
                raise RuntimeError(
                    f"confidence {confidence} needs scipy for the "
                    "inverse normal CDF (only "
                    f"{sorted(_Z_FALLBACK)} ship a built-in z-score)"
                ) from None
        else:
            z = float(ndtri(0.5 + confidence / 2.0))
        _Z_SCORES[confidence] = z
    return z


def wilson_interval(errors: int, bits: int,
                    confidence: float = 0.95) -> tuple[float, float]:
    """Wilson score confidence interval of a bit-error probability.

    The Wilson interval stays meaningful at the extremes Monte-Carlo
    BER estimation lives in - zero observed errors still yields a
    nonzero upper bound, which is exactly what an adaptive stopping
    rule needs at deep SNR.

    Args:
        errors / bits: the error counters.
        confidence: two-sided confidence level in (0, 1).

    Returns:
        ``(lower, upper)`` bounds on the error probability;
        ``(0.0, 1.0)`` when no bits have been observed.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    if bits < 0 or errors < 0 or errors > bits:
        raise ValueError("need 0 <= errors <= bits")
    if bits == 0:
        return 0.0, 1.0
    z = _wilson_z(confidence)
    p = errors / bits
    z2 = z * z
    denom = 1.0 + z2 / bits
    center = (p + z2 / (2.0 * bits)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / bits
                                   + z2 / (4.0 * bits * bits))
    lo = 0.0 if errors == 0 else max(0.0, center - half)
    hi = 1.0 if errors == bits else min(1.0, center + half)
    return lo, hi


@dataclass(frozen=True)
class AdaptiveStopping:
    """Sequential stop-when-resolved policy for Monte-Carlo BER points.

    The fixed stopping rule of the Monte-Carlo loop
    (``target_errors`` / ``max_bits``) wastes most of its symbol
    budget at deep SNR, where the error count never reaches the
    target.  This policy ends a point early once its estimate is
    *resolved* in either of two ways, checked after every chunk:

    * **precision**: at least ``min_errors`` errors have been counted
      and the Wilson half-width has shrunk below ``rel_half_width``
      times the estimate - the point is known accurately enough;
    * **floor**: the Wilson *upper* bound has dropped below
      ``ber_floor`` - the point is known to be below the BER of
      interest, so counting further (possibly zero) errors is wasted
      work.  ``0`` disables this exit.

    Attributes:
        confidence: two-sided confidence of the Wilson bounds.
        rel_half_width: precision target, relative to the estimate.
        min_errors: minimum error count before the precision exit is
            trusted (guards against lucky early chunks).
        ber_floor: BER resolution floor of the study.
    """

    confidence: float = 0.95
    rel_half_width: float = 0.33
    min_errors: int = 8
    ber_floor: float = 0.0

    def resolved(self, errors: int, bits: int) -> bool:
        """Is ``errors/bits`` resolved under this policy?"""
        if bits <= 0:
            return False
        lo, hi = wilson_interval(errors, bits, self.confidence)
        if errors >= self.min_errors:
            p = errors / bits
            if (hi - lo) / 2.0 <= self.rel_half_width * p:
                return True
        return 0.0 < self.ber_floor and hi < self.ber_floor


@dataclass
class BerResult:
    """BER curve data.

    Attributes:
        ebn0_db: the Eb/N0 grid.
        ber: estimated bit-error rate per point.
        errors / bits: raw counters per point.
        label: legend label (integrator name by default).
        ci_low / ci_high: Wilson confidence bounds per point.
        confidence: confidence level of the bounds.
    """

    ebn0_db: np.ndarray
    ber: np.ndarray
    errors: np.ndarray
    bits: np.ndarray
    label: str = ""
    ci_low: np.ndarray | None = None
    ci_high: np.ndarray | None = None
    confidence: float = 0.95

    def as_rows(self) -> list[tuple[float, float, int, int]]:
        return [(float(e), float(b), int(err), int(n))
                for e, b, err, n in zip(self.ebn0_db, self.ber,
                                        self.errors, self.bits)]

    def format_table(self) -> str:
        """Per-point table including the Wilson bounds."""
        lines = [f"{'Eb/N0':>7s} {'BER':>12s} {'errors':>8s} "
                 f"{'bits':>9s} {'CI':>24s}"]
        for i, (e, b) in enumerate(zip(self.ebn0_db, self.ber)):
            ci = ""
            if self.ci_low is not None and self.ci_high is not None:
                ci = (f"[{self.ci_low[i]:.3e}, "
                      f"{self.ci_high[i]:.3e}]")
            lines.append(f"{e:>7.1f} {b:>12.4e} "
                         f"{int(self.errors[i]):>8d} "
                         f"{int(self.bits[i]):>9d} {ci:>24s}")
        return "\n".join(lines)


class _LinkCache:
    """Per-configuration precomputation shared across Eb/N0 points."""

    def __init__(self, config: UwbConfig,
                 channel: ChannelRealization | None,
                 bpf: BandPassFilter | None):
        with _trace.span("link.calibrate"):
            self._init(config, channel, bpf)

    def _init(self, config: UwbConfig,
              channel: ChannelRealization | None,
              bpf: BandPassFilter | None) -> None:
        self.config = config
        self.channel = channel
        self.bpf = bpf if bpf is not None else BandPassFilter.for_pulse(
            config.fs, config.pulse_tau, config.pulse_order)
        # Reference energy per bit and peak amplitude measured on a
        # noiseless filtered pilot (one pulse per bit -> Eb = pulse
        # energy after channel+filter).  The pilot goes through exactly
        # the data-path processing of the pipeline: the channel
        # output is trimmed by the propagation delay and truncated to
        # whole symbols, so delayed-channel energy landing outside the
        # symbol window is not counted toward Eb.
        pilot_bits = np.zeros(8, dtype=np.int8)
        n_samples = len(pilot_bits) * config.samples_per_symbol
        pilot = ppm_waveform(pilot_bits, config)
        if channel is not None:
            pilot = channel.apply(pilot)[
                channel.delay_samples:
                channel.delay_samples + n_samples]
        filtered = self.bpf(pilot)[:n_samples]
        self.eb = float(np.sum(filtered ** 2) * config.dt / len(pilot_bits))
        self.peak = float(np.max(np.abs(filtered)))
        if self.eb <= 0:
            raise ValueError("degenerate link: zero received energy")


def _ber_sweep(config: UwbConfig, integrators, ebn0_grid,
               rng: np.random.Generator, *,
               channel: ChannelRealization | None = None,
               bpf: BandPassFilter | None = None,
               squarer_drive: float = 0.05,
               adc: Adc | None = None,
               target_errors: int = 100,
               max_bits: int = 200_000,
               min_bits: int = 2_000,
               chunk_bits: int = 1_000,
               adaptive: AdaptiveStopping | None = None,
               interferers: tuple = (),
               _cache: _LinkCache | None = None
               ) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo BER sweep: every Eb/N0 point of the grid x every
    integrator variant in one chunk loop.

    All scenarios share one generator and one front-end computation
    per chunk (the points of a curve differ only in their noise scale;
    integrator variants differ only past the squarer), so the whole
    sweep runs as a handful of large array ops.  Cell ``(k, j)`` is
    bit-identical to the 1x1 sweep ``_ber_sweep(config,
    (integrators[k],), (ebn0_grid[j],), rng')`` with ``rng'`` freshly
    seeded like *rng* - the per-run seeding convention under which
    draws are shared (see :func:`repro.link.pipeline.run_ber_sweep`).

    Args:
        config: link configuration (ideal synchronizer assumed).
        integrators: integrator models deciding the slot energies.
        ebn0_grid: received Eb/N0 points in dB.
        channel: optional multipath realization (applied per chunk).
        squarer_drive: peak voltage at the squarer *input*; the signal
            is scaled so the clean filtered peak equals this value.
            This is the AGC operating point: raising it beyond the
            circuit's ~0.1 V linear input range exposes compression.
        adc: optional ADC in the decision path.
        target_errors / max_bits / min_bits: stopping rule per cell.
        chunk_bits: symbols per vectorized chunk.
        adaptive: optional sequential policy ending a cell as soon as
            its estimate is resolved (checked after each chunk once
            ``min_bits`` have been simulated); ``target_errors`` /
            ``max_bits`` remain hard caps.
        interferers: resolved
            :class:`repro.link.pipeline.InterfererPath` transmitters
            summed into the chunk before the noise (multi-user
            scenarios).

    Returns:
        ``(errors, bits)`` int64 arrays of shape
        ``(len(integrators), len(ebn0_grid))``.
    """
    pipe = _link_pipeline()
    config.validate()
    cache = _cache or _LinkCache(config, channel, bpf)
    ebn0_grid = np.asarray(ebn0_grid, dtype=float)
    sigmas = np.array([noise_sigma_for_ebn0(cache.eb, float(p), config.fs)
                       for p in ebn0_grid])
    scale = squarer_drive / cache.peak
    front = pipe.SignalPipeline(stages=(
        pipe.TxStage(config),
        pipe.ChannelStage(config, cache.channel),
        pipe.CombineStage(config, tuple(interferers)),
        pipe.AnalogFrontEndStage(config, cache.bpf, scale),
    ))
    deciders = [pipe.DecisionStage(config, integrator, adc)
                for integrator in integrators]
    return pipe.run_ber_sweep(front, deciders, sigmas, rng,
                              target_errors=target_errors,
                              max_bits=max_bits, min_bits=min_bits,
                              chunk_bits=chunk_bits, adaptive=adaptive)


def _curve_result(ebn0_grid: np.ndarray, errors: np.ndarray,
                  bits: np.ndarray, label: str,
                  adaptive: AdaptiveStopping | None) -> BerResult:
    """Assemble per-point counters into a Wilson-bounded curve."""
    ber = errors / np.maximum(bits, 1)
    confidence = adaptive.confidence if adaptive is not None else 0.95
    bounds = np.array([wilson_interval(int(e), int(b), confidence)
                       if b else (0.0, 1.0)
                       for e, b in zip(errors, bits)])
    ci_low = bounds[:, 0] if len(bounds) else np.zeros(0)
    ci_high = bounds[:, 1] if len(bounds) else np.zeros(0)
    return BerResult(ebn0_db=ebn0_grid, ber=ber, errors=errors,
                     bits=bits, label=label, ci_low=ci_low,
                     ci_high=ci_high, confidence=confidence)


#: memoized scipy.special.erfc (resolved on first use so the module
#: stays importable without eagerly touching scipy.special, but never
#: re-entered per call).
_ERFC = None


def theoretical_ppm_awgn_ber(ebn0_db) -> np.ndarray:
    """Coherent orthogonal 2-PPM reference curve ``Q(sqrt(Eb/N0))``.

    Energy detection is noncoherent and sits to the right of this curve;
    it is plotted as a sanity reference, not as the expected result.
    """
    global _ERFC
    if _ERFC is None:
        from scipy.special import erfc
        _ERFC = erfc

    ebn0 = 10.0 ** (np.asarray(ebn0_db, dtype=float) / 10.0)
    return 0.5 * _ERFC(np.sqrt(ebn0 / 2.0))
