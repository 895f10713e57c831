"""Staged signal-path pipeline of the golden-model link simulation.

The chunk computation of the vectorized BER engine is a
:class:`SignalPipeline` of five composable stages operating on a
batched :class:`LinkState`,

    :class:`TxStage` -> :class:`ChannelStage` -> :class:`CombineStage`
    -> :class:`AnalogFrontEndStage` -> :class:`DecisionStage`

with multi-user interference entering at the :class:`CombineStage`,
which synthesizes and sums one waveform per :class:`InterfererPath`
(relative amplitude, circular timing offset, optional independent
channel realization) before the victim's AWGN is added.

**Scenario batch axis.** Every chunk carries a *scenario* axis: one
:class:`LinkState` holds a whole family of operating points that share
every draw (victim bits, interferer bits, the unit noise process) and
differ only in their noise scale.  :meth:`SignalPipeline.run_chunk`
takes the ``sigmas`` vector; the :class:`CombineStage` fans the shared
chunk out into an ``(n_scenarios, n_samples)`` batch (``waveform +
sigmas[:, None] * unit_noise``), and the downstream stages operate on
the leading axis transparently.

**One Monte-Carlo loop.** :func:`run_ber_sweep` is the only chunk loop
of the golden model: a single BER point is a 1x1 sweep, a curve a 1xM
sweep and a multi-integrator campaign a KxM sweep (see
:class:`repro.link.backends.FastsimBackend`).

**Bit-identity contract.** With no interferers a 1x1 sweep performs
exactly the arithmetic of the historic monolithic per-point loop on
the same generator draw order (victim bits, then noise):
``rng.normal(0, sigma, n)`` draws ``sigma * standard_normal(n)``
bitwise, so fixed-seed error/bit counters are bit-for-bit identical to
it and cached campaign results and the committed ``BENCH_*`` numbers
stay valid (``tests/network/test_pipeline_parity.py`` pins this
against a verbatim copy of the legacy loop).  Every cell of a KxM
sweep equals the 1x1 sweep of its (integrator, Eb/N0) pair from a
freshly seeded generator (``tests/network/test_batched_sweep.py``).
With interferers, each interferer's bits are drawn from the same
generator *between* the victim bits and the noise, in interferer
order.

Stages are deliberately dependency-light (uwb building blocks only);
:mod:`repro.link.backends` resolves :class:`~repro.link.spec.NetworkSpec`
interference descriptions into :class:`InterfererPath` values (SIR
calibration needs the pilot energies, which live with the backends).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.obs import trace as _trace
from repro.uwb.adc import Adc
from repro.uwb.bpf import BandPassFilter
from repro.uwb.channel.ieee802154a import ChannelRealization
from repro.uwb.config import UwbConfig
from repro.uwb.integrator import WindowIntegrator
from repro.uwb.modulation import ppm_waveform, random_bits

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (fastsim
    # imports this module lazily).
    from repro.uwb.fastsim import AdaptiveStopping


@dataclass
class LinkState:
    """Batched per-chunk state flowing through the pipeline.

    One state is one Monte-Carlo chunk of ``n`` symbols.  Stages
    mutate it in place, each consuming the fields of its predecessor:

    Attributes:
        n: symbols in this chunk.
        rng: the chunk's entropy source (bit draws and noise).
        sigmas: per-scenario noise standard deviations.  The
            :class:`CombineStage` fans the shared chunk out into an
            ``(n_scenarios, ...)`` batch - one row per noise scale over
            identical bit/interferer/noise draws - and every downstream
            field carries that leading axis.
        bits: victim payload bits (set by :class:`TxStage`; shared
            across scenario rows).
        waveform: clean waveform at the antenna reference plane -
            victim only after :class:`ChannelStage`, victim plus scaled
            interferers after :class:`CombineStage`.
        interferer_bits: payload bits drawn per interferer (diagnostic;
            the decision only grades the victim's bits).
        noisy: waveform after AWGN, ``(n_scenarios, n_samples)`` (set
            by :class:`CombineStage`).
        squared: squarer output reshaped to
            ``(..., n, 2, samples_per_slot)`` (set by
            :class:`AnalogFrontEndStage`).
        slot_values: integrator outputs per slot, shape ``(..., n, 2)``,
            post-ADC when the pipeline quantizes (set by
            :class:`DecisionStage`).
        decisions: larger-slot decisions, one int8 bit per symbol and
            scenario row.
    """

    n: int
    rng: np.random.Generator
    sigmas: np.ndarray
    bits: np.ndarray | None = None
    waveform: np.ndarray | None = None
    interferer_bits: list[np.ndarray] = field(default_factory=list)
    noisy: np.ndarray | None = None
    squared: np.ndarray | None = None
    slot_values: np.ndarray | None = None
    decisions: np.ndarray | None = None


class Stage:
    """One step of the signal path; mutates the :class:`LinkState`."""

    #: Span name this stage reports under when tracing is enabled
    #: (see :mod:`repro.obs.trace`); subclasses override.
    span_name = "link.stage"

    def process(self, state: LinkState) -> None:
        raise NotImplementedError


@dataclass(frozen=True)
class InterfererPath:
    """One resolved interfering transmitter, ready to synthesize.

    This is the *execution-level* description (everything calibrated
    to concrete numbers); the declarative description is
    :class:`repro.link.spec.InterfererSpec`, resolved into paths by
    :func:`repro.link.backends.build_interferer_paths`.

    Attributes:
        amplitude: linear amplitude applied to the interferer's unit
            pulse train (after its channel).  SIR calibration happens
            upstream: the amplitude already accounts for both pilots'
            received energies.
        offset_samples: circular timing offset of the interferer's
            waveform within the chunk (``np.roll`` convention: positive
            shifts the interferer later).  Circular shifting keeps the
            chunk statistics stationary - the few symbols wrapping
            around the chunk edge see the tail of the interferer
            stream, which is statistically identical.
        channel: optional multipath realization of the interferer's own
            propagation path (``None`` = ideal link); applied and
            delay-trimmed exactly like the victim's.
    """

    amplitude: float
    offset_samples: int = 0
    channel: ChannelRealization | None = None

    def synthesize(self, state: LinkState, config: UwbConfig) -> np.ndarray:
        """Draw this interferer's bits from the chunk's generator and
        return its scaled, offset waveform (length ``n *
        samples_per_symbol``)."""
        n_sym = config.samples_per_symbol
        bits = random_bits(state.n, state.rng)
        state.interferer_bits.append(bits)
        wave = ppm_waveform(bits, config)
        if self.channel is not None:
            wave = self.channel.apply(wave)[
                self.channel.delay_samples:
                self.channel.delay_samples + state.n * n_sym]
        if self.offset_samples:
            wave = np.roll(wave, self.offset_samples)
        return self.amplitude * wave


@dataclass
class TxStage(Stage):
    """Victim transmitter: draw payload bits, synthesize the 2-PPM
    pulse train."""

    config: UwbConfig
    span_name = "link.tx"

    def process(self, state: LinkState) -> None:
        state.bits = random_bits(state.n, state.rng)
        state.waveform = ppm_waveform(state.bits, self.config)


@dataclass
class ChannelStage(Stage):
    """Victim propagation: convolve with the realization and trim the
    propagation delay to whole symbols (a no-op on the ideal link)."""

    config: UwbConfig
    channel: ChannelRealization | None = None
    span_name = "link.channel"

    def process(self, state: LinkState) -> None:
        if self.channel is None:
            return
        n_sym = self.config.samples_per_symbol
        state.waveform = self.channel.apply(state.waveform)[
            self.channel.delay_samples:
            self.channel.delay_samples + state.n * n_sym]


@dataclass
class CombineStage(Stage):
    """Sum interfering transmitters into the victim waveform, then add
    the victim-referred AWGN.

    Interferers are synthesized per chunk (fresh bits from the chunk's
    generator, in path order) and summed at their calibrated
    amplitudes.  The chunk's ``sigmas`` are sized against the
    *victim's* pilot energy - interference is extra disturbance on top
    of the thermal-noise operating point, matching the standard SIR
    convention.

    With no interferers the victim waveform passes through untouched
    (not even an add of zero), preserving the single-link
    bit-identity contract of the module docstring.
    """

    config: UwbConfig
    interferers: tuple[InterfererPath, ...] = ()
    span_name = "link.combine"

    def __post_init__(self) -> None:
        self.interferers = tuple(self.interferers)

    def process(self, state: LinkState) -> None:
        for path in self.interferers:
            state.waveform = state.waveform + path.synthesize(
                state, self.config)
        # One shared unit-variance noise process, scaled per scenario
        # row.  ``rng.normal(0, sigma, n)`` draws ``sigma *
        # standard_normal(n)`` bitwise, so row i equals the historic
        # per-point loop at sigmas[i] from this generator state.  The
        # scale and add land in one preallocated batch buffer (IEEE
        # addition commutes bitwise, so += keeps the waveform +
        # sigma*unit identity) - one less full-size temporary per
        # chunk on the hottest allocation.
        unit = state.rng.standard_normal(len(state.waveform))
        noisy = np.multiply(
            state.sigmas[:, None], unit[None, :],
            out=np.empty((len(state.sigmas), unit.size)))
        noisy += state.waveform
        state.noisy = noisy


@dataclass
class AnalogFrontEndStage(Stage):
    """Receiver analog front end: band-pass, AGC drive scaling, squarer
    (output reshaped into per-slot windows)."""

    config: UwbConfig
    bpf: BandPassFilter
    scale: float
    span_name = "link.afe"

    def process(self, state: LinkState) -> None:
        cfg = self.config
        # Filtering, scaling and squaring act along the last (sample)
        # axis, so the scenario batch axis passes through
        # untouched: each row is processed exactly as a lone chunk.
        # The filter output is ours alone (sosfilt copies its input),
        # so drive scaling and squaring run in place - two fewer
        # full-size temporaries per chunk, identical arithmetic.
        filtered = self.bpf(state.noisy)[
            ..., :state.n * cfg.samples_per_symbol]
        if not filtered.flags.writeable:  # pragma: no cover - guard
            filtered = filtered.copy()
        np.multiply(filtered, self.scale, out=filtered)
        np.square(filtered, out=filtered)
        state.squared = filtered.reshape(
            filtered.shape[:-1] + (state.n, 2, cfg.samples_per_slot))


@dataclass
class DecisionStage(Stage):
    """Integrator model per slot, optional ADC, larger-slot decision."""

    config: UwbConfig
    integrator: WindowIntegrator
    adc: Adc | None = None
    span_name = "link.decision"

    def decide(self, squared: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
        """``(slot_values, decisions)`` for a squared-slot array of
        shape ``(..., n, 2, samples_per_slot)`` (any leading batch
        axes; the batched sweep driver calls this on scenario-row
        subsets)."""
        values = self.integrator.window_outputs(squared, self.config.dt)
        if self.adc is not None:
            values = self.adc.quantize(values)
        decisions = (values[..., 1] > values[..., 0]).astype(np.int8)
        return values, decisions

    def process(self, state: LinkState) -> None:
        state.slot_values, state.decisions = self.decide(state.squared)


@dataclass
class SignalPipeline:
    """An ordered stage composition executable chunk by chunk."""

    stages: tuple[Stage, ...]

    def __post_init__(self) -> None:
        self.stages = tuple(self.stages)
        if not self.stages:
            raise ValueError("pipeline needs at least one stage")

    def run_chunk(self, n: int, rng: np.random.Generator,
                  sigmas: np.ndarray) -> LinkState:
        """Push one fresh chunk of *n* symbols through every stage.

        Args:
            sigmas: per-scenario noise standard deviations; the chunk
                fans out into a scenario batch at the
                :class:`CombineStage` (one row per sigma over shared
                draws) and the downstream state fields carry the
                leading scenario axis.
        """
        if n <= 0:
            raise ValueError("chunk size must be positive")
        sigmas = np.asarray(sigmas, dtype=float)
        if sigmas.ndim != 1:
            raise ValueError("sigmas must be a 1-D vector")
        if np.any(sigmas < 0):
            raise ValueError("sigmas must be >= 0")
        state = LinkState(n=n, rng=rng, sigmas=sigmas)
        # Hot path: the disabled branch must stay the bare stage loop
        # (one module attribute load + one branch per chunk - pinned
        # <2% on fig6 fast-scale by tests/obs/test_overhead.py).
        if _trace.ENABLED:
            for stage in self.stages:
                with _trace.span(stage.span_name):
                    stage.process(state)
        else:
            for stage in self.stages:
                stage.process(state)
        return state

    def stage(self, kind: type) -> Stage:
        """The first stage of class *kind* (test/diagnostic hook)."""
        for stage in self.stages:
            if isinstance(stage, kind):
                return stage
        raise KeyError(f"no {kind.__name__} in pipeline")


_PRIMED_BYTES = 0


def _prime_allocator(block_bytes: int, live_blocks: int = 4) -> None:
    """Pre-adapt the process allocator to the sweep's chunk temporaries.

    The batched chunk temporaries (``(rows, samples)`` float64 blocks
    from the noise fan-out, band-pass, squarer and integrator) sit far
    above glibc's initial 128 KiB mmap threshold, so an unprimed
    process mmaps each of them fresh and munmaps it again on every
    wave - every release hands the pages back to the OS and the next
    wave page-faults them all back in, which dominates a cold run.
    glibc's threshold is *dynamic*: freeing an mmapped block raises the
    threshold to that block's size, after which same-sized requests are
    served from the heap free list and their pages stay resident.
    Allocating and releasing a few wave-sized scratch blocks triggers
    that adaptation once, up front; touching a working set's worth of
    heap blocks afterwards pre-faults the pages the waves then recycle.
    """
    # glibc caps the dynamic threshold at 32 MiB; bigger blocks stay
    # mmapped no matter what, so clamp the scratch size to what the
    # adaptation can actually absorb.  Priming is per-process state:
    # once the allocator has adapted to a given block size, re-priming
    # at or below it would only burn a working set's worth of memset.
    global _PRIMED_BYTES
    block_bytes = max(1, min(block_bytes, 1 << 25))
    if block_bytes <= _PRIMED_BYTES:
        return
    _PRIMED_BYTES = block_bytes
    for _ in range(3):
        scratch = np.empty(block_bytes, dtype=np.uint8)
        del scratch
    count = max(1, min(live_blocks, (1 << 27) // block_bytes))
    blocks = [np.empty(block_bytes, dtype=np.uint8)
              for _ in range(count)]
    for scratch in blocks:
        scratch.fill(0)
    del blocks


def _cell_continues(errors: int, bits: int, bits_done: int, *,
                    target_errors: int, max_bits: int, min_bits: int,
                    adaptive: "AdaptiveStopping | None") -> bool:
    """The Monte-Carlo stopping rule of one sweep cell: keep going
    while under the hard ``max_bits`` cap and short of either
    ``target_errors`` or ``min_bits``, unless the optional
    :class:`~repro.uwb.fastsim.AdaptiveStopping` policy has resolved
    the estimate past ``min_bits``.  A retired cell's counters freeze
    behind the sweep's shared ``bits_done``, which keeps it retired
    (the rule is monotone in frozen counters; the explicit check makes
    the invariant unconditional)."""
    if bits != bits_done:
        return False
    if not (bits < max_bits and (errors < target_errors
                                 or bits < min_bits)):
        return False
    if (adaptive is not None and bits >= min_bits
            and adaptive.resolved(errors, bits)):
        return False
    return True


def run_ber_sweep(front: SignalPipeline,
                  deciders: Sequence[DecisionStage],
                  sigmas, rng: np.random.Generator, *,
                  target_errors: int = 100,
                  max_bits: int = 200_000,
                  min_bits: int = 2_000,
                  chunk_bits: int = 1_000,
                  adaptive: "AdaptiveStopping | None" = None
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo sweep over a whole scenario batch in one chunk loop.

    Runs the shared front of the pipeline (*front*: Tx -> Channel ->
    Combine -> AnalogFrontEnd, **without** a decision stage) once per
    chunk with the scenario batch axis active, then grades the batch
    through every :class:`DecisionStage` in *deciders* - so a whole
    BER campaign (every Eb/N0 point x every integrator variant)
    becomes a handful of large array ops per chunk instead of an
    outer Python loop over points.

    **Seeding / sharing convention.**  All scenarios consume *one*
    generator: per chunk the driver draws the victim bits, each
    interferer's bits (in path order) and one unit-variance noise
    vector - exactly the draw sequence of a single-point run.
    Scenario (decider k, sigma j) is therefore bit-identical to the
    1x1 sweep of that decider and sigma started from the *same
    generator seed*: it sees the same bits, the same interferers and
    the same noise process scaled by its own sigma.

    **Retirement.**  Each cell follows the stopping rule of
    :func:`_cell_continues` (hard ``target_errors`` / ``max_bits``
    caps, optional :class:`~repro.uwb.fastsim.AdaptiveStopping` early
    exit) independently: a resolved cell simply stops accumulating while the
    shared draws continue for the survivors, so retiring a cell
    cannot perturb any other cell's stream.  Scenario rows with no
    active cell left are dropped from the batch arithmetic entirely.

    Args:
        front: the shared pipeline front (no :class:`DecisionStage`).
        deciders: one decision stage per integrator variant; all
            variants share the front-end computation of each chunk.
        sigmas: per-scenario noise standard deviations (one per Eb/N0
            point of the sweep).
        rng: the sweep's single shared generator.

    Returns:
        ``(errors, bits)`` int64 arrays of shape
        ``(len(deciders), len(sigmas))``.
    """
    if chunk_bits < 1:
        raise ValueError("chunk_bits must be >= 1")
    if max_bits < 1:
        raise ValueError("max_bits must be >= 1")
    if min_bits < 0:
        raise ValueError("min_bits must be >= 0")
    if target_errors < 1:
        raise ValueError("target_errors must be >= 1")
    sigmas = np.asarray(sigmas, dtype=float)
    deciders = tuple(deciders)
    n_dec, n_pts = len(deciders), len(sigmas)
    errors = np.zeros((n_dec, n_pts), dtype=np.int64)
    bits = np.zeros((n_dec, n_pts), dtype=np.int64)
    if n_dec == 0 or n_pts == 0:
        return errors, bits
    rule = dict(target_errors=target_errors, max_bits=max_bits,
                min_bits=min_bits, adaptive=adaptive)
    cfg = getattr(front.stages[0], "config", None)
    if cfg is not None:
        samples = min(chunk_bits, max_bits) * cfg.samples_per_symbol
        with _trace.span("link.prime"):
            _prime_allocator(n_pts * samples * 8)
    bits_done = 0
    while True:
        active = np.zeros((n_dec, n_pts), dtype=bool)
        for k in range(n_dec):
            for j in range(n_pts):
                active[k, j] = _cell_continues(
                    int(errors[k, j]), int(bits[k, j]), bits_done,
                    **rule)
        if not active.any():
            break
        n = min(chunk_bits, max_bits - bits_done)
        # Only scenario rows some decider still needs enter the batch;
        # the generator draws are row-count independent (shared bits +
        # one unit noise vector), so retirement never moves the stream.
        rows = np.flatnonzero(active.any(axis=0))
        state = front.run_chunk(n, rng, sigmas=sigmas[rows])
        for k, decider in enumerate(deciders):
            cols = np.flatnonzero(active[k])
            if not len(cols):
                continue
            # Fancy indexing copies; the common all-rows-active wave
            # grades the shared batch directly (decide() is read-only).
            sub = (state.squared if len(cols) == len(rows)
                   else state.squared[np.searchsorted(rows, cols)])
            with _trace.span(decider.span_name):
                _, decisions = decider.decide(sub)
                errors[k, cols] += np.count_nonzero(
                    decisions != state.bits[None, :], axis=-1)
            bits[k, cols] += n
        bits_done += n
    return errors, bits
