"""Mixed-signal receiver testbench on the AMS kernel (Phases II-IV).

This is the system-level testbench of the methodology: the receiver
back end (VGA -> squarer -> Integrate & Dump -> ADC -> demodulator) built
from kernel blocks, with the integrator slot accepting any of:

* ``"ideal"``       - Phase II behavioral model,
* ``"two_pole"``    - Phase IV behavioral model (optionally with the
  extracted nonlinearity),
* ``"circuit"``     - Phase III: the transistor netlist co-simulated in
  the loop (the ADMS/Eldo substitute-and-play),
* any :class:`~repro.uwb.integrator.WindowIntegrator` instance.

The same testbench, waveform and timing are reused across phases, which
is exactly the property the paper exploits to compare implementations -
and what the Table-1 CPU benchmark measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.ams import (
    AnalogBlock,
    CallbackBlock,
    Recorder,
    Signal,
    Simulator,
    SpiceBlock,
)
from repro.circuits import IntegrateDumpDesign, build_id_testbench, \
    default_design
from repro.uwb.adc import Adc
from repro.uwb.config import UwbConfig
from repro.uwb.integrator import WindowIntegrator

MODE_DUMP = 0
MODE_INTEGRATE = 1
MODE_HOLD = 2


class WaveformSource(AnalogBlock):
    """Plays a sampled waveform into a quantity, one sample per step."""

    def __init__(self, name: str, samples: np.ndarray, out) -> None:
        super().__init__(name, outputs=[out])
        # Own, frozen copy: step_block hands out views of this array,
        # so an in-place downstream callback must fail loudly instead
        # of corrupting the stimulus (or the caller's array).
        self.samples = np.array(samples, dtype=float)
        self.samples.setflags(write=False)
        self._idx = 0

    def step(self, t: float, dt: float) -> None:
        if self._idx < len(self.samples):
            self.outputs[0].value = float(self.samples[self._idx])
        else:
            self.outputs[0].value = 0.0
        self._idx += 1

    def step_block(self, t0: float, dt: float, n: int, inputs):
        idx = self._idx
        end = idx + n
        self._idx = end
        samples = self.samples
        if end <= len(samples):
            return (samples[idx:end],)
        out = np.zeros(n)
        avail = len(samples) - idx
        if avail > 0:
            out[:avail] = samples[idx:]
        return (out,)

    def reset(self) -> None:
        self._idx = 0


class BehavioralIntegratorBlock(AnalogBlock):
    """Gated integrator around a streaming state (Phase II / IV).

    The mode signal only changes at digital events, so within an
    inter-event segment the gate is constant and the whole window can be
    integrated at once - provided the state implements the vectorized
    ``integrate_block`` (both kernel ODE states do; a custom state
    without it simply keeps this block lock-step).
    """

    def __init__(self, name: str, state, vin, vout, mode: Signal):
        super().__init__(name, inputs=[vin], outputs=[vout])
        self.state = state
        self.mode = mode
        vectorizable = getattr(state, "vectorizable", None)
        if not hasattr(state, "integrate_block") or (
                vectorizable is not None and not vectorizable()):
            self.step_block = None  # instance-level opt-out

    def step(self, t: float, dt: float) -> None:
        mode = self.mode.value
        if mode == MODE_INTEGRATE:
            out = self.state.integrate(self.inputs[0].value, dt)
        elif mode == MODE_HOLD:
            out = self.state.hold()
        else:
            out = self.state.dump()
        self.outputs[0].value = float(out)

    def step_block(self, t0: float, dt: float, n: int, inputs):
        mode = self.mode.value
        if mode == MODE_INTEGRATE:
            return (self.state.integrate_block(inputs[0], dt),)
        if mode == MODE_HOLD:
            return (np.full(n, float(self.state.hold())),)
        return (np.full(n, float(self.state.dump())),)

    def reset(self) -> None:
        self.state.dump()


@dataclass
class AmsRunResult:
    """Result of one AMS receiver run.

    Attributes:
        bits: demodulated payload bits (one per full symbol simulated).
        slot_values: raw ADC input voltages per slot (n_symbols, 2).
        cpu_time: wall-clock seconds spent in the kernel loop.
        steps: analog steps executed.
        recorder: optional waveform recorder (when tracing was enabled).
    """

    bits: np.ndarray
    slot_values: np.ndarray
    cpu_time: float
    steps: int
    recorder: Recorder | None = None


def _resolve_integrator(kind: str | WindowIntegrator
                        ) -> WindowIntegrator | str:
    """Resolve an integrator spec through the link registry: pass
    through instances, build registered names, keep ``"circuit"``
    symbolic (it becomes a co-simulation block)."""
    # Imported lazily: repro.link's backends import this module.
    from repro.link.registry import resolve_integrator

    return resolve_integrator(kind, cosim=True)


def build_ams_receiver(config: UwbConfig,
                       integrator: str | WindowIntegrator,
                       waveform: np.ndarray, *,
                       gain: float = 1.0,
                       design: IntegrateDumpDesign | None = None,
                       adc: Adc | None = None,
                       cosim_substeps: int = 1,
                       record: bool = False,
                       t_hold: float | None = None,
                       t_dump: float | None = None,
                       engine: str = "compiled",
                       preflight: bool = True,
                       ) -> tuple[Simulator, "_Harvest"]:
    """Assemble the receiver testbench over *waveform*.

    Args:
        config: link configuration (sets the kernel dt = 1/fs).
        integrator: ``"ideal"`` / ``"two_pole"`` / ``"surrogate"`` /
            ``"circuit"`` or a model instance.
        waveform: received waveform samples at ``config.fs`` (already
            including noise/channel); it reaches the squarer through a
            fixed-gain VGA.
        gain: VGA gain (linear).
        cosim_substeps: circuit-level steps per kernel step (Phase III).
        record: attach a waveform recorder (rx, vga, squarer, integrator).
        engine: kernel execution engine (``"compiled"`` vectorizes the
            behavioral back ends between digital events; ``"reference"``
            is the lock-step oracle; circuit co-simulation always runs
            lock-step regardless).

    Returns:
        ``(simulator, harvest)``: run the simulator, then
        ``harvest.result()`` gives the :class:`AmsRunResult`
        (demodulated bits, per-slot ADC inputs, kernel CPU time).
        :meth:`repro.link.KernelBackend.packet` is the spec-level
        front door.
    """
    config.validate()
    design = design or default_design()
    sim = Simulator(dt=config.dt, engine=engine)

    rx = sim.quantity("rx")
    vga_out = sim.quantity("vga_out")
    sq_out = sim.quantity("sq_out")
    int_out = sim.quantity("int_out")
    mode = sim.signal("id_mode", init=MODE_DUMP)

    sim.add_block(WaveformSource("rx_source", waveform, rx))
    sim.add_block(CallbackBlock("vga", lambda v: gain * v,
                                inputs=[rx], outputs=[vga_out],
                                vectorized=True))
    sim.add_block(CallbackBlock("squarer", lambda v: v * v,
                                inputs=[vga_out], outputs=[sq_out],
                                vectorized=True))

    resolved = _resolve_integrator(integrator)
    if resolved == "circuit":
        tb = build_id_testbench(design, mode="hold")
        cm = design.input_cm
        vdd = design.vdd

        def ctlp() -> float:
            return vdd if mode.value == MODE_INTEGRATE else 0.0

        def ctlm() -> float:
            return vdd if mode.value == MODE_DUMP else 0.0

        block = SpiceBlock(
            "integrate_dump_spice", tb, config.dt,
            inputs={
                "vinp": lambda: cm + 0.5 * sq_out.value,
                "vinm": lambda: cm - 0.5 * sq_out.value,
                "vctlp": ctlp,
                "vctlm": ctlm,
            },
            outputs={int_out: lambda st: st.vdiff("out_intp", "out_intm")},
            substeps=cosim_substeps,
            initial_guess={"x1.outp": 0.9, "x1.outm": 0.9,
                           "out_intp": 0.9, "out_intm": 0.9,
                           "vdd": vdd, "inp": cm, "inm": cm},
            preflight=preflight)
        sim.add_block(block)
    else:
        sim.add_block(BehavioralIntegratorBlock(
            "integrate_dump", resolved.make_state(), sq_out, int_out, mode))

    harvest = _Harvest(sim, config, adc, mode, int_out,
                       t_hold=t_hold if t_hold is not None else 2e-9,
                       t_dump=t_dump if t_dump is not None else 2e-9)
    recorder = None
    if record:
        recorder = Recorder(sim, [rx, vga_out, sq_out, int_out])
    harvest.recorder = recorder
    return sim, harvest


class _Harvest:
    """Slot timing + ADC sampling + demodulation processes."""

    def __init__(self, sim: Simulator, config: UwbConfig, adc: Adc | None,
                 mode: Signal, int_out, t_hold: float, t_dump: float):
        self.sim = sim
        self.config = config
        self.adc = adc
        self.mode = mode
        self.int_out = int_out
        self.slot_values: list[float] = []
        self.recorder: Recorder | None = None
        sim.on_reset(self.clear)
        slot = config.slot
        if t_hold + t_dump >= slot:
            raise ValueError("hold + dump must fit inside a slot")

        def slot_tick(s: Simulator) -> None:
            # Slot layout: dump -> integrate -> hold(+sample).
            self.mode.assign(MODE_DUMP)
            s.schedule(t_dump, lambda: self.mode.assign(MODE_INTEGRATE))
            s.schedule(slot - t_hold,
                       lambda: self.mode.assign(MODE_HOLD))
            s.schedule(slot - s.dt, self._sample)

        sim.every(slot, slot_tick, start=0.0)

    def _sample(self) -> None:
        self.slot_values.append(float(self.int_out.value))

    def clear(self) -> None:
        """Drop harvested samples (wired into ``Simulator.reset``)."""
        self.slot_values.clear()

    def result(self) -> AmsRunResult:
        values = np.asarray(self.slot_values, dtype=float)
        n_pairs = len(values) // 2
        pairs = values[:2 * n_pairs].reshape(n_pairs, 2)
        adc = self.adc
        if adc is None:
            # Auto-ranged ADC: full scale tracks the observed slot peak,
            # standing in for a converged AGC (the explicit AGC loop is
            # exercised by the packet-level receiver).
            peak = float(np.max(pairs)) if pairs.size else 1.0
            adc = Adc(bits=self.config.adc_bits,
                      vref=max(peak, 1e-12) * 1.05)
        quantized = adc.quantize(np.maximum(pairs, 0.0))
        bits = (quantized[:, 1] > quantized[:, 0]).astype(np.int8)
        return AmsRunResult(bits=bits, slot_values=pairs,
                            cpu_time=self.sim.cpu_time,
                            steps=self.sim.steps,
                            recorder=self.recorder)
