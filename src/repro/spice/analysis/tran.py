"""Transient analysis.

Implements fixed-step implicit integration (backward Euler or
trapezoidal) with companion models for capacitors and inductors, Newton
solution at each step, and automatic sub-stepping when an individual step
fails to converge.

:class:`TransientStepper` exposes the integration loop one step at a
time with per-step source overrides; this is the mechanism the
mixed-signal kernel (:mod:`repro.ams.cosim`) uses to embed a transistor
netlist inside a system simulation, mirroring the ADMS/Eldo
substitute-and-play flow of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.spice.errors import AnalysisError, ConvergenceError
from repro.spice.mna import MnaSystem, RhsAdditions, StampTriples
from repro.spice.netlist import Circuit, normalize_node


@dataclass
class TranResult:
    """Recorded transient waveforms.

    Attributes:
        t: time points (s).
        voltages: node-name -> waveform array.
        currents: source-name -> branch-current waveform array.
    """

    t: np.ndarray
    voltages: dict[str, np.ndarray]
    currents: dict[str, np.ndarray]

    def v(self, node: str) -> np.ndarray:
        return self.voltages[normalize_node(node)]

    def vdiff(self, plus: str, minus: str) -> np.ndarray:
        return self.v(plus) - self.v(minus)

    def i(self, device: str) -> np.ndarray:
        return self.currents[device.lower()]

    def at(self, node: str, time: float) -> float:
        """Linear-interpolated node voltage at *time*."""
        return float(np.interp(time, self.t, self.v(node)))


class TransientStepper:
    """Resumable fixed-step transient integrator.

    Args:
        circuit: circuit to integrate.
        dt: fixed time step (s).
        method: ``"trap"`` (trapezoidal) or ``"be"`` (backward Euler).
        overrides: initial source-value overrides (by device name); they
            persist until changed via :meth:`set_source`.
        initial_guess: node-voltage hints for the initial DC solve.
        uic: skip the initial DC solve and start from *x0* (or zero).
        x0: initial solution vector when ``uic`` is true.
    """

    def __init__(self, circuit: Circuit, dt: float, method: str = "trap",
                 overrides: Mapping[str, float] | None = None,
                 initial_guess: Mapping[str, float] | None = None,
                 uic: bool = False, x0: np.ndarray | None = None,
                 gmin: float = 1e-12):
        if dt <= 0:
            raise AnalysisError("TransientStepper: dt must be positive")
        if method not in ("trap", "be"):
            raise AnalysisError(f"unknown integration method {method!r}")
        self.system = MnaSystem(circuit, gmin=gmin)
        self.dt = float(dt)
        self.method = method
        self.overrides: dict[str, float] = {
            k.lower(): float(v) for k, v in (overrides or {}).items()}
        self.t = 0.0

        if uic:
            self.x = (np.zeros(self.system.size) if x0 is None
                      else np.asarray(x0, float).copy())
        else:
            x_init = None
            if initial_guess:
                x_init = np.zeros(self.system.size)
                for node, val in initial_guess.items():
                    idx = self.system.node_index.get(node.lower())
                    if idx is not None and idx < self.system.n_nodes:
                        x_init[idx] = val
            self.x = self.system.solve_robust(
                x_init, overrides=self.overrides, t=0.0)

        self._refresh_caps()
        self.i_cap = np.zeros(len(self.c_val))
        self.steps_taken = 0

    # ------------------------------------------------------------------
    def _refresh_caps(self) -> None:
        x_full = self.system.full_vector(self.x)
        self.c_n1, self.c_n2, self.c_val = self.system.dynamic_caps(x_full)
        self.v_cap = x_full[self.c_n1] - x_full[self.c_n2]

    def set_source(self, name: str, value: float) -> None:
        """Override the value of an independent source from now on."""
        self.overrides[name.lower()] = float(value)

    def set_sources(self, values: Mapping[str, float]) -> None:
        for name, value in values.items():
            self.set_source(name, value)

    def v(self, node: str) -> float:
        """Present node voltage."""
        return self.system.voltage(self.x, node)

    def vdiff(self, plus: str, minus: str) -> float:
        return self.v(plus) - self.v(minus)

    def i(self, device: str) -> float:
        return self.system.branch_current(self.x, device)

    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance the solution by one ``dt`` (with sub-stepping on
        convergence failure)."""
        self._advance(self.dt, depth=0)
        self.steps_taken += 1

    def run_until(self, t_stop: float) -> None:
        """Step repeatedly until ``self.t >= t_stop`` (within half a step)."""
        while self.t < t_stop - 0.5 * self.dt:
            self.step()

    def _advance(self, h: float, depth: int) -> None:
        t_new = self.t + h
        n1, n2, c = self.c_n1, self.c_n2, self.c_val
        if self.method == "trap":
            geq = 2.0 * c / h
            ieq = -(geq * self.v_cap + self.i_cap)
        else:
            geq = c / h
            ieq = -geq * self.v_cap

        rows = np.concatenate([n1, n2, n1, n2])
        cols = np.concatenate([n1, n2, n2, n1])
        vals = np.concatenate([geq, geq, -geq, -geq])
        b_rows = np.concatenate([n1, n2])
        b_vals = np.concatenate([-ieq, ieq])

        sys = self.system
        if len(sys.ind_rows):
            leq = sys.ind_val / h  # backward Euler for inductor branches
            i_old = self.x[sys.ind_rows]
            rows = np.concatenate([rows, sys.ind_rows])
            cols = np.concatenate([cols, sys.ind_rows])
            vals = np.concatenate([vals, -leq])
            b_rows = np.concatenate([b_rows, sys.ind_rows])
            b_vals = np.concatenate([b_vals, -leq * i_old])

        extra_g = StampTriples(rows=rows, cols=cols, vals=vals)
        extra_b = RhsAdditions(rows=b_rows, vals=b_vals)
        try:
            x_new = sys.newton(self.x, t=t_new, overrides=self.overrides,
                               extra_g=extra_g, extra_b=extra_b)
        except ConvergenceError:
            if depth >= 3:
                raise
            for _ in range(4):
                self._advance(h / 4.0, depth + 1)
            return

        x_full = sys.full_vector(x_new)
        v_new = x_full[n1] - x_full[n2]
        self.i_cap = geq * v_new + ieq
        self.v_cap = v_new
        self.x = x_new
        self.t = t_new
        # Re-evaluate device capacitances for the next step (frozen within
        # a step); the concatenation order is deterministic so the state
        # arrays stay aligned.
        c_n1, c_n2, c_val = sys.dynamic_caps(x_full)
        self.c_val = c_val


def transient(circuit: Circuit, t_stop: float, dt: float,
              probes: Sequence[str] | None = None,
              current_probes: Sequence[str] = (),
              method: str = "trap",
              overrides: Mapping[str, float] | None = None,
              initial_guess: Mapping[str, float] | None = None,
              uic: bool = False) -> TranResult:
    """Fixed-step transient analysis from 0 to *t_stop*.

    Args:
        circuit: circuit to integrate.
        t_stop: final time (s).
        dt: fixed step (s).
        probes: node names to record (default: every node).
        current_probes: voltage-source names whose branch current to record.
        method: ``"trap"`` or ``"be"``.
        overrides / initial_guess / uic: see :class:`TransientStepper`.

    Returns:
        A :class:`TranResult` including the initial point at t = 0.
    """
    stepper = TransientStepper(circuit, dt, method=method,
                               overrides=overrides,
                               initial_guess=initial_guess, uic=uic)
    system = stepper.system
    if probes is None:
        probe_list = list(system.nodes)
    else:
        probe_list = [normalize_node(p) for p in probes]
    for probe in probe_list:
        if probe != "0" and probe not in system.node_index:
            raise AnalysisError(f"transient: unknown probe node {probe!r}")
    current_list = [c.lower() for c in current_probes]

    n_steps = int(round(t_stop / dt))
    times = np.empty(n_steps + 1)
    volt_data = {p: np.empty(n_steps + 1) for p in probe_list}
    curr_data = {c: np.empty(n_steps + 1) for c in current_list}

    def record(k: int) -> None:
        times[k] = stepper.t
        for p in probe_list:
            volt_data[p][k] = stepper.v(p)
        for c in current_list:
            curr_data[c][k] = stepper.i(c)

    record(0)
    for k in range(1, n_steps + 1):
        stepper.step()
        record(k)
    return TranResult(t=times, voltages=volt_data, currents=curr_data)
