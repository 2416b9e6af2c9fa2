"""XLA-compiled execution: the ``"jax"`` backend.

This backend targets the wide end of the batch axis: the compiled
:class:`~repro.backends.program.GateProgram` is lowered once to a
``jax.lax.scan``-ned Givens-rotation sweep (phase-free and
phase-bearing, float64 via ``jax_enable_x64``, forward and inverse) that
folds the network unitary device-side, and batches are pushed through a
per-sample contraction ``vmap``-ped over the batch dimension — so
throughput scales with width and, on hosts with an accelerator-backed
jaxlib, off the CPU entirely.  The same kernel family provides the
``adjoint_tape`` / ``adjoint_sweep`` pair, so the vectorized adjoint
engine (``engine="batched"``) runs fully jitted, and
:mod:`repro.training.jax_step` composes the raw kernel bodies into a
*single* compiled training step (forward + adjoint + optimizer update
under one ``jax.jit``).

**Soft dependency.**  jax is optional: this module always imports (and
the backend always registers, so ``available_backends()`` is stable) but
constructing :class:`JaxBackend` without jax raises a clear
:class:`~repro.exceptions.BackendError`.  The jax import itself is
deferred to first construction — availability is probed with
``importlib.util.find_spec`` — so processes that never select the
backend skip the jax/XLA startup cost even on hosts that have it
installed.

**Compile cache / retrace contract.**  All kernels live in
:mod:`repro.backends.jax_kernels` as module-level jitted callables that
take the program arrays as arguments; XLA keys its trace cache on
argument shapes and dtypes — i.e. on (program shape, dtype, phase) — so
repeated :class:`~repro.api.codec.Codec` / ``QuantumNetwork`` instances
of the same architecture share one compiled executable and never
retrace.  See ``docs/backends.md`` for the full contract.

**Invalidation contract.**  Parameter tables and the folded device-side
unitary are trusted until
:meth:`~repro.backends.base.Backend.invalidate` (``set_flat_params``
sends one); code that writes ``layer.thetas`` in place must call
``network.backend.invalidate()`` explicitly.
"""

from __future__ import annotations

from importlib import util as _importlib_util
from typing import Optional, Tuple

import numpy as np

from repro.backends.base import Backend, register_backend
from repro.backends.cached import PrefixSuffixWorkspace
from repro.exceptions import BackendError, GateError

__all__ = ["JaxBackend", "JAX_AVAILABLE"]

#: Whether the optional jax dependency is importable (probed without
#: importing it — see the module docstring on deferred startup cost).
JAX_AVAILABLE: bool = _importlib_util.find_spec("jax") is not None

_MISSING_JAX = (
    "backend 'jax' requires the optional jax package, which is not "
    "installed (pip install jax, or the requirements-ci-jax.txt extras); "
    "the 'fused' backend is the fastest jax-free alternative for wide "
    "batches"
)


def _kernels():
    """The lazily-imported kernel table (the only jax import site)."""
    if not JAX_AVAILABLE:
        raise BackendError(_MISSING_JAX)
    from repro.backends.jax_kernels import kernels

    return kernels()


@register_backend
class JaxBackend(Backend):
    """Scanned-sweep XLA execution over the flat :class:`GateProgram`.

    Semantics match the loop backend to rounding: the scanned sweep
    applies the same two-row rotations in the same order, only folded
    and compiled by XLA.  Parameter tables (per-gate cos/sin and, for
    phase-bearing networks, the complex phases) plus the folded
    device-side unitary are rebuilt lazily after each
    :meth:`~repro.backends.base.Backend.invalidate`.

    Raises
    ------
    BackendError
        At construction when jax is not installed (the name stays in
        the registry so the error is this message, not "unknown
        backend").

    Examples
    --------
    >>> from repro.backends import make_backend
    >>> make_backend("jax:gpu")
    Traceback (most recent call last):
        ...
    repro.exceptions.BackendError: backend 'jax' takes no ':' argument \
(got jax:gpu)
    """

    name = "jax"
    supports_cached_gradients = True
    supports_adjoint_kernels = True
    install_hint = (
        "pip install jax (CPU wheels: pip install 'jax[cpu]', or the "
        "requirements-ci-jax.txt extras)"
    )

    @classmethod
    def is_available(cls) -> bool:
        return JAX_AVAILABLE

    def __init__(self) -> None:
        if not JAX_AVAILABLE:
            raise BackendError(_MISSING_JAX)
        super().__init__()
        #: (cos, sin, phase-or-None) per-gate tables; None when stale.
        self._tables: Optional[
            Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]
        ] = None
        #: Folded device-side unitary for the current tables.
        self._unitary = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def bind(self, network) -> "JaxBackend":
        super().bind(network)
        # Surface a broken jax install at bind time (first compress
        # would otherwise fail mid-pipeline); building the kernel table
        # is cheap — tracing happens on first call per shape/dtype.
        _kernels()
        return self

    def invalidate(self) -> None:
        self._tables = None
        self._unitary = None

    def _refresh(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        tables = self._tables
        if tables is not None:
            return tables
        prog = self.program
        params = self.network.get_flat_params()
        th = params[prog.theta_index]
        c, s = np.cos(th), np.sin(th)
        phase: Optional[np.ndarray] = None
        if prog.allow_phase:
            al = params[prog.alpha_index]
            if np.any(al != 0.0):
                phase = np.cos(al) + 1j * np.sin(al)
        self._tables = (c, s, phase)
        return self._tables

    def _fold(self):
        """The network unitary, folded device-side and cached until the
        next invalidation (one scanned sweep per parameter set)."""
        if self._unitary is not None:
            return self._unitary
        c, s, phase = self._refresh()
        prog = self.program
        k = _kernels()
        eye = np.eye(prog.dim)
        if phase is None:
            self._unitary = k["fold_nophase"](prog.modes, c, s, eye)
        else:
            self._unitary = k["fold_phase"](prog.modes, c, s, phase, eye)
        return self._unitary

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def forward_inplace(self, data: np.ndarray, inverse: bool = False) -> None:
        c, s, phase = self._refresh()
        if phase is not None and not np.iscomplexobj(data):
            # Parity with the loop/fused kernels' contract.
            raise GateError(
                "a non-zero phase alpha requires a complex state batch; the "
                "paper's real network fixes alpha = 0 (Section III-A)"
            )
        k = _kernels()
        u = self._fold()
        fn = k["apply_inverse"] if inverse else k["apply"]
        data[...] = np.asarray(fn(u, data))

    # ------------------------------------------------------------------
    # gradients
    # ------------------------------------------------------------------
    def gradient_workspace(self, inputs: np.ndarray) -> PrefixSuffixWorkspace:
        return PrefixSuffixWorkspace(self.network, self.program, inputs)

    def adjoint_tape(
        self, data: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Jitted traced forward pass: ``(output, row_tape)``.

        The tape layout matches
        :meth:`~repro.network.quantum_network.QuantumNetwork.forward_trace`
        (``(num_gates, 2, M)``, rows recorded before each gate in
        application order); :meth:`adjoint_sweep` consumes it.  The tape
        stays a device array (the sweep reads it back without a host
        round-trip); ``np.asarray`` materialises it when needed.
        """
        c, s, phase = self._refresh()
        prog = self.program
        k = _kernels()
        dtype = self.network.result_dtype(data)
        x = np.ascontiguousarray(data, dtype=dtype)
        if phase is None:
            out, tape = k["tape_nophase"](prog.modes, c, s, x)
        else:
            out, tape = k["tape_phase"](prog.modes, c, s, phase, x)
        return np.asarray(out), tape

    def adjoint_sweep(self, tape, lam: np.ndarray) -> np.ndarray:
        """Jitted adjoint backward sweep over a recorded tape.

        ``lam`` is the output-side adjoint (same dtype as the tape);
        returns the flat parameter gradient (theta block, then the
        alpha block for phase-bearing networks), read off the single
        tape by the reverse scan.
        """
        c, s, phase = self._refresh()
        prog = self.program
        k = _kernels()
        if not np.iscomplexobj(tape):
            grad = k["adjoint_real"](
                prog.modes, prog.theta_index, c, s, tape, lam
            )
            return np.asarray(grad)
        if phase is None:
            phase = np.ones(prog.num_gates, dtype=np.complex128)
        if prog.allow_phase:
            grad = k["adjoint_cplx_alpha"](
                prog.modes,
                prog.theta_index,
                prog.alpha_index,
                np.zeros(prog.num_parameters),
                c,
                s,
                phase,
                tape,
                lam,
            )
        else:
            grad = k["adjoint_cplx"](
                prog.modes, prog.theta_index, c, s, phase, tape, lam
            )
        return np.asarray(grad)
