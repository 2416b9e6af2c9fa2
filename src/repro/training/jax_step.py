"""One-``jax.jit`` training step: forward + adjoint + optimizer update.

The per-iteration cost of :meth:`Trainer._grad_step` on the ``jax``
backend is otherwise paid in pieces — a jitted tape, a numpy loss, a
jitted sweep, a numpy optimizer — with host/device round-trips between
them.  :class:`JaxTrainStep` fuses the whole step into a single compiled
graph: recompute the per-gate cos/sin (and phases) from the *current*
parameter vector, run the tape-recording forward sweep, evaluate the
squared-error loss (masked through the compression projection), run the
adjoint reverse sweep, and apply the GD / momentum / Adam update — one
XLA executable per (program shape, dtype, optimizer kind), cached
process-wide so repeated trainers never retrace.

The step is *semantics-preserving*: loss values, gradient norms and the
parameter trajectory match the unfused adjoint path to rounding (the
trainer-level parity tests in ``tests/training/test_jax_train_step.py``
pin this), and the reported loss is the pre-update loss exactly like
:func:`repro.training.gradients.loss_and_gradient`.

``jax.grad`` autodiff over the same forward graph is wired in as an
independent cross-check (:meth:`JaxTrainStep.loss_and_grad_autodiff`):
it never feeds training, but ``benchmarks/bench_jax.py`` gates its
agreement with the adjoint-tape gradient at ≤ 1e-8.

:class:`Trainer` adopts the fused step automatically when every piece
matches (jax backend, ``adjoint`` method, plain squared-error loss, a
constant-rate GD/momentum/Adam optimizer, no gradient reducer) and
silently keeps the generic path otherwise —
see :func:`maybe_fused_step`.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.backends.jax import JaxBackend
from repro.network.projection import Projection
from repro.network.quantum_network import QuantumNetwork
from repro.training.loss import Loss, SquaredErrorLoss
from repro.training.optimizers import (
    Adam,
    ConstantSchedule,
    GradientDescent,
    MomentumGD,
    Optimizer,
)

__all__ = ["JaxTrainStep", "fused_train_step_supported", "maybe_fused_step"]

#: Compiled step / loss-grad callables, keyed by
#: (kind, optimizer kind, masked?) — the program arrays, parameters and
#: hyper-parameters are *arguments*, so XLA's own shape/dtype-keyed
#: trace cache provides the per-(program shape, dtype) level and two
#: same-shaped trainers share one executable.
_STEP_CACHE: dict = {}


def fused_train_step_supported(optimizer: Optimizer) -> bool:
    """Whether ``optimizer`` can be mirrored exactly inside the graph.

    True for *plain* :class:`GradientDescent`, :class:`MomentumGD` and
    :class:`Adam` (not subclasses — an override would silently change
    semantics) on a :class:`ConstantSchedule`, adopted fresh
    (``t == 0``, so the jax-side moment state starts where the numpy
    state would).
    """
    if type(optimizer) not in (GradientDescent, MomentumGD, Adam):
        return False
    if type(optimizer.schedule) is not ConstantSchedule:
        return False
    return optimizer.t == 0


def _kernels():
    from repro.backends.jax_kernels import kernels

    return kernels()


def _jax():
    from repro.backends.jax_kernels import jax_modules

    return jax_modules()


# ----------------------------------------------------------------------
# graph builders
# ----------------------------------------------------------------------
def _tables(jnp, params, theta_pos, alpha_pos, kind):
    """Per-gate (cos, sin, phase-or-None) *inside* the graph, so the
    whole step differentiates / updates through one executable."""
    th = params[theta_pos]
    c, s = jnp.cos(th), jnp.sin(th)
    if kind != "cplx_alpha":
        return c, s, None
    al = params[alpha_pos]
    return c, s, jnp.cos(al) + 1j * jnp.sin(al)


def _forward_loss(jnp, k, kind, masked):
    """(params, x, targets, arrays..., scale) -> (loss, out, tape)."""

    def fn(params, x, targets, modes, theta_pos, alpha_pos, mask, scale):
        c, s, phase = _tables(jnp, params, theta_pos, alpha_pos, kind)
        if kind == "real":
            out, tape = k["raw_tape_nophase"](modes, c, s, x)
        elif kind == "cplx":
            out, tape = k["raw_tape_nophase"](modes, c, s, x)
        else:
            out, tape = k["raw_tape_phase"](modes, c, s, phase, x)
        if masked:
            out_m = out * mask
        else:
            out_m = out
        diff = out_m - targets
        loss = jnp.sum(jnp.abs(diff) ** 2) * scale
        return loss, (out, tape, diff, c, s, phase)

    return fn


def _adjoint_grad(jnp, k, kind, masked):
    """Adjoint reverse sweep over the recorded tape -> flat gradient."""

    def fn(params, aux, modes, theta_pos, alpha_pos, mask, scale):
        out, tape, diff, c, s, phase = aux
        lam = 2.0 * diff * scale
        if masked:
            lam = lam * mask
        if kind == "real":
            return k["raw_adjoint_real"](modes, theta_pos, c, s, tape, lam)
        if kind == "cplx":
            ones = jnp.ones(modes.shape[0], dtype=jnp.complex128)
            return k["raw_adjoint_cplx"](
                modes, theta_pos, c, s, ones, tape, lam
            )
        grad0 = jnp.zeros(params.shape[0])
        return k["raw_adjoint_cplx_alpha"](
            modes, theta_pos, alpha_pos, grad0, c, s, phase, tape, lam
        )

    return fn


def _opt_update(jnp, opt_kind):
    """The numpy optimizer's update rule, formula for formula."""

    def fn(params, grad, state, t, hyper):
        lr, mu, b1, b2, eps = hyper
        if opt_kind == "gd":
            return params - lr * grad, state
        if opt_kind == "momentum":
            (v,) = state
            v = mu * v - lr * grad
            return params + v, (v,)
        m, v = state
        t1 = t + 1
        m = b1 * m + (1.0 - b1) * grad
        v = b2 * v + (1.0 - b2) * grad**2
        m_hat = m / (1.0 - b1**t1)
        v_hat = v / (1.0 - b2**t1)
        return params - lr * m_hat / (jnp.sqrt(v_hat) + eps), (m, v)

    return fn


def _compiled(kind: str, opt_kind: str, masked: bool):
    """The fused (step, loss_grad, autodiff) triple for one config."""
    key = (kind, opt_kind, masked)
    fns = _STEP_CACHE.get(key)
    if fns is not None:
        return fns
    jax, jnp = _jax()
    k = _kernels()
    forward_loss = _forward_loss(jnp, k, kind, masked)
    adjoint_grad = _adjoint_grad(jnp, k, kind, masked)
    opt_update = _opt_update(jnp, opt_kind)

    def loss_grad(params, x, targets, modes, theta_pos, alpha_pos, mask, scale):
        loss, aux = forward_loss(
            params, x, targets, modes, theta_pos, alpha_pos, mask, scale
        )
        grad = adjoint_grad(
            params, aux, modes, theta_pos, alpha_pos, mask, scale
        )
        return loss, grad

    def step(
        params, state, t, x, targets, modes, theta_pos, alpha_pos, mask,
        scale, hyper,
    ):
        loss, grad = loss_grad(
            params, x, targets, modes, theta_pos, alpha_pos, mask, scale
        )
        gnorm = jnp.linalg.norm(grad)
        new_params, new_state = opt_update(params, grad, state, t, hyper)
        return loss, gnorm, new_params, new_state

    def scalar_loss(params, x, targets, modes, theta_pos, alpha_pos, mask, scale):
        loss, _ = forward_loss(
            params, x, targets, modes, theta_pos, alpha_pos, mask, scale
        )
        return loss

    fns = (
        jax.jit(step),
        jax.jit(loss_grad),
        jax.jit(jax.value_and_grad(scalar_loss)),
    )
    _STEP_CACHE[key] = fns
    return fns


# ----------------------------------------------------------------------
# the step object
# ----------------------------------------------------------------------
class JaxTrainStep:
    """Fused train step bound to one (network, optimizer, projection).

    Construct via :func:`maybe_fused_step` (which checks every
    eligibility condition); :meth:`run` replaces one
    ``loss_and_gradient`` + ``optimizer.step`` + ``set_flat_params``
    round, keeping the optimizer's moment state device-side between
    iterations and writing updated parameters back to the network each
    call (so parameter snapshots, callbacks and post-training inference
    observe exactly the unfused trajectory).
    """

    def __init__(
        self,
        network: QuantumNetwork,
        optimizer: Optimizer,
        projection: Optional[Projection],
        loss: SquaredErrorLoss,
    ) -> None:
        self.network = network
        self.optimizer = optimizer
        prog = network.backend.program
        self._modes = prog.modes
        self._theta_pos = prog.theta_index
        self._alpha_pos = (
            prog.alpha_index if prog.allow_phase else np.zeros(0, np.int64)
        )
        self._allow_phase = prog.allow_phase
        self._mask = (
            None
            if projection is None
            else np.where(projection.mask, 1.0, 0.0)[:, None]
        )
        self._mean = loss.reduction == "mean"
        if type(optimizer) is GradientDescent:
            self._opt_kind = "gd"
        elif type(optimizer) is MomentumGD:
            self._opt_kind = "momentum"
        else:
            self._opt_kind = "adam"
        lr = optimizer.schedule.lr
        mu = getattr(optimizer, "momentum", 0.0)
        b1 = getattr(optimizer, "beta1", 0.0)
        b2 = getattr(optimizer, "beta2", 0.0)
        eps = getattr(optimizer, "eps", 0.0)
        self._hyper = (lr, mu, b1, b2, eps)
        self._state: Optional[tuple] = None

    # -- plumbing ------------------------------------------------------
    def _kind(self, x: np.ndarray) -> str:
        if self._allow_phase:
            return "cplx_alpha"
        return "cplx" if np.iscomplexobj(x) else "real"

    def _prep(self, inputs: np.ndarray, targets: np.ndarray):
        kind = self._kind(inputs)
        dtype = np.complex128 if kind != "real" else np.float64
        x = np.ascontiguousarray(inputs, dtype=dtype)
        t = np.ascontiguousarray(targets, dtype=dtype)
        scale = 1.0 / x.size if self._mean else 1.0
        mask = self._mask if self._mask is not None else np.zeros((0, 1))
        return kind, x, t, scale, mask

    def _fresh_state(self, params: np.ndarray) -> tuple:
        if self._opt_kind == "gd":
            return ()
        if self._opt_kind == "momentum":
            return (np.zeros_like(params),)
        return (np.zeros_like(params), np.zeros_like(params))

    # -- entry points --------------------------------------------------
    def run(
        self, inputs: np.ndarray, targets: np.ndarray
    ) -> Tuple[float, float]:
        """One fused iteration; returns ``(loss, grad_norm)`` pre-update.

        Mirrors ``Trainer._grad_step``'s generic body: the network gets
        the updated parameters (invalidating its backend caches) and
        the optimizer's public ``t`` advances so telemetry and schedule
        introspection stay truthful — its numpy moment buffers stay
        untouched; the live state is the device-side mirror here.
        """
        kind, x, t, scale, mask = self._prep(inputs, targets)
        step, _, _ = _compiled(kind, self._opt_kind, self._mask is not None)
        params = self.network.get_flat_params()
        if self._state is None:
            self._state = self._fresh_state(params)
        loss, gnorm, new_params, new_state = step(
            params,
            self._state,
            self.optimizer.t,
            x,
            t,
            self._modes,
            self._theta_pos,
            self._alpha_pos,
            mask,
            scale,
            self._hyper,
        )
        self._state = new_state
        self.optimizer.t += 1
        self.network.set_flat_params(np.asarray(new_params))
        return float(loss), float(gnorm)

    def loss_and_grad(
        self, inputs: np.ndarray, targets: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        """Jitted loss + adjoint gradient, no update (parity checks)."""
        kind, x, t, scale, mask = self._prep(inputs, targets)
        _, loss_grad, _ = _compiled(
            kind, self._opt_kind, self._mask is not None
        )
        loss, grad = loss_grad(
            self.network.get_flat_params(),
            x,
            t,
            self._modes,
            self._theta_pos,
            self._alpha_pos,
            mask,
            scale,
        )
        return float(loss), np.asarray(grad)

    def loss_and_grad_autodiff(
        self, inputs: np.ndarray, targets: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        """``jax.value_and_grad`` over the same forward graph.

        Independent of the adjoint sweep (XLA differentiates the scan
        itself) — the cross-check ``bench_jax.py`` gates at ≤ 1e-8
        against :meth:`loss_and_grad`.
        """
        kind, x, t, scale, mask = self._prep(inputs, targets)
        _, _, autodiff = _compiled(
            kind, self._opt_kind, self._mask is not None
        )
        loss, grad = autodiff(
            self.network.get_flat_params(),
            x,
            t,
            self._modes,
            self._theta_pos,
            self._alpha_pos,
            mask,
            scale,
        )
        return float(loss), np.asarray(grad)


def maybe_fused_step(
    network: QuantumNetwork,
    optimizer: Optimizer,
    projection: Optional[Projection],
    loss: Loss,
) -> Optional[JaxTrainStep]:
    """A :class:`JaxTrainStep` when every piece is fusable, else ``None``.

    Eligibility: the network runs the ``jax`` backend, the update loss
    is a plain :class:`SquaredErrorLoss`, and the optimizer passes
    :func:`fused_train_step_supported`.  The trainer additionally
    requires the ``adjoint`` method and no gradient reducer before
    asking.
    """
    backend = getattr(network, "backend", None)
    if not isinstance(backend, JaxBackend):
        return None
    if type(loss) is not SquaredErrorLoss:
        return None
    if not fused_train_step_supported(optimizer):
        return None
    return JaxTrainStep(network, optimizer, projection, loss)
