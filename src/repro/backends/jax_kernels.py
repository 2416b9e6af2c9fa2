"""The XLA kernels behind :class:`~repro.backends.jax.JaxBackend`.

This module is the only place in the package that imports jax, and it is
imported *lazily* — :mod:`repro.backends.jax` pulls it in on first
backend construction — so processes that never touch the ``jax`` backend
(the CLI on ``fused``, the default CI legs) skip the jax/XLA startup
cost entirely.  Importing it without jax installed raises
``ImportError``; the backend turns that into its
:class:`~repro.exceptions.BackendError` install hint.

``jax.config.update("jax_enable_x64", True)`` is applied on first import
(before any kernel is traced), so every kernel runs in float64 /
complex128 and matches the numpy backends to rounding instead of
float32's ~1e-7.

**Compile / retrace contract.**  Every kernel below is a module-level
``jax.jit``-compiled callable that takes the compiled
:class:`~repro.backends.program.GateProgram`'s flat arrays (``modes``,
parameter tables) as *arguments*, never as closure constants.  XLA keys
its trace cache on argument shapes and dtypes, which for these kernels
means exactly (program shape, dtype, phase-bearing or not): two
:class:`~repro.api.codec.Codec` / ``QuantumNetwork`` instances with the
same architecture share one compiled executable per dtype, and repeated
instances never retrace.  The kernel table itself is built once per
process (:func:`kernels`).

**Execution strategy.**  The forward/inverse pass *folds* the scanned
Givens-rotation sweep: a ``jax.lax.scan`` over the gate arrays applies
each two-row rotation to the identity, producing the network unitary
``U`` (cached device-side by the backend until
:meth:`~repro.backends.base.Backend.invalidate`), and the batch is then
pushed through a per-sample ``U @ column`` contraction ``vmap``-ped over
the batch axis — one fused XLA contraction whose throughput scales with
width, with no per-call parameter re-validation (the numpy fused
backend's overhead).  The adjoint pair (:func:`kernels` entries
``tape_*`` / ``adjoint_*``) runs the scanned sweep directly over the
``(N, M)`` batch, recording the pre-gate rows exactly like
:meth:`~repro.network.quantum_network.QuantumNetwork.forward_trace`,
and the reverse scan reads the theta (and alpha)
gradients off the tape while pulling the adjoint back through
``G^dagger``.
"""

from __future__ import annotations

__all__ = ["jax_modules", "kernels"]

#: Process-wide lazy state: {"mods": (jax, jnp), "kernels": {...}}.
_STATE: dict = {}


def jax_modules():
    """Import jax once, enable x64 *before* anything is traced.

    Returns the ``(jax, jax.numpy)`` pair; raises ``ImportError`` when
    jax is not installed (the backend converts that to a
    ``BackendError`` with an install hint).
    """
    mods = _STATE.get("mods")
    if mods is None:
        import jax

        jax.config.update("jax_enable_x64", True)
        import jax.numpy as jnp

        mods = (jax, jnp)
        _STATE["mods"] = mods
    return mods


def _build():
    """Construct the jitted kernel table (once per process)."""
    jax, jnp = jax_modules()
    lax = jax.lax

    # -- scanned Givens-rotation sweeps --------------------------------
    # Each gate g rotates rows (k, k+1); the scan carries the state and
    # consumes the per-gate (mode, cos, sin[, phase]) columns.  `state`
    # is (N, N) for the unitary fold and (N, M) for the tape sweep; the
    # two-row read/write is a dynamic slice pair so the whole gate chain
    # lowers to one compiled loop with no per-gate dispatch.

    def _rows(state, k):
        seg = lax.dynamic_slice(state, (k, 0), (2, state.shape[1]))
        return seg[0], seg[1]

    def _put(state, k, top, bottom):
        return lax.dynamic_update_slice(
            state, jnp.stack((top, bottom)), (k, 0)
        )

    def _fold_nophase(modes, c, s, eye):
        def body(u, gate):
            k, cg, sg = gate
            a, b = _rows(u, k)
            return _put(u, k, cg * a - sg * b, sg * a + cg * b), None

        u, _ = lax.scan(body, eye, (modes, c, s))
        return u

    def _fold_phase(modes, c, s, phase, eye):
        def body(u, gate):
            k, cg, sg, pg = gate
            a, b = _rows(u, k)
            return _put(u, k, pg * cg * a - sg * b, pg * sg * a + cg * b), None

        u, _ = lax.scan(body, eye.astype(jnp.complex128), (modes, c, s, phase))
        return u

    # -- batched application: per-sample contraction, vmapped ----------
    def _apply(u, x):
        return jax.vmap(lambda col: u @ col, in_axes=1, out_axes=1)(x)

    def _apply_inverse(u, x):
        uh = jnp.conj(u).T
        return jax.vmap(lambda col: uh @ col, in_axes=1, out_axes=1)(x)

    # -- tape-recording forward sweeps (adjoint engine) ----------------
    def _tape_nophase(modes, c, s, x):
        def body(state, gate):
            k, cg, sg = gate
            a, b = _rows(state, k)
            rows = jnp.stack((a, b))
            return _put(state, k, cg * a - sg * b, sg * a + cg * b), rows

        out, tape = lax.scan(body, x, (modes, c, s))
        return out, tape

    def _tape_phase(modes, c, s, phase, x):
        def body(state, gate):
            k, cg, sg, pg = gate
            a, b = _rows(state, k)
            rows = jnp.stack((a, b))
            return (
                _put(state, k, pg * cg * a - sg * b, pg * sg * a + cg * b),
                rows,
            )

        out, tape = lax.scan(body, x, (modes, c, s, phase))
        return out, tape

    # -- adjoint reverse sweeps ----------------------------------------
    # Reverse scan over the same gate columns: per gate the theta (and
    # alpha) gradient is Re <lam, dG (r0, r1)> read off the tape rows,
    # then lam is pulled back through G^dagger — formula-for-formula the
    # looped reference walk in training/gradients.py, vectorised over
    # the batch axis.

    def _adjoint_real(modes, theta_pos, c, s, tape, lam):
        def body(lam, gate):
            k, cg, sg, rows = gate
            r0, r1 = rows[0], rows[1]
            l0, l1 = _rows(lam, k)
            acc = jnp.sum(
                l0 * (-sg * r0 - cg * r1) + l1 * (cg * r0 - sg * r1)
            )
            return _put(lam, k, cg * l0 + sg * l1, cg * l1 - sg * l0), acc

        _, accs = lax.scan(body, lam, (modes, c, s, tape), reverse=True)
        return jnp.zeros(theta_pos.shape[0]).at[theta_pos].set(accs)

    def _adjoint_cplx(modes, theta_pos, c, s, phase, tape, lam):
        def body(lam, gate):
            k, cg, sg, pg, rows = gate
            r0, r1 = rows[0], rows[1]
            l0, l1 = _rows(lam, k)
            acc = jnp.sum(
                jnp.real(jnp.conj(l0) * (-pg * sg * r0 - cg * r1))
                + jnp.real(jnp.conj(l1) * (pg * cg * r0 - sg * r1))
            )
            pc = jnp.conj(pg)
            return (
                _put(lam, k, pc * (cg * l0 + sg * l1), cg * l1 - sg * l0),
                acc,
            )

        _, accs = lax.scan(
            body, lam, (modes, c, s, phase, tape), reverse=True
        )
        return jnp.zeros(theta_pos.shape[0]).at[theta_pos].set(accs)

    def _adjoint_cplx_alpha(
        modes, theta_pos, alpha_pos, grad0, c, s, phase, tape, lam
    ):
        def body(lam, gate):
            k, cg, sg, pg, rows = gate
            r0, r1 = rows[0], rows[1]
            l0, l1 = _rows(lam, k)
            acc_t = jnp.sum(
                jnp.real(jnp.conj(l0) * (-pg * sg * r0 - cg * r1))
                + jnp.real(jnp.conj(l1) * (pg * cg * r0 - sg * r1))
            )
            dp = 1j * pg
            acc_a = jnp.sum(
                jnp.real(jnp.conj(l0) * (dp * cg * r0))
                + jnp.real(jnp.conj(l1) * (dp * sg * r0))
            )
            pc = jnp.conj(pg)
            return (
                _put(lam, k, pc * (cg * l0 + sg * l1), cg * l1 - sg * l0),
                (acc_t, acc_a),
            )

        _, (acc_t, acc_a) = lax.scan(
            body, lam, (modes, c, s, phase, tape), reverse=True
        )
        return grad0.at[theta_pos].set(acc_t).at[alpha_pos].set(acc_a)

    jit = jax.jit
    return {
        "jnp": jnp,
        "fold_nophase": jit(_fold_nophase),
        "fold_phase": jit(_fold_phase),
        "apply": jit(_apply),
        "apply_inverse": jit(_apply_inverse),
        "tape_nophase": jit(_tape_nophase),
        "tape_phase": jit(_tape_phase),
        "adjoint_real": jit(_adjoint_real),
        "adjoint_cplx": jit(_adjoint_cplx),
        "adjoint_cplx_alpha": jit(_adjoint_cplx_alpha),
        # Unjitted bodies: repro.training.jax_step composes them into
        # one fused train-step graph under a single outer jax.jit.
        "raw_tape_nophase": _tape_nophase,
        "raw_tape_phase": _tape_phase,
        "raw_adjoint_real": _adjoint_real,
        "raw_adjoint_cplx": _adjoint_cplx,
        "raw_adjoint_cplx_alpha": _adjoint_cplx_alpha,
    }


def kernels():
    """The process-wide jitted kernel table (built on first call)."""
    table = _STATE.get("kernels")
    if table is None:
        table = _build()
        _STATE["kernels"] = table
    return table
