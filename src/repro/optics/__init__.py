"""Optical-interferometer realisation of the quantum network.

The paper's network "is more suitable for optical quantum circuits" and is
"commonly implemented by optical quantum circuits" (Section III, citing
Clements et al., its ref. [19]).  This subpackage closes the loop between
the trained parameters and a physical multiport interferometer:

- :mod:`~repro.optics.mesh` — mesh layouts (the paper's rectangular layer
  arrangement) and Givens-chain synthesis of arbitrary real orthogonal
  matrices (triangular, Reck-style);
- :mod:`~repro.optics.interferometer` — a programmable interferometer whose
  imperfections (angle miscalibration, per-splitter loss) are the mesh
  fields of :class:`repro.noise.NoiseModel`, folded once by the noise
  stack's :func:`~repro.noise.trajectory.sample_mesh_matrix`.

The 2x2 beamsplitter block itself is
:meth:`repro.simulator.gates.BeamsplitterGate.matrix2`.
"""

from repro.optics.mesh import (
    rectangular_mesh_layout,
    reck_decompose,
    circuit_from_orthogonal,
    circuit_from_unitary,
    mesh_depth,
)
from repro.optics.interferometer import Interferometer

__all__ = [
    "rectangular_mesh_layout",
    "reck_decompose",
    "circuit_from_orthogonal",
    "circuit_from_unitary",
    "mesh_depth",
    "Interferometer",
]
