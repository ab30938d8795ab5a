"""Exact computer algebra for vector-field Lie algebras on a Laurent torus.

Sparse exact-rational linear algebra, a normal-ordered differential
operator algebra, finite matrix-algebra modules, twisted tensor modules
over divergence-zero vector fields, chain maps between them, and a
window-truncated probe engine that turns module-theoretic claims into
finite, replayable certificates. The API lives in the submodules
(toruslie.tensor, toruslie.probe, ...); the package binds only rat.
"""

from .rational import rat

__version__ = "0.1.0"
