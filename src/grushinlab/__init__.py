"""Numerical laboratory for a Baouendi-Grushin type degenerate operator.

Subpackages by theme:

* ``geometry`` -- gauge, quasi-distance, dilation factors and ellipsoid
  levels over coordinate arrays.
* ``closedforms`` -- exact 2-jets over batches of points: harmonic kernel,
  gauge powers, supersolution, flat-boundary barrier; the operators applied
  to jets.
* ``coefficients`` -- coefficient-field families and the ellipticity audit.
* ``fdsolver`` -- monotone finite differences on half-space boxes.
* ``experiments`` -- scripted measurements: boundary growth, Hoelder
  modulus, oscillation decay, supersolution scan, far-field decay fit,
  global comparison bound.
* ``cli`` -- JSON-configured command line front end.
"""

from .geometry import GrushinParams

__all__ = ["GrushinParams"]
__version__ = "0.1.0"
