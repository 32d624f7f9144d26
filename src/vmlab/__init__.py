"""Kinetic laboratory for the planar relativistic Vlasov-Maxwell system.

Particle ensembles, a spectral Maxwell solver with Boris characteristics,
retarded-integral field reconstruction, and a suite of quantitative
inequality checks, in the planar (2D) and translation-invariant (2.5D)
geometries.  Units have c = 1.

Import the submodules (``from vmlab import pic, retarded``); the package
root holds only ``__version__``.
"""

__version__ = "0.1.0"
