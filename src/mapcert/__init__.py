"""Numerical certificates of optimality and exposedness for positive maps.

The package measures the product-vector zero structure of a linear positive
map between matrix algebras and turns span dimensions of that structure into
one-sided certificates.  See README.md for the command-line surface.

The public API lives in the layer modules (``mapcert.linalg``,
``mapcert.maps``, ``mapcert.zeros``, ``mapcert.certify``,
``mapcert.experiments``, ``mapcert.documents``, ``mapcert.cli``), each of
which lists its public names in ``__all__``; import from them.
"""

__version__ = "0.1.0"
