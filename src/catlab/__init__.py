"""catlab: numerical laboratory for quantized hyperbolic torus automorphisms.

Builds propagator matrices of hyperbolic torus maps at inverse Planck
constant 2*pi*N, computes quantum periods and the short-period modulus
sequence with exact integer arithmetic, and verifies sup-norm and
dispersive bounds on their eigenfunctions by dense spectral analysis.
The package re-exports nothing: import its modules (arith, quantize,
spectral, experiments, svg, cli).
"""

__version__ = "0.1.0"
