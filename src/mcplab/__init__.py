"""Numerical verification toolkit for measure-contraction machinery on
scaled Heisenberg groups and left-invariant weakly Sasakian structures.

Modules:

- frame_algebra: frames, brackets, connections, curvature, identity checks
- heisenberg:    the model group, geodesics, adapted frames, distortion
- riccati:       block matrices, Jacobi and Riccati flow, closed forms
- mcp:           densities, contraction scans, Monte Carlo cross-checks
- cli:           command-line front end
"""

__version__ = "0.1.0"
