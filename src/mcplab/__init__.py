"""Numerical verification toolkit for measure-contraction machinery on
scaled Heisenberg groups and left-invariant weakly Sasakian structures.

Modules:

- frame_algebra: frames, brackets, connections, curvature, identity checks
- heisenberg:    the model group, geodesics, adapted frames, distortion
- scalars:       geodesic parameters, conjugate time, sharpness infimum,
                 density profile, grid scan, their kernels (floats; loads
                 no numpy)
- riccati:       block matrices, Jacobi and Riccati flow, closed forms
- mcp:           densities on arrays, Monte Carlo and quadrature cross-checks
- cli:           command-line front end
"""

__version__ = "0.1.0"

# The largest n, for the model group and for a model file (frame dimension
# 2n + 1 = 41).  The curvature suite holds one (2n+1)^4-entry tensor per
# curvature, two of 2.8 million entries (23 MB) each at n = 20, and the
# identity catalog traces at most 61 MB more while it contracts them with
# its stacks of vectors: a traced peak of 107 MB (numpy 2.4).  It lives
# here, free of numpy, so that the command line can check --n before it
# loads any numerical module.
_MAX_N = 20
