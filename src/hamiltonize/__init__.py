"""Hamiltonization of a class of nonholonomic mechanical systems.

Given a system on coordinates (r1, r2, s_1..s_k) with kinetic Lagrangian and
velocity constraints sdot_a = -A_a(r1) r2dot, this package

* evaluates the constrained dynamics and the invariant-measure density,
* builds the associated second-order systems in normal form,
* certifies or refutes the multiplier (Helmholtz) conditions numerically,
* constructs the closed-form Lagrangians and Hamiltonians together with
  their phase-space constraint sets, and
* verifies by integration that the restricted canonical flow reproduces the
  nonholonomic motion, with an optimal-control cross-check.

Each module's ``__all__`` is the one list of its public names; the package
re-exports them.
"""

from .errors import *
from .expr import *
from .systems import *
from .sode import *
from .integrate import *
from .helmholtz import *
from .variational import *
from .pontryagin import *

__version__ = "0.1.0"
