"""
Bulk arithmetic tables from a segmented factor sieve
====================================================

Build a factor sieve over a window, then compute the distinct-prime-factor
count, the divisor count, and the totient for every integer in the window
at once.
"""

import numpy as np

from omegalab import (
    build_factor_sieve,
    factorize,
    omega_range,
    phi_range,
    tau_range,
)

###############################################################################
# A sieve over [1, 10^6].  Endpoints are inclusive; the table is segmented
# internally, so shifted windows like [10^12, 10^12 + 10^5] cost the same.

sieve = build_factor_sieve(1, 10**6)
omega = omega_range(sieve)
tau = tau_range(sieve)
phi = phi_range(sieve)

print("n with most distinct prime factors below 1e6:",
      int(np.argmax(omega)) + 1, "with", int(omega.max()), "factors")
print("mean omega over [1, 1e6]:", float(omega.mean()))
print("mean tau  over [1, 1e6]:", float(tau.mean()))

###############################################################################
# tau(n) >= 2^omega(n) holds pointwise: every subset of the distinct prime
# factors gives a divisor.  Equality happens exactly at squarefree n.

gap = tau - 2 ** omega.astype(np.int64)
print("tau == 2^omega at", int(np.count_nonzero(gap == 0)), "squarefree n")

###############################################################################
# Scalar route: certified factorizations for numbers far beyond the sieve.

f = factorize(2**40 + 1)
print("2^40 + 1 =", f)
print("omega:", f.omega, " tau:", f.tau, " phi:", f.phi)

###############################################################################
# A shifted window near 10^12: same API, same costs.

far = build_factor_sieve(10**12, 10**12 + 10**4)
print("omega stats near 1e12: mean",
      float(omega_range(far).mean()), "max", int(omega_range(far).max()))
