"""
Rediscovering the amplifier
===========================

The core of every machine here is a two-mode amplifier whose gain has a
closed form in the input amplitudes (alpha, beta, gamma).  This demo
does not assume that form: it minimizes the output noise over a general
row of couplings under the commutation constraint, by solving for the
constraint's multiplier lambda in closed form, and shows that the
minimum lands on the formula every time, with all the couplings a
two-mode amplifier would not have collapsing to zero.  Each solution
comes with its certificate: lambda, and the smallest curvature of the
Lagrangian, which is never negative, so the point is the global minimum.
"""

import numpy as np

from pciclone import gain_from_amplitudes, solve_amplifier

triples = [
    (0.0, 1.0, 1.0),
    (1.0, 1.0, 2.0),
    (1.0, np.sqrt(2.0), np.sqrt(3.0)),
    (0.3, 0.9, 1.7),
]

print(f"{'alpha':>6} {'beta':>6} {'gamma':>6} {'searched G':>12} "
      f"{'closed form':>12} {'aux norm':>10} {'lambda':>8} {'min curv':>9}")
for alpha, beta, gamma in triples:
    res = solve_amplifier(alpha, beta, gamma)
    exact = gain_from_amplitudes(alpha, beta, gamma)
    print(f"{alpha:>6.3f} {beta:>6.3f} {gamma:>6.3f} {res.gain:>12.8f} "
          f"{exact:>12.8f} {res.aux_norm:>10.2e} {res.multiplier:>8.4f} "
          f"{res.min_curvature:>9.4f}")

# A random batch, same comparison in bulk.
rng = np.random.default_rng(7)
worst = 0.0
for _ in range(20):
    alpha = rng.uniform(0.0, 2.0)
    beta = rng.uniform(0.1, 2.0)
    gamma = alpha + rng.uniform(0.0, 2.0)
    res = solve_amplifier(alpha, beta, gamma)
    exact = gain_from_amplitudes(alpha, beta, gamma)
    worst = max(worst, abs(res.gain - exact) / exact)
print(f"\n20 random triples: worst relative gain error {worst:.2e}")
