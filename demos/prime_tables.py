"""
Prime tables, windowed sieving, and gap statistics
==================================================

Build prime tables over arbitrary windows and read off gap statistics.
"""

import numpy as np

from sievelab import primes

# A table over [0, 100) knows its primes and answers membership queries.
table = primes.sieve_range(0, 100)
print("primes below 100:", table.primes.tolist())
print("97 prime?", 97 in table, "| 91 prime?", 91 in table)

# Windows far from the origin cost only the window, not the full range.
window = primes.sieve_range(10**12, 10**12 + 200)
print("\nfirst primes past 10^12:", window.primes[:4].tolist())

# Sums of two primes: every even number >= 4 in range appears, and the
# consecutive-value gaps never exceed 2 at this scale.
rep = primes.goldbach_gaps(10**4)
print("\nsums-of-two-primes count below 10^4:", len(rep.values))
print("max gap", rep.max_gap, "first attained between", rep.max_at)

# Prime pair differences: 6 beats 2 and 4 once all pairs are counted.
counts = primes.gap_counts(10**5, 8)  # counts[m], m = 0..8
print("\npair counts below 10^5 at differences 1..8:", counts[1:].tolist())

# Normalized gaps (gap / log p) hover around 1 on average.
seq = primes.normalized_gaps(10**6)
print("\nnormalized gap mean below 10^6: %.4f" % np.mean(seq.normalized))
print("largest normalized gap: %.3f at p = %d"
      % (seq.normalized.max(), seq.p[np.argmax(seq.normalized)]))
