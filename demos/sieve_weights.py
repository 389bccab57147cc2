"""
Divisor-sum sieve weights and window statistics
===============================================

Weights w(n) = (sum over divisor tuples of lambda)^2 concentrate mass on
integers n for which every n + h_i avoids small prime factors.  Each
divisor tuple holds on one residue class of n; a per-n lookup in that class
table and the whole-window array that reads it agree with the definitional
enumeration, the independent oracle, to machine precision; windowed moment
sums then compare weighted prime hits against plain weight mass.
"""

from sievelab import primes, sieve
from sievelab.variational import KernelParams

cfg = sieve.make_config(
    50000,
    delta=0.45,
    offsets=(0, 2, 6),
    params=KernelParams(k=3, base=1.1, slope=3.0, cutoff=2.9),
)
print("config: R =", cfg.R, " W =", cfg.W, " b0 =", cfg.b0,
      " support tuples =", len(sieve.lambda_tuples(cfg)))

# The three evaluation paths on a few residues of the restricted grid.
start, step, values = sieve.weight_array(cfg, cfg.b0, cfg.b0 + 6 * cfg.W)
for i, n in enumerate(range(start, cfg.b0 + 6 * cfg.W, step)):
    fast = sieve.weight(cfg, n)
    slow = sieve.naive_weight(cfg, n)
    print(f"n={n:5d}  weight {fast:.6f}  naive {slow:.6f}  "
          f"array {values[i]:.6f}")

# Moment sums over the whole window: per-offset prime mass against total
# weight mass.  ratios[i] approximates the chance that n + h_i is prime
# under the weight measure.
rep = sieve.moment_sums(cfg, 1, cfg.N)
print("\nwindow [1, %d]: %d grid points, sum w^2 = %.4f"
      % (cfg.N, rep.n_count, rep.sum_w2))
for h, r in zip(cfg.offsets, rep.ratios):
    print(f"  offset {h}: weighted prime ratio {r:.4f}")
print("inclusion-exclusion lower bound (m=2 targets): %.4f" % rep.satz(2))

# Swapping the profile on two coordinates cannot change the weight when
# both designated entries are prime and above R: the d-support collapses.
alt = KernelParams(k=3, base=1.4, slope=5.0, cutoff=1.8)
check = sieve.tao_domination_check(cfg, alt, 0, 2, 1, 10**5)
print("\nprofile swap check: %d pairs inspected, %d violations, max diff %g"
      % (check.n_checked, check.violations, check.max_abs_diff))

# Mirrored-window scan: for an even target, offsets and their reflections
# form a 2k-tuple, and a witness means target = p + q with prime shifts.
scan_cfg = sieve.make_config(
    10**4, delta=0.25, offsets=(0, 2), strict=False,
    params=KernelParams(k=2, base=1.01, slope=1.0, cutoff=2.0),
)
scan = sieve.goldbach_window_scan(scan_cfg, N=5000)
n, hi, hj = scan.witness
print("\ntarget 5000: witness n=%d (h_i=%d, h_j=%d), i.e. %d + %d"
      % (n, hi, hj, n + hi, 5000 - n - hj))
print("witness count %d, Cauchy-Schwarz consistent: %s"
      % (scan.witness_count, scan.cs_holds))
table = primes.sieve_range(0, 5100)
print("both prime?", (n + hi) in table and (5000 - n - hj) in table)
