# Building parity-check matrices with chosen stopping behavior, plus
# the closed-form row-count bounds.

from stopset import (
    bad_matrix,
    complete_matrix,
    dead_end_enumerator,
    incorrigible_enumerator,
    minimal_matrix_search,
    redundancy_bounds,
    rm_8_4_4,
    stopping_distance,
    weight_bounded_dual_matrix,
)

rm = rm_8_4_4()

# %% Worst case: for any code with d >= 4 there is a parity-check matrix
# with stopping distance 3, no matter how strong the code is.  The
# construction permutes a minimum-weight codeword support to the front
# and row-reduces into a block form whose top-left rows never check
# {1,2,3} exactly once.
h_bad, perm = bad_matrix(rm)
print("adversarial matrix (permutation", perm, "):")
print(h_bad)
print("stopping distance:", stopping_distance(h_bad), "despite d = 4")
print()

# %% Best case: every dual codeword as a row.
h_star = complete_matrix(rm)
print(f"complete matrix: {h_star.r} rows (2^(n-k) including the zero row)")

# %% Cheaper optimal matrices: all nonzero dual words of weight <= k+1
# are guaranteed to form a parity-check matrix with D(x) = I(x).
h_low = weight_bounded_dual_matrix(rm, rm.k + 1)
print(f"weight-<= {rm.k + 1} dual rows: {h_low.r} rows;",
      "D = I:", dead_end_enumerator(h_low) == incorrigible_enumerator(rm))

# %% Exhaustive search over dual-row subsets for the true minima.
smallest_di = minimal_matrix_search(rm, "D=I")
print(f"smallest D(x)=I(x) matrix found: {smallest_di.r} rows")
smallest_sstar = minimal_matrix_search(rm, "S=S*")
print(f"smallest S(x)=S*(x) matrix found: {smallest_sstar.r} rows (the weight-4 rows)")
smallest_sd = minimal_matrix_search(rm, "s=d")
print(f"smallest s=d matrix found: {smallest_sd.r} rows")
print()

# %% Closed-form bounds on the rows needed for optimal iterative
# decoding, evaluated for [8,4,4] and a low-rate example.
for n, k, d in [(8, 4, 4), (12, 3, 6)]:
    rep = redundancy_bounds(n, k, d, m=n - k)
    print(f"[{n},{k},{d}]: sv={rep.sv_bound} hs={rep.hs_bound} "
          f"ht(m=n-k)={rep.ht_bound} holtol={rep.holtol_bound} "
          f"entropy={rep.entropy_bound and round(rep.entropy_bound, 1)}")
