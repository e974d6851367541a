# A tour of the four enumerators on the [8,4,4] Reed-Muller code.
#
# The weight enumerator A(x) and incorrigible set enumerator I(x) belong
# to the code itself; the stopping set enumerator S(x) and dead-end set
# enumerator D(x) belong to a particular parity-check matrix.  Dropping
# or adding rows changes S and D but never A or I.

from stopset import (
    catalog,
    dead_end_enumerator,
    incorrigible_enumerator,
    optimal_enumerators,
    rm_8_4_4,
    stopping_distance,
    stopping_set_enumerator,
    table1_report,
)

rm = rm_8_4_4()
print(f"code: [{rm.n},{rm.k},{rm.minimum_distance}], self-dual: {rm.dual() == rm}")
print("A(x) =", rm.weight_enumerator.poly_str())
print("I(x) =", incorrigible_enumerator(rm).poly_str())
print()

# %% Four parity-check matrices for the same code, from 4 to 14 rows.
# H_4 is the common full-rank choice; H_5 fixes the stopping distance;
# H_8 fixes the count of smallest stopping sets; H_14 uses every
# minimum-weight dual codeword.
for name in ("H_4", "H_5", "H_8", "H_14"):
    h = catalog(name)
    s = stopping_set_enumerator(h)
    d = dead_end_enumerator(h)
    print(f"{name}: {h.r} rows, stopping distance {stopping_distance(h)}")
    print("   S(x) =", s.poly_str())
    print("   D(x) =", d.poly_str())
print()

# %% The complete matrix (all 16 dual codewords) is the best any
# iterative decoder can do.  Its enumerators come out of
# optimal_enumerators without materializing the matrix.
star = optimal_enumerators(rm)
print("S*(x) =", star.stopping.poly_str())
print("D*(x) =", star.dead_end.poly_str())
print("note: D(x) already equals D*(x) = I(x) for H_8 and H_14,")
print("so those small matrices give optimal erasure performance.")
print()

# %% The whole table above is pinned against its published values:
report = table1_report()
print(report.render_pretty())
assert report.ok
