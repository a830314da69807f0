#!/usr/bin/env python3
"""The combinatorics behind the analysis.

Two questions drive the asymptotic analysis of the set decoder:

* intersection: if you intersect random subsets of known sizes, how big
  is the result?  (what variable nodes do)  This has an exact answer,
  counted by meeting one set at a time.
* sumset: if you add random subsets elementwise over GF(q), how big is
  the result?  (what check nodes do)  No closed form is known, so we
  bound it and approximate it.
"""

from pecldpc import (
    GF,
    SumsetSizeModel,
    balls_dist,
    bound_dist,
    common_member_intersection_dist,
    coverage_transition_matrix,
    exact_dist,
    intersection_dist,
    sumset_bounds,
    union_model_dist,
)

# --- intersections ----------------------------------------------------------
q = 5
print(f"two random subsets of sizes 2 and 3 in a {q}-element universe:")
print("  P(|intersection| = m):", intersection_dist([2, 3], q).round(4))

print("\nsame, when both sets are known to share one symbol")
print("(this is the variable-node law; m=0 is impossible):")
print("  ", common_member_intersection_dist([2, 3], q).round(4))

# --- sumset bounds ----------------------------------------------------------
f5, f4 = GF(5), GF(4)
print("\nsumset size bounds:")
for field, sizes in [(f5, (2, 2)), (f4, (2, 2)), (f4, (3, 2))]:
    b = sumset_bounds(sizes, field)
    tag = "  [forced to cover the whole field]" if b.lower == field.q else ""
    print(f"  GF({field.q}), sizes {sizes}: [{b.lower}, {b.upper}]{tag}")

# The characteristic matters: over GF(4) (characteristic 2) a pair of
# 2-sets can collapse to size 2, which GF(5) forbids.
print("\nexact sumset-size law for sizes (2,2):")
print("  GF(5):", exact_dist([2, 2], f5).round(4), " (support {3,4})")
print("  GF(4):", exact_dist([2, 2], f4).round(4), " (support {2,4})")

# --- approximation models ---------------------------------------------------
# The exact law needs enumeration.  Cheap alternatives: point masses at
# either bound, and two absorbing-Markov-chain occupancy models built
# from the coverage transition matrix.
print("\ncoverage transition matrix, step size 2, q=5:")
print(coverage_transition_matrix(2, 5).round(4))

# Over GF(8) the characteristic-2 lower bound stays at 2, so the models
# genuinely disagree:
f8 = GF(8)
sizes = (2, 2, 2)
print(f"\nall five models for sizes {sizes} over GF(8):")
rows = {
    "bound-lower": bound_dist(sizes, f8, "lower"),
    "bound-upper": bound_dist(sizes, f8, "upper"),
    "balls": balls_dist(sizes, f8),
    "union": union_model_dist(sizes, f8),
    "exact": exact_dist(sizes, f8),
}
for name, dist in rows.items():
    print(f"  {name:12s}", dist.round(4))

print("\nnote the exact law: in characteristic 2 a sumset of 2-sets is a")
print("coset of a subgroup, so only power-of-two sizes ever occur; the")
print("occupancy models smooth right over that structure.")

# The selector object caches one table per size tuple, which is how the
# density evolution consumes these:
model = SumsetSizeModel("union")
print("\ncached union-model lookup:", model.distribution(sizes, f8).round(4))
