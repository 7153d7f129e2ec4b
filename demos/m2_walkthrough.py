"""The 2x2 matrix algebra, end to end.

Run with ``python3 demos/m2_walkthrough.py``.  Walks through the cohomology
of the full 2x2 matrix algebra with its commutator bracket, the equivariant
pairing family, the cocycle slice and its associativity curve, and the
one-parameter quadratic deformation family in both its verbatim and its
repaired form.
"""

from fractions import Fraction

from poiscoh import builtin, regular_module
from poiscoh.cochain import CochainSpace, decode
from poiscoh.cohomology import cohomology_dims
from poiscoh.complexes import delta_H, differential
from poiscoh.deformation import (
    is_poisson_2cocycle,
    m2_family_is_associative,
    m2_product_family,
    m2_table3_series,
    phi_family,
    verify_deformation,
)
from poiscoh.linalg import SparseMatrix, kernel_basis, rank


def banner(text):
    print(f"\n== {text}")


alg = builtin("m2")
mod = regular_module(alg)
zero = tuple(tuple((0,) * 4 for _ in range(4)) for _ in range(4))

banner("cohomology dimensions")
for theory, top in (("poisson", 3), ("ce", 2), ("hochschild", 3)):
    dims = cohomology_dims(alg, theory=theory, max_degree=top).dims
    print(f"  {theory:<10} degrees 0..{top}: {dims}")
print("  degree 2 is nonzero, so nontrivial first-order deformations exist;")
print("  degree 3 is nonzero too, so obstructions have room to live")

banner("equivariant pairings on the traceless part")
# the equivariant maps A (x) A -> A are the kernel of delta_H(2, 0); the
# words holding the unit span an invariant complement, since {1, a} = 0, so
# restricting to the traceless words gives the maps sl2 (x) sl2 -> A
space = CochainSpace.build("hochschild", 2, alg.dim, alg.dim)
restricted = [[v for a in (1, 2, 3) for b in (1, 2, 3) for v in decode(space, vec)[2, 0][a][b]]
              for vec in kernel_basis(delta_H(alg, mod, 2, 0))]
span = SparseMatrix(len(restricted), 36, {(r, c): v for r, row in enumerate(restricted)
                                          for c, v in enumerate(row) if v})
print(f"  dimension {rank(span)}: a trace direction and a bracket direction")

banner("which members of the product family are 2-cocycles")
print("  family(nu, lam, mu) = nu on unit rows, (mu/6) tr + (lam/4) bracket")
kernel = kernel_basis(differential(alg, mod, "omega", 0))
print(f"  equivariant Hochschild-cocycle kernel dimension: {len(kernel)}")
for nu, lam, mu in [(0, 2, 6), (1, 2, 3), (1, 0, -3), (1, 0, 0), (1, 2, 6)]:
    verdict = is_poisson_2cocycle(alg, m2_product_family(nu, lam, mu), zero)
    lock = "mu == 3*lam - 3*nu" if mu == 3 * lam - 3 * nu else "off the lock"
    print(f"  family({nu}, {lam}, {mu}): cocycle={verdict}   ({lock})")
print("  the cocycle condition enforces mu = 3*lam - 3*nu; the honest")
print("  product family(1, 2, 3) sits on it, as it must")

banner("associativity is a curve in the (lam, mu) plane at nu = 1")
for lam, mu in [(2, 3), (0, 0), (2, 6), (Fraction(1, 2), Fraction(3, 16))]:
    flag = m2_family_is_associative(1, lam, mu)
    print(f"  lam={lam}, mu={mu}: associative={flag}  "
          f"(4*mu == 3*lam**2 is {4 * mu == 3 * lam * lam})")

banner("the quadratic deformation family")
for repaired in (False, True):
    series = m2_table3_series(1, repaired=repaired)
    check = verify_deformation(series, max_order=6)
    label = "repaired" if repaired else "verbatim"
    print(f"  {label:<9} valid to order 6: {check.ok}")
    for rec in check.failures:
        print(f"            {rec.axiom} fails at order {rec.order} "
              f"on {rec.count} basis triples")
print("  the repaired family is the pullback of the product along the")
print("  basis flow e -> e, f -> (1+ts)^2 f, h -> (1+ts) h; its order-1")
print("  term is phi_family(m2, 0, 2s):",
      m2_table3_series(1, repaired=True).mult_term(1) == phi_family(alg, 0, 2))
