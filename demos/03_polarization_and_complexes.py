"""
Polarization, the factor complex, and the polar complex
=======================================================

Polarization replaces each factor 1 - x_j by a fresh variable y_j, turning
pseudomonomials into squarefree monomials on a doubled vertex set
{1, .., n, 1-bar, .., n-bar}. Two complexes live there: the polar complex
(from the polarized canonical form) and the factor complex (from the
polarized primary decomposition). The factor complex is exactly the
effective part of the polar complex.
"""

from neurocode import (
    Code,
    PolarFace,
    canonical_form,
    face_to_interval,
    factor_complex,
    factor_ideal,
    is_effective,
    polar_complex,
    polar_ideal,
    polarize,
    prime_sets,
    sr_minimal_primes,
)
from neurocode.io import interval_text, monomial_prime_text

code = Code.from_neuron_sets(3, [(1,), (2, 3), (1, 2, 3)])  # {1, 23, 123}

###############################################################################
# Polarizing the canonical form
# -----------------------------

for pm in canonical_form(code):
    print(f"{pm}  ->  {polarize(pm)}")

for name, ideal in (("polar", polar_ideal(code)), ("factor", factor_ideal(code))):
    faces = sorted(PolarFace.from_mask(g, 3) for g in ideal.generators)
    print(f"{name} ideal generators:", " ".join(map(str, faces)))

###############################################################################
# The two complexes
# -----------------
# Facets are subsets of the doubled vertex set; ~j denotes j-bar. A face is
# defective when some index appears in neither plain nor barred form.

fc = factor_complex(code)
pc = polar_complex(code)
print("factor complex facets:", " ".join(str(f) for f in sorted(fc.polar_facets())))
print("polar complex facets: ", " ".join(str(f) for f in sorted(pc.polar_facets())))

for face in sorted(pc.polar_facets()):
    tag = "effective" if is_effective(face, 3) else "defective"
    print(f"  {face}: {tag}")

###############################################################################
# Reading intervals off effective faces
# -------------------------------------

for face in sorted(fc.polar_facets()):
    iv = face_to_interval(face, 3)
    print(f"facet {face}  <->  interval {interval_text(iv, 3)}")

###############################################################################
# Prime-sets and minimal primes
# -----------------------------
# A barred set is a prime-set when joining it to all of [n] leaves the
# complex. Minimal prime-sets of this complex correspond to the maximal
# codewords of the complement code and to the minimal primes of its
# complex's Stanley-Reisner ideal.

print("minimal prime-sets:", " ".join(str(f) for f in sorted(prime_sets(code))))
comp = code.complement
print("complement's maximal codewords complements:",
      " ".join(monomial_prime_text(b) for b in sorted(sr_minimal_primes(comp))))
