"""
The neural ideal and its canonical form
=======================================

The neural ideal of a code is generated by the indicator polynomials of
the non-codewords; its zero set is the code itself. The canonical form is
the set of divisibility-minimal pseudomonomials in the ideal, a compact
generating set that encodes the code's receptive-field relationships.
"""

from neurocode import (
    Code,
    canonical_form,
    evaluate,
    in_neural_ideal,
    indicator,
    interval_to_pm,
    primary_decomposition,
)

code = Code.from_neuron_sets(3, [(), (2,), (3,), (1, 2), (1, 3)])

###############################################################################
# Indicators and evaluation
# -------------------------
# The indicator of a word is 1 exactly at that word. A pseudomonomial is in
# the neural ideal iff it evaluates to 0 on every codeword.

phi = indicator(0b001, 3)  # indicator of the non-codeword {1}
print("indicator of 1:", phi)
print("value at its own word:", evaluate(phi, 0b001))
print("in the neural ideal:", in_neural_ideal(phi, code))

###############################################################################
# Canonical form
# --------------
# The image of the complement's maximal intervals under the paper's alpha
# map: [c, d] goes to the product of x_i (i in c) and 1 - x_j (j not in d).

cf = canonical_form(code)
print("canonical form:", ", ".join(str(p) for p in cf))
print("monomials only:", ", ".join(str(p) for p in sorted(cf.monomials())))

###############################################################################
# Primary decomposition
# ---------------------
# One prime per maximal interval; the prime's zero set is the interval.

from neurocode.io import word_text

for prime in sorted(primary_decomposition(code)):
    members = " ".join(word_text(w, 3)
                       for w in sorted(prime.zero_interval(3).members(3)))
    print(f"prime {prime}  zero set {{{members}}}")

###############################################################################
# The interval / pseudomonomial dictionary
# ----------------------------------------
# Maximal intervals of the code map onto the canonical form of the
# complement's neural ideal, and vice versa.

comp = code.complement
image = {interval_to_pm(iv, 3) for iv in comp.maximal_intervals}
print("intervals of the complement, as pseudomonomials:",
      ", ".join(str(p) for p in sorted(image)))
assert image == canonical_form(code).elements
