"""
Deciding intersection-completeness three ways
=============================================

A code is intersection-complete (IC) when it is closed under intersections
of codewords, and max-intersection-complete (MIC) when it is closed under
intersections of maximal codewords. Each property has three deciders:
brute-force closure, a canonical-form criterion, and a criterion on the
factor complex of the complement code. The last two read the same maximal
intervals, so only the brute-force one is an independent route. They
always agree; false verdicts come with replayable witnesses.
"""

from neurocode import (
    Code,
    is_intersection_complete_bruteforce,
    is_intersection_complete_cf,
    is_intersection_complete_facets,
    is_mic_algebraic,
    is_mic_bruteforce,
    is_mic_facets,
    verify_dictionary,
)

code = Code.from_neuron_sets(3, [(), (2,), (3,), (1, 2), (1, 3)])

###############################################################################
# All six deciders on one code
# ----------------------------
# This code misses 1 = 12 & 13, so both properties fail; each method points
# at the failure in its own language.

for decide in (is_intersection_complete_bruteforce,
               is_intersection_complete_cf,
               is_intersection_complete_facets,
               is_mic_bruteforce,
               is_mic_algebraic,
               is_mic_facets):
    report = decide(code)
    print(f"{report.property:3} {report.method:15} verdict={report.verdict}"
          f"  witness={report.witness}")

###############################################################################
# A certificate for a positive verdict
# ------------------------------------
# Adding the missing intersection makes the code intersection-complete; the
# algebraic decider then returns a certificate naming, for each nonmonomial
# canonical-form element, an index that passes both clauses.

closed = Code.from_neuron_sets(3, [(), (1,), (2,), (3,), (1, 2), (1, 3)])
report = is_mic_algebraic(closed)
print("closed code verdict:", report.verdict)
for entry in report.certificate.entries:
    print(f"  {entry.pm}: index {entry.index}")

###############################################################################
# The dictionary behind the criteria
# ----------------------------------
# The three methods agree because maximal intervals, canonical forms, and
# factor-complex facets are three views of the same data; verify_dictionary
# re-derives every correspondence on a given code.

report = verify_dictionary(code)
for check in report.checks:
    print(f"{check.name}: {'pass' if check.passed else check.detail}")
print("dictionary holds:", report.passed)
