"""Fiber-fullness over the parameter line and square-free degenerations.

A one-parameter family interpolates between an ideal (t = 1) and its initial
ideal (t = 0).  Freeness of the family and of its Ext modules over k[t],
certified degreewise by torsion annihilators, forces the local cohomology
tables of all fibers in the good locus to agree.

Run:  python demos/04_fiberfull_and_degeneration.py
"""

import json

from fiberfull import (
    SubmodulePresentation,
    TermOrder,
    buchberger,
    fiber_full_check,
    fiber_full_locus,
    fiber_hilbert_compare,
    homogenize_omega,
    make_ring,
    parameter_torsion,
    verify_degeneration,
    weight_vector_for,
)

# -- a module with planted torsion -----------------------------------------
Rt = make_ring([1], True, names=["x"])
x, t = Rt.variable(0), Rt.parameter()
M = SubmodulePresentation.ideal(Rt, [t * (t - 1) * x])
cert = parameter_torsion(M)
print("relations (t^2 - t)x: torsion generated by",
      [str(v) for v in cert.torsion_generators], "with annihilator", cert.annihilator)
print("locus polynomial:", fiber_full_locus(M))
for c in (0, 1, 2):
    print("fiber-full at (t - %d)?" % c, fiber_full_check(M, at=c).overall)

# -- the conic family -------------------------------------------------------
R = make_ring([1, 1, 1], names=["x", "y", "z"])
conic = SubmodulePresentation.ideal(R, [R.parse("x*z - y^2")])
G = buchberger(conic, TermOrder.lex())
omega = weight_vector_for(G)
family = homogenize_omega(G, omega)
print("\nweight vector:", omega)
print("family ideal:", [str(v.components[0]) for v in family.generators])
print("family fiber-full at t = 0?", fiber_full_check(family, at=0).overall)

print("H^2 of the fibers at t = 0, 1, 5 (all equal):")
for tabs in fiber_hilbert_compare(family, [0, 1, 5], (-4, 0)):
    print("  ", tabs[2].dims)

# -- the full verification pipeline -----------------------------------------
print("\n-- degeneration report for the conic under lex --")
report = verify_degeneration(conic, TermOrder.lex(), (-6, 2))
print(json.dumps({
    "squarefree": report.squarefree,
    "fiberfull": report.fiberfull.overall,
    "equal": report.equal,
    "depth": [report.depth_ideal, report.depth_initial],
    "reg": [report.reg_ideal, report.reg_initial],
    "extremal_equal": report.extremal_equal(),
}, indent=2))

# A non-square-free initial ideal is reported, not refused: the tables may
# or may not agree, and semicontinuity still bounds one side by the other.
R4 = make_ring([1, 1, 1, 1], names=["x", "y", "z", "w"])
cubic = SubmodulePresentation.ideal(R4, [R4.parse(s) for s in
                                         ("x*z - y^2", "x*w - y*z", "y*w - z^2")])
rep = verify_degeneration(cubic, TermOrder.grevlex(), (-6, 2))
print("\ntwisted cubic under grevlex: squarefree =", rep.squarefree,
      "| tables equal anyway =", rep.equal)
