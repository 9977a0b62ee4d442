"""Minimal free resolutions, Betti tables, extremal positions, depth and
regularity.

Run:  python demos/02_resolutions_and_betti.py
"""

from fiberfull import (
    SubmodulePresentation,
    betti_table,
    depth_and_regularity,
    free_resolution,
    krull_dimension,
    make_ring,
)


def show(name, pres):
    r = pres.ring.num_positive
    res = free_resolution(pres)
    print("\n--", name, "--")
    print("ranks:", res.ranks())
    print("twists:", [list(m.twists) for m in res.modules])
    print("d o d = 0:", res.check_complex())
    bt = betti_table(res)
    print("betti (i, j) -> multiplicity:", dict(sorted(bt.entries.items())))
    print("extremal:", sorted(bt.extremal))
    depth, reg = depth_and_regularity(bt, r)
    print("depth %d, regularity %d, dimension %d" % (depth, reg, krull_dimension(pres)))


R2 = make_ring([1, 1], names=["x", "y"])
show("residue field of k[x,y] (Koszul complex)",
     SubmodulePresentation.ideal(R2, [R2.variable(0), R2.variable(1)]))

R4 = make_ring([1, 1, 1, 1], names=["x", "y", "z", "w"])
show("twisted cubic",
     SubmodulePresentation.ideal(R4, [R4.parse(s) for s in
                                      ("x*z - y^2", "x*w - y*z", "y*w - z^2")]))

show("4-cycle of square-free monomials",
     SubmodulePresentation.ideal(R4, [R4.parse(s) for s in
                                      ("x*y", "y*z", "z*w", "w*x")]))

# Over k[t][x] the unit entries are pruned the same way, but degree-0
# entries such as t - 1 need not be units there: the pruned resolution is
# not claimed minimal and has no Betti table.
Rt = make_ring([1, 1], True, names=["x", "y"])
pruned = free_resolution(SubmodulePresentation.ideal(Rt, [Rt.parse("t*x"), Rt.parse("x*y")]))
print("\nover k[t][x]: ranks", pruned.ranks(), "minimal:", pruned.minimal)
