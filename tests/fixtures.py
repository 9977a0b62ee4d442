"""Curated test instances shared across the suite."""

from itertools import combinations

from fiberfull import GF, SubmodulePresentation, make_ring, parse_input

# Twenty square-free monomial ideals on four variables covering points,
# edges, paths, cycles, stars, complete graphs, simplex skeleta, cones and
# mixed-degree combinations.
SQUAREFREE_SUITE = [
    ("x",),
    ("x*y",),
    ("x*y*z",),
    ("x*y*z*w",),
    ("x", "y"),
    ("x", "y", "z"),
    ("x", "y", "z", "w"),
    ("x*y", "z*w"),
    ("x*y", "y*z"),
    ("x*y", "y*z", "z*x"),
    ("x*y", "y*z", "z*w"),
    ("x*y", "y*z", "z*w", "w*x"),
    ("x*y", "x*z", "x*w"),
    ("x*y", "x*z", "x*w", "y*z", "y*w", "z*w"),
    ("x*y*z", "x*y*w"),
    ("x*y*z", "x*y*w", "x*z*w"),
    ("x*y*z", "x*y*w", "x*z*w", "y*z*w"),
    ("x", "y*z"),
    ("x", "y*z*w"),
    ("x*y", "z"),
]

# the 6-vertex triangulation of the real projective plane
RP2_TRIANGLES = ((0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
                 (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5), (2, 4, 5))


def ring4(field=None):
    kwargs = {} if field is None else {"field": field}
    return make_ring([1, 1, 1, 1], names=["x", "y", "z", "w"], **kwargs)


def ring3(field=None):
    kwargs = {} if field is None else {"field": field}
    return make_ring([1, 1, 1], names=["x", "y", "z"], **kwargs)


def ring2(field=None):
    kwargs = {} if field is None else {"field": field}
    return make_ring([1, 1], names=["x", "y"], **kwargs)


def ideal_from_strings(ring, gens):
    return SubmodulePresentation.ideal(ring, [ring.parse(g) for g in gens])


def squarefree_presentations(field=None):
    R = ring4(field)
    return [(gens, ideal_from_strings(R, gens)) for gens in SQUAREFREE_SUITE]


def twisted_cubic(field=None):
    R = ring4(field)
    return ideal_from_strings(R, ("x*z - y^2", "x*w - y*z", "y*w - z^2"))


def hypersurface_conic(field=None):
    R = ring3(field)
    return ideal_from_strings(R, ("x*z - y^2",))


def generic_minors(field=None):
    """2x2 minors of a 2x3 matrix of distinct variables."""
    R = make_ring([1] * 6, names=["a", "b", "c", "d", "e", "f"],
                  **({} if field is None else {"field": field}))
    return ideal_from_strings(R, ("a*e - b*d", "a*f - c*d", "b*f - c*e"))


def minors_2x2(ring, *rows):
    """The 2x2 minors of the matrix with the given rows, each a sequence of
    variable names: row pairs in order, then column pairs in order."""
    n = len(rows[0])
    return ideal_from_strings(ring, ["%s*%s - %s*%s" % (top[a], bottom[b], top[b], bottom[a])
                                     for top, bottom in combinations(rows, 2)
                                     for a in range(n) for b in range(a + 1, n)])


# ideals exercised by the Macaulay-equality and semicontinuity checks
def macaulay_suite(field=None):
    out = [pres for _, pres in squarefree_presentations(field)]
    out.append(twisted_cubic(field))
    out.append(hypersurface_conic(field))
    out.append(generic_minors(field))
    R = ring3(field)
    out.append(ideal_from_strings(R, ("x^2 + y*z", "x*y")))
    out.append(ideal_from_strings(R, ("x^2 - y^2", "x*y*z")))
    return out


def parameter_families():
    """Name -> presentation over k[t][x]: the k[t][x] inputs pinned by the
    CLI golden test, the homogenized conic family and two fixed ideals with
    planted torsion at t = 0, 1, 2, 3."""
    from test_golden import LOCUS_INPUT, PARAM_FAMILY, TORSION_FP7

    out = {}
    for name, text in (("golden-resolve", PARAM_FAMILY), ("golden-fiberfull", TORSION_FP7),
                       ("golden-locus", LOCUS_INPUT)):
        spec = parse_input(text)
        out[name] = SubmodulePresentation.ideal(spec.ring, list(spec.generators))
    R3t = make_ring([1, 1, 1], True, names=["x", "y", "z"])
    out["conic-family"] = ideal_from_strings(R3t, ("x*z - t*y^2",))
    R3p = make_ring([1, 1, 1], True, field=GF(32003), names=["x", "y", "z"])
    out["ideal-A"] = ideal_from_strings(
        R3p, ("(t-1)*x*y", "(t-2)*y*z", "t*x*z", "x^2*y - t*z^3"))
    out["ideal-B"] = ideal_from_strings(
        R3p, ("(t-1)*x^2", "(t-3)*y^2", "x*z - t*y^2", "(t-2)*z^3"))
    return out


PARSER_CORPUS = [
    "ring S vars (x,y,z) weights (1,1,1) field QQ;\nideal I = (x*z - y^2);\n",
    "ring S vars (x,y,z) weights (1,1,1) field QQ;\n"
    "ideal I = (x*z - y^2, x^3 - 1/2*y*z^2);\norder lex;\nwindow -10:5;\n",
    "ring R vars (x1,x2) weights (2,1) field Fp 32003;\nideal J = (x1 - x2^2);\n",
    "ring R vars (x,y) weights (1,1) field QQ param t;\n"
    "ideal M = (t*x, x*y - t^2*y^2);\n",
    "ring A vars (u,v,w) weights (1,2,3) field QQ;\nideal H = (u^6 - v^3 + u*w - w^2);\n"
    "order weights:1,2,2;\n",
    "ring B vars (x,y,z,w) weights (1,1,1,1) field QQ;\n"
    "ideal TC = (x*z - y^2, x*w - y*z, y*w - z^2);\norder grevlex;\n"
    "window -8:4;\n",
]
