"""The benchmark's workloads: seeded instance generators, the calls that solve
each instance, and the oracle that checks each answer.

An instance's ``run`` returns its output as text (CLI stdout, or JSON built
from library results), so that repeated and traced runs can be compared byte
for byte.  ``check`` takes that text and returns None when the answer is
right, else the reason it is wrong.  Oracles run outside the timed region.

Library calls go through module attributes at call time (``ff.fiber_full_locus``)
so that the tracer's rebinding sees them.
"""

import contextlib
import hashlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from math import comb

import fiberfull as ff
import fiberfull.cli
import fiberfull.hilbert

P = 32003
DEGENERATION_WINDOW = "-14:5"
MONOMIAL_WINDOW = (-8, 2)
LOCUS_POINTS = range(8)

# sha256 of CLI stdout for the fixed CLI instances, taken at the commit that
# introduced the benchmark: the CLI's JSON must stay byte-identical
PINNED_SHA256 = {
    ("cv-verify", "twisted-cubic-lex"):
        "114e33c085879cded513977d75ee98e4501b21621107c5c560c9a8944729ecaf",
    ("cv-verify", "rnc4-grevlex"):
        "06816665460f54c90196b2d195a6668c355dcbf628cf8b1ba6f001cb44532f7d",
    ("cv-verify", "rnc4-lex"):
        "0e6ea75ea7d53f1764d00c9795ffd6bed0b7d92015c33c1b483c12d1b9ee24e6",
}


@dataclass
class Instance:
    name: str
    text: str  # the generated input, for comparing seeds
    run: object  # () -> output text
    check: object  # output text -> None, or the reason it is wrong
    cliff: bool = False


# ---------------------------------------------------------------------------
# ideals as text


def _minors(rows):
    """2x2 minors of a matrix given by rows of variable names."""
    out = []
    for r1, r2 in itertools.combinations(range(len(rows)), 2):
        for c1, c2 in itertools.combinations(range(len(rows[0])), 2):
            out.append("%s*%s - %s*%s" % (rows[r1][c1], rows[r2][c2], rows[r1][c2], rows[r2][c1]))
    return out


def generic_2xn(n):
    """Variables and 2x2 minors of a generic 2 x n matrix."""
    variables = ["a%d" % i for i in range(n)] + ["b%d" % i for i in range(n)]
    return variables, _minors([variables[:n], variables[n:]])


def rational_normal_curve(d):
    """Variables and 2x2 minors of the Hankel matrix [[x0..x_{d-1}], [x1..x_d]]."""
    variables = ["x%d" % i for i in range(d + 1)]
    return variables, _minors([variables[:d], variables[1:]])


def generic_3x3():
    variables = ["x%d%d" % (i, j) for i in range(3) for j in range(3)]
    return variables, _minors([variables[0:3], variables[3:6], variables[6:9]])


def problem_text(variables, generators, order=None, window=None):
    lines = ["ring S vars (%s) weights (%s) field QQ;" % (
        ",".join(variables), ",".join("1" for _ in variables))]
    lines.append("ideal I = (%s);" % ", ".join(generators))
    if order:
        lines.append("order %s;" % order)
    if window:
        lines.append("window %s;" % window)
    return "\n".join(lines) + "\n"


def _cli(args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = ff.cli.main(list(args))
    if code != 0:
        raise RuntimeError("fiberfull %s exited with %d: %s" % (args[0], code, out.getvalue()[:300]))
    return out.getvalue()


def _cli_instance(workdir, name, command, text, check, cliff=False):
    path = workdir / ("%s.txt" % name)
    path.write_text(text, encoding="utf-8")
    ff.parse_input(path.read_text(encoding="utf-8"))
    pinned = PINNED_SHA256.get((command, name))

    def checked(out):
        if pinned is not None and hashlib.sha256(out.encode()).hexdigest() != pinned:
            return "stdout sha256 differs from the pinned value"
        return check(out)

    return Instance(name, text, lambda: _cli([command, str(path)]), checked, cliff)


# ---------------------------------------------------------------------------
# known Betti tables


def eagon_northcott(n):
    """Betti table of the 2x2 minors of a 2 x n matrix of linear forms whose
    minors have the expected codimension n - 1: beta_{i,i+1} = i*C(n, i+1)."""
    table = {"0": {"0": 1}}
    for i in range(1, n):
        table[str(i)] = {"1": i * comb(n, i + 1)}
    return table


# Gulliksen-Negard: 2x2 minors of a generic 3x3 matrix
GULLIKSEN_NEGARD = {"0": {"0": 1}, "1": {"1": 9}, "2": {"1": 16}, "3": {"1": 9}, "4": {"2": 1}}


# ---------------------------------------------------------------------------
# degeneration: cv-verify end to end


def check_degeneration(betti, squarefree=True):
    """cv-verify must find the family fiber-full at t = 0 with equal tables
    at both ends, and the ideal's Betti table must be ``betti``.  When the
    initial ideal is square-free its tables must also match Hochster's
    formula; the rational normal quartic under grevlex has initial ideal
    (x1,x2,x3)^2, which is not, and its tables are still equal."""
    def check(out):
        doc = json.loads(out)
        rep = doc["report"]
        if rep["squarefree"] is not squarefree:
            return "squarefree is %s" % rep["squarefree"]
        if rep["fiberfull"]["overall"] is not True:
            return "family not fiber-full at t = 0"
        if rep["equal"] is not True:
            return "local cohomology tables differ"
        if rep["betti_ideal"]["table"] != betti:
            return "Betti table %s, expected %s" % (rep["betti_ideal"]["table"], betti)
        if not squarefree:
            return None
        ring = doc["ring"]  # cv-verify runs over Fp(32003)
        R = ff.make_ring(ring["weights"], field=ff.GF(int(ring["field"][3:-1])),
                         names=ring["vars"])
        init = ff.SubmodulePresentation.ideal(R, [R.parse(g) for g in rep["initial_ideal"]])
        window = tuple(rep["window"])
        if len(rep["hilbert_initial"]) != len(ring["vars"]) + 1:
            return "expected one table per cohomological index"
        for i, table in enumerate(rep["hilbert_initial"]):
            if ff.hochster_hilbert(init, i, window).to_json_dict() != table:
                return "H^%d of the initial ideal differs from Hochster's formula" % i
        return None
    return check


def degeneration(seed, workdir):
    rng = random.Random(seed)
    specs = [
        ("twisted-cubic-lex", rational_normal_curve(3), "lex", eagon_northcott(3), True),
        ("rnc4-grevlex", rational_normal_curve(4), "grevlex", eagon_northcott(4), False),
        ("rnc4-lex", rational_normal_curve(4), "lex", eagon_northcott(4), True),
    ]
    # every initial ideal of maximal minors is square-free, so the verdict
    # holds for any variable order.  The seeded order permutes whole columns
    # and rows, which leave the ideal unchanged: a free shuffle of the
    # variables makes the cost of either instance swing threefold with the seed
    for label, n, order in (("minors2x3-lex", 3, "lex"), ("minors2x4-grevlex", 4, "grevlex")):
        variables, gens = generic_2xn(n)
        columns = rng.sample(range(n), n)
        ordered = [variables[r * n + c] for r in rng.sample(range(2), 2) for c in columns]
        specs.append((label, (ordered, gens), order, eagon_northcott(n), True))
    out = []
    for name, (variables, gens), order, betti, squarefree in specs:
        text = problem_text(variables, gens, order, DEGENERATION_WINDOW)
        out.append(_cli_instance(workdir, name, "cv-verify", text,
                                 check_degeneration(betti, squarefree)))
    text = problem_text(*generic_3x3(), "grevlex", DEGENERATION_WINDOW)
    out.append(_cli_instance(workdir, "generic3x3-grevlex", "cv-verify", text,
                             check_degeneration(GULLIKSEN_NEGARD), cliff=True))
    return out


# ---------------------------------------------------------------------------
# locus: fiber-full loci and pointwise checks over F_p[t][x]


def _poly_from_roots(roots):
    """Coefficients over F_p, constant first, of the product of t - c over
    the given roots, repeated roots included."""
    poly = [1]
    for c in roots:
        nxt = [0] * (len(poly) + 1)
        for k, a in enumerate(poly):
            nxt[k + 1] = (nxt[k + 1] + a) % P
            nxt[k] = (nxt[k] - c * a) % P
        poly = nxt
    return poly


def _check_locus(ring, root_multiplicity):
    """The locus is prod (t - c)^m over the planted roots, and the check at
    (t - c) fails exactly at those roots."""
    roots = [c for c, m in sorted(root_multiplicity.items()) for _ in range(m)]
    expected = {k: a for k, a in enumerate(_poly_from_roots(roots)) if a}
    r = ring.num_positive

    def check(out):
        doc = json.loads(out)
        g = ring.parse(doc["locus"])
        got = {}
        for mon, coeff in g.terms:
            if any(mon[:r]):
                return "locus %s involves the module variables" % doc["locus"]
            got[mon[r]] = coeff % P
        if got != expected:
            return "locus %s, expected roots %s" % (doc["locus"], roots)
        for c, report in zip(LOCUS_POINTS, doc["checks"]):
            if report["overall"] != (c not in root_multiplicity):
                return "check at t - %d says %s" % (c, report["overall"])
        return None
    return check


def _locus_run(pres):
    def run():
        g = ff.fiber_full_locus(pres)
        checks = [ff.fiber_full_check(pres, at=c).to_json_dict() for c in LOCUS_POINTS]
        return json.dumps({"locus": str(g), "checks": checks}, sort_keys=True)
    return run


def _planted(rng, ring, k):
    """A diagonal module (+) S[t]/(p_j m_j) with p_j a product of one or two
    distinct factors t - c, c in 1..7, and m_j a square-free monomial of
    degree two; its locus is the monic lcm of the p_j.  The shape (rank 3 or
    4, the number of factors of each p_j) follows k, and the seed picks the
    roots and monomials, so that the cost of a set of instances does not
    swing with the seed."""
    r = ring.num_positive
    t = ring.parameter()
    n = 3 + k % 2
    amb = ff.GradedFreeModule(ring, (0,) * n)
    mult = {}
    gens = []
    for j in range(n):
        roots = rng.sample(range(1, 8), 1 + (j + k) % 2)
        p = ring.one()
        for c in roots:
            p = p * (t - ring.constant(c))
            mult[c] = 1
        mono = ring.one()
        for i in rng.sample(range(r), 2):
            mono = mono * ring.variable(i)
        comps = [ring.zero()] * n
        comps[j] = p * mono
        gens.append(ff.PolyVector(amb, tuple(comps)))
    return ff.SubmodulePresentation(amb, gens), mult


def omega_family_2x5(ring):
    """The one-parameter family verify_degeneration builds for the 2x5 minors
    under grevlex, with weight vector (0,0,0,1,2, 2,1,0,0,0): the minor
    a_i b_j - a_j b_i (i > j) becomes a_i b_j - t^e a_j b_i."""
    wa, wb = (0, 0, 0, 1, 2), (2, 1, 0, 0, 0)
    gens = []
    for i in range(5):
        for j in range(i):
            e = wa[i] + wb[j] - wa[j] - wb[i]
            gens.append("a%d*b%d - a%d*b%d*t^%d" % (i, j, j, i, e))
    return [ring.parse(g) for g in gens]


def locus(seed, workdir):
    rng = random.Random(seed)
    field = ff.GF(P)
    out = []
    R4 = ff.make_ring([1] * 4, True, field=field, names=["x1", "x2", "x3", "x4"])
    R3 = ff.make_ring([1] * 3, True, field=field, names=["x", "y", "z"])
    fixed = (
        ("ideal-A", ("(t-1)*x*y", "(t-2)*y*z", "t*x*z", "x^2*y - t*z^3"), {0: 1, 1: 1, 2: 1}),
        ("ideal-B", ("(t-1)*x^2", "(t-3)*y^2", "x*z - t*y^2", "(t-2)*z^3"), {1: 1, 2: 1, 3: 1}),
    )
    for name, gens, mult in fixed:
        pres = ff.SubmodulePresentation.ideal(R3, [R3.parse(g) for g in gens])
        out.append(Instance(name, "; ".join(gens), _locus_run(pres), _check_locus(R3, mult)))
    for k in range(24):
        pres, mult = _planted(rng, R4, k)
        text = "; ".join(str(v) for v in pres.generators)
        out.append(Instance("planted%02d" % k, text, _locus_run(pres), _check_locus(R4, mult)))
    R10 = ff.make_ring([1] * 10, True, field=field,
                       names=["a%d" % i for i in range(5)] + ["b%d" % i for i in range(5)])
    family = ff.SubmodulePresentation.ideal(R10, omega_family_2x5(R10))
    out.append(Instance("omega-family-2x5", "; ".join(str(g) for g in family.generators),
                        _locus_run(family), _check_locus(R10, {}), cliff=True))
    return out


# ---------------------------------------------------------------------------
# monomial: Hochster vs Ext, and Hilbert functions of monomial ideals


def _monomial_ideal(ring, exponents):
    return ff.SubmodulePresentation.ideal(ring, [ring.poly([(tuple(e), 1)]) for e in exponents])


def _check_ext_vs_hochster(out):
    doc = json.loads(out)
    if doc["ext"] != doc["hochster"]:
        return "Ext-duality tables differ from Hochster's formula"
    return None


# nine 3-subsets of the 8 variables: the square-free ideal of the fixed
# monomial instance
SQUAREFREE8 = ((0, 2, 3), (0, 3, 6), (1, 2, 4), (0, 2, 4), (3, 6, 7), (3, 5, 6), (1, 4, 6),
               (5, 6, 7), (3, 5, 7))


def _squarefree_instance(name, ring, supports):
    n = ring.num_positive
    pres = _monomial_ideal(ring, [tuple(int(i in s) for i in range(n)) for s in supports])
    return Instance(name, str(supports), _squarefree_run(pres), _check_ext_vs_hochster)


def _squarefree_run(pres):
    def run():
        ext = ff.local_cohomology_tables(pres, MONOMIAL_WINDOW)
        hoch = [ff.hochster_hilbert(pres, i, MONOMIAL_WINDOW) for i in range(len(ext))]
        return json.dumps({"ext": [t.to_json_dict() for t in ext],
                           "hochster": [t.to_json_dict() for t in hoch]})
    return run


def standard_monomial_counts(nvars, gens, top):
    """Number of monomials of each degree 0..top outside the ideal of the
    given monomials, all of one degree e, by enumeration: above degree e a
    monomial is standard exactly when all its divisors one degree lower are."""
    e = sum(next(iter(gens)))
    gens = set(gens)  # exponent tuples
    counts = []
    level = {(0,) * nvars}
    for d in range(top + 1):
        if d == e:
            level = {m for m in level if m not in gens}
        counts.append(len(level))
        nxt = set()
        for m in level:
            for i in range(nvars):
                u = m[:i] + (m[i] + 1,) + m[i + 1:]
                if u in nxt:
                    continue
                if d >= e and not all(
                        u[:j] + (u[j] - 1,) + u[j + 1:] in level for j in range(nvars) if u[j]):
                    continue
                nxt.add(u)
        level = nxt
    return counts


def _check_counts(expected):
    """``expected`` is a function giving the counts, so that the enumeration
    runs with the oracle, not during set-up."""
    def check(out):
        want = expected()
        dims = json.loads(out)["dims"]
        got = [dims[str(d)] for d in range(len(want))]
        return None if got == want else "Hilbert function %s, expected %s" % (got, want)
    return check


def _hilbert_run(pres, window):
    return lambda: json.dumps(ff.hilbert_function(pres.as_quotient(), window).to_json_dict())


def monomials_of_degree(nvars, degree):
    """Exponent vectors of all monomials of the given degree."""
    out = []
    for combo in itertools.combinations_with_replacement(range(nvars), degree):
        out.append(tuple(combo.count(i) for i in range(nvars)))
    return out


def monomial(seed, workdir):
    rng = random.Random(seed)
    out = []
    R6 = ff.make_ring([1] * 6, names=["y%d" % i for i in range(6)])
    m4 = _monomial_ideal(R6, monomials_of_degree(6, 4))
    out.append(Instance("maximal6-power4", "m^4 in 6 variables", _hilbert_run(m4, (0, 8)),
                        _check_counts(lambda: [comb(d + 5, 5) if d < 4 else 0 for d in range(9)])))
    R8 = ff.make_ring([1] * 8, names=["x%d" % i for i in range(8)])
    # the slowest instance is fixed, so that max_instance_s does not follow
    # the seed: a seeded ideal of nine 3-subsets in 8 variables cost from
    # 2.0 s to 3.6 s by seed, and a seeded permutation of one ideal still
    # changed its work by a tenth either way
    out.append(_squarefree_instance("squarefree8-fixed", R8, SQUAREFREE8))
    # seeded: smaller ideals of seven 3-subsets in 7 variables (0.35-0.65 s
    # each).  All generators are 3-subsets: with mixed generator degrees the
    # cost spreads over more than a factor of ten between seeds
    R7 = ff.make_ring([1] * 7, names=["x%d" % i for i in range(7)])
    for k in range(3):
        supports = rng.sample(list(itertools.combinations(range(7), 3)), 7)
        out.append(_squarefree_instance("squarefree7-%d" % k, R7, supports))
    quartics = monomials_of_degree(8, 4)
    for k in range(4):
        exps = rng.sample(quartics, 60)
        pres = _monomial_ideal(R8, exps)
        out.append(Instance("quartics60-%d" % k, str(exps), _hilbert_run(pres, (0, 8)),
                            _check_counts(lambda exps=exps: standard_monomial_counts(8, exps, 8))))
    gens7 = monomials_of_degree(7, 6)
    expected7 = [comb(d + 6, 6) if d < 6 else 0 for d in range(9)]
    out.append(Instance(
        "maximal7-power6-numerator", "m^6 in 7 variables",
        lambda: json.dumps(ff.hilbert.monomial_quotient_counts([1] * 7, gens7, 8)),
        lambda o: None if json.loads(o) == expected7 else "Hilbert function %s" % o,
        cliff=True))
    return out


WORKLOADS = {
    "degeneration": degeneration,
    "locus": locus,
    "monomial": monomial,
}
