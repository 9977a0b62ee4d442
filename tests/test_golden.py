"""Byte-identity gate: the sha256 of CLI stdout on a few fixed inputs.

The hashes pin the exact bytes, not only the mathematics: a change in the
division choices of the term-vector engine (which basis element reduces
which term), in the pairs the Schreyer frame forms or in the pruning of
unit entries shows up in the resolution printed by ``resolve``, in the
torsion generators of ``fiberfull`` and in the family of ``cv-verify``.
A change that alters any of these bytes on purpose must say so and update
the hash."""

import hashlib

import pytest

from test_parser_cli import _run, _write

MINORS_2X3 = (
    "ring S vars (a,b,c,d,e,f) weights (1,1,1,1,1,1) field QQ;\n"
    "ideal I = (a*e - b*d, a*f - c*d, b*f - c*e);\n"
)
PARAM_FAMILY = (
    "ring R vars (x,y,z) weights (1,1,1) field QQ param t;\n"
    "ideal I = (x*z - t*y^2, x*y - t*z^2, y*z - x^2);\n"
)
TORSION_FP7 = (
    "ring R vars (x,y) weights (1,1) field Fp 7 param t;\n"
    "ideal M = (t*x, y^2);\n"
)
LOCUS_INPUT = (
    "ring R vars (x,y,z) weights (1,1,1) field Fp 32003 param t;\n"
    "ideal M = (t*x*y, t*x*z - x*z, y^2 - t*z^2);\n"
)
# over QQ the Euclid steps of the k[t] lcm divide by leading coefficients
# such as 1/6: the module certificate and the Ext^3 certificate both carry
# the locus polynomial t^2 - 1/6*t - 1/6
LOCUS_QQ = (
    "ring R vars (x,y,z) weights (1,1,1) field QQ param t;\n"
    "ideal M = ((2*t - 1)*x*y, (3*t + 2)*x*z - x*z, y^2 - 1/2*t*z^2);\n"
)
# the rational quartic curve, which is not Cohen-Macaulay
QUARTIC = (
    "ring S vars (x,y,z,w) weights (1,1,1,1) field QQ;\n"
    "ideal I = (y*z - x*w, z^3 - y*w^2, x*z^2 - y^2*w, y^3 - x^2*z);\n"
)
# the rational normal sextic, the 2x2 minors of the Hankel matrix
# [[x0..x5], [x1..x6]]: codimension 5, so Ext^0..Ext^4 vanish and only Ext^5
# carries a certificate or a table
SEXTIC = (
    "ring S vars (x0,x1,x2,x3,x4,x5,x6) weights (1,1,1,1,1,1,1) field QQ;\n"
    "ideal I = (x0*x2 - x1^2, x0*x3 - x1*x2, x0*x4 - x1*x3, x0*x5 - x1*x4, x0*x6 - x1*x5, "
    "x1*x3 - x2^2, x1*x4 - x2*x3, x1*x5 - x2*x4, x1*x6 - x2*x5, x2*x4 - x3^2, "
    "x2*x5 - x3*x4, x2*x6 - x3*x5, x3*x5 - x4^2, x3*x6 - x4*x5, x4*x6 - x5^2);\n"
)
# a weighted grading and fraction coefficients: the printed term order
# mixes degree, grevlex and coefficient signs
WEIGHTED_QQ = (
    "ring S vars (x,y,z) weights (1,2,3) field QQ;\n"
    "ideal I = (x^2*y - 1/2*x*z, y^3 - 2/3*z^2, x^4*y + 5/7*y^3 - x*y*z);\n"
)
# Ext^2 is presented in rank 4 and has (t + 3)-torsion, y*e_3^*: the module
# order must rank the position above the parameter exponent to find it
RANK_TWO_EXT = (
    "ring R vars (x,y,z) weights (1,1,1) field Fp 32003 param t;\n"
    "ideal M = ((t-2)*x + (t+3)*y, x*z, x^2);\n"
)
# codimension 0, a finite codimension and an infinite one over k[t][x]: the
# zero ideal presents every Ext, (t*x*y, x*z) has components of heights 1
# and 2 in k[t,x,y,z], so only Ext^0 is skipped, and the unit ideal
# presents none
ZERO_IDEAL = (
    "ring R vars (x,y,z) weights (1,1,1) field Fp 32003 param t;\n"
    "ideal M = ();\n"
)
MIXED_HEIGHT = (
    "ring R vars (x,y,z) weights (1,1,1) field Fp 32003 param t;\n"
    "ideal M = (t*x*y, x*z);\n"
)
UNIT_IDEAL = (
    "ring R vars (x,y,z) weights (1,1,1) field Fp 32003 param t;\n"
    "ideal M = (1);\n"
)

# (test id, input, arguments, sha256 of stdout).  The two checks of
# LOCUS_INPUT pin certificates whose Ext annihilator is not constant
GOLDEN = [
    ("cv-verify", MINORS_2X3, ["cv-verify", "--order", "lex"],
     "bf0a0cd72ca7107b46d13ee07df1e3c478deb4747606003d994eff998eb461be"),
    ("resolve", PARAM_FAMILY, ["resolve"],
     "0b8bf5eb056400febe65211d96013dc43de6041801c0216f96fd7d547f08a489"),
    ("fiberfull", TORSION_FP7, ["fiberfull", "--at", "0"],
     "96a18cfe3a4a30c8bd0cc6ea7ef556378a9a977b19a1b0f8d369682ae44a8c18"),
    ("locus", LOCUS_INPUT, ["locus"],
     "b1ccefe9651bff75dea6733718b9b9b6d8b0123d5fad8dd77223df9b55c9e587"),
    ("betti", QUARTIC, ["betti"],
     "4b1d3bbd97019d59e64bc42ba3c0e667a77b7d2ffcb0102c80e78c9a9f500b01"),
    ("fiberfull-locus-at0", LOCUS_INPUT, ["fiberfull", "--at", "0"],
     "b851249568167ec07f0f30458b2a4e867c00f2162e31cfd873ec7401d880fab8"),
    ("fiberfull-locus-at1", LOCUS_INPUT, ["fiberfull", "--at", "1"],
     "249331bf983a076574a8c33bb3cc8809b219d33d6db9b72154331435e82d6ce0"),
    ("locus-qq", LOCUS_QQ, ["locus"],
     "ef4e8fb06059cd4fe67bcb995de887a48679c66467f02e688d73309900370dde"),
    ("fiberfull-locus-qq-at0", LOCUS_QQ, ["fiberfull", "--at", "0"],
     "78b9067b27bb1d7d0add6ba99f55096f5adf02ef5e3c3a733a2034f9c1dbf48f"),
    ("gb-weighted-lex", WEIGHTED_QQ, ["gb", "--order", "lex"],
     "4cd921546563214fee6fe2b507d377a8dd4e19d617b01cc05b07c30dcce7978b"),
    ("resolve-weighted", WEIGHTED_QQ, ["resolve"],
     "fd74bd212dde57045b39bdc4e9fcebd245382e614cb89c7b87123871d18fd882"),
    ("fiberfull-rank-two-ext", RANK_TWO_EXT, ["fiberfull", "--at", "-3"],
     "3d4949d38aa473a3f59ee3291cc089e7a035d3556f265e2f6151f674baa9dac7"),
    ("cv-verify-sextic", SEXTIC, ["cv-verify"],
     "2c2c70c0c04f9c1b6960ef6b3f7e9e62fe28f3f676bbd43b4fe603d82ac4e8d8"),
    # codimension 2 and depth 1: Ext^3, above the codimension, is nonzero
    ("cv-verify-quartic", QUARTIC, ["cv-verify"],
     "46ff6e1c8ce999c8c966e051a218a060c94a44fd30acfc8f73103b0209e7cba3"),
    ("fiberfull-zero-ideal", ZERO_IDEAL, ["fiberfull", "--at", "0"],
     "2d8026b28404207317212ae364f99d5f71756db97f62842abb3a21ff972fd612"),
    ("locus-zero-ideal", ZERO_IDEAL, ["locus"],
     "277c5b83c59d3e60d0670163a16b6c5aff6324fe8cc0930095278ca534d9dbac"),
    ("fiberfull-mixed-height", MIXED_HEIGHT, ["fiberfull", "--at", "0"],
     "f6fa3bf5e3cf9764a9e5e13615ce95298fe763ae1d6defa925f2399c030d49f4"),
    ("locus-mixed-height", MIXED_HEIGHT, ["locus"],
     "f15c1bbcb0add6f5fe170bfc15b8b85ef204263314c491c4fdf467e82b694d1e"),
    ("fiberfull-unit-ideal", UNIT_IDEAL, ["fiberfull", "--at", "0"],
     "cf7f1bb53e2b1bdaf9093e96628aa157b96bebfee19581d8baa7ae518ccef572"),
    ("locus-unit-ideal", UNIT_IDEAL, ["locus"],
     "a5da19dd405170726e15f05a256400cab389728e237f77f3b0870e6789509bd6"),
]


@pytest.mark.parametrize("text,argv,digest", [g[1:] for g in GOLDEN], ids=[g[0] for g in GOLDEN])
def test_cli_stdout_is_pinned(tmp_path, text, argv, digest):
    path = _write(tmp_path, "input.ring", text)
    out = _run([argv[0], path] + argv[1:])
    assert out.returncode == 0, out.stdout
    assert hashlib.sha256(out.stdout).hexdigest() == digest
