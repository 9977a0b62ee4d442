"""Input-language parsing, round-trips, diagnostics, and CLI behavior
(determinism, exit codes, machine-readable errors)."""

import json
import os
import subprocess
import sys

import pytest

from fiberfull import GF, InvalidFieldError, ParseError, cli, parse_input
from fiberfull.parser import MAX_PAREN_DEPTH
from fixtures import PARSER_CORPUS

CLI = [sys.executable, "-m", "fiberfull.cli"]


def test_parse_minimal_example():
    spec = parse_input("ring S vars (x,y,z) weights (1,1,1) field QQ; ideal I = (x*z - y^2);")
    assert spec.ring.num_positive == 3
    assert spec.ring_name == "S" and spec.ideal_name == "I"
    assert len(spec.generators) == 1
    assert str(spec.generators[0]) in ("-y^2 + x*z", "x*z - y^2")


def test_parse_full_directives():
    text = PARSER_CORPUS[5]
    spec = parse_input(text)
    assert spec.order is not None and spec.order.describe() == "grevlex"
    assert spec.window == (-8, 4)
    # command and output statements were accepted and then ignored; they
    # are no longer part of the grammar, and a quote is no character of it
    for stmt, message, col in (("command cv-verify;", "unknown statement", 1),
                               ('output "report.json";', "unexpected character '\"'", 8)):
        with pytest.raises(ParseError) as err:
            parse_input(text + stmt + "\n")
        assert message in err.value.message
        assert (err.value.line, err.value.col) == (text.count("\n") + 1, col)


def test_repeated_statements_are_rejected():
    # a second statement would silently replace the first
    head = "ring S vars (x,y) weights (1,1) field QQ;\n"
    for first, second in (("ideal I = (x);", "ideal J = (y);"), ("order lex;", "order grevlex;"),
                          ("window -2:2;", "window 0:1;"),
                          ("", "ring T vars (x) weights (1) field QQ;")):
        with pytest.raises(ParseError) as err:
            parse_input(head + first + "\n  " + second + "\n")
        keyword = second.split()[0]
        assert "duplicate %s" % keyword in err.value.message
        assert (err.value.line, err.value.col) == (3, 3)


def test_undeclared_variable_positions():
    with pytest.raises(ParseError) as err:
        parse_input("ring S vars (x,y) weights (1,1) field QQ; ideal I = (x*w);")
    assert "undeclared" in err.value.message
    assert err.value.line == 1

    with pytest.raises(ParseError) as err2:
        parse_input("ideal I = (x*w);")
    assert "undeclared" in err2.value.message or "ring" in err2.value.message


def test_invalid_grading_surfaces_at_parse_time():
    with pytest.raises(ParseError):
        parse_input("ring S vars (x) weights (0) field QQ; ideal I = (x);")


def test_repeated_variable_names_are_rejected():
    # a repeated name was read as its last occurrence, and a variable named
    # t clashed with the parameter
    for text in ("ring S vars (x,x) weights (1,2) field QQ;\nideal I = (x);\n",
                 "ring R vars (x,t) weights (1,1) field QQ param t;\nideal I = (x);\n"):
        with pytest.raises(ParseError) as err:
            parse_input(text)
        assert "distinct" in err.value.message, text
        assert err.value.line == 1, text


def test_non_prime_field_rejected():
    with pytest.raises(ParseError):
        parse_input("ring S vars (x) weights (1) field Fp 32004; ideal I = (x);")


def test_parenthesis_depth_is_bounded():
    head = "ring S vars (x,y) weights (1,1) field QQ;\nideal I = ("
    at_bound = parse_input(head + "(" * MAX_PAREN_DEPTH + "x" + ")" * MAX_PAREN_DEPTH + ");")
    assert [str(g) for g in at_bound.generators] == ["x"]
    with pytest.raises(ParseError) as err:
        parse_input(head + "(" * (MAX_PAREN_DEPTH + 1) + "x" + ")" * (MAX_PAREN_DEPTH + 1) + ");")
    # the error points at the first parenthesis past the bound
    assert (err.value.line, err.value.col) == (2, len("ideal I = (") + MAX_PAREN_DEPTH + 1)
    # unary minus folds in a loop, at any count
    minus = parse_input(head + "-" * 5001 + "x^2 - " + "-" * 5000 + "y);")
    assert [str(g) for g in minus.generators] == ["-x^2 - y"]


def test_round_trip_corpus():
    for text in PARSER_CORPUS:
        spec = parse_input(text)
        again = parse_input(spec.to_text())
        assert again == spec, text


def test_with_field_moves_generators():
    spec = parse_input(PARSER_CORPUS[1])
    moved = spec.with_field(GF(7))
    assert moved.ring.field.p == 7
    # -1/2 becomes -inverse(2) = 3 mod 7
    cubic = moved.generators[1]
    assert cubic.coefficient((0, 1, 2)) == 3


def test_with_field_rejects_denominator_divisible_by_p():
    spec = parse_input("ring S vars (x,y) weights (1,1) field QQ; ideal I = (x*y - 1/7*x^2);")
    with pytest.raises(InvalidFieldError) as err:
        spec.with_field(GF(7))
    assert "-1/7" in str(err.value)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _run(args, **kw):
    env = dict(os.environ)
    env.setdefault("PYTHONHASHSEED", "0")
    return subprocess.run(CLI + args, capture_output=True, env=env, **kw)


def test_cli_gb_and_determinism(tmp_path):
    path = _write(tmp_path, "conic.ring",
                  "ring S vars (x,y,z) weights (1,1,1) field QQ;\nideal I = (x*z - y^2);\n")
    first = _run(["gb", path, "--order", "grevlex"])
    second = _run(["gb", path, "--order", "grevlex"])
    assert first.returncode == 0
    assert first.stdout == second.stdout
    payload = json.loads(first.stdout)
    assert payload["basis"] == ["y^2 - x*z"]
    assert payload["leading_terms"] == ["y^2"]
    # a power takes about 2 log2(n) products, and unary minus signs fold in
    # a loop, not one recursion each
    head = "ring S vars (x,y) weights (1,1) field QQ;\n"
    for name, ideal, basis in (("binomial", "x^100000000 - y^100000000",
                                ["x^100000000 - y^100000000"]),
                               ("minus", "-" * 5000 + "x", ["x"])):
        out = _run(["gb", _write(tmp_path, name + ".ring", head + "ideal I = (%s);\n" % ideal)],
                   timeout=60)
        assert out.returncode == 0, name
        assert json.loads(out.stdout)["basis"] == basis, name


def test_cli_localcohom_table(tmp_path):
    path = _write(tmp_path, "ring.ring",
                  "ring S vars (x,y,z) weights (1,1,1) field QQ;\nideal I = ();\n")
    out = _run(["localcohom", path, "--i", "3", "--window=-5:0"])
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["table"]["dims"] == {"-5": 6, "-4": 3, "-3": 1, "-2": 0, "-1": 0, "0": 0}


def test_cli_csv_output(tmp_path):
    path = _write(tmp_path, "conic.ring",
                  "ring S vars (x,y,z) weights (1,1,1) field QQ;\nideal I = (x*z - y^2);\n")
    out = _run(["hilbert", path, "--window=0:3", "--csv"])
    assert out.returncode == 0
    assert out.stdout.decode().splitlines() == ["nu,dim", "0,1", "1,3", "2,5", "3,7"]


def test_cli_cv_verify_defaults_to_prime_field(tmp_path):
    path = _write(tmp_path, "conic.ring",
                  "ring S vars (x,y,z) weights (1,1,1) field QQ;\nideal I = (x*z - y^2);\n")
    out = _run(["cv-verify", path, "--order", "lex", "--window=-6:2"])
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["ring"]["field"] == "Fp(32003)"
    assert payload["report"]["squarefree"] is True
    assert payload["report"]["equal"] is True
    certified = _run(["cv-verify", path, "--order", "lex", "--window=-6:2", "--field", "QQ"])
    assert json.loads(certified.stdout)["ring"]["field"] == "QQ"


def test_cli_fiberfull_and_locus(tmp_path):
    path = _write(tmp_path, "line.ring",
                  "ring R vars (x) weights (1) field QQ param t;\nideal M = (t*x);\n")
    bad = _run(["fiberfull", path, "--at", "0"])
    good = _run(["fiberfull", path, "--at", "1"])
    assert json.loads(bad.stdout)["fiberfull"]["overall"] is False
    assert json.loads(good.stdout)["fiberfull"]["overall"] is True
    locus = _run(["locus", path])
    assert json.loads(locus.stdout)["g"] == "t"


def test_cli_unknown_command_error():
    out = _run(["frobnicate", "nosuch.ring"])
    assert out.returncode == 1
    payload = json.loads(out.stdout)
    assert payload["error"]["kind"] == "unknown-command"


def test_cli_parse_error_is_machine_readable(tmp_path):
    # the nested inputs used to exhaust Python's recursion limit and print
    # a traceback with nothing on stdout
    head = "ring S vars (x,y) weights (1,1) field QQ;\nideal I = ("
    for name, text in (("bad", "ideal I = (x*w);\n"),
                       ("parens", head + "(" * 3000 + "x" + ")" * 3000 + ");\n"),
                       ("minus-parens", head + "-(" * 3000 + "x" + ")" * 3000 + ");\n")):
        out = _run(["gb", _write(tmp_path, name + ".ring", text)])
        assert out.returncode == 1, name
        payload = json.loads(out.stdout)
        assert payload["error"]["kind"] == "syntax", name
        assert "line" in payload["error"] and "col" in payload["error"], name


def test_cli_quote_is_an_unexpected_character(tmp_path):
    # no grammar rule takes a quoted string, so the quote itself is the
    # error, not the name inside it
    head = "ring R vars (x,y,z) weights (1,1,1) field QQ;\n"
    for name, text, col in (("quoted", 'ideal I = ("x");\n', 12),
                            ("unterminated", 'ideal I = (y, "x);\n', 15)):
        out = _run(["gb", _write(tmp_path, name + ".ring", head + text)])
        assert out.returncode == 1, name
        error = json.loads(out.stdout)["error"]
        assert error["kind"] == "syntax", name
        assert error["message"] == "unexpected character '\"'", name
        assert (error["line"], error["col"]) == (2, col), name


def test_cli_json_out_writes_identical_bytes(tmp_path):
    path = _write(tmp_path, "conic.ring",
                  "ring S vars (x,y,z) weights (1,1,1) field QQ;\nideal I = (x*z - y^2);\n")
    target = tmp_path / "report.json"
    out = _run(["betti", path, "--json-out", str(target)])
    assert out.returncode == 0
    assert target.read_bytes() == out.stdout


def test_cli_degeneration_of_a_variable_named_t_is_refused(tmp_path):
    # the family adjoins the parameter t, which would repeat the name
    path = _write(tmp_path, "st.ring",
                  "ring S vars (s,t) weights (1,1) field QQ;\nideal I = (s^2 - t^2, s*t);\n")
    assert _run(["gb", path]).returncode == 0
    out = _run(["cv-verify", path])
    assert out.returncode == 1, out.stdout
    assert json.loads(out.stdout)["error"]["kind"] == "invalid-argument"


def test_cli_window_takes_a_negative_value_after_a_space(tmp_path):
    path = _write(tmp_path, "conic.ring",
                  "ring S vars (x,y,z) weights (1,1,1) field QQ;\nideal I = (x*z - y^2);\n")
    for args in (["hilbert", path], ["localcohom", path, "--i", "2"], ["cv-verify", path]):
        joined = _run(args + ["--window=-8:0"])
        spaced = _run(args + ["--window", "-8:0"])
        assert joined.returncode == 0, joined.stdout
        assert spaced.stdout == joined.stdout, args


def test_cli_cv_verify_in_a_ring_of_1100_variables(tmp_path, capsys):
    # the weight vector is found by a walk whose depth does not grow with
    # the number of variables
    names = ",".join("x%d" % i for i in range(1100))
    path = _write(tmp_path, "wide.ring",
                  "ring S vars (%s) weights (%s) field QQ;\n" % (names, ",".join(["1"] * 1100))
                  + "ideal I = (x0*x1 - x2*x3);\nwindow -1:0;\n")
    assert cli.main(["cv-verify", path]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["omega"] == [0, 1] + [0] * 1098
    assert report["family"] == ["x0*x1 + 32002*x2*x3*t"]
    assert report["equal"] is True and report["extremal_equal"] is True
    assert report["betti_ideal"] == report["betti_initial"]


def test_cli_weight_vector_of_the_wrong_length_is_an_order_mismatch(tmp_path, capsys):
    # the length is checked where the order meets the ring, so an empty
    # ideal, which needs no order key, is refused as a nonempty one is
    head = "ring S vars (x,y) weights (1,1) field QQ;\n"
    for ideal in ("()", "(x*y - y^2)"):
        for command, weights in (("gb", "weights:1,2,3"), ("cv-verify", "weights:1")):
            flagged = _write(tmp_path, "flag.ring", head + "ideal I = %s;\n" % ideal)
            stated = _write(tmp_path, "stated.ring",
                            head + "order %s;\nideal I = %s;\n" % (weights, ideal))
            for argv in ([command, flagged, "--order", weights], [command, stated]):
                assert cli.main(argv) == 1, argv
                error = json.loads(capsys.readouterr().out)["error"]
                assert error["kind"] == "order-mismatch", argv
                assert error["message"] == (
                    "weight vector has %d entries for a ring with 2 positive-degree variables"
                    % len(weights.split(","))), argv
        assert cli.main(["gb", flagged, "--order", "weights:1,2"]) == 0
        assert json.loads(capsys.readouterr().out)["order"] == "weights:1,2"


def test_cli_flag_errors_are_usage_errors(tmp_path, capsys):
    path = _write(tmp_path, "conic.ring",
                  "ring S vars (x,y,z) weights (1,1,1) field QQ;\nideal I = (x*z - y^2);\n")
    for args in (["gb", path, "--bogus"], ["localcohom", path], ["gb"], ["gb", path, "--threads", "2"],
                 ["hilbert", path, "--window", "5:1"], ["hilbert", path, "--window", "a:b"],
                 ["hilbert", path, "--window", "--csv"]):
        out = _run(args)
        assert out.returncode == 1, args
        payload = json.loads(out.stdout)
        assert payload["error"]["kind"] == "usage", args
        assert payload["error"]["usage"].startswith("usage: fiberfull"), args
    # a flag is accepted by the commands that read it and is a usage error
    # for every other command; the 16 pairs of --order, --window or --csv
    # with a command that does not read it used to be accepted and dropped
    values = {"--order": ["grevlex"], "--field": ["QQ"], "--window": ["0:3"],
              "--json-out": [str(tmp_path / "out.json")], "--csv": [], "--i": ["1"],
              "--at": ["1"]}
    reads = {"gb": {"--order"}, "resolve": set(), "betti": {"--csv"},
             "hilbert": {"--window", "--csv"}, "localcohom": {"--window", "--csv", "--i"},
             "fiberfull": {"--at"}, "locus": set(), "cv-verify": {"--order", "--window"}}
    assert set(reads) == set(cli.COMMANDS)
    for command, read in reads.items():
        required = ["--i", "1"] if command == "localcohom" else []
        for flag, value in values.items():
            argv = [path, flag] + value
            if flag in read or flag in ("--field", "--json-out"):
                cli._build_flag_parser(command).parse_args(argv + required)
                continue
            assert cli.main([command] + argv + required) == 1, (command, flag)
            payload = json.loads(capsys.readouterr().out)
            assert payload["error"]["kind"] == "usage", (command, flag)
            assert payload["error"]["usage"].startswith("usage: fiberfull %s" % command)
    for value in ("Fp:abc", "Fp:4", "Zp:5"):
        out = _run(["gb", path, "--field", value])
        assert out.returncode == 1, value
        assert json.loads(out.stdout)["error"]["kind"] == "invalid-field", value
    # the conic has r = 3, so H^i exists for 0 <= i <= 3 only
    for index in ("-1", "9"):
        out = _run(["localcohom", path, "--i", index])
        assert out.returncode == 1, index
        assert json.loads(out.stdout)["error"]["kind"] == "invalid-argument", index
    assert _run(["gb", "--help"]).returncode == 0


def test_cli_denominator_divisible_by_p_is_invalid_field(tmp_path):
    path = _write(tmp_path, "bad.ring",
                  "ring S vars (x,y) weights (1,1) field QQ;\nideal I = (x*y - 1/32003*x^2);\n")
    for args in (["cv-verify", path], ["gb", path, "--field", "Fp:32003"]):
        out = _run(args)
        assert out.returncode == 1, args
        payload = json.loads(out.stdout)
        assert payload["error"]["kind"] == "invalid-field", args
        assert "-1/32003" in payload["error"]["message"]

