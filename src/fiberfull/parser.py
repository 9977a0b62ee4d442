"""Input language for batch problems and the text syntax for polynomials.

Grammar (whitespace-insensitive, statements end with ';'):

    ring  <name> vars (<v1>,...,<vr>) weights (<w1>,...,<wr>)
          field (QQ | Fp <p>) [param <name>] ;
    ideal <name> = ( <poly>, ..., <poly> ) ;
    order (lex | grevlex | block-x-over-t | weights:<w1>,...,<wr>) ;
    window <lo>:<hi> ;

Each statement appears at most once, and the variable names are distinct,
the parameter's ``t`` included.  Polynomials use exact integer or
rational literals (``a/b``), ``*`` for products, ``^`` for powers, and the
declared variable names; parentheses nest at most ``MAX_PAREN_DEPTH`` deep.
Diagnostics carry line and column.
"""

from dataclasses import dataclass

from .errors import ParseError
from .fields import GF, QQ
from .orders import order_from_string
from .rings import GradedRing, make_ring

_PUNCT = "(),;=^*+-/:"

# deepest parenthesis nesting; each level costs the recursive-descent parser
# four frames, so the bound stays well inside Python's recursion limit
MAX_PAREN_DEPTH = 100


@dataclass(frozen=True)
class Token:
    kind: str  # NAME, INT, punctuation literal, EOF
    text: str
    line: int
    col: int


def tokenize(text):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            col += 1
            i += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("INT", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("NAME", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in _PUNCT:
            tokens.append(Token(ch, ch, line, start_col))
            col += 1
            i += 1
            continue
        raise ParseError("unexpected character %r" % ch, line, start_col)
    tokens.append(Token("EOF", "", line, col))
    return tokens


class _Cursor:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind, what=None):
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                "expected %s, found %r" % (what or kind, tok.text or "end of input"),
                tok.line, tok.col)
        return self.next()

    def accept(self, kind):
        if self.peek().kind == kind:
            return self.next()
        return None


# ---------------------------------------------------------------------------
# polynomial expressions


class _PolyParser:
    def __init__(self, cursor, ring, var_index):
        self.cur = cursor
        self.ring = ring
        self.vars = var_index
        self.depth = 0

    def parse_expr(self):
        node = self.parse_term()
        while True:
            if self.cur.accept("+"):
                node = node + self.parse_term()
            elif self.cur.accept("-"):
                node = node - self.parse_term()
            else:
                return node

    def parse_term(self):
        node = self.parse_factor()
        while True:
            if self.cur.accept("*"):
                node = node * self.parse_factor()
            elif self.cur.peek().kind == "/":
                tok = self.cur.next()
                rhs = self.parse_factor()
                if not rhs.is_constant() or rhs.is_zero():
                    raise ParseError("division only by nonzero constants", tok.line, tok.col)
                inv = self.ring.field.inv(rhs.constant_value())
                node = node * inv
            else:
                return node

    def parse_factor(self):
        negate = False
        while self.cur.accept("-"):
            negate = not negate
        base = self.parse_atom()
        if self.cur.accept("^"):
            tok = self.cur.expect("INT", "an exponent")
            base = base ** int(tok.text)
        return -base if negate else base

    def parse_atom(self):
        tok = self.cur.peek()
        if tok.kind == "INT":
            self.cur.next()
            return self.ring.constant(int(tok.text))
        if tok.kind == "NAME":
            self.cur.next()
            idx = self.vars.get(tok.text)
            if idx is None:
                raise ParseError("undeclared variable %r" % tok.text, tok.line, tok.col)
            return self.ring.variable(idx)
        if tok.kind == "(":
            if self.depth == MAX_PAREN_DEPTH:
                raise ParseError("parentheses nested deeper than %d" % MAX_PAREN_DEPTH,
                                 tok.line, tok.col)
            self.cur.next()
            self.depth += 1
            node = self.parse_expr()
            self.depth -= 1
            self.cur.expect(")", "a closing parenthesis")
            return node
        raise ParseError("expected a polynomial, found %r" % (tok.text or "end of input"),
                         tok.line, tok.col)


def parse_polynomial(ring, text):
    """Parse one polynomial over a ring using its variable names."""
    cursor = _Cursor(tokenize(text))
    var_index = {name: i for i, name in enumerate(ring.names)}
    poly = _PolyParser(cursor, ring, var_index).parse_expr()
    tok = cursor.peek()
    if tok.kind != "EOF":
        raise ParseError("trailing input after polynomial: %r" % tok.text, tok.line, tok.col)
    return poly


# ---------------------------------------------------------------------------
# problem files


@dataclass(frozen=True)
class ProblemSpec:
    ring: GradedRing
    ring_name: str
    ideal_name: str
    generators: tuple
    order: object = None
    window: tuple = None

    def with_field(self, field):
        if field == self.ring.field:
            return self
        ring = self.ring.with_field(field)
        gens = tuple(
            ring.poly([(m, field.coerce(c)) for m, c in g.terms])
            for g in self.generators
        )
        return ProblemSpec(ring, self.ring_name, self.ideal_name, gens,
                           self.order, self.window)

    def to_text(self):
        ring = self.ring
        xnames = ring.names[:-1] if ring.has_parameter else ring.names
        field = "QQ" if ring.field.p is None else "Fp %d" % ring.field.p
        head = "ring %s vars (%s) weights (%s) field %s" % (
            self.ring_name, ",".join(xnames),
            ",".join(str(w) for w in ring.weights), field)
        if ring.has_parameter:
            head += " param %s" % ring.names[-1]
        lines = [head + ";"]
        lines.append("ideal %s = (%s);" % (
            self.ideal_name, ", ".join(str(g) for g in self.generators)))
        if self.order is not None:
            lines.append("order %s;" % self.order.describe())
        if self.window is not None:
            lines.append("window %d:%d;" % self.window)
        return "\n".join(lines) + "\n"


def _parse_name_list(cur):
    cur.expect("(", "'('")
    names = [cur.expect("NAME", "a variable name").text]
    while cur.accept(","):
        names.append(cur.expect("NAME", "a variable name").text)
    cur.expect(")", "')'")
    return names


def _parse_int(cur):
    sign = 1
    if cur.accept("-"):
        sign = -1
    tok = cur.expect("INT", "an integer")
    return sign * int(tok.text)


def _parse_int_list(cur):
    cur.expect("(", "'('")
    out = [_parse_int(cur)]
    while cur.accept(","):
        out.append(_parse_int(cur))
    cur.expect(")", "')'")
    return out


def _parse_ring_stmt(cur):
    name = cur.expect("NAME", "a ring name").text
    kw = cur.expect("NAME", "'vars'")
    if kw.text != "vars":
        raise ParseError("expected 'vars'", kw.line, kw.col)
    names = _parse_name_list(cur)
    kw = cur.expect("NAME", "'weights'")
    if kw.text != "weights":
        raise ParseError("expected 'weights'", kw.line, kw.col)
    weights_tok = cur.peek()
    weights = _parse_int_list(cur)
    kw = cur.expect("NAME", "'field'")
    if kw.text != "field":
        raise ParseError("expected 'field'", kw.line, kw.col)
    ftok = cur.expect("NAME", "'QQ' or 'Fp'")
    if ftok.text == "QQ":
        field = QQ
    elif ftok.text == "Fp":
        ptok = cur.expect("INT", "a prime")
        try:
            field = GF(int(ptok.text))
        except Exception:
            raise ParseError("%s is not a prime below 2^31" % ptok.text, ptok.line, ptok.col)
    else:
        raise ParseError("unknown field %r" % ftok.text, ftok.line, ftok.col)
    param = None
    if cur.peek().kind == "NAME" and cur.peek().text == "param":
        cur.next()
        ptok = cur.expect("NAME", "a parameter name")
        param = ptok.text
        if param != "t":
            raise ParseError("the parameter variable must be named 't'", ptok.line, ptok.col)
    cur.expect(";", "';'")
    try:
        ring = make_ring(weights, param is not None, field, names)
    except Exception as exc:
        raise ParseError(str(exc), weights_tok.line, weights_tok.col)
    return name, ring


def parse_input(text):
    """Parse a problem file into a ProblemSpec."""
    cur = _Cursor(tokenize(text))
    ring = None
    ring_name = None
    ideal_name = None
    generators = None
    order = None
    window = None
    seen = set()
    while cur.peek().kind != "EOF":
        tok = cur.expect("NAME", "a statement keyword")
        if tok.text in seen:
            raise ParseError("duplicate %s declaration" % tok.text, tok.line, tok.col)
        seen.add(tok.text)
        if tok.text == "ring":
            ring_name, ring = _parse_ring_stmt(cur)
        elif tok.text == "ideal":
            ideal_name = cur.expect("NAME", "an ideal name").text
            cur.expect("=", "'='")
            lparen = cur.expect("(", "'('")
            if ring is None:
                nxt = cur.peek()
                raise ParseError("undeclared variable: no ring declared yet",
                                 nxt.line, nxt.col)
            var_index = {name: i for i, name in enumerate(ring.names)}
            gens = []
            if cur.peek().kind != ")":
                parser = _PolyParser(cur, ring, var_index)
                gens.append(parser.parse_expr())
                while cur.accept(","):
                    gens.append(parser.parse_expr())
            cur.expect(")", "')'")
            cur.expect(";", "';'")
            generators = tuple(g for g in gens if not g.is_zero())
        elif tok.text == "order":
            parts = [cur.expect("NAME", "an order name").text]
            while cur.peek().kind == "-":
                cur.next()
                parts.append(cur.expect("NAME", "an order name part").text)
            spec = "-".join(parts)
            if cur.accept(":"):
                nums = [str(_parse_int(cur))]
                while cur.accept(","):
                    nums.append(str(_parse_int(cur)))
                spec += ":" + ",".join(nums)
            try:
                order = order_from_string(spec)
            except Exception as exc:
                raise ParseError(str(exc), tok.line, tok.col)
            cur.expect(";", "';'")
        elif tok.text == "window":
            lo = _parse_int(cur)
            cur.expect(":", "':'")
            hi = _parse_int(cur)
            if lo > hi:
                raise ParseError("window bounds out of order", tok.line, tok.col)
            window = (lo, hi)
            cur.expect(";", "';'")
        else:
            raise ParseError("unknown statement %r" % tok.text, tok.line, tok.col)
    if ring is None:
        raise ParseError("input declares no ring", 1, 1)
    if generators is None:
        generators = ()
        ideal_name = ideal_name or "I"
    return ProblemSpec(ring, ring_name, ideal_name, generators, order, window)
