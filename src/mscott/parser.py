"""Tokenizer, recursive-descent parser, and printer for the formula DSL.

Grammar (formulas):

    formula  := 'sup' var '.' formula | 'inf' var '.' formula | conn
    conn     := 'latmin' '(' formula {',' formula} ')'
              | 'latmax' '(' formula {',' formula} ')'
              | 'const' '(' rational ')'
              | 'pwl' '(' points ';' formula ')'
              | 'seg' '(' modulus ';' vec ';' vec ';' rational ';' rational
                      ';' formula {',' formula} ')'
              | atomic
    atomic   := name '(' term {',' term} ')'
    term     := var | name | name '(' term {',' term} ')'
    var      := 'v' digits

Moduli serialize as ``linear(1,1)``, ``capped(1; 2,2)``,
``pwl((0,0),(1/4,1/2),(1,1))`` (optionally ``; coeffs``), ``zero`` /
``zero(n)``, ``maxof(m,...)``, ``polymax((...),(...))`` and
``compose(outer; m,...)``.

``print_formula(parse_formula(s)) `` parses back to an equal AST.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .moduli import (
    CappedLinear,
    Compose,
    EnvelopeTable,
    Linear,
    MaxOf,
    Modulus,
    PiecewiseConcave,
    PolyhedralMax,
    Zero,
)
from .rationals import Vec, format_rational
from .segments import make_segment
from .syntax import (
    Apply,
    Atomic,
    ConstF,
    ConstTerm,
    Formula,
    FunctionSymbol,
    Inf,
    MaxF,
    MinF,
    PwlF,
    RelationSymbol,
    SegF,
    Signature,
    Sup,
    Term,
    Var,
)


MAX_DEPTH = 100  # syntax-tree levels; keeps every recursive walk of a parsed
# formula (evaluation, printing) well inside Python's stack


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column


@dataclass(frozen=True)
class Token:
    kind: str  # 'name' | 'int' | punctuation
    text: str
    line: int
    column: int


_PUNCT = "(),;./"


def _nested(parse):
    """Count one syntax-tree level around a recursive parse method, and report
    a constructor's ValueError as a ParseError at the level's first token."""

    def method(self, *args):
        if self.depth == MAX_DEPTH:
            raise self.error(f"nesting deeper than {MAX_DEPTH} levels")
        first = self.peek()
        self.depth += 1
        try:
            return parse(self, *args)
        except ParseError:
            raise
        except ValueError as exc:
            raise ParseError(str(exc), first.line, first.column) from exc
        finally:
            self.depth -= 1

    return method


def tokenize(text: str, line: int = 1, col: int = 1) -> list[Token]:
    """The tokens of ``text``, positioned as if it started at ``line``:``col``."""
    toks: list[Token] = []
    i = 0
    while i < len(text):
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            col += 1
            i += 1
            continue
        if c == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if c.isalpha() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Token("name", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if c.isdigit() or (c == "-" and i + 1 < len(text) and text[i + 1].isdigit()):
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            toks.append(Token("int", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if c in _PUNCT:
            toks.append(Token(c, c, line, start_col))
            col += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    toks.append(Token("eof", "", line, col))
    return toks


class _Parser:
    def __init__(self, text: str, signature: Signature | None, line: int = 1, column: int = 1):
        self.toks = tokenize(text, line, column)
        self.pos = 0
        self.depth = 0
        self.sig = signature

    # -- plumbing

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str) -> Token:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(f"expected {kind!r}, found {t.text!r}", t.line, t.column)
        return self.next()

    def error(self, msg: str) -> ParseError:
        t = self.peek()
        return ParseError(msg, t.line, t.column)

    def at_name(self, *names: str) -> bool:
        t = self.peek()
        return t.kind == "name" and t.text in names

    def integer(self, t: Token, digits: str) -> int:
        try:
            return int(digits)
        except ValueError:  # past Python's limit on digits per int
            raise ParseError(f"number too long ({len(digits)} digits)", t.line, t.column) from None

    def whole(self, parse, *args):
        """``parse(*args)``, which must use up the input."""
        out = parse(*args)
        t = self.peek()
        if t.kind != "eof":
            raise ParseError(f"trailing input {t.text!r}", t.line, t.column)
        return out

    def items(self, parse, *args) -> tuple:
        """``parse(*args)`` repeated, separated by commas."""
        out = [parse(*args)]
        while self.peek().kind == ",":
            self.next()
            out.append(parse(*args))
        return tuple(out)

    # -- scalars

    def rational(self) -> Fraction:
        t = self.expect("int")
        num = self.integer(t, t.text)
        if self.peek().kind == "/":
            self.next()
            d = self.expect("int")
            den = self.integer(d, d.text)
            if den == 0:
                raise ParseError("zero denominator", t.line, t.column)
            return Fraction(num, den)
        return Fraction(num)

    def vec(self) -> Vec:
        self.expect("(")
        if self.peek().kind == ")":
            self.next()
            return ()
        out = self.items(self.rational)
        self.expect(")")
        return out

    def point(self) -> tuple[Fraction, Fraction]:
        self.expect("(")
        x = self.rational()
        self.expect(",")
        y = self.rational()
        self.expect(")")
        return x, y

    # -- moduli

    @_nested
    def modulus(self, expected_arity: int | None = None) -> Modulus:
        t = self.expect("name")
        if t.text == "linear":
            self.expect("(")
            coeffs = self.items(self.rational)
            self.expect(")")
            return Linear(coeffs)
        if t.text == "capped":
            self.expect("(")
            cap = self.rational()
            self.expect(";")
            coeffs = self.items(self.rational)
            self.expect(")")
            return CappedLinear(cap, coeffs)
        if t.text == "pwl":
            self.expect("(")
            bps = self.items(self.point)
            coeffs = (Fraction(1),)
            if self.peek().kind == ";":
                self.next()
                coeffs = self.items(self.rational)
            self.expect(")")
            return PiecewiseConcave(bps, coeffs)
        if t.text == "zero":
            if self.peek().kind == "(":
                self.next()
                nt = self.expect("int")
                n = self.integer(nt, nt.text)
                self.expect(")")
                return Zero(n)
            if expected_arity is None:
                raise ParseError(
                    "bare 'zero' needs an arity context; write zero(n)",
                    t.line,
                    t.column,
                )
            return Zero(expected_arity)
        if t.text == "maxof":
            self.expect("(")
            ops = self.items(self.modulus, expected_arity)
            self.expect(")")
            return MaxOf(ops)
        if t.text == "polymax":
            self.expect("(")
            rows = self.items(self.vec)
            self.expect(")")
            return PolyhedralMax(rows)
        if t.text == "compose":
            self.expect("(")
            outer = self.modulus()
            self.expect(";")
            inners = self.items(self.modulus, expected_arity)
            self.expect(")")
            return Compose(outer, inners)
        raise ParseError(f"unknown modulus form {t.text!r}", t.line, t.column)

    # -- terms

    def applied(self, kind: str, name: Token) -> tuple[Term, ...]:
        """The parenthesized arguments of relation or function ``name``.  With
        a signature, the symbol and its arity are checked at ``name``."""
        sym = None
        if self.sig is not None:
            lookup = self.sig.relation if kind == "relation" else self.sig.function
            try:
                sym = lookup(name.text)
            except KeyError as exc:
                raise ParseError(exc.args[0], name.line, name.column) from None
        self.expect("(")
        args = self.items(self.term)
        self.expect(")")
        if sym is not None and len(args) != sym.arity:
            raise ParseError(
                f"{kind} {sym.name} expects {sym.arity} arguments, got {len(args)}",
                name.line,
                name.column,
            )
        return args

    @_nested
    def term(self) -> Term:
        t = self.expect("name")
        if t.text.startswith("v") and t.text[1:].isdigit():
            return Var(self.integer(t, t.text[1:]))
        if self.peek().kind == "(":
            return Apply(t.text, self.applied("function", t))
        if self.sig is not None and not self.sig.is_constant(t.text):
            raise ParseError(f"unknown constant {t.text!r}", t.line, t.column)
        return ConstTerm(t.text)

    # -- formulas

    @_nested
    def formula(self) -> Formula:
        if self.at_name("sup", "inf"):
            kw = self.next()
            v = self.expect("name")
            if not (v.text.startswith("v") and v.text[1:].isdigit()):
                raise ParseError(f"expected a variable, found {v.text!r}", v.line, v.column)
            self.expect(".")
            cls = Sup if kw.text == "sup" else Inf
            return cls(self.integer(v, v.text[1:]), self.formula())
        if self.at_name("latmin", "latmax"):
            kw = self.next()
            self.expect("(")
            items = self.items(self.formula)
            self.expect(")")
            return (MinF if kw.text == "latmin" else MaxF)(items)
        if self.at_name("const"):
            self.next()
            self.expect("(")
            q = self.rational()
            self.expect(")")
            return ConstF(q)
        if self.at_name("pwl"):
            self.next()
            self.expect("(")
            bps = self.items(self.point)
            self.expect(";")
            arg = self.formula()
            self.expect(")")
            return PwlF(bps, arg)
        if self.at_name("seg"):
            self.next()
            self.expect("(")
            delta = self.modulus()
            self.expect(";")
            x = self.vec()
            self.expect(";")
            y = self.vec()
            self.expect(";")
            a = self.rational()
            self.expect(";")
            b = self.rational()
            self.expect(";")
            args = self.items(self.formula)
            self.expect(")")
            return SegF(make_segment(delta, x, y, a, b), args)
        name = self.expect("name")
        return Atomic(name.text, self.applied("relation", name))


def parse_formula(text: str, signature: Signature | None = None) -> Formula:
    """Parse a formula.  With a signature, each relation, function and
    constant symbol, and each arity, is checked where it occurs.  Every
    error is a ParseError at the line:column of the token that shows it."""
    p = _Parser(text, signature)
    return p.whole(p.formula)


def parse_term(text: str) -> Term:
    p = _Parser(text, None)
    return p.whole(p.term)


def parse_formula_file(text: str, signature: Signature | None = None) -> Formula:
    """Parse a formula file: either bare formula text, or a header followed
    by a ``[formula]`` section.

    The header may hold a ``mscott/1`` line and then one ``[signature]``
    block of ``rel``/``fun``/``const`` lines, as in a ``.ms`` file; ``#``
    starts a comment.  A header block must agree with the ambient signature
    when one is supplied (it re-declares the symbols the formula relies
    on); without one, the body is checked against the header's block.
    Errors carry the line:column of the file itself."""
    head, marker, body = text.partition("[formula]")
    if not marker:
        return parse_formula(text, signature)
    lines = []
    for no, raw in enumerate(head.split("\n"), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if line.strip():
            lines.append((no, line))
    if lines and lines[0][1].strip() == "mscott/1":
        del lines[0]
    if lines:
        no, line = lines[0]
        col = len(line) - len(line.lstrip()) + 1
        if line.strip() != "[signature]":
            raise ParseError("expected 'mscott/1' or '[signature]' before [formula]", no, col)
        symbols = parse_declarations(lines[1:])
        try:
            declared = Signature(*symbols)
        except ValueError as exc:
            raise ParseError(str(exc), no, col) from exc
        if signature is None:
            signature = declared
        elif declared != signature:
            raise ParseError(
                "formula file signature does not match the structure's signature", no, col
            )
    before = head.rsplit("\n", 1)[-1]
    p = _Parser(body, signature, head.count("\n") + 1, len(before) + len(marker) + 1)
    return p.whole(p.formula)


def parse_modulus(text: str, expected_arity: int | None = None) -> Modulus:
    p = _Parser(text, None)
    return p.whole(p.modulus, expected_arity)


def parse_declarations(
    lines: Iterable[tuple[int, str]],
) -> tuple[tuple[RelationSymbol, ...], tuple[FunctionSymbol, ...], tuple[str, ...]]:
    """The symbols of a ``[signature]`` block, from (line number, text) pairs
    of the form ``rel NAME ARITY MOD``, ``fun NAME ARITY MOD`` or
    ``const NAME``.  A ParseError names the line and, for a bad modulus,
    the column of the offending token within the line."""
    relations: list[RelationSymbol] = []
    functions: list[FunctionSymbol] = []
    constants: list[str] = []
    for no, text in lines:
        col = len(text) - len(text.lstrip()) + 1
        w = text.split(None, 3)
        if w[0] in ("rel", "fun") and len(w) == 4:
            try:
                arity = int(w[2])
            except ValueError:
                raise ParseError(f"bad arity {w[2]!r}", no, col) from None
            col = len(text) - len(w[3]) + 1
            try:
                m = parse_modulus(w[3], expected_arity=arity)
            except ParseError as exc:
                raise ParseError(f"bad modulus: {exc.message}", no, col + exc.column - 1) from exc
            if m.arity != arity:
                raise ParseError(
                    f"modulus arity {m.arity} does not match symbol arity {arity}", no, col
                )
            if w[0] == "rel":
                relations.append(RelationSymbol(w[1], arity, m))
            else:
                functions.append(FunctionSymbol(w[1], arity, m))
        elif w[0] == "const" and len(w) == 2:
            constants.append(w[1])
        else:
            raise ParseError(
                "expected 'rel NAME ARITY MOD', 'fun NAME ARITY MOD' or 'const NAME'", no, col
            )
    return tuple(relations), tuple(functions), tuple(constants)


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------


def print_modulus(m: Modulus) -> str:
    if isinstance(m, Linear):
        return "linear(" + ",".join(map(format_rational, m.coeffs)) + ")"
    if isinstance(m, CappedLinear):
        return (
            "capped("
            + format_rational(m.cap)
            + "; "
            + ",".join(map(format_rational, m.coeffs))
            + ")"
        )
    if isinstance(m, PiecewiseConcave):
        bps = ",".join(
            f"({format_rational(x)},{format_rational(y)})" for x, y in m.breakpoints
        )
        if m.coeffs == (Fraction(1),):
            return f"pwl({bps})"
        return f"pwl({bps}; " + ",".join(map(format_rational, m.coeffs)) + ")"
    if isinstance(m, Zero):
        return f"zero({m.arity})"
    if isinstance(m, MaxOf):
        return "maxof(" + ", ".join(print_modulus(op) for op in m.operands) + ")"
    if isinstance(m, PolyhedralMax):
        rows = ",".join(
            "(" + ",".join(map(format_rational, row)) + ")" for row in m.rows
        )
        return f"polymax({rows})"
    if isinstance(m, Compose):
        return (
            "compose("
            + print_modulus(m.outer)
            + "; "
            + ", ".join(print_modulus(i) for i in m.inners)
            + ")"
        )
    if isinstance(m, EnvelopeTable):
        raise ValueError("tabulated envelopes have no DSL form; print their table")
    raise TypeError(type(m))


def print_term(t: Term) -> str:
    if isinstance(t, Var):
        return f"v{t.index}"
    if isinstance(t, ConstTerm):
        return t.name
    return t.function + "(" + ", ".join(print_term(a) for a in t.args) + ")"


def _print_vec(v: Vec) -> str:
    return "(" + ",".join(map(format_rational, v)) + ")"


def print_formula(phi: Formula) -> str:
    if isinstance(phi, Atomic):
        return phi.relation + "(" + ", ".join(print_term(t) for t in phi.args) + ")"
    if isinstance(phi, ConstF):
        return f"const({format_rational(phi.value)})"
    if isinstance(phi, MinF):
        return "latmin(" + ", ".join(print_formula(f) for f in phi.items) + ")"
    if isinstance(phi, MaxF):
        return "latmax(" + ", ".join(print_formula(f) for f in phi.items) + ")"
    if isinstance(phi, PwlF):
        bps = ",".join(
            f"({format_rational(x)},{format_rational(y)})" for x, y in phi.breakpoints
        )
        return f"pwl({bps}; {print_formula(phi.arg)})"
    if isinstance(phi, SegF):
        s = phi.segment
        return (
            "seg("
            + print_modulus(s.delta)
            + "; "
            + _print_vec(s.x)
            + "; "
            + _print_vec(s.y)
            + "; "
            + format_rational(s.a)
            + "; "
            + format_rational(s.b)
            + "; "
            + ", ".join(print_formula(f) for f in phi.args)
            + ")"
        )
    if isinstance(phi, Sup):
        return f"sup v{phi.var} . {print_formula(phi.body)}"
    if isinstance(phi, Inf):
        return f"inf v{phi.var} . {print_formula(phi.body)}"
    raise TypeError(type(phi))
