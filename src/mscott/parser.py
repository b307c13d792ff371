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
from typing import Sequence

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
    Inf,
    MaxF,
    MinF,
    PwlF,
    SegF,
    Signature,
    Sup,
    Term,
    Var,
    validate_formula,
)


MAX_DEPTH = 100  # syntax-tree levels; keeps every recursive walk of a parsed
# formula (validation, evaluation, printing) well inside Python's stack


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
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
    """Count one syntax-tree level around a recursive parse method."""

    def method(self, *args):
        if self.depth == MAX_DEPTH:
            raise self.error(f"nesting deeper than {MAX_DEPTH} levels")
        self.depth += 1
        try:
            return parse(self, *args)
        finally:
            self.depth -= 1

    return method


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    line, col = 1, 1
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
    def __init__(self, text: str, signature: Signature | None):
        self.toks = tokenize(text)
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

    def rational_list(self) -> list[Fraction]:
        out = [self.rational()]
        while self.peek().kind == ",":
            self.next()
            out.append(self.rational())
        return out

    def vec(self) -> Vec:
        self.expect("(")
        if self.peek().kind == ")":
            self.next()
            return ()
        out = self.rational_list()
        self.expect(")")
        return tuple(out)

    def point_list(self) -> tuple[tuple[Fraction, Fraction], ...]:
        pts = []
        while True:
            self.expect("(")
            x = self.rational()
            self.expect(",")
            y = self.rational()
            self.expect(")")
            pts.append((x, y))
            if self.peek().kind == ",":
                self.next()
                continue
            break
        return tuple(pts)

    # -- moduli

    @_nested
    def modulus(self, expected_arity: int | None = None) -> Modulus:
        t = self.expect("name")
        try:
            if t.text == "linear":
                self.expect("(")
                coeffs = self.rational_list()
                self.expect(")")
                return Linear(tuple(coeffs))
            if t.text == "capped":
                self.expect("(")
                cap = self.rational()
                self.expect(";")
                coeffs = self.rational_list()
                self.expect(")")
                return CappedLinear(cap, tuple(coeffs))
            if t.text == "pwl":
                self.expect("(")
                bps = self.point_list()
                coeffs: Sequence[Fraction] = (Fraction(1),)
                if self.peek().kind == ";":
                    self.next()
                    coeffs = self.rational_list()
                self.expect(")")
                return PiecewiseConcave(bps, tuple(coeffs))
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
                ops = [self.modulus(expected_arity)]
                while self.peek().kind == ",":
                    self.next()
                    ops.append(self.modulus(expected_arity))
                self.expect(")")
                return MaxOf(tuple(ops))
            if t.text == "polymax":
                self.expect("(")
                rows = [self.vec()]
                while self.peek().kind == ",":
                    self.next()
                    rows.append(self.vec())
                self.expect(")")
                return PolyhedralMax(tuple(rows))
            if t.text == "compose":
                self.expect("(")
                outer = self.modulus()
                self.expect(";")
                inners = [self.modulus(expected_arity)]
                while self.peek().kind == ",":
                    self.next()
                    inners.append(self.modulus(expected_arity))
                self.expect(")")
                return Compose(outer, tuple(inners))
        except ValueError as exc:
            if isinstance(exc, ParseError):
                raise
            raise ParseError(str(exc), t.line, t.column) from exc
        raise ParseError(f"unknown modulus form {t.text!r}", t.line, t.column)

    # -- terms

    @_nested
    def term(self) -> Term:
        t = self.expect("name")
        span = (t.line, t.column)
        if t.text.startswith("v") and t.text[1:].isdigit():
            return Var(self.integer(t, t.text[1:]), span=span)
        if self.peek().kind == "(":
            self.next()
            args = [self.term()]
            while self.peek().kind == ",":
                self.next()
                args.append(self.term())
            self.expect(")")
            return Apply(t.text, tuple(args), span=span)
        return ConstTerm(t.text, span=span)

    # -- formulas

    @_nested
    def formula(self) -> Formula:
        t = self.peek()
        span = (t.line, t.column)
        if self.at_name("sup", "inf"):
            kw = self.next()
            v = self.expect("name")
            if not (v.text.startswith("v") and v.text[1:].isdigit()):
                raise ParseError(f"expected a variable, found {v.text!r}", v.line, v.column)
            self.expect(".")
            body = self.formula()
            cls = Sup if kw.text == "sup" else Inf
            return cls(self.integer(v, v.text[1:]), body, span=span)
        if self.at_name("latmin", "latmax"):
            kw = self.next()
            self.expect("(")
            items = [self.formula()]
            while self.peek().kind == ",":
                self.next()
                items.append(self.formula())
            self.expect(")")
            cls = MinF if kw.text == "latmin" else MaxF
            return cls(tuple(items), span=span)
        if self.at_name("const"):
            self.next()
            self.expect("(")
            q = self.rational()
            self.expect(")")
            try:
                return ConstF(q, span=span)
            except ValueError as exc:
                raise ParseError(str(exc), t.line, t.column) from exc
        if self.at_name("pwl"):
            self.next()
            self.expect("(")
            bps = self.point_list()
            self.expect(";")
            arg = self.formula()
            self.expect(")")
            try:
                return PwlF(bps, arg, span=span)
            except ValueError as exc:
                raise ParseError(str(exc), t.line, t.column) from exc
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
            args = [self.formula()]
            while self.peek().kind == ",":
                self.next()
                args.append(self.formula())
            self.expect(")")
            try:
                seg = make_segment(delta, x, y, a, b)
                return SegF(seg, tuple(args), span=span)
            except ValueError as exc:
                raise ParseError(str(exc), t.line, t.column) from exc
        # atomic
        name = self.expect("name")
        self.expect("(")
        args = [self.term()]
        while self.peek().kind == ",":
            self.next()
            args.append(self.term())
        self.expect(")")
        return Atomic(name.text, tuple(args), span=span)


def parse_formula(text: str, signature: Signature | None = None) -> Formula:
    """Parse a formula; when a signature is given, symbols and arities are
    checked and errors carry source positions."""
    p = _Parser(text, signature)
    phi = p.formula()
    eof = p.peek()
    if eof.kind != "eof":
        raise ParseError(f"trailing input {eof.text!r}", eof.line, eof.column)
    if signature is not None:
        try:
            validate_formula(phi, signature)
        except (ValueError, KeyError) as exc:
            msg = str(exc).strip("'\"")
            raise ParseError(msg, 1, 1) from exc
    return phi


def parse_term(text: str) -> Term:
    p = _Parser(text, None)
    t = p.term()
    eof = p.peek()
    if eof.kind != "eof":
        raise ParseError(f"trailing input {eof.text!r}", eof.line, eof.column)
    return t


def parse_formula_file(text: str, signature: Signature | None = None) -> Formula:
    """Parse a formula file: either bare formula text, or a ``[signature]``
    header block followed by a ``[formula]`` section.

    A header block must agree with the ambient signature when one is
    supplied (it re-declares the symbols the formula relies on)."""
    if "[formula]" not in text:
        return parse_formula(text, signature)
    from .structures import StructureFormatError, parse_structure  # deferred; structures imports us

    head, _, body = text.partition("[formula]")
    if "[signature]" in head:
        shim = head.strip() + "\n[points]\n_p\n[metric]\n"
        if not shim.startswith("mscott/"):
            shim = "mscott/1\n" + shim
        try:
            declared = parse_structure(shim).signature
        except StructureFormatError as exc:
            raise ParseError(f"formula file signature: {exc}", 1, 1) from exc
        if signature is not None and declared != signature:
            raise ParseError(
                "formula file signature does not match the structure's signature", 1, 1
            )
    return parse_formula(body.strip(), signature)


def parse_modulus(text: str, expected_arity: int | None = None) -> Modulus:
    p = _Parser(text, None)
    m = p.modulus(expected_arity)
    eof = p.peek()
    if eof.kind != "eof":
        raise ParseError(f"trailing input {eof.text!r}", eof.line, eof.column)
    return m


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
