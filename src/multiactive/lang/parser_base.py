"""What both parsers share: the token cursor, expressions, and programs,
blocks and the statements both languages write alike (``skip``,
``return``, ``if``, assignment). Each parser names its node classes and
its ``seq`` builder, and supplies ``class_decl``, ``rhs`` and
``own_stmt(token)``: its other statements, or None."""

from __future__ import annotations

from ..diagnostics import ParseError
from .ast_expr import Binop, Lit, MethodLit, This, Unop, Var
from .lexer import Token, tokenize

# binary operator precedence tiers, loosest first
_TIERS = [
    ("||",),
    ("&&",),
    ("==", "!=", "<", "<=", ">", ">="),
    ("+", "-"),
    ("*", "/"),
]


class ParserBase:
    Program = Skip = Return = If = Assign = seq = None  # set by each parser

    def __init__(self, text: str, filename: str = "<input>"):
        self.filename = filename
        self.toks = tokenize(text, filename)
        self.i = 0

    # -- cursor ------------------------------------------------------------

    @property
    def cur(self) -> Token:
        return self.toks[self.i]

    def peek(self, offset: int = 1) -> Token:
        j = min(self.i + offset, len(self.toks) - 1)
        return self.toks[j]

    def at(self, *kinds: str) -> bool:
        return self.cur.kind in kinds

    def advance(self) -> Token:
        t = self.cur
        if t.kind != "EOF":
            self.i += 1
        return t

    def accept(self, kind: str):
        if self.at(kind):
            return self.advance()
        return None

    def expect(self, kind: str) -> Token:
        if self.at(kind):
            return self.advance()
        raise ParseError(
            f"expected {kind!r}, found {self.cur.text or self.cur.kind!r}",
            self.cur.pos,
            self.filename,
        )

    def fail(self, message: str):
        raise ParseError(message, self.cur.pos, self.filename)

    # -- common pieces -----------------------------------------------------

    def ident_list(self) -> tuple:
        names = [self.expect("IDENT").text]
        while self.accept(","):
            names.append(self.expect("IDENT").text)
        return tuple(names)

    # -- programs and statements -------------------------------------------

    def program(self):
        classes = []
        while self.at("class"):
            classes.append(self.class_decl())
        locals_, body = self.block()
        self.expect("EOF")
        return self.Program(tuple(classes), locals_, body)

    def block(self):
        self.expect("{")
        locals_ = ()
        if self.accept("vars"):
            locals_ = self.ident_list()
            self.expect(";")
        body = self.stmt_seq()
        self.expect("}")
        return locals_, body

    def stmt_block(self):
        """A braced statement list without local declarations (if branches)."""
        self.expect("{")
        body = self.stmt_seq()
        self.expect("}")
        return body

    def stmt_seq(self):
        stmts = []
        while not self.at("}"):
            stmts.append(self.stmt())
            if not self.accept(";"):
                break
        return self.seq(stmts)

    def stmt(self):
        t = self.cur
        if t.kind == "skip":
            self.advance()
            return self.Skip(pos=t.pos)
        if t.kind == "return":
            self.advance()
            return self.Return(self.expr(), pos=t.pos)
        if t.kind == "if":
            self.advance()
            self.expect("(")
            cond = self.expr()
            self.expect(")")
            then = self.stmt_block()
            self.expect("else")
            els = self.stmt_block()
            return self.If(cond, then, els, pos=t.pos)
        if t.kind == "IDENT" and self.peek().kind == "=":
            target = self.advance().text
            self.expect("=")
            return self.Assign(target, self.rhs(), pos=t.pos)
        s = self.own_stmt(t)
        if s is None:
            self.fail(f"expected statement, found {t.text or t.kind!r}")
        return s

    # -- expressions -------------------------------------------------------

    def expr(self, tier: int = 0):
        if tier >= len(_TIERS):
            return self.unary()
        ops = _TIERS[tier]
        left = self.expr(tier + 1)
        while self.cur.kind in ops:
            op = self.advance()
            right = self.expr(tier + 1)
            left = Binop(op.kind, left, right, pos=op.pos)
        return left

    def expr_no_bool(self):
        """Expression above the `&&` tier (guard terms own conjunction)."""
        return self.expr(2)

    def unary(self):
        t = self.cur
        if t.kind in ("!", "-"):
            self.advance()
            operand = self.unary()
            if (
                t.kind == "-"
                and isinstance(operand, Lit)
                and isinstance(operand.value, int)
                and not isinstance(operand.value, bool)
            ):
                return Lit(-operand.value, pos=t.pos)
            return Unop(t.kind, operand, pos=t.pos)
        return self.atom()

    def atom(self):
        t = self.cur
        if t.kind == "INT":
            self.advance()
            return Lit(int(t.text), pos=t.pos)
        if t.kind == "true":
            self.advance()
            return Lit(True, pos=t.pos)
        if t.kind == "false":
            self.advance()
            return Lit(False, pos=t.pos)
        if t.kind == "null":
            self.advance()
            return Lit(None, pos=t.pos)
        if t.kind == "this":
            self.advance()
            return This(pos=t.pos)
        if t.kind == "IDENT":
            self.advance()
            return Var(t.text, pos=t.pos)
        if t.kind == "@":
            self.advance()
            name = self.expect("IDENT").text
            return MethodLit(name, pos=t.pos)
        if t.kind == "(":
            self.advance()
            e = self.expr()
            self.expect(")")
            return e
        self.fail(f"expected expression, found {t.text or t.kind!r}")
