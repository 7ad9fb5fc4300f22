"""Parser for the cooperative active-object language (.abs files).

Statement forms::

    x = new C(e);  x = new local C(e);  x = new "node1" C(e);
    x = e!m(e);    x = e.m(e);          x = y.get;
    await f?;      await x > 1 && g?;   suspend;
    if (e) { .. } else { .. };          return e
"""

from __future__ import annotations

from .ast_abs import (
    AAssign,
    AAsync,
    AAwait,
    AbsClass,
    AbsMethod,
    AbsProgram,
    AGet,
    AIf,
    ANew,
    AReturn,
    aseq,
    ASkip,
    ASuspend,
    ASync,
    GAnd,
    GBool,
    GFut,
)
from .ast_expr import Var
from .parser_base import ParserBase


class AbsParser(ParserBase):
    Program, Skip, Return, If, Assign = AbsProgram, ASkip, AReturn, AIf, AAssign
    seq = staticmethod(aseq)

    def class_decl(self) -> AbsClass:
        pos = self.expect("class").pos
        name = self.expect("IDENT").text
        self.expect("(")
        fields = () if self.at(")") else self.ident_list()
        self.expect(")")
        self.expect("{")
        methods = []
        while self.at("method"):
            methods.append(self.method_decl())
        self.expect("}")
        return AbsClass(name, fields, tuple(methods), pos=pos)

    def method_decl(self) -> AbsMethod:
        pos = self.expect("method").pos
        name = self.expect("IDENT").text
        self.expect("(")
        params = () if self.at(")") else self.ident_list()
        self.expect(")")
        locals_, body = self.block()
        return AbsMethod(name, params, locals_, body, pos=pos)

    def own_stmt(self, t):
        if t.kind == "suspend":
            self.advance()
            return ASuspend(pos=t.pos)
        if t.kind == "await":
            self.advance()
            return AAwait(self.guard(), pos=t.pos)
        return None

    def guard(self):
        g = self.guard_term()
        while self.accept("&&"):
            g = GAnd(g, self.guard_term())
        return g

    def guard_term(self):
        pos = self.cur.pos
        e = self.expr_no_bool()
        if self.accept("?"):
            if not isinstance(e, Var):
                self.fail("future guard applies to a variable")
            return GFut(e.name, pos=pos)
        return GBool(e, pos=pos)

    def rhs(self):
        t = self.cur
        if t.kind == "new":
            self.advance()
            local = bool(self.accept("local"))
            node = None
            if self.at("STRING"):
                node = self.advance().text
            cls = self.expect("IDENT").text
            self.expect("(")
            args = () if self.at(")") else self.expr_list()
            self.expect(")")
            return ANew(cls, tuple(args), local, node, pos=t.pos)
        e = self.expr()
        if self.accept("!"):
            method = self.expect("IDENT").text
            self.expect("(")
            args = () if self.at(")") else self.expr_list()
            self.expect(")")
            return AAsync(e, method, tuple(args), pos=t.pos)
        if self.at(".") and self.peek().kind == "IDENT":
            if self.peek().text == "get" and self.peek(2).kind != "(":
                self.advance()
                self.advance()
                return AGet(e, pos=t.pos)
            if self.peek(2).kind == "(":
                self.advance()
                method = self.advance().text
                if method == "get":
                    self.fail("get takes no arguments")
                self.expect("(")
                args = () if self.at(")") else self.expr_list()
                self.expect(")")
                return ASync(e, method, tuple(args), pos=t.pos)
        return e

    def expr_list(self):
        args = [self.expr()]
        while self.accept(","):
            args.append(self.expr())
        return args


def parse_abs(text: str, filename: str = "<input>") -> AbsProgram:
    return AbsParser(text, filename).program()
