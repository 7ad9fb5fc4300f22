"""Parser for the multi-active object language (.masp files).

Shape of a program::

    class C(f1, f2) {
      policy {
        group g selfcompatible min 0 max 2;
        compatible g h;
        threads pool 2 soft;
        priority g > h k;
      }
      method m(x, rest...) group g {
        vars u, v;
        u = x + 1;
        return u
      }
    }
    {
      vars x;
      x = newActive C(1, 2)
    }
"""

from __future__ import annotations

from .ast_masp import (
    GroupDecl,
    GroupPolicy,
    MAssign,
    MaspClass,
    MaspMethod,
    MaspProgram,
    MIf,
    MInvoke,
    MNew,
    MNewActive,
    MReturn,
    MSetLimit,
    MSkip,
    mseq,
)
from .parser_base import ParserBase


class MaspParser(ParserBase):
    Program, Skip, Return, If, Assign = MaspProgram, MSkip, MReturn, MIf, MAssign
    seq = staticmethod(mseq)

    def class_decl(self) -> MaspClass:
        pos = self.expect("class").pos
        name = self.expect("IDENT").text
        self.expect("(")
        fields = () if self.at(")") else self.ident_list()
        self.expect(")")
        self.expect("{")
        policy = self.policy_block() if self.at("policy") else None
        methods = []
        while self.at("method"):
            methods.append(self.method_decl())
        self.expect("}")
        return MaspClass(name, fields, tuple(methods), policy, pos=pos)

    def policy_block(self) -> GroupPolicy:
        self.expect("policy")
        self.expect("{")
        groups, pairs, levels = [], set(), []
        pool, hard = None, False
        while not self.at("}"):
            if self.accept("group"):
                gpos = self.cur.pos
                gname = self.expect("IDENT").text
                selfc, mn, mx = False, 0, None
                while self.at("selfcompatible", "min", "max"):
                    t = self.advance()
                    if t.kind == "selfcompatible":
                        selfc = True
                    elif t.kind == "min":
                        mn = int(self.expect("INT").text)
                    else:
                        mx = self.count_or_inf()
                groups.append(GroupDecl(gname, selfc, mn, mx, pos=gpos))
            elif self.accept("compatible"):
                a = self.expect("IDENT").text
                b = self.expect("IDENT").text
                pairs.add(frozenset((a, b)))
            elif self.accept("threads"):
                while self.at("pool", "soft", "hard"):
                    t = self.advance()
                    if t.kind == "pool":
                        pool = self.count_or_inf()
                    else:
                        hard = t.kind == "hard"
            elif self.accept("priority"):
                level = [self.expect("IDENT").text]
                while self.at("IDENT"):
                    level.append(self.advance().text)
                lvls = [tuple(level)]
                while self.accept(">"):
                    level = [self.expect("IDENT").text]
                    while self.at("IDENT"):
                        level.append(self.advance().text)
                    lvls.append(tuple(level))
                levels.extend(lvls)
            else:
                self.fail("expected policy item")
            self.expect(";")
        self.expect("}")
        return GroupPolicy(
            tuple(groups), frozenset(pairs), pool, hard, tuple(levels)
        )

    def count_or_inf(self):
        if self.accept("inf"):
            return None
        return int(self.expect("INT").text)

    def method_decl(self) -> MaspMethod:
        pos = self.expect("method").pos
        name = self.expect("IDENT").text
        self.expect("(")
        params, vararg = self.param_list()
        self.expect(")")
        group = None
        if self.accept("group"):
            group = self.expect("IDENT").text
        locals_, body = self.block()
        return MaspMethod(name, params, locals_, body, group, vararg, pos=pos)

    def param_list(self):
        params, vararg = [], None
        while self.at("IDENT"):
            name = self.advance().text
            if self.accept("..."):
                vararg = name
                break
            params.append(name)
            if not self.accept(","):
                break
        return tuple(params), vararg

    def own_stmt(self, t):
        if t.kind in ("setLimitSoft", "setLimitHard"):
            self.advance()
            return MSetLimit("H" if t.kind == "setLimitHard" else "S", pos=t.pos)
        return None

    def rhs(self):
        t = self.cur
        if t.kind == "new":
            self.advance()
            cls = self.expect("IDENT").text
            args, vararg = self.call_args()
            if vararg:
                self.fail("constructors take no rest-argument")
            return MNew(cls, args, pos=t.pos)
        if t.kind == "newActive":
            self.advance()
            cls = self.expect("IDENT").text
            args, vararg = self.call_args()
            if vararg:
                self.fail("constructors take no rest-argument")
            return MNewActive(cls, args, pos=t.pos)
        e = self.expr()
        if self.at(".") and self._call_follows():
            self.advance()
            method, method_var = None, None
            if self.accept("("):
                method_var = self.expect("IDENT").text
                self.expect(")")
            else:
                method = self.expect("IDENT").text
            args, vararg = self.call_args()
            return MInvoke(e, method, method_var, args, vararg, pos=t.pos)
        return e

    def _call_follows(self) -> bool:
        # after ".": either m(...) or (mvar)(...)
        nxt = self.peek()
        if nxt.kind == "IDENT":
            return self.peek(2).kind == "("
        return nxt.kind == "("

    def call_args(self):
        self.expect("(")
        args, vararg = [], None
        while not self.at(")"):
            if (
                self.at("IDENT")
                and self.peek().kind == "..."
            ):
                vararg = self.advance().text
                self.advance()
                break
            args.append(self.expr())
            if not self.accept(","):
                break
        self.expect(")")
        return tuple(args), vararg


def parse_masp(text: str, filename: str = "<input>") -> MaspProgram:
    """Parse source text into a program (sequence normal form by construction)."""
    return MaspParser(text, filename).program()
