"""Parsers, printers and well-formedness."""

import random

import pytest

from genprog import gen_abs_program, gen_masp_program
from multiactive.diagnostics import ParseError
from multiactive.lang import (
    check_wellformed,
    parse_abs,
    parse_masp,
    pretty_abs,
    pretty_masp,
)
from multiactive.lang.ast_abs import AAwait, GAnd, GFut, anormalize, aseq_list
from multiactive.lang.ast_masp import MSeq, MSkip, mnormalize, mseq_list

from conftest import load_masp


def test_minimal_program():
    p = parse_masp("class C(){ } { vars x; x = 1 }")
    assert len(p.classes) == 1
    assert p.main_locals == ("x",)


def test_undefined_class_diagnostic():
    p = parse_masp("{ vars x; x = new C() }")
    diags = check_wellformed(p)
    assert len(diags) == 1
    assert "undefined class C" in diags[0].message


def test_undeclared_variable_diagnostic():
    p = parse_masp("class C(){ method m() { y = 1; return null } } { }")
    diags = check_wellformed(p)
    assert any("undeclared variable y" in d.message for d in diags)


def test_method_in_undeclared_group():
    p = parse_masp("class C(){ method m() group nope { return null } } { }")
    diags = check_wellformed(p)
    assert any("undeclared group nope" in d.message for d in diags)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_masp("class C( { }")
    assert err.value.pos.line == 1
    assert err.value.pos.col > 1


def test_masp_round_trip_random():
    rng = random.Random(1234)
    for _ in range(200):
        p = gen_masp_program(rng)
        text = pretty_masp(p)
        assert parse_masp(text) == p, text


def test_abs_round_trip_random():
    rng = random.Random(4321)
    for _ in range(200):
        p = gen_abs_program(rng)
        text = pretty_abs(p)
        assert parse_abs(text) == p, text


def test_sequence_normalization_idempotent():
    rng = random.Random(7)
    for _ in range(100):
        p = gen_masp_program(rng)
        body = p.main_body
        once = mnormalize(body)
        assert mnormalize(once) == once
        # normalization preserves the statement sequence
        assert mseq_list(once) == mseq_list(body)
    for _ in range(100):
        p = gen_abs_program(rng)
        once = anormalize(p.main_body)
        assert anormalize(once) == once


def test_deep_seq_right_association():
    from multiactive.lang.ast_masp import MAssign, mnormalize
    from multiactive.lang.ast_expr import Lit

    left_heavy = MSeq(MSeq(MAssign("x", Lit(1)), MAssign("x", Lit(2))), MSkip())
    norm = mnormalize(left_heavy)
    assert isinstance(norm, MSeq)
    assert not isinstance(norm.first, MSeq)
    assert [type(s).__name__ for s in mseq_list(norm)] == [
        "MAssign",
        "MAssign",
        "MSkip",
    ]


def test_wellformed_stable_under_round_trip():
    rng = random.Random(99)
    for _ in range(60):
        p = gen_masp_program(rng)
        before = [d.message for d in check_wellformed(p)]
        after = [d.message for d in check_wellformed(parse_masp(pretty_masp(p)))]
        assert before == after


def test_bank_main_has_eight_statements(bank):
    assert len(aseq_list(bank.main_body)) == 8


def test_await_future_guard(bank):
    awaits = [s for s in aseq_list(bank.main_body) if isinstance(s, AAwait)]
    assert awaits and isinstance(awaits[0].guard, GFut)
    assert awaits[0].guard.var == "bfut"


def test_await_conjunction_parses():
    p = parse_abs("{ vars a, b; await a? && b? }")
    (await_stmt,) = aseq_list(p.main_body)
    g = await_stmt.guard
    assert isinstance(g, GAnd)
    assert isinstance(g.left, GFut) and isinstance(g.right, GFut)


def test_unicode_conjunction_accepted():
    p = parse_abs("{ vars a, b; await a? ∧ b? }")
    (await_stmt,) = aseq_list(p.main_body)
    assert isinstance(await_stmt.guard, GAnd)


def test_node_annotation_is_opaque():
    p = parse_abs('{ vars s; s = new "mynode" Server() }')
    stmt = aseq_list(p.main_body)[0]
    assert stmt.rhs.node == "mynode"
    # deployment is a no-op; the class reference is still checked
    assert any("undefined class" in d.message for d in check_wellformed(p))


def test_peer_policy_wellformed():
    p = load_masp("peer_policy.masp")
    assert check_wellformed(p) == []
    pol = p.classes[0].policy
    assert len(pol.groups) == 4
    assert len(pol.compatible_pairs) == 4
    broadcasting = pol.group("broadcasting")
    assert broadcasting is not None and not broadcasting.self_compatible


def test_policy_invariant_diagnostics():
    bad = """
class C() {
  policy {
    group g min 3 max 1;
    threads pool 2;
    priority h;
  }
}
{ }
"""
    msgs = [d.message for d in check_wellformed(parse_masp(bad))]
    assert any("max below min" in m for m in msgs)
    assert any("reserved threads exceed pool" in m for m in msgs)
    assert any("unknown group h" in m for m in msgs)


def test_reserved_names_abs():
    p = parse_abs("class C(cog) { } { }")
    assert any("reserved" in d.message for d in check_wellformed(p))
    p2 = parse_abs("{ vars destiny; destiny = 1 }")
    assert any("reserved" in d.message for d in check_wellformed(p2))


def test_constructor_arity_checked():
    p = parse_masp("class C(a, b){ } { vars x; x = new C(1) }")
    assert any("takes 2 arguments" in d.message for d in check_wellformed(p))


# Every role a name can play in a statement, in both languages: reads in
# expressions, an invoke's target and method variable, a rest-argument,
# future and boolean guards, assignment targets, and constructions of an
# undefined class or with the wrong arity. A block reports its reads,
# then its writes, then its rest-arguments, then its constructions.
ILL_FORMED_MASP = """
class C(a) {
  method m(p, rest...) {
    vars q;
    q = u.(mv)(p, w, z...);
    x = new D(1);
    q = newActive C(1, 2);
    if (k > 0) { r = 1 } else { q = rest.m(more...) };
    return t
  }
}
{ vars c; c = newActive E(); d = c.m(1, xs...); c = new C(); c = -n }
"""

ILL_FORMED_ABS = """
class A(x) {
  method m(p) {
    vars l;
    await g? && h > p && l?;
    w = new B(1);
    l = new local A();
    v = u!m(k);
    l = q.get;
    if (z) { l = o.m(j) } else { suspend };
    return y
  }
}
{ vars a; a = new A(1, 2); await b?; a = new "n" C(); c = a + e }
"""


def test_diagnostics_pinned_in_order():
    masp = [str(d) for d in check_wellformed(parse_masp(ILL_FORMED_MASP))]
    assert masp == [
        "<input>:5:9: undeclared variable u",
        "<input>:5:9: undeclared variable mv",
        "<input>:5:19: undeclared variable w",
        "<input>:8:9: undeclared variable k",
        "<input>:9:12: undeclared variable t",
        "<input>:6:5: undeclared variable x",
        "<input>:8:18: undeclared variable r",
        "<input>:5:9: z... is not the rest-parameter",
        "<input>:8:37: more... is not the rest-parameter",
        "<input>:6:9: undefined class D",
        "<input>:7:9: class C takes 1 arguments, got 2",
        "<input>:12:67: undeclared variable n",
        "<input>:12:30: undeclared variable d",
        "<input>:12:34: xs... is not the rest-parameter",
        "<input>:12:15: undefined class E",
        "<input>:12:53: class C takes 1 arguments, got 0",
    ]
    abs_ = [str(d) for d in check_wellformed(parse_abs(ILL_FORMED_ABS))]
    assert abs_ == [
        "<input>:5:11: undeclared variable g",
        "<input>:5:17: undeclared variable h",
        "<input>:8:9: undeclared variable u",
        "<input>:8:13: undeclared variable k",
        "<input>:9:9: undeclared variable q",
        "<input>:10:9: undeclared variable z",
        "<input>:10:18: undeclared variable o",
        "<input>:10:22: undeclared variable j",
        "<input>:11:12: undeclared variable y",
        "<input>:6:5: undeclared variable w",
        "<input>:8:5: undeclared variable v",
        "<input>:6:9: undefined class B",
        "<input>:7:9: class A takes 1 arguments, got 0",
        "<input>:14:34: undeclared variable b",
        "<input>:14:63: undeclared variable e",
        "<input>:14:55: undeclared variable c",
        "<input>:14:15: class A takes 1 arguments, got 2",
        "<input>:14:42: undefined class C",
    ]
