"""Parsers, printers and well-formedness."""

import dataclasses
import hashlib
import random

import pytest

from genprog import gen_abs_program, gen_masp_program, gen_runnable_abs, gen_runnable_masp
from multiactive import corpus_path
from multiactive.diagnostics import ParseError
from multiactive.lang import (
    check_wellformed,
    parse_abs,
    parse_masp,
    pretty_abs,
    pretty_masp,
)
from multiactive.lang.ast_abs import AAwait, AIf, ASeq, ASkip, GAnd, GFut, aseq_list
from multiactive.lang.ast_expr import normalize
from multiactive.lang.ast_masp import MIf, MSeq, MSkip, mseq_list

from multiactive.translate import TranslateError, translate_program

from conftest import ABS_CORPUS, MASP_CORPUS, load_masp


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
        once = normalize(body, MSeq, MSkip, MIf)
        assert normalize(once, MSeq, MSkip, MIf) == once
        # normalization preserves the statement sequence
        assert mseq_list(once) == mseq_list(body)
    for _ in range(100):
        p = gen_abs_program(rng)
        once = normalize(p.main_body, ASeq, ASkip, AIf)
        assert normalize(once, ASeq, ASkip, AIf) == once


def test_deep_seq_right_association():
    from multiactive.lang.ast_masp import MAssign
    from multiactive.lang.ast_expr import Lit

    left_heavy = MSeq(MSeq(MAssign("x", Lit(1)), MAssign("x", Lit(2))), MSkip())
    norm = normalize(left_heavy, MSeq, MSkip, MIf)
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


# -- the front end, pinned -----------------------------------------------------


def _tree(x) -> str:
    """A syntax tree written out in full: every field, ``pos`` and
    ``origin`` included, a frozenset's members in sorted order (so that
    ``GroupPolicy.compatible_pairs`` reads the same under any hash seed)."""
    if dataclasses.is_dataclass(x):
        inner = ", ".join(_tree(getattr(x, f.name)) for f in dataclasses.fields(x))
        return f"{type(x).__name__}({inner})"
    if isinstance(x, tuple):
        return "(" + ", ".join(map(_tree, x)) + ")"
    if isinstance(x, frozenset):
        return "{" + ", ".join(sorted(map(_tree, x))) + "}"
    return repr(x)


_FRONT_ENDS = {
    "masp": (parse_masp, pretty_masp, MASP_CORPUS, gen_masp_program, gen_runnable_masp),
    "abs": (parse_abs, pretty_abs, ABS_CORPUS, gen_abs_program, gen_runnable_abs),
}

# sha256 per part of `_front_end_parts`, per language
FRONT_END_PINS = {
    "masp": {
        "trees": "955a36e46f361cd36963d9d7ab40505fb32fe1e504e492f9d9bf9bfe4ec83fde",
        "text": "eeff33c606c53f30fb68d7474d36cb0549f2d437f4f1859d7a25588b6dfc0430",
        "diagnostics": "10cc3c382b13ad9246b74708d03528d294522c558727bd2ed4a242bfb7cf0c3f",
        "errors": "4a70f09c277862ac3ec1591dea74dee608541778a08db0765c35b97b39c7b58e",
    },
    "abs": {
        "trees": "3d92554dab86aeab90b4bb6ad0f6fc2666b93e0c7ecf3903a2ec2d04cc633c86",
        "text": "6b8dc11a98e5d996bd892d7e09cecf62224e8899c80dcefd9196924b89451eb5",
        "diagnostics": "4fea5e6a3ec5f5474a26d858bc77b6d7bd3ab864ea02d988683fdc648602b248",
        "errors": "333d1037db7ba20cf89863f6e768054433b774c7389958fce195404841708ac2",
        "translations": "679cbb6ce4c2e9232895b9327c61b6977c8bfeb437bf57855ef091488fc5a527",
    },
}


def _front_end_parts(lang: str) -> dict:
    """What the front end makes of the corpus and of 40 generated programs
    of each kind, each printed and read back: the parse trees with their
    positions, the printed text, the well-formedness diagnostics and (for
    ``.abs``) the translation, as a tree and printed, plus the parse error at every 7th
    character at which a corpus source is cut short."""
    parse, pretty, corpus, gen_rich, gen_runnable = _FRONT_ENDS[lang]
    sources = [(name, corpus_path(name).read_text()) for name in corpus]
    for gen in (gen_rich, gen_runnable):
        sources += [("<gen>", pretty(gen(random.Random(seed)))) for seed in range(40)]
    parts = {"trees": [], "text": [], "diagnostics": [], "errors": []}
    if lang == "abs":
        parts["translations"] = []
    for name, text in sources:
        p = parse(text, name)
        parts["trees"].append(_tree(p))
        parts["text"].append(pretty(p))
        diags = [str(d) for d in check_wellformed(p)]
        parts["diagnostics"].append("\n".join(diags))
        if lang == "abs" and not diags:
            try:
                t = translate_program(p)
                parts["translations"].append(_tree(t) + pretty_masp(t))
            except TranslateError as err:
                parts["translations"].append("\n".join(map(str, err.diagnostics)))
    for name, text in sources[: len(corpus)]:
        for cut in range(0, len(text), 7):
            try:
                parts["errors"].append(_tree(parse(text[:cut], name)))
            except ParseError as err:
                parts["errors"].append(str(err))
    return {
        k: hashlib.sha256("\0".join(v).encode()).hexdigest() for k, v in parts.items()
    }


@pytest.mark.parametrize("lang", sorted(_FRONT_ENDS))
def test_front_end_output_pinned(lang):
    assert _front_end_parts(lang) == FRONT_END_PINS[lang]
