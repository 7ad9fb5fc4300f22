"""Structural invariants as property-based tests."""

from hypothesis import given, settings, strategies as st

from multiactive.lang import parse_abs, parse_masp, pretty_abs, pretty_masp
from multiactive.lang.ast_expr import Binop, Lit, Unop, Var, normalize
from multiactive.lang.ast_masp import (
    MAssign,
    MaspProgram,
    MIf,
    MReturn,
    MSeq,
    MSkip,
    mseq,
    mseq_list,
)
from multiactive.lang.pretty import pp_expr

names = st.sampled_from(["x", "y", "z"])


def exprs(depth=3):
    base = st.one_of(
        st.integers(min_value=0, max_value=99).map(Lit),
        st.booleans().map(Lit),
        st.just(Lit(None)),
        names.map(Var),
    )
    return st.recursive(
        base,
        lambda sub: st.one_of(
            st.tuples(st.sampled_from(["+", "-", "*", "==", "!=", "<", "&&", "||"]), sub, sub).map(
                lambda t: Binop(*t)
            ),
            st.tuples(st.sampled_from(["!"]), sub).map(lambda t: Unop(*t)),
        ),
        max_leaves=8,
    )


simple_stmts = st.one_of(
    st.just(MSkip()),
    st.tuples(names, exprs()).map(lambda t: MAssign(*t)),
    exprs().map(MReturn),
)


@st.composite
def seq_trees(draw, depth=3):
    if depth == 0 or draw(st.booleans()):
        return draw(simple_stmts)
    return MSeq(draw(seq_trees(depth - 1)), draw(seq_trees(depth - 1)))


@given(exprs())
@settings(max_examples=200, deadline=None)
def test_expression_print_parse_round_trip(e):
    program = MaspProgram((), ("x", "y", "z"), mseq([MAssign("x", e)]))
    assert parse_masp(pretty_masp(program)) == program


@given(seq_trees())
@settings(max_examples=200, deadline=None)
def test_normalization_idempotent_and_order_preserving(tree):
    once = normalize(tree, MSeq, MSkip, MIf)
    assert normalize(once, MSeq, MSkip, MIf) == once
    assert mseq_list(once) == mseq_list(tree)
    # normal form: no sequence in head position anywhere
    node = once
    while isinstance(node, MSeq):
        assert not isinstance(node.first, MSeq)
        node = node.rest


@given(exprs())
@settings(max_examples=150, deadline=None)
def test_printed_expression_reparses_to_itself_in_abs(e):
    text = "{ vars x, y, z; x = " + pp_expr(e) + " }"
    p = parse_abs(text)
    q = parse_abs(pretty_abs(p))
    assert p == q
