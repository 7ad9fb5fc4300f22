"""Equivalence lemmas as property tests over random instances.

Instances are built constructively: a ground value pair is wrapped in
store indirections on the multi-active side and resolved futures on the
cooperative side, which keeps the pair inside the equivalence relation
by construction; the lemmas are then checked against independent paths.
"""

import random

import pytest

from genprog import gen_runnable_abs
from multiactive.absm.evalfn import abs_evaluate
from multiactive.absm.runtime import AbsConfig
from multiactive.equiv import value_equiv
from multiactive.lang import parse_abs
from multiactive.lang.ast_expr import Binop, Lit, Unop, Var
from multiactive.lang.ast_masp import MAssign, MInvoke
from multiactive.masp.engine import initial_config, run
from multiactive.masp.evalfn import chase, evaluate, ground, rename_disjoint, serialise
from multiactive.masp.runtime import Obj
from multiactive.masp.steps import apply_step, enabled_steps
from multiactive.policy import UNGROUND
from multiactive.translate import translate_program
from multiactive.values import UNDEFINED, ActRef, EngineFault, FutRef, Loc, ObjRef

from conftest import load_abs


class _PairGen:
    """Random (cooperative value, multi-active value, store, cn) instances
    that are equivalent by construction."""

    def __init__(self, rng):
        self.rng = rng
        self.store = {}
        self.futures = {}
        self.loc = 0
        self.fut = 0

    def fresh_loc(self, storable):
        self.loc += 1
        l = Loc(self.loc)
        self.store[l] = storable
        return l

    def ground_pair(self):
        roll = self.rng.random()
        if roll < 0.5:
            v = self.rng.choice([0, 1, 7, True, False, None])
            return v, v
        if roll < 0.65:
            name = f"a{self.rng.randrange(3)}"
            return ActRef(name), ActRef(name)
        # an object: identified by cog and id on the multi-active side
        ident = self.rng.randrange(4)
        cog = f"a{self.rng.randrange(3)}"
        fields = {"cog": ActRef(cog), "myId": ident}
        for k in range(self.rng.randrange(0, 2)):
            fields[f"x{k}"] = self.rng.randrange(10)
        return ObjRef(ident, cog), self.fresh_loc(Obj("C", fields))

    def wrap_masp(self, w):
        # extra location indirections are invisible to evaluation
        for _ in range(self.rng.randrange(0, 3)):
            w = self.fresh_loc(w)
        return w

    def wrap_abs(self, v):
        # resolved futures may be chased on the cooperative side
        for _ in range(self.rng.randrange(0, 2)):
            self.fut += 1
            name = f"f{self.fut}"
            self.futures[name] = v
            v = FutRef(name)
        return v

    def pair(self):
        v, w = self.ground_pair()
        return self.wrap_abs(v), self.wrap_masp(w)

    def cn(self):
        return AbsConfig(
            program=parse_abs("{ }"), cogs={}, futures=dict(self.futures)
        )


def test_lemma_value_equiv_closed_under_evaluation():
    # v ~ v' implies v ~ [[v']] over 500 random instances
    rng = random.Random(42)
    for i in range(500):
        g = _PairGen(rng)
        v, w = g.pair()
        cn = g.cn()
        assert value_equiv(v, w, g.store, cn), i
        evaluated = chase(w, g.store) if isinstance(w, Loc) else w
        assert value_equiv(v, evaluated, g.store, cn), i


def test_lemma_serialise_and_rename_preserve_equivalence():
    # 500 random (value, store) pairs: serialisation keeps the pair in the
    # relation, and so does a consistent renaming of the piece
    rng = random.Random(43)
    for i in range(500):
        g = _PairGen(rng)
        v, w = g.pair()
        cn = g.cn()
        piece = serialise(w, g.store)
        assert value_equiv(v, w, piece, cn), i
        (w2,), piece2, _ = rename_disjoint(g.store, (w,), piece)
        assert value_equiv(v, w2, piece2, cn), i


# (operator, left, right, result) on literals, the same in both calculi
OPERATOR_TABLE = [
    ("+", 7, 2, 9),
    ("-", 2, 7, -5),
    ("*", 7, -2, -14),
    ("/", 7, 2, 3),
    ("/", -7, 2, -4),
    ("<", 7, 2, False),
    ("<=", 2, 2, True),
    (">", 7, 2, True),
    (">=", 1, 2, False),
    ("==", 2, 2, True),
    ("==", None, False, False),
    ("!=", 2, 3, True),
    ("!=", None, None, False),
    ("&&", True, False, False),
    ("&&", True, True, True),
    ("||", False, True, True),
    ("||", False, False, False),
    ("/", 7, 0, UNDEFINED),
    ("+", True, 1, UNDEFINED),
    ("-", 1, False, UNDEFINED),
    ("*", None, 2, UNDEFINED),
    ("/", True, 1, UNDEFINED),
    ("<", 1, False, UNDEFINED),
    ("<=", None, 1, UNDEFINED),
    (">", True, False, UNDEFINED),
    (">=", 1, True, UNDEFINED),
    ("&&", 1, 1, UNDEFINED),
    ("||", None, True, UNDEFINED),
    # a boolean never equals an integer
    ("==", True, 1, False),
    ("==", 0, False, False),
    ("!=", False, 0, True),
    ("!=", 1, True, True),
    ("==", True, True, True),
]


@pytest.mark.parametrize("op,left,right,expected", OPERATOR_TABLE)
def test_operator_table_in_both_evaluators(op, left, right, expected):
    e = Binop(op, Lit(left), Lit(right))
    for got in (evaluate(e, {}, {}), abs_evaluate(e, {}, {})):
        if expected is UNDEFINED:
            assert got is UNDEFINED
        else:
            assert got == expected and type(got) is type(expected)


@pytest.mark.parametrize(
    "op,operand,expected",
    [("!", True, False), ("!", 1, UNDEFINED), ("-", 3, -3), ("-", True, UNDEFINED), ("-", None, UNDEFINED)],
)
def test_unary_operators_in_both_evaluators(op, operand, expected):
    e = Unop(op, Lit(operand))
    for got in (evaluate(e, {}, {}), abs_evaluate(e, {}, {})):
        assert got is expected if expected is UNDEFINED else got == expected


def test_unknown_operator_is_engine_fault_in_both_evaluators():
    e = Binop("%", Lit(7), Lit(2))
    with pytest.raises(EngineFault):
        evaluate(e, {}, {})
    with pytest.raises(EngineFault):
        abs_evaluate(e, {}, {})


@pytest.mark.parametrize("op", ["==", "!="])
def test_comparing_futures_is_undefined_in_both_evaluators(op):
    # multi-active: a location holding a future; cooperative: the future itself
    store = {Loc(1): FutRef("f1"), Loc(2): Obj("C", {})}
    for e in (Binop(op, Var("x"), Lit(1)), Binop(op, Lit(None), Var("x"))):
        assert evaluate(e, store, {"x": Loc(1)}) is UNDEFINED
        assert abs_evaluate(e, {}, {"x": FutRef("f1")}) is UNDEFINED
    # references that hide no future still compare by identity
    same = Binop(op, Var("x"), Var("y"))
    assert evaluate(same, store, {"x": Loc(2), "y": Loc(2)}) is (op == "==")
    assert abs_evaluate(same, {}, {"x": ObjRef(0, "a0"), "y": ObjRef(0, "a0")}) is (op == "==")
    # every other operator leaves the future to the integer check
    assert evaluate(Binop("+", Var("x"), Lit(1)), store, {"x": Loc(1)}) is UNDEFINED
    assert abs_evaluate(Binop("+", Var("x"), Lit(1)), {}, {"x": FutRef("f1")}) is UNDEFINED


def test_lemma_evaluation_equivalence_on_paired_frames():
    # matched frames evaluate any expression to equivalent values;
    # 1000 random expressions over randomly built frames
    rng = random.Random(44)
    checked = 0
    while checked < 1000:
        g = _PairGen(rng)
        names = []
        abs_locals, masp_locals = {}, {}
        abs_fields, the_obj = {}, None
        for k in range(rng.randrange(1, 5)):
            v, w = g.pair()
            name = f"v{k}"
            names.append(name)
            abs_locals[name] = v
            masp_locals[name] = w
        # give both sides a this object with one matched field
        fv, fw = g.ground_pair()
        this_loc = g.fresh_loc(
            Obj("C", {"cog": ActRef("a0"), "myId": 0, "fld": fw})
        )
        masp_locals["this"] = this_loc
        abs_fields = {"cog": ActRef("a0"), "fld": fv}
        abs_locals["this"] = ObjRef(0, "a0")
        cn = g.cn()
        # expressions over ground variables only (arithmetic on an unread
        # future is ill-typed in the cooperative language)
        usable = [
            n
            for n in names
            if not isinstance(abs_locals[n], (FutRef, ObjRef))
        ]
        expr = _gen_typed_expr(rng, usable, 2)
        va = abs_evaluate(expr, abs_fields, abs_locals)
        vm = evaluate(expr, g.store, masp_locals)
        if va is UNDEFINED or vm is UNDEFINED:
            assert va is UNDEFINED and vm is UNDEFINED
        else:
            assert value_equiv(va, vm, g.store, cn), (expr, va, vm)
        checked += 1


def _gen_typed_expr(rng, names, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        if names and rng.random() < 0.6:
            return Var(rng.choice(names))
        return Lit(rng.choice([0, 1, 5, True, False]))
    op = rng.choice(["+", "-", "*", "==", "!=", "<", "&&", "||"])
    return Binop(
        op, _gen_typed_expr(rng, names, depth - 1), _gen_typed_expr(rng, names, depth - 1)
    )


def _run_counting_retrieves(program, seed):
    """Drive one run; before every retrieve dispatch, check Invariant Reg."""
    mp = translate_program(program)
    config = initial_config(mp)
    rng = random.Random(seed)
    hits = 0
    for _ in range(4000):
        labels = enabled_steps(config, mode="run")
        if not labels:
            break
        updates = [l for l in labels if l.rule == "Update"]
        chosen = updates[0] if updates else labels[rng.randrange(len(labels))]
        if chosen.rule == "Invk-Passive":
            act = config.activities[chosen.activity]
            thread = act.current[chosen.future]
            head = thread.stack[0].stmts[0]
            if (
                isinstance(head, MAssign)
                and isinstance(head.rhs, MInvoke)
                and head.rhs.method == "retrieve"
            ):
                frame = thread.stack[0]
                ident = ground(
                    evaluate(head.rhs.args[0], act.store, frame.locals), act.store
                )
                assert ident is not UNGROUND
                assert ident in act.registry, "retrieve must find its object"
                loc = act.registry[ident]
                obj = act.store[loc]
                # the registered copy is the object named ident in this cog
                assert value_equiv(
                    ObjRef(ident, act.name), obj, act.store, _empty_cn()
                )
                hits += 1
        config = apply_step(config, chosen)
    return hits


def _empty_cn():
    return AbsConfig(program=parse_abs("{ }"), cogs={}, futures={})


def test_invariant_reg_over_500_retrieves():
    rng = random.Random(45)
    total = 0
    for name in ["bank_account.abs", "chat.abs", "mapreduce.abs", "leader_election.abs"]:
        total += _run_counting_retrieves(load_abs(name), seed=1)
    while total < 500:
        program = gen_runnable_abs(rng)
        total += _run_counting_retrieves(program, seed=rng.randrange(10**6))
    assert total >= 500
