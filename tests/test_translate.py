"""Source-to-source translation: golden clauses and whole-program shape."""

import pytest

from multiactive.absm.engine import abs_initial_config
from multiactive.absm.steps import abs_apply_step, abs_enabled_steps
from multiactive.lang import check_wellformed, parse_abs, parse_masp, pretty_masp
from multiactive.lang.ast_masp import mseq
from multiactive.lang.parser_abs import AbsParser
from multiactive.lang.pretty import _pp_body
from multiactive.translate import (
    TranslateError,
    TranslationContext,
    detect_future_of_future,
    translate_program,
    translate_statement,
)
from multiactive.values import FutRef

from conftest import ABS_CORPUS, load_abs

GOLDEN = {
    "x = new C(e1, e2)": """\
§newcog = newActive COG();
§id = §newcog.freshId();
§no = new C(e1, e2, §newcog, §id);
§z = §newcog.register(§no, §id);
x = §no""",
    "x = new local C(e1)": """\
§t = this.cog();
§id = §t.freshId();
§no = new C(e1, §t, §id);
§z = §t.register(§no, §id);
x = §no""",
    "x = e!m(e1, e2)": """\
§t = e.cog();
§id = e.myId();
x = §t.execute(§id, @m, e1, e2)""",
    "x = e.m(e1)": """\
§t = e.cog();
§b = this.cog();
if (§t == §b) {
  x = e.m(e1)
} else {
  §id = e.myId();
  x = §t.execute(§id, @m, e1);
  setLimitHard;
  §w = x.get();
  setLimitSoft
}""",
    "x = e + 1": "x = e + 1",
    "x = y.get": """\
setLimitHard;
§w = y.get();
setLimitSoft;
x = y""",
    "await v > 0": """\
if (!(v > 0)) {
  §t = this.cog();
  §id = this.myId();
  §z = §t.execute_condition(§id, @condition_1, v);
  §w = §z.get()
} else {
  skip
}""",
    "suspend": """\
§t = this.cog();
§id = this.myId();
§z = §t.execute_condition(§id, @condition_True);
§w = §z.get()""",
    "await y?": "§w = y.get()",
    "await y? && z?": """\
§w = y.get();
§w = z.get()""",
    "skip": "skip",
}


def _translate_one(src: str) -> str:
    parser = AbsParser(src + " }")
    stmt = parser.stmt()
    ctx = TranslationContext(scope=("x", "y", "z", "e", "e1", "e2", "v"))
    out = translate_statement(stmt, ctx)
    lines = []
    _pp_body(mseq(out), "", lines)
    return "\n".join(lines)


@pytest.mark.parametrize("src", sorted(GOLDEN))
def test_golden_clause(src):
    assert _translate_one(src) == GOLDEN[src]


def test_clause_count_is_eleven():
    assert len(GOLDEN) == 11


def test_translation_deterministic(bank):
    a = pretty_masp(translate_program(bank))
    b = pretty_masp(translate_program(bank))
    assert a == b


def test_shape_preservation(bank):
    out = translate_program(bank)
    assert len(out.classes) == len(bank.classes) + 1
    assert out.classes[0].name == "COG"
    user = [c for c in out.classes if c.name != "COG"]
    for before, after in zip(bank.classes, user):
        assert after.name == before.name
        assert after.fields == before.fields + ("cog", "myId")
        names = [m.name for m in after.methods]
        for m in before.methods:
            assert m.name in names
        for added in ("cog", "myId", "get"):
            assert added in names


def test_translated_corpus_wellformed():
    for name in ABS_CORPUS:
        if name == "futures_of_futures.abs":
            pass  # translatable too; the restriction is dynamic
        program = load_abs(name)
        out = translate_program(program)
        assert check_wellformed(out) == [], name
        # and the printed form parses back to the same program
        assert parse_masp(pretty_masp(out)) == out, name


def test_cog_class_injected_with_policy(bank):
    out = translate_program(bank)
    cog = out.cls("COG")
    methods = {m.name: m for m in cog.methods}
    assert set(methods) == {
        "freshId",
        "register",
        "retrieve",
        "execute",
        "execute_condition",
    }
    assert methods["execute"].vararg == "args"
    assert methods["execute"].group == "scheduling"
    pol = cog.policy
    assert pol.group("scheduling").max_threads == 1
    assert pol.group("allocation").max_threads == 1
    assert pol.group("registration").max_threads is None
    assert pol.group("conditions").max_threads is None
    assert len(pol.compatible_pairs) == 6


def test_reserved_method_names_rejected():
    p = parse_abs("class C(){ method get() { return null } } { }")
    with pytest.raises(TranslateError):
        translate_program(p)
    p2 = parse_abs("class COG(){ } { }")
    with pytest.raises(TranslateError):
        translate_program(p2)


def test_bool_await_in_main_rejected():
    p = parse_abs("{ vars x; x = 1; await x > 0 }")
    with pytest.raises(TranslateError):
        translate_program(p)


def test_condition_methods_generated_per_site():
    p = parse_abs(
        """
class C(v) {
  method m() { await v > 0; await v > 1; return null }
  method n() { suspend; return null }
}
{ }
"""
    )
    out = translate_program(p)
    cls = out.cls("C")
    names = [m.name for m in cls.methods]
    assert "condition_1" in names and "condition_2" in names
    assert "condition_True" in names


def test_detect_future_of_future_trivial():
    p = parse_abs("class W(){ method go() { return 5 } } { vars w, f; w = new W(); f = w!go() }")
    cfg = abs_initial_config(p)
    assert not detect_future_of_future(cfg)
    cfg = cfg.update(futures={**cfg.futures, "f9": FutRef("f0")})
    assert detect_future_of_future(cfg)


def test_futures_of_futures_detected_in_corpus_program():
    program = load_abs("futures_of_futures.abs")
    # breadth-first to depth 20 must hit a flagged configuration
    frontier = [abs_initial_config(program)]
    found = False
    for _ in range(20):
        nxt = []
        for cfg in frontier:
            for label in abs_enabled_steps(cfg):
                succ = abs_apply_step(cfg, label)
                if detect_future_of_future(succ):
                    found = True
                nxt.append(succ)
        if found or not nxt:
            break
        frontier = nxt[:200]
    assert found


def test_corpus_never_creates_futures_of_futures():
    from multiactive.explore import explore, Property

    flagged = []
    prop = Property(
        "no-futures-of-futures",
        state=lambda c: ["future of future"] if detect_future_of_future(c) else [],
    )
    for name in ["bank_account.abs", "chat.abs", "mapreduce.abs", "leader_election.abs"]:
        cfg = abs_initial_config(load_abs(name))
        r = explore(cfg, depth=60, width=3000, properties=(prop,))
        assert not r.property_violations, name
