"""Canonical digests versus a brute-force alpha-equivalence oracle."""

import hashlib
import itertools
import random
import typing

import pytest
from alphaoracle import abs_alpha_equiv, masp_alpha_equiv
from multiactive import canon, corpus_path, parse_abs, parse_masp, pretty_abs, pretty_masp
from multiactive.absm.engine import abs_initial_config
from multiactive.absm.runtime import AbsConfig, Cog, Ob, Process, RGFut
from multiactive.absm.steps import abs_apply_step, abs_enabled_steps
from multiactive.canon import abs_digest, masp_digest
from multiactive.explore import explore, semantics_of
from multiactive.lang.ast_abs import (
    AAssign, AAsync, AAwait, AGet, AIf, ANew, AReturn, ARhs, ASeq, ASkip, AStmt, ASuspend,
    ASync, GAnd, GBool, GFut, Guard,
)
from multiactive.lang.ast_expr import Binop, Expr, Lit, MethodLit, RuntimeVal, This, Unop, Var
from multiactive.lang.ast_masp import (
    MAssign, MIf, MInvoke, MNew, MNewActive, MReturn, MRhs, MSeq, MSetLimit, MSkip, MStmt,
)
from multiactive.lang.lexer import tokenize
from multiactive.masp.engine import initial_config
from multiactive.masp.runtime import (
    Activity, Frame, FutBinder, MaspConfig, MHole, Obj, Request, Thread,
)
from multiactive.masp.steps import apply_step, enabled_steps
from multiactive.translate import translate_program
from multiactive.values import UNRESOLVED, ActRef, FutRef, Loc, ObjRef

from conftest import ABS_CORPUS, MASP_CORPUS, load_abs, load_masp


def _rename_masp(config, act_map, fut_map, loc_shift):
    """Consistent renaming of every fresh name (an alpha variant). Each
    activity's locations are reversed and moved up by its ``loc_shift``;
    activities, threads and futures are listed in reverse order, which is
    no part of the state either."""

    def val(v, relabel):
        if isinstance(v, Loc):
            return Loc(relabel(v.index))
        if isinstance(v, ActRef):
            return ActRef(act_map[v.name])
        if isinstance(v, FutRef):
            return FutRef(fut_map[v.name])
        if isinstance(v, tuple):
            return tuple(val(x, relabel) for x in v)
        return v

    def tree(x, relabel):
        from multiactive.lang.ast_expr import RuntimeVal

        if isinstance(x, RuntimeVal):
            return RuntimeVal(val(x.value, relabel))
        if isinstance(x, tuple):
            return tuple(tree(y, relabel) for y in x)
        if hasattr(x, "__dataclass_fields__"):
            kw = {
                f: tree(getattr(x, f), relabel)
                for f in x.__dataclass_fields__
                if f != "pos"
            }
            return type(x)(**kw)
        return x

    def same(index):
        return index

    acts = {}
    for name, act in reversed(config.activities.items()):
        def relabel(index, up=loc_shift[name], top=act.loc_counter):
            return up + top - index

        from multiactive.masp.runtime import Frame, Request, Thread

        store = {
            Loc(relabel(l.index)): (
                Obj(s.cls, {k: val(v, relabel) for k, v in s.fields.items()})
                if isinstance(s, Obj)
                else val(s, relabel)
            )
            for l, s in act.store.items()
        }
        current = {}
        for f, t in reversed(act.current.items()):
            req = Request(fut_map[f], t.request.method, val(t.request.args, relabel))
            stack = tuple(
                Frame(
                    {k: val(v, relabel) for k, v in fr.locals.items()},
                    tree(fr.stmts, relabel),
                )
                for fr in t.stack
            )
            current[fut_map[f]] = Thread(req, t.state, stack)
        queue = tuple(
            Request(fut_map[q.future], q.method, val(q.args, relabel))
            for q in act.queue
        )
        acts[act_map[name]] = Activity(
            name=act_map[name],
            cls=act.cls,
            active_loc=Loc(relabel(act.active_loc.index)),
            store=store,
            current=current,
            queue=queue,
            limit=act.limit,
            policy=act.policy,
            loc_counter=act.loc_counter + loc_shift[name],
            id_counter=act.id_counter,
            registry={k: val(v, relabel) for k, v in act.registry.items()},
        )
    futures = {}
    for f, b in reversed(config.futures.items()):
        if b.resolved:
            piece = {
                Loc(l.index): (
                    Obj(s.cls, {k: val(v, same) for k, v in s.fields.items()})
                    if isinstance(s, Obj)
                    else val(s, same)
                )
                for l, s in (b.piece or {}).items()
            }
            futures[fut_map[f]] = FutBinder(val(b.value, same), piece, b.method)
        else:
            futures[fut_map[f]] = FutBinder(method=b.method)
    return MaspConfig(
        program=config.program,
        activities=acts,
        futures=futures,
        act_counter=config.act_counter,
        fut_counter=config.fut_counter,
    )


def _translated(name):
    return translate_program(load_abs(name))


def _walk_masp(config, rng, steps):
    for _ in range(steps):
        labels = enabled_steps(config)
        if not labels:
            break
        config = apply_step(config, labels[rng.randrange(len(labels))])
    return config


def _bfs(p, count, keep):
    """The first ``count`` states of a breadth-first search that
    ``keep(state, level)`` accepts."""
    seen, frontier, out, level = set(), [initial_config(p)], [], 0
    while len(out) < count:
        level += 1
        successors = []
        for c in frontier:
            for label in enabled_steps(c):
                s = apply_step(c, label)
                if masp_digest(s) not in seen:
                    seen.add(masp_digest(s))
                    successors.append(s)
                    if keep(s, level):
                        out.append(s)
        frontier = successors
    return out[:count]


def _multi_threaded(s, level):
    return any(len(a.current) > 1 for a in s.activities.values())


def test_digest_stable_and_sensitive():
    p = load_masp("peer_policy.masp")
    c = initial_config(p)
    assert masp_digest(c) == masp_digest(c)
    c2 = c.update(futures={**c.futures, "f9": FutBinder(5, {}, "m")})
    assert masp_digest(c2) != masp_digest(c)
    # a successor must not reuse the digested activity's memo
    act = next(iter(c.activities.values()))
    c3 = c.with_activity(act.update(limit="H" if act.limit == "S" else "S"))
    assert masp_digest(c3) != masp_digest(c)


def test_digest_invariant_under_consistent_renaming():
    rng = random.Random(5)
    sources = [
        load_masp("circular_soft.masp"),
        _translated("bank_account.abs"),
        _translated("chat.abs"),
        _translated("mapreduce.abs"),
    ]
    walks = (
        _walk_masp(initial_config(p), rng, rng.randrange(0, 25))
        for p in sources
        for _ in range(12)
    )
    # states where the order of threads, of look-alike activities or of
    # unreachable store cells must be chosen canonically
    configs = itertools.chain(
        walks,
        _bfs(load_masp("peer_policy.masp"), 12, _multi_threaded),
        _bfs(_translated("mapreduce.abs"), 12, lambda s, level: level >= 20),
        _bfs(_translated("bank_account.abs"), 12, lambda s, level: level >= 28),
    )
    for trial, c in enumerate(configs):
        acts = list(c.activities)
        perm = list(acts)
        rng.shuffle(perm)
        act_map = dict(zip(acts, perm))
        futs = list(c.futures)
        fperm = list(futs)
        rng.shuffle(fperm)
        fut_map = dict(zip(futs, fperm))
        shift = {a: rng.randrange(0, 40) for a in acts}
        renamed = _rename_masp(c, act_map, fut_map, shift)
        assert masp_alpha_equiv(c, renamed), trial
        assert masp_digest(renamed) == masp_digest(c), trial


def test_digest_matches_alpha_oracle_on_step_pairs():
    rng = random.Random(11)
    sources = [
        (load_masp("circular_soft.masp"), 18),
        (load_masp("peer_policy.masp"), 18),
        (_translated("bank_account.abs"), 60),
        (_translated("chat.abs"), 60),
    ]
    pool = []
    for p, steps in sources:
        for _ in range(12):
            pool.append(_walk_masp(initial_config(p), rng, rng.randrange(0, steps)))
        # every two-step path from the last walk: interleavings that meet
        c = pool[-1]
        for first in enabled_steps(c):
            mid = apply_step(c, first)
            pool.extend(apply_step(mid, second) for second in enabled_steps(mid))
    checked = 0
    for i in range(len(pool)):
        for j in range(i, len(pool)):
            a, b = pool[i], pool[j]
            if a.program is not b.program:
                continue
            same_digest = masp_digest(a) == masp_digest(b)
            assert same_digest == masp_alpha_equiv(a, b), (i, j)
            checked += 1
    assert checked >= 300


def test_abs_digest_matches_alpha_oracle():
    rng = random.Random(13)
    p = load_abs("bank_account.abs")
    pool = []
    for _ in range(16):
        c = abs_initial_config(p)
        for _ in range(rng.randrange(0, 14)):
            labels = abs_enabled_steps(c)
            if not labels:
                break
            c = abs_apply_step(c, labels[rng.randrange(len(labels))])
        pool.append(c)
    for i in range(len(pool)):
        for j in range(i, len(pool)):
            same = abs_digest(pool[i]) == abs_digest(pool[j])
            assert same == abs_alpha_equiv(pool[i], pool[j]), (i, j)


def test_exploring_twice_gives_identical_counts():
    from multiactive.explore import explore

    p = load_masp("circular_soft.masp")
    r1 = explore(initial_config(p), depth=60, width=5000)
    r2 = explore(initial_config(p), depth=60, width=5000)
    assert r1.states_visited == r2.states_visited
    assert r1.transitions == r2.transitions


@pytest.mark.parametrize(
    "name,states,transitions",
    [
        ("circular_soft.masp", 304, 806),
        ("circular_hard.masp", 77, 139),
        ("bank_account.abs", 105, 199),
        ("mapreduce.abs", 743, 2431),
    ],
)
def test_exhaustive_state_counts_are_pinned(name, states, transitions):
    """A canonicalizer that splits or merges states changes these."""
    if name.endswith(".abs"):
        config = abs_initial_config(load_abs(name))
    else:
        config = initial_config(load_masp(name))
    r = explore(config, depth=10**6, width=10**7)
    assert not r.frontier_truncated
    assert (r.states_visited, r.transitions) == (states, transitions)


# -- statement shapes -----------------------------------------------------------


def _reformatted(text):
    """``text`` with other whitespace and line breaks between its tokens."""
    gaps = itertools.cycle(["\n", "  ", "\n\t", " \n  "])
    words = [f'"{t.text}"' if t.kind == "STRING" else t.text for t in tokenize(text)[:-1]]
    return "".join(w + next(gaps) for w in words)


@pytest.mark.parametrize("name", ["peer_policy.masp", "chat.abs", "chat.abs>masp"])
def test_reformatted_program_digests_the_same(name):
    """Positions take no part in a shape: the same program laid out
    otherwise digests the same along a seeded walk."""
    source_name = name.split(">")[0]
    source = corpus_path(source_name).read_text()
    other = _reformatted(source)
    assert other != source
    parse = parse_masp if source_name.endswith(".masp") else parse_abs
    programs = [parse(text, filename=source_name) for text in (source, other)]
    if name.endswith(">masp"):
        programs = [translate_program(p) for p in programs]
    sem = semantics_of(programs[0])
    a, b = (sem.initial(p) for p in programs)
    rng = random.Random(3)
    for _ in range(80):
        assert sem.digest(a) == sem.digest(b)
        labels_a, labels_b = sem.enabled(a), sem.enabled(b)
        assert [l.key() for l in labels_a] == [l.key() for l in labels_b]
        if not labels_a:
            break
        i = rng.randrange(len(labels_a))
        a, b = sem.apply(a, labels_a[i]), sem.apply(b, labels_b[i])


def _every_syntax_node():
    e = Var("x")
    return [
        Lit(1), e, This(), Binop("+", e, Lit(2)), Unop("!", Lit(True)), MethodLit("m"),
        RuntimeVal(FutRef("f1")),
        MInvoke(e, "m", None, (e,), "rest"), MNew("C", (e,)), MNewActive("C"),
        MSkip(), MAssign("x", e), MReturn(e), MSetLimit("H"), MIf(e, MSkip(), MReturn(e)),
        MSeq(MSkip(), MReturn(e)), MHole("x"),
        ASync(e, "m", (e,)), AAsync(e, "m"), ANew("C", (e,), True, "n1"), AGet(e),
        GBool(e), GFut("x"), GAnd(GFut("x"), GBool(e)), RGFut(FutRef("f1")),
        ASkip(), AAssign("x", e), ASuspend(), AAwait(GFut("x")), AReturn(e),
        AIf(e, ASkip(), ASuspend()), ASeq(ASkip(), ASuspend()),
    ]


def test_every_syntax_class_gets_a_shape():
    nodes = _every_syntax_node()
    listed = {type(n) for n in nodes}
    for union in (Expr, MRhs, MStmt, ARhs, Guard, AStmt):
        assert set(typing.get_args(union)) <= listed, union
    assert {MHole, RGFut} <= listed
    shapes = [canon._shape_of(n) for n in nodes]
    assert len({h for h, _ in shapes}) == len(nodes)
    for n, (h, names) in zip(nodes, shapes):
        assert len(h) == 16
        assert names == ((("F", "f1"),) if type(n) in (RuntimeVal, RGFut) else ())
    # a future's name is a slot, not part of the hash
    assert canon._shape_of(RGFut(FutRef("f7")))[0] == shapes[nodes.index(RGFut(FutRef("f1")))][0]


def test_booleans_and_integers_shape_apart():
    one, true = MAssign("x", RuntimeVal(1)), MAssign("x", RuntimeVal(True))
    assert one == true  # as in Python, where 1 == True
    assert canon._shape_of(one) != canon._shape_of(true)
    assert canon._shape_of(Lit(1)) != canon._shape_of(Lit(True))


# -- tie-breaks no corpus program reaches -------------------------------------


def _masp_variants(config):
    """Alpha variants under every permutation of the activity names, with
    the futures rotated and each activity's locations moved."""
    acts, futs = list(config.activities), list(config.futures)
    fut_map = dict(zip(futs, futs[1:] + futs[:1]))
    for perm in itertools.permutations(acts):
        shift = {a: 3 * i for i, a in enumerate(perm)}
        yield _rename_masp(config, dict(zip(acts, perm)), fut_map, shift)


def _assert_digest_is_alpha_invariant(config, variants, equiv, digest):
    for trial, variant in enumerate(variants):
        assert equiv(config, variant), trial
        assert digest(variant) == digest(config), trial


def _thread(future, method, locals_):
    return Thread(Request(future, method, ()), "A", (Frame(locals_, (MReturn(Lit(None)),)),))


def _look_alike_threads(x1, x2, boxes, main_locals):
    """Activity a1 serves two requests whose threads have equal own
    shapes; its store holds two boxes besides itself."""
    main = Activity(
        "a0", None, Loc(1), {Loc(1): Obj(None, {})},
        {"f0": _thread("f0", "main", {"this": Loc(1), **main_locals})}, (), loc_counter=1,
    )
    store = {Loc(1): Obj("Peer", {"ident": 7})}
    store.update({Loc(i + 2): Obj("Box", {"v": v}) for i, v in enumerate(boxes)})
    peer = Activity(
        "a1", "Peer", Loc(1), store,
        {"f1": _thread("f1", "get", x1), "f2": _thread("f2", "get", x2)}, (), loc_counter=3,
    )
    futures = {"f0": FutBinder(method="main"), "f1": FutBinder(method="get"),
               "f2": FutBinder(method="get")}
    return MaspConfig(load_masp("peer_policy.masp"), {"a0": main, "a1": peer}, futures, 2, 3)


def test_threads_with_equal_own_shapes():
    refs = {"r1": FutRef("f1"), "r2": FutRef("f2")}
    # told apart by where each uses the activity's own location
    told_apart = _look_alike_threads(
        {"x": Loc(2), "y": Loc(1)}, {"x": Loc(1), "y": Loc(3)}, (1, 2), refs
    )
    _assert_digest_is_alpha_invariant(
        told_apart, _masp_variants(told_apart), masp_alpha_equiv, masp_digest
    )
    swapped = _look_alike_threads(
        {"x": Loc(2), "y": Loc(1)}, {"x": Loc(1), "y": Loc(3)}, (2, 1), refs
    )
    assert not masp_alpha_equiv(told_apart, swapped)
    assert masp_digest(swapped) != masp_digest(told_apart)
    # interchangeable: nothing else names either thread or its box
    alike = _look_alike_threads({"x": Loc(2)}, {"x": Loc(3)}, (1, 1), {})
    _assert_digest_is_alpha_invariant(alike, _masp_variants(alike), masp_alpha_equiv, masp_digest)
    assert masp_digest(alike) != masp_digest(_look_alike_threads({"x": Loc(2)}, {"x": Loc(2)}, (1, 1), {}))


def _unreferenced_binders(second):
    """Two resolved binders no activity names, whose values name the
    activities a1 and ``second``."""
    p = load_masp("peer_policy.masp")
    acts = {
        "a0": Activity(
            "a0", None, Loc(1), {Loc(1): Obj(None, {})},
            {"f0": _thread("f0", "main", {"this": Loc(1)})}, (), loc_counter=1,
        ),
        "a1": Activity("a1", "Peer", Loc(1), {Loc(1): Obj("Peer", {"ident": 7})}, {}, (), loc_counter=1),
        "a2": Activity("a2", "Box", Loc(1), {Loc(1): Obj("Box", {"v": 1})}, {}, (), loc_counter=1),
    }
    futures = {
        "f0": FutBinder(method="main"),
        "f1": FutBinder(ActRef("a1"), {}, "get"),
        "f2": FutBinder(ActRef(second), {}, "get"),
    }
    return MaspConfig(p, acts, futures, 3, 3)


def test_unreferenced_binders_whose_shapes_tie():
    config = _unreferenced_binders("a2")
    _assert_digest_is_alpha_invariant(config, _masp_variants(config), masp_alpha_equiv, masp_digest)
    both_a1 = _unreferenced_binders("a1")
    assert not masp_alpha_equiv(config, both_a1)
    assert masp_digest(both_a1) != masp_digest(config)


def _look_alike_cogs(x, y):
    """Cogs a1 and a2 each hold one Worker naming the other; the main
    process holds ``x`` and ``y``."""
    ret = (AReturn(Lit(None)),)
    main = ObjRef(0, "a0")
    start = Ob(main, None, {"cog": ActRef("a0")},
               Process({"this": main, "destiny": FutRef("f0"), "x": x, "y": y}, ret), ())
    cogs = {"a0": Cog("a0", main, 1, {0: start})}
    for me, other in (("a1", "a2"), ("a2", "a1")):
        ref = ObjRef(1, me)
        worker = Ob(ref, "Worker", {"cog": ActRef(me), "peer": ObjRef(1, other)}, None, ())
        cogs[me] = Cog(me, None, 2, {1: worker})
    return AbsConfig(load_abs("bank_account.abs"), cogs, {"f0": UNRESOLVED}, 3, 1)


def _rename_abs(config, cog_map, fut_map):
    """Consistent renaming of cogs and futures, cogs and futures listed
    in reverse order (the hand-built processes hold no runtime values)."""

    def val(v):
        if isinstance(v, ActRef):
            return ActRef(cog_map[v.name])
        if isinstance(v, ObjRef):
            return ObjRef(v.ident, cog_map[v.cog])
        if isinstance(v, FutRef):
            return FutRef(fut_map[v.name])
        return v

    def proc(p):
        return None if p is None else Process({k: val(v) for k, v in p.locals.items()}, p.stmts)

    def ob(o):
        return Ob(
            val(o.name), o.cls, {k: val(v) for k, v in o.fields.items()},
            proc(o.active), tuple(proc(p) for p in o.queue),
        )

    cogs = {
        cog_map[c]: Cog(
            cog_map[c], val(cog.running), cog.next_id,
            {i: ob(o) for i, o in cog.objects.items()},
        )
        for c, cog in reversed(config.cogs.items())
    }
    return AbsConfig(
        config.program, cogs,
        {fut_map[f]: val(v) for f, v in reversed(config.futures.items())},
        config.cog_counter, config.fut_counter,
    )


def test_look_alike_cogs():
    told_apart = _look_alike_cogs(ObjRef(1, "a1"), ObjRef(1, "a2"))
    alike = _look_alike_cogs(None, None)
    for config in (told_apart, alike):
        variants = (
            _rename_abs(config, dict(zip(config.cogs, perm)), {"f0": "f0"})
            for perm in itertools.permutations(config.cogs)
        )
        _assert_digest_is_alpha_invariant(config, variants, abs_alpha_equiv, abs_digest)
    same_twice = _look_alike_cogs(ObjRef(1, "a1"), ObjRef(1, "a1"))
    assert not abs_alpha_equiv(told_apart, same_twice)
    assert abs_digest(same_twice) != abs_digest(told_apart)


def _digest_inputs():
    """Texts canon hashes: every corpus program and translation as
    printed, and records whose slots run past U+007F (more than 94
    names), where a slot takes two or three bytes of UTF-8."""
    for name in ABS_CORPUS:
        program = load_abs(name)
        yield pretty_abs(program)
        yield pretty_masp(translate_program(program))
    for name in MASP_CORPUS:
        yield pretty_masp(load_masp(name))
    for names in (0x5E, 0x5F, 0x60, 300, 0x800):
        yield "Activity" + "".join(chr(canon._SLOT0 + i) for i in range(names))


def test_digest_is_hashlib_blake2b():
    """canon takes BLAKE2b from the built-in _blake2; hashlib's is the
    reference, so a swap of implementation cannot move a digest."""
    texts = list(_digest_inputs())
    assert max(max(t) for t in texts) > "\u07ff"
    for text in texts:
        assert canon.digest_of(text) == hashlib.blake2b(text.encode(), digest_size=8).hexdigest()
