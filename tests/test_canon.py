"""Canonical digests versus a brute-force alpha-equivalence oracle."""

import itertools
import random

import pytest
from alphaoracle import abs_alpha_equiv, masp_alpha_equiv
from multiactive.absm.engine import abs_initial_config
from multiactive.absm.runtime import AbsConfig, Ob, Process
from multiactive.absm.steps import abs_apply_step, abs_enabled_steps
from multiactive.canon import abs_digest, masp_digest
from multiactive.explore import explore
from multiactive.lang.ast_abs import AReturn
from multiactive.lang.ast_expr import Lit
from multiactive.lang.ast_masp import MReturn
from multiactive.masp.engine import initial_config
from multiactive.masp.runtime import Activity, Frame, FutBinder, MaspConfig, Obj, Request, Thread
from multiactive.masp.steps import apply_step, enabled_steps
from multiactive.translate import translate_program
from multiactive.values import UNRESOLVED, ActRef, FutRef, Loc, ObjRef

from conftest import load_abs, load_masp


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
    objects = {
        main: Ob(main, None, {"cog": ActRef("a0")},
                 Process({"this": main, "destiny": FutRef("f0"), "x": x, "y": y}, ret), ()),
    }
    for me, other in (("a1", "a2"), ("a2", "a1")):
        ref = ObjRef(1, me)
        objects[ref] = Ob(ref, "Worker", {"cog": ActRef(me), "peer": ObjRef(1, other)}, None, ())
    return AbsConfig(
        load_abs("bank_account.abs"), objects, {"a0": main, "a1": None, "a2": None},
        {"f0": UNRESOLVED}, 3, 1, {"a0": 1, "a1": 2, "a2": 2},
    )


def _rename_abs(config, cog_map, fut_map):
    """Consistent renaming of cogs and futures, everything listed in
    reverse order (the hand-built processes hold no runtime values)."""

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

    objects = {}
    for ref, ob in reversed(config.objects.items()):
        objects[val(ref)] = Ob(
            val(ref), ob.cls, {k: val(v) for k, v in ob.fields.items()},
            proc(ob.active), tuple(proc(p) for p in ob.queue),
        )
    return AbsConfig(
        config.program, objects,
        {cog_map[c]: val(a) for c, a in reversed(config.cogs.items())},
        {fut_map[f]: val(v) for f, v in reversed(config.futures.items())},
        config.cog_counter, config.fut_counter,
        {cog_map[c]: n for c, n in config.id_counters.items()},
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
