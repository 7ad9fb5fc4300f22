"""Canonical digests versus a brute-force alpha-equivalence oracle."""

import itertools
import random

import pytest
from alphaoracle import abs_alpha_equiv, masp_alpha_equiv
from multiactive.absm.engine import abs_initial_config
from multiactive.absm.steps import abs_apply_step, abs_enabled_steps
from multiactive.canon import abs_digest, masp_digest
from multiactive.explore import explore
from multiactive.masp.engine import initial_config
from multiactive.masp.runtime import Activity, FutBinder, MaspConfig, Obj
from multiactive.masp.steps import apply_step, enabled_steps
from multiactive.translate import translate_program
from multiactive.values import ActRef, FutRef, Loc

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
