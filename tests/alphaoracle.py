"""Brute-force structural alpha-equivalence over configurations.

Independent of the canonicalizer: a backtracking matcher over bijections
of activity/cog names, future names and per-activity store locations.
Exponential, only for small test configurations.
"""

from __future__ import annotations

from itertools import permutations

from multiactive.absm.runtime import AbsConfig, RGFut
from multiactive.lang.ast_expr import RuntimeVal
from multiactive.masp.runtime import MaspConfig, Obj
from multiactive.values import UNRESOLVED, ActRef, FutRef, Loc, ObjRef


class _Fail(Exception):
    pass


class _Maps:
    def __init__(self):
        self.act = {}
        self.act_r = {}
        self.fut = {}
        self.fut_r = {}

    def snapshot(self):
        return (dict(self.act), dict(self.act_r), dict(self.fut), dict(self.fut_r))

    def restore(self, snap):
        self.act, self.act_r, self.fut, self.fut_r = (
            dict(snap[0]),
            dict(snap[1]),
            dict(snap[2]),
            dict(snap[3]),
        )

    def bind(self, fwd, rev, a, b):
        if fwd.get(a, b) != b or rev.get(b, a) != a:
            raise _Fail()
        fwd[a] = b
        rev[b] = a


def _unify_tree(a, b, maps, loc_unifier):
    if isinstance(a, Loc) or isinstance(b, Loc):
        if not (isinstance(a, Loc) and isinstance(b, Loc)):
            raise _Fail()
        loc_unifier(a, b)
        return
    if isinstance(a, ActRef) or isinstance(b, ActRef):
        if not (isinstance(a, ActRef) and isinstance(b, ActRef)):
            raise _Fail()
        maps.bind(maps.act, maps.act_r, a.name, b.name)
        return
    if isinstance(a, FutRef) or isinstance(b, FutRef):
        if not (isinstance(a, FutRef) and isinstance(b, FutRef)):
            raise _Fail()
        maps.bind(maps.fut, maps.fut_r, a.name, b.name)
        return
    if isinstance(a, ObjRef) or isinstance(b, ObjRef):
        if not (isinstance(a, ObjRef) and isinstance(b, ObjRef)):
            raise _Fail()
        if a.ident != b.ident:
            raise _Fail()
        maps.bind(maps.act, maps.act_r, a.cog, b.cog)
        return
    if isinstance(a, tuple) and isinstance(b, tuple):
        if len(a) != len(b):
            raise _Fail()
        for x, y in zip(a, b):
            _unify_tree(x, y, maps, loc_unifier)
        return
    if isinstance(a, RuntimeVal) and isinstance(b, RuntimeVal):
        _unify_tree(a.value, b.value, maps, loc_unifier)
        return
    if isinstance(a, RGFut) and isinstance(b, RGFut):
        _unify_tree(a.value, b.value, maps, loc_unifier)
        return
    if type(a) is not type(b):
        raise _Fail()
    if hasattr(a, "__dataclass_fields__"):
        for f in a.__dataclass_fields__:
            if f == "pos":
                continue
            _unify_tree(getattr(a, f), getattr(b, f), maps, loc_unifier)
        return
    if a != b or (isinstance(a, bool) != isinstance(b, bool)):
        raise _Fail()


def _match_store_values(a, b, maps, loc_unifier):
    if isinstance(a, Obj) and isinstance(b, Obj):
        if a.cls != b.cls or set(a.fields) != set(b.fields):
            raise _Fail()
        for k in a.fields:
            _unify_tree(a.fields[k], b.fields[k], maps, loc_unifier)
        return
    _unify_tree(a, b, maps, loc_unifier)


def _match_activities(a1, a2, maps):
    if (a1.cls, a1.limit, a1.id_counter) != (a2.cls, a2.limit, a2.id_counter):
        raise _Fail()  # location/name counters are not observable state
    if len(a1.store) != len(a2.store) or len(a1.current) != len(a2.current):
        raise _Fail()
    if len(a1.queue) != len(a2.queue) or set(a1.registry) != set(a2.registry):
        raise _Fail()
    lmap, lmap_r = {}, {}
    pending = []

    def unify_loc(x, y):
        if lmap.get(x, y) != y or lmap_r.get(y, x) != x:
            raise _Fail()
        if x not in lmap:
            lmap[x] = y
            lmap_r[y] = x
            pending.append((x, y))

    unify_loc(a1.active_loc, a2.active_loc)
    for q1, q2 in zip(a1.queue, a2.queue):
        if q1.method != q2.method or len(q1.args) != len(q2.args):
            raise _Fail()
        maps.bind(maps.fut, maps.fut_r, q1.future, q2.future)
        for x, y in zip(q1.args, q2.args):
            _unify_tree(x, y, maps, unify_loc)
    for ident in a1.registry:
        _unify_tree(a1.registry[ident], a2.registry[ident], maps, unify_loc)

    def drain():
        while pending:
            x, y = pending.pop()
            if (x in a1.store) != (y in a2.store):
                raise _Fail()
            if x in a1.store:
                _match_store_values(a1.store[x], a2.store[y], maps, unify_loc)

    def match_threads(remaining1, remaining2):
        drain()
        if not remaining1:
            # any unmatched store entries (garbage) must also biject
            left1 = [l for l in a1.store if l not in lmap]
            left2 = [l for l in a2.store if l not in lmap_r]
            if not left1 and not left2:
                return True
            if len(left1) != len(left2):
                return False
            x = left1[0]
            for y in left2:
                snap = maps.snapshot()
                lm, lr, pd = dict(lmap), dict(lmap_r), list(pending)
                try:
                    unify_loc(x, y)
                    if match_threads(remaining1, remaining2):
                        return True
                except _Fail:
                    pass
                maps.restore(snap)
                lmap.clear(), lmap.update(lm)
                lmap_r.clear(), lmap_r.update(lr)
                pending[:] = pd
            return False
        t1 = remaining1[0]
        for i, t2 in enumerate(remaining2):
            if t1.state != t2.state or t1.request.method != t2.request.method:
                continue
            if len(t1.stack) != len(t2.stack):
                continue
            snap = maps.snapshot()
            lm, lr, pd = dict(lmap), dict(lmap_r), list(pending)
            try:
                maps.bind(maps.fut, maps.fut_r, t1.request.future, t2.request.future)
                for x, y in zip(t1.request.args, t2.request.args):
                    _unify_tree(x, y, maps, unify_loc)
                for f1, f2 in zip(t1.stack, t2.stack):
                    if set(f1.locals) != set(f2.locals):
                        raise _Fail()
                    for k in f1.locals:
                        _unify_tree(f1.locals[k], f2.locals[k], maps, unify_loc)
                    _unify_tree(f1.stmts, f2.stmts, maps, unify_loc)
                if match_threads(remaining1[1:], remaining2[:i] + remaining2[i + 1 :]):
                    return True
            except _Fail:
                pass
            maps.restore(snap)
            lmap.clear(), lmap.update(lm)
            lmap_r.clear(), lmap_r.update(lr)
            pending[:] = pd
        return False

    if not match_threads(list(a1.current.values()), list(a2.current.values())):
        raise _Fail()


def masp_alpha_equiv(c1: MaspConfig, c2: MaspConfig) -> bool:
    acts1, acts2 = list(c1.activities.values()), list(c2.activities.values())
    if len(acts1) != len(acts2) or len(c1.futures) != len(c2.futures):
        return False
    for perm in permutations(acts2):
        maps = _Maps()
        try:
            for x, y in zip(acts1, perm):
                maps.bind(maps.act, maps.act_r, x.name, y.name)
            for x, y in zip(acts1, perm):
                _match_activities(x, y, maps)
            if _match_futures(c1, c2, maps):
                return True
        except _Fail:
            continue
    return False


def _match_futures(c1, c2, maps) -> bool:
    # extend the partial future bijection over the remaining binders
    left = [f for f in c1.futures if f not in maps.fut]
    right = [f for f in c2.futures if f not in maps.fut_r]
    if len(left) != len(right):
        return False

    def try_pair(f1, f2):
        b1, b2 = c1.futures[f1], c2.futures[f2]
        if b1.method != b2.method or b1.resolved != b2.resolved:
            raise _Fail()
        if b1.resolved:
            _match_piece(b1, b2, maps)

    def go(rem1):
        if not rem1:
            for f1 in c1.futures:
                if f1 not in maps.fut:
                    return False
            return _check_resolved(c1, c2, maps)
        f1 = rem1[0]
        for f2 in right:
            if f2 in maps.fut_r:
                continue
            snap = maps.snapshot()
            try:
                maps.bind(maps.fut, maps.fut_r, f1, f2)
                try_pair(f1, f2)
                if go(rem1[1:]):
                    return True
            except _Fail:
                pass
            maps.restore(snap)
        return False

    # already-paired futures still need their binders checked
    try:
        for f1, f2 in list(maps.fut.items()):
            try_pair(f1, f2)
    except _Fail:
        return False
    return go(left)


def _check_resolved(c1, c2, maps) -> bool:
    return True


def _match_piece(b1, b2, maps):
    if len(b1.piece or {}) != len(b2.piece or {}):
        raise _Fail()
    lmap, lmap_r = {}, {}
    pending = []

    def unify_loc(x, y):
        if lmap.get(x, y) != y or lmap_r.get(y, x) != x:
            raise _Fail()
        if x not in lmap:
            lmap[x] = y
            lmap_r[y] = x
            pending.append((x, y))

    _unify_tree(b1.value, b2.value, maps, unify_loc)
    while pending:
        x, y = pending.pop()
        p1, p2 = b1.piece or {}, b2.piece or {}
        if (x in p1) != (y in p2):
            raise _Fail()
        if x in p1:
            _match_store_values(p1[x], p2[y], maps, unify_loc)
    # unreached piece entries must at least agree in number (checked above)


def abs_alpha_equiv(c1: AbsConfig, c2: AbsConfig) -> bool:
    cogs1, cogs2 = list(c1.cogs), list(c2.cogs)
    if len(cogs1) != len(cogs2) or len(c1.futures) != len(c2.futures):
        return False
    if sum(len(c.objects) for c in c1.cogs.values()) != sum(
        len(c.objects) for c in c2.cogs.values()
    ):
        return False
    if sorted(c.next_id for c in c1.cogs.values()) != sorted(
        c.next_id for c in c2.cogs.values()
    ):
        return False
    for perm in permutations(cogs2):
        maps = _Maps()
        try:
            for x, y in zip(cogs1, perm):
                maps.bind(maps.act, maps.act_r, x, y)
            for x, y in zip(cogs1, perm):
                _match_cog(c1, c2, x, y, maps)
            if _match_abs_futures(c1, c2, maps):
                return True
        except _Fail:
            continue
    return False


def _match_cog(c1, c2, cog1, cog2, maps):
    if c1.cogs[cog1].next_id != c2.cogs[cog2].next_id:
        raise _Fail()
    a1, a2 = c1.cogs[cog1].running, c2.cogs[cog2].running
    if (a1 is None) != (a2 is None):
        raise _Fail()
    if a1 is not None:
        _unify_tree(a1, a2, maps, lambda x, y: (_ for _ in ()).throw(_Fail()))
    objs1 = sorted(c1.cogs[cog1].objects.values(), key=lambda o: o.name.ident)
    objs2 = sorted(c2.cogs[cog2].objects.values(), key=lambda o: o.name.ident)
    if [o.name.ident for o in objs1] != [o.name.ident for o in objs2]:
        raise _Fail()

    def no_locs(x, y):
        raise _Fail()

    for o1, o2 in zip(objs1, objs2):
        if o1.cls != o2.cls or set(o1.fields) != set(o2.fields):
            raise _Fail()
        for k in o1.fields:
            _unify_tree(o1.fields[k], o2.fields[k], maps, no_locs)
        if (o1.active is None) != (o2.active is None):
            raise _Fail()
        procs1 = ([o1.active] if o1.active else []) + list(o1.queue)
        procs2 = ([o2.active] if o2.active else []) + list(o2.queue)
        if len(procs1) != len(procs2):
            raise _Fail()
        for p1, p2 in zip(procs1, procs2):
            if set(p1.locals) != set(p2.locals):
                raise _Fail()
            for k in p1.locals:
                _unify_tree(p1.locals[k], p2.locals[k], maps, no_locs)
            _unify_tree(p1.stmts, p2.stmts, maps, no_locs)


def _match_abs_futures(c1, c2, maps) -> bool:
    left = [f for f in c1.futures if f not in maps.fut]
    right = [f for f in c2.futures if f not in maps.fut_r]
    if len(left) != len(right):
        return False

    def no_locs(x, y):
        raise _Fail()

    def check(f1, f2):
        v1, v2 = c1.futures[f1], c2.futures[f2]
        if (v1 is UNRESOLVED) != (v2 is UNRESOLVED):
            raise _Fail()
        if v1 is not UNRESOLVED:
            _unify_tree(v1, v2, maps, no_locs)

    try:
        for f1, f2 in list(maps.fut.items()):
            check(f1, f2)
    except _Fail:
        return False

    def go(rem):
        if not rem:
            return True
        f1 = rem[0]
        for f2 in right:
            if f2 in maps.fut_r:
                continue
            snap = maps.snapshot()
            try:
                maps.bind(maps.fut, maps.fut_r, f1, f2)
                check(f1, f2)
                if go(rem[1:]):
                    return True
            except _Fail:
                pass
            maps.restore(snap)
        return False

    return go(left)
