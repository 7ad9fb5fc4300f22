"""Canonical digests of runtime configurations.

Fresh names (activity/cog names, future names, store locations) carry no
meaning beyond identity, so configurations are digested after renaming
them: alpha-equivalent configurations yield equal digests.

Shapes. Each immutable node that successor configurations share
(statement, frame, request, thread, store cell, activity, future binder;
process, object and cog on the cooperative side) memoizes a shape on
itself, outside the dataclass fields, so ``==`` and ``replace`` ignore
it. A shape is a fixed-size blake2b hash of the node's structure with
every name written as a local slot (one character, given out in order of
first use), plus the names in that order. A name is ``("o", index)`` for
a store location, ``("A", name)`` for an activity or cog and ``("F",
name)`` for a future.

Composition. A node's record holds its own fields and, for each child,
the child's hash followed by the slots the child's names take in the
node; no child is rendered again. An activity numbers its names in
order of first use: itself, its own location, its threads, its queue,
its registry, then every store cell reachable from a location named so
far. The locations stay inside the activity, which exports only its
activity and future names.

Order. Threads, unreachable store cells, activities (cogs) and future
binders no activity names are sets, so they are ordered by hash. Equal
hashes are told apart by the slots their names already have (unseen
names first), and an item that no other ties with goes first. Items
that still tie are interchangeable wherever nothing else tells them
apart; the last resort is their position. Unreachable cells and
unreferenced binders that name nothing go last, as a sorted multiset
of hashes.

Digest. The final record holds one entry per activity (cog) and future
binder: its hash and the global tokens of its names, tokens going to
names in order of first use. Referenced binders follow in token order,
the rest by the order above. A step shares every node it does not
change with its successor, so a digest costs the shapes of the changed
nodes, the changed activity's composition over its children's names,
and one entry per activity and future. The digest is memoized on the
configuration.
"""

from __future__ import annotations

import hashlib
from operator import attrgetter, is_, itemgetter

from .absm.runtime import RGFut
from .lang.ast_abs import (
    AAssign,
    AAsync,
    AAwait,
    AGet,
    AIf,
    ANew,
    AReturn,
    aseq_list,
    ASkip,
    ASuspend,
    ASync,
    GBool,
    GFut,
)
from .lang.ast_expr import RuntimeVal
from .lang.ast_masp import MAssign, MIf, MInvoke, MNew, MNewActive, MReturn, MSetLimit, MSkip, mseq_list
from .lang.pretty import pp_expr
from .masp.runtime import MaspConfig, MHole, Obj
from .values import UNRESOLVED, ActRef, FutRef, Loc, MethodVal, ObjRef, show_value


def digest_of(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=8).hexdigest()


def _memo(obj, build):
    """``build(obj)``, memoized on the (immutable) object itself."""
    hit = obj.__dict__.get("_canon")
    if hit is None:
        hit = build(obj)
        object.__setattr__(obj, "_canon", hit)
    return hit


def _slot(slots: dict, ref) -> str:
    """The slot of ``ref``, a new one if it is not named yet. ``slots``
    maps each name to its slot, one character each, in order of first
    use."""
    return slots.setdefault(ref, chr(_SLOT0 + len(slots)))


_SLOT0 = 0x21  # slot characters: printable ASCII while there are few names


def _shape(out: list, slots: dict) -> tuple:
    return digest_of("".join(out)), tuple(slots)


def _child(shape: tuple, out: list, slots: dict):
    """A child's part of a record: its hash and the slots of its names."""
    h, names = shape[0], shape[1]
    if names:
        new = slots.setdefault
        for r in names:
            h += new(r, chr(_SLOT0 + len(slots)))
    out.append(h)


def _val(v, out, slots):
    cls = v.__class__
    if v is None or cls is int or cls is bool:
        out.append(show_value(v))
    elif cls is Loc:
        out.append("o" + _slot(slots, ("o", v.index)))
    elif cls is ActRef:
        out.append("A" + _slot(slots, ("A", v.name)))
    elif cls is FutRef:
        out.append("F" + _slot(slots, ("F", v.name)))
    elif cls is ObjRef:
        out.append(f"{v.ident}_A" + _slot(slots, ("A", v.cog)))
    elif cls is MethodVal:
        out.append(f"@{v.name}")
    elif cls is tuple:
        out.append("(")
        for i, x in enumerate(v):
            if i:
                out.append(",")
            _val(x, out, slots)
        out.append(")")
    else:
        out.append(show_value(v))


def _value_shape(v) -> tuple:
    out, slots = [], {}
    _val(v, out, slots)
    return _shape(out, slots)


_PLAIN = {}  # shapes of primitive values, by their text


def _cell(v) -> tuple:
    """Shape of a store cell or a future's value, memoized on the value
    where it can hold one."""
    d = getattr(v, "__dict__", None)
    if d is None:  # a primitive or a tuple
        if v.__class__ is tuple:
            return _value_shape(v)
        text = show_value(v)
        hit = _PLAIN.get(text)
        if hit is None:
            hit = _PLAIN[text] = (digest_of(text), ())
        return hit
    hit = d.get("_canon")
    if hit is None:
        hit = _obj(v) if v.__class__ is Obj else _value_shape(v)
        object.__setattr__(v, "_canon", hit)
    return hit


def _expr(e, out, slots):
    if isinstance(e, RuntimeVal):
        out.append("<")
        _val(e.value, out, slots)
        out.append(">")
    else:
        out.append(pp_expr(e))


def _args(args, out, slots):
    for i, a in enumerate(args):
        if i:
            out.append(",")
        _expr(a, out, slots)


def _locals(locals_: dict, out, slots):
    new = slots.setdefault
    for k, v in sorted(locals_.items()):  # keys differ: values never compared
        if v is None:
            out.append(k + ":null,")
        elif v.__class__ is Loc:
            out.append(k + ":o" + new(("o", v.index), chr(_SLOT0 + len(slots))) + ",")
        else:
            out.append(k + ":")
            _val(v, out, slots)
            out.append(",")


_first = itemgetter(0)


def _pick(ranked, at, alive, slots):
    """The next of ``ranked``, (hash, names, key) triples sorted by hash,
    whose key is in ``alive``, searching from index ``at``: the least by
    hash, equal hashes by the slots of their names (unseen names first),
    where an item that ties with no other alive item goes first. Returns
    (index to resume from, triple), or a None triple if none is alive."""
    n = len(ranked)
    while at < n and ranked[at][2] not in alive:
        at += 1
    fallback = None
    i = at
    while i < n:
        h = ranked[i][0]
        group = []
        while i < n and ranked[i][0] == h:
            if ranked[i][2] in alive:
                group.append(ranked[i])
            i += 1
        if len(group) == 1:
            return at, group[0]
        if not group:
            continue
        peeks = sorted(
            ("".join([slots.get(r, "\0") for r in item[1]]), j) for j, item in enumerate(group)
        )
        for j, (peek, g) in enumerate(peeks):
            if (j == 0 or peeks[j - 1][0] != peek) and (
                j + 1 == len(peeks) or peeks[j + 1][0] != peek
            ):
                return at, group[g]
        if fallback is None:
            fallback = group[peeks[0][1]]
    return at, fallback


def _ordered(items: list, slots):
    """``items``, (hash, names, key) triples, in canonical order; the
    caller names each item's names before taking the next."""
    ranked = sorted(items, key=_first)
    if len({item[0] for item in items}) == len(items):
        return ranked
    return _tied(ranked, slots)


def _tied(ranked: list, slots):
    alive = {item[2] for item in ranked}
    at = 0
    while alive:
        at, item = _pick(ranked, at, alive, slots)
        alive.remove(item[2])
        yield item


def _walk(pending: dict, kind: str, shape_of, out: list, slots: dict):
    """Store cells (by location index) or binders (by future), given by
    ``pending``, in the order ``slots`` names them, each emitted as its
    slot and its shape. Whenever no named one is left, the canonical next
    of the rest that names something is named; what is left after that
    is unreachable and names nothing, and is emitted as a sorted
    multiset. Consumes ``pending``."""
    queue = [r for r in slots if r[0] == kind]
    ranked = None
    at = 0
    while True:
        for ref in queue:  # grows while it is read
            node = pending.pop(ref[1], _ABSENT)
            if node is _ABSENT:
                continue
            shape = shape_of(node)
            h = slots[ref] + shape[0]
            for r in shape[1]:
                c = slots.get(r)
                if c is None:
                    c = slots[r] = chr(_SLOT0 + len(slots))
                    if r[0] == kind:
                        queue.append(r)
                h += c
            out.append(h)
        if not pending:
            return
        if ranked is None:
            rest = [(*shape_of(n), k) for k, n in pending.items()]
            ranked = sorted([item for item in rest if item[1]], key=_first)
        at, item = _pick(ranked, at, pending, slots)
        if item is None:
            out.append("\0" + "".join(sorted([h for h, _, k in rest if k in pending])))
            return
        ref = (kind, item[2])
        slots[ref] = chr(_SLOT0 + len(slots))
        queue = [ref]


_ABSENT = object()


def _store(store: dict) -> dict:
    """Store cells by location index, the form ``_walk`` takes."""
    return {l.index: s for l, s in store.items()}


def _exported(record: list, slots: dict) -> tuple:
    """A shape whose locations stay inside: only global names leave."""
    return digest_of("".join(record)), tuple([r for r in slots if r[0] != "o"])


# -- multi-active configurations ----------------------------------------------


def _mrhs(r, out, slots):
    if isinstance(r, (MNew, MNewActive)):
        out.append(f"{'new' if isinstance(r, MNew) else 'newA'} {r.cls}(")
        _args(r.args, out, slots)
        out.append(")")
    elif isinstance(r, MInvoke):
        _expr(r.target, out, slots)
        out.append(f".{r.method if r.method is not None else f'({r.method_var})'}(")
        _args(r.args, out, slots)
        if r.vararg:
            out.append(f",{r.vararg}...")
        out.append(")")
    else:
        _expr(r, out, slots)


def _mstmt(s) -> tuple:
    out, slots = [], {}
    if isinstance(s, MSkip):
        out.append("skip")
    elif isinstance(s, MSetLimit):
        out.append(f"limit:{s.kind}")
    elif isinstance(s, MReturn):
        out.append("ret ")
        _expr(s.expr, out, slots)
    elif isinstance(s, MHole):
        out.append(f"{s.target}=•")
    elif isinstance(s, MAssign):
        out.append(f"{s.target}=")
        _mrhs(s.rhs, out, slots)
    elif isinstance(s, MIf):
        out.append("if(")
        _expr(s.cond, out, slots)
        out.append("){")
        _stmts(mseq_list(s.then), _mstmt, out, slots)
        out.append("}{")
        _stmts(mseq_list(s.els), _mstmt, out, slots)
        out.append("}")
    else:
        raise TypeError(f"bad statement {s!r}")
    return _shape(out, slots)


def _stmts(stmts, build, out, slots):
    for s in stmts:
        shape = s.__dict__.get("_canon") or _memo(s, build)
        if shape[1]:
            _child(shape, out, slots)
        else:
            out.append(shape[0])


def _body(locals_: dict, stmts, build) -> tuple:
    """``{locals|statements}`` of a frame or process."""
    out, slots = ["{"], {}
    _locals(locals_, out, slots)
    out.append("|")
    _stmts(stmts, build, out, slots)
    return _shape(out, slots)


def _frame(f) -> tuple:
    return _body(f.locals, f.stmts, _mstmt)


def _request(q) -> tuple:
    slots = {}
    out = ["F" + _slot(slots, ("F", q.future)) + f",{q.method},"]
    _val(q.args, out, slots)
    return _shape(out, slots)


def _thread(t) -> tuple:
    out, slots = [f"thr{t.state}"], {}
    _child(t.request.__dict__.get("_canon") or _memo(t.request, _request), out, slots)
    for f in t.stack:
        _child(f.__dict__.get("_canon") or _memo(f, _frame), out, slots)
    return _shape(out, slots)


def _obj(o) -> tuple:
    out, slots = [f"[{o.cls}|"], {}
    _locals(o.fields, out, slots)
    out.append("]")
    return _shape(out, slots)


def _activity(act) -> tuple:
    slots = {("A", act.name): chr(_SLOT0), ("o", act.active_loc.index): chr(_SLOT0 + 1)}
    out = [f"act {act.cls} {act.limit} {act.id_counter}|"]
    if len(act.current) == 1:
        for t in act.current.values():
            _child(t.__dict__.get("_canon") or _memo(t, _thread), out, slots)
    else:
        threads = [(*_memo(t, _thread), i) for i, t in enumerate(act.current.values())]
        for thread in _ordered(threads, slots):
            _child(thread, out, slots)
    out.append("|")
    for q in act.queue:
        _child(q.__dict__.get("_canon") or _memo(q, _request), out, slots)
    out.append("|")
    if act.registry:
        for ident in sorted(act.registry, key=repr):
            out.append(f"{ident}>")
            _val(act.registry[ident], out, slots)
            out.append(",")
    out.append("|")
    _walk(_store(act.store), "o", _cell, out, slots)
    return _exported(out, slots)


def _binder(b) -> tuple:
    out, slots = [f"fut {b.method} "], {}
    if b.resolved:
        _val(b.value, out, slots)
        out.append("[")
        _walk(_store(b.piece or {}), "o", _cell, out, slots)
        out.append("]")
    return _exported(out, slots)


def _digest(units: list, futures: dict, binder) -> str:
    """``units``: (hash, names, real name) per activity or cog, which
    names itself first; ``binder(futures[f])`` is the shape of future
    ``f``'s binder."""
    tokens = {}
    out = []
    new = tokens.setdefault
    for h, names, _ in _ordered(units, tokens):
        for r in names:
            h += new(r, chr(_SLOT0 + len(tokens)))
        out.append(h)
    # referenced futures in token order, then the ones no activity names
    _walk(dict(futures), "F", binder, out, tokens)
    return digest_of("".join(out))


def _binder_shape(b) -> tuple:
    return b.__dict__.get("_canon") or _memo(b, _binder)


def masp_digest(config: MaspConfig) -> str:
    d = config.__dict__.get("_digest")
    if d is None:
        d = _digest(
            [
                (*(a.__dict__.get("_canon") or _memo(a, _activity)), a.name)
                for a in config.activities.values()
            ],
            config.futures,
            _binder_shape,
        )
        object.__setattr__(config, "_digest", d)
    return d


# -- cooperative configurations ------------------------------------------------


def _aguard(g, out, slots):
    if isinstance(g, GBool):
        _expr(g.expr, out, slots)
    elif isinstance(g, GFut):
        out.append(f"{g.var}?")
    elif isinstance(g, RGFut):
        out.append("<")
        _val(g.value, out, slots)
        out.append(">?")
    else:
        _aguard(g.left, out, slots)
        out.append("&&")
        _aguard(g.right, out, slots)


def _arhs(r, out, slots):
    if isinstance(r, ANew):
        out.append(f"{'newL' if r.local else 'new'} {r.cls}(")
        _args(r.args, out, slots)
        out.append(")")
    elif isinstance(r, (ASync, AAsync)):
        _expr(r.target, out, slots)
        out.append(f"{'.' if isinstance(r, ASync) else '!'}{r.method}(")
        _args(r.args, out, slots)
        out.append(")")
    elif isinstance(r, AGet):
        _expr(r.expr, out, slots)
        out.append(".get")
    else:
        _expr(r, out, slots)


def _astmt(s) -> tuple:
    out, slots = [], {}
    if isinstance(s, ASkip):
        out.append("skip")
    elif isinstance(s, ASuspend):
        out.append("suspend")
    elif isinstance(s, AReturn):
        out.append("ret ")
        _expr(s.expr, out, slots)
    elif isinstance(s, AAwait):
        out.append("await ")
        _aguard(s.guard, out, slots)
    elif isinstance(s, AAssign):
        out.append(f"{s.target}=")
        _arhs(s.rhs, out, slots)
    elif isinstance(s, AIf):
        out.append("if(")
        _expr(s.cond, out, slots)
        out.append("){")
        _stmts(aseq_list(s.then), _astmt, out, slots)
        out.append("}{")
        _stmts(aseq_list(s.els), _astmt, out, slots)
        out.append("}")
    else:
        raise TypeError(f"bad statement {s!r}")
    return _shape(out, slots)


def _process(p) -> tuple:
    return _body(p.locals, p.stmts, _astmt)


def _ob(ob) -> tuple:
    out, slots = [f"ob {ob.name.ident} {ob.cls}["], {}
    _locals(ob.fields, out, slots)
    out.append("]")
    if ob.active is None:
        out.append("idle")
    else:
        _child(_memo(ob.active, _process), out, slots)
    out.append("|")
    for p in ob.queue:
        _child(_memo(p, _process), out, slots)
    return _shape(out, slots)


_ident = attrgetter("name.ident")


def _cog(config, cog, members: list) -> tuple:
    """A cog's shape, memoized on its first member object together with
    the rest of what it reads (running object, next id, the other
    members), which the memo must match to be reused."""
    active = config.cogs[cog]
    nextid = config.id_counters.get(cog, 1)
    members.sort(key=_ident)
    inputs = (active, nextid, len(members))
    if members:
        hit = members[0].__dict__.get("_cog")
        if (
            hit is not None
            and hit[0] == inputs
            and all(map(is_, hit[1], members[1:]))
        ):
            return hit[2]
    slots = {}
    _slot(slots, ("A", cog))
    out = [f"cog {nextid} "]
    if active is None:
        out.append("idle")
    else:
        _val(active, out, slots)
    out.append("|")
    for ob in members:
        _child(_memo(ob, _ob), out, slots)
    shape = _shape(out, slots)
    if members:
        object.__setattr__(members[0], "_cog", (inputs, tuple(members[1:]), shape))
    return shape


_FUT_BOT = (digest_of("bot"), ())


def _abs_binder(value) -> tuple:
    return _FUT_BOT if value is UNRESOLVED else _cell(value)


def abs_digest(config) -> str:
    d = config.__dict__.get("_digest")
    if d is None:
        members = {cog: [] for cog in config.cogs}
        for ob in config.objects.values():
            members.setdefault(ob.name.cog, []).append(ob)
        d = _digest(
            [(*_cog(config, c, members[c]), c) for c in config.cogs],
            config.futures,
            _abs_binder,
        )
        object.__setattr__(config, "_digest", d)
    return d


def canonicalize(config) -> str:
    """Digest dispatching on the configuration kind."""
    if isinstance(config, MaspConfig):
        return masp_digest(config)
    return abs_digest(config)


# -- former names ----------------------------------------------------------------


def masp_struct_key(config: MaspConfig) -> str:
    """The digest, under the name of the structural key it replaced
    (perfbench/tracer.py still looks the name up)."""
    return masp_digest(config)


def abs_struct_key(config) -> str:
    """The digest, under the name of the structural key it replaced."""
    return abs_digest(config)
