"""Canonical digests of runtime configurations.

Fresh names (activity/cog names, future names, store locations) carry no
meaning beyond identity, so configurations are digested after renaming
them: alpha-equivalent configurations yield equal digests.

Shapes. Each immutable node that successor configurations share
(statement, frame, request, thread, store cell, activity, future binder;
process, object and cog on the cooperative side) memoizes a shape on
itself as ``_canon``, outside the dataclass fields, so ``==`` and
``replace`` ignore it; a cog's node holds all that its shape covers (its
running object, its next object id and its objects). A shape is a
fixed-size blake2b hash of the node's structure with every name written
as a local slot (one character, given out in order of first use), plus
the names in that order. A name is ``("o", index)`` for
a store location, ``("A", name)`` for an activity or cog and ``("F",
name)`` for a future. One rule writes a statement of either language,
runtime forms included: its class name, then each field but ``pos`` in
declaration order, nested statements, guards and expressions the same
way down to runtime values, whose names become slots.

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

Sharing. An activity or cog rebuilt along another path is often equal
to one shaped before. The first time a unit node is shaped, it is looked
up by shape in a table on its program that holds nodes weakly
(``_unit``); if the node found there is interchangeable with it
(``values.same``: equal with the same classes all the way down, dicts in
the same key order, ``pos`` and ``origin`` fields included), the new
node borrows its memos: step successors, labels, property messages and
equivalence verdicts. Its steps then reuse the successors the first
node's steps built.

Hash. BLAKE2b comes from CPython's built-in ``_blake2`` module, the one
``hashlib.blake2b`` is itself bound to.
"""

from __future__ import annotations

# Not hashlib: it maps OpenSSL's libcrypto (~3.5 MB) only to hand back _blake2's.
from _blake2 import blake2b
from operator import itemgetter
from weakref import WeakValueDictionary

from .lang.ast_expr import node_fields
from .masp.runtime import MaspConfig, Obj
from .values import UNRESOLVED, ActRef, FutRef, Loc, MethodVal, ObjRef, same, show_value


def digest_of(text: str) -> str:
    return blake2b(text.encode(), digest_size=8).hexdigest()


def program_digest(program, pretty) -> str:
    """``digest_of(pretty(program))``, a trace header's program digest,
    memoized on the (frozen) program as ``_digest``."""
    hit = program.__dict__.get("_digest")
    if hit is None:
        hit = digest_of(pretty(program))
        object.__setattr__(program, "_digest", hit)
    return hit


def _memo(obj, build):
    """``build(obj)``, memoized on the (immutable) object itself."""
    hit = obj.__dict__.get("_canon")
    if hit is None:
        hit = build(obj)
        object.__setattr__(obj, "_canon", hit)
    return hit


def _unit(node, build, program) -> tuple:
    """``_memo(node, build)`` for an activity or a cog shaped for the
    first time, then its lookup in the program's weak table ``_units``
    under its shape, which names the node first (see "Sharing"). A node
    new to the table enters it; one ``same`` as the node found there
    borrows each memo it lacks from it, by reference. The table's node
    first gets an empty ``_next`` if it has none, so both add to one."""
    shape = build(node)
    object.__setattr__(node, "_canon", shape)
    table = program.__dict__.get("_units")
    if table is None:
        table = WeakValueDictionary()
        object.__setattr__(program, "_units", table)
    twin = table.get(shape)
    if twin is None:
        table[shape] = node
    elif same(twin, node):
        twin.__dict__.setdefault("_next", {})
        memos = node.__dict__
        for key, memo in twin.__dict__.items():
            if key not in memos:
                memos[key] = memo
    return shape


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
    """A runtime value, or a statement, guard or expression node of
    either language (runtime forms included): its class name, then each
    field but ``pos`` in declaration order, each ended by a comma."""
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
    elif node_fields[cls] is None:
        out.append(show_value(v))  # a string (quoted), ⊥, undefined
    else:  # a statement, guard or expression node
        out.append(cls.__name__ + "(")
        for f in node_fields[cls]:
            _val(getattr(v, f), out, slots)
            out.append(",")
        out.append(")")


def _shape_of(v) -> tuple:
    """The shape of what ``_val`` writes: a value or a statement."""
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
            return _shape_of(v)
        text = show_value(v)
        hit = _PLAIN.get(text)
        if hit is None:
            hit = _PLAIN[text] = (digest_of(text), ())
        return hit
    hit = d.get("_canon")
    if hit is None:
        hit = _obj(v) if v.__class__ is Obj else _shape_of(v)
        object.__setattr__(v, "_canon", hit)
    return hit


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


def _body(node) -> tuple:
    """``{locals|statements}`` of a frame or process."""
    out, slots = ["{"], {}
    _locals(node.locals, out, slots)
    out.append("|")
    for s in node.stmts:
        shape = s.__dict__.get("_canon") or _memo(s, _shape_of)
        if shape[1]:
            _child(shape, out, slots)
        else:
            out.append(shape[0])
    return _shape(out, slots)


def _request(q) -> tuple:
    slots = {}
    out = ["F" + _slot(slots, ("F", q.future)) + f",{q.method},"]
    _val(q.args, out, slots)
    return _shape(out, slots)


def _thread(t) -> tuple:
    out, slots = [f"thr{t.state}"], {}
    _child(t.request.__dict__.get("_canon") or _memo(t.request, _request), out, slots)
    for f in t.stack:
        _child(f.__dict__.get("_canon") or _memo(f, _body), out, slots)
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
        p = config.program
        d = _digest(
            [
                (*(a.__dict__.get("_canon") or _unit(a, _activity, p)), a.name)
                for a in config.activities.values()
            ],
            config.futures,
            _binder_shape,
        )
        object.__setattr__(config, "_digest", d)
    return d


# -- cooperative configurations ------------------------------------------------


def _ob(ob) -> tuple:
    out, slots = [f"ob {ob.name.ident} {ob.cls}["], {}
    _locals(ob.fields, out, slots)
    out.append("]")
    if ob.active is None:
        out.append("idle")
    else:
        _child(_memo(ob.active, _body), out, slots)
    out.append("|")
    for p in ob.queue:
        _child(_memo(p, _body), out, slots)
    return _shape(out, slots)


def _cog(cog) -> tuple:
    slots = {("A", cog.name): chr(_SLOT0)}
    out = [f"cog {cog.next_id} "]
    if cog.running is None:
        out.append("idle")
    else:
        _val(cog.running, out, slots)
    out.append("|")
    for ob in cog.objects.values():
        _child(ob.__dict__.get("_canon") or _memo(ob, _ob), out, slots)
    return _shape(out, slots)


_FUT_BOT = (digest_of("bot"), ())


def _abs_binder(value) -> tuple:
    return _FUT_BOT if value is UNRESOLVED else _cell(value)


def abs_digest(config) -> str:
    d = config.__dict__.get("_digest")
    if d is None:
        p = config.program
        d = _digest(
            [
                (*(c.__dict__.get("_canon") or _unit(c, _cog, p)), name)
                for name, c in config.cogs.items()
            ],
            config.futures,
            _abs_binder,
        )
        object.__setattr__(config, "_digest", d)
    return d


# -- former names ----------------------------------------------------------------


def masp_struct_key(config: MaspConfig) -> str:
    """The digest, under the name of the structural key it replaced
    (perfbench/tracer.py still looks the name up)."""
    return masp_digest(config)


def abs_struct_key(config) -> str:
    """The digest, under the name of the structural key it replaced."""
    return abs_digest(config)
