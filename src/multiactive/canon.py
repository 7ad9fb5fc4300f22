"""Canonical forms and digests of runtime configurations.

Fresh names (activity/cog names, future names, store locations) carry no
meaning beyond identity, so configurations are digested after renaming
them: alpha-equivalent configurations yield equal digests.

Templates. Each immutable runtime object that successor configurations
share (statement, frame, request, thread, store object, activity, future
binder; process and object on the cooperative side, and a cog on its
first object) computes its canonical text once and memoizes it on
itself, outside the dataclass fields, so ``==`` and ``replace`` ignore
it. Store locations are numbered locally; global names (activities,
cogs, futures) are left as slots, numbered in order of first use, and
the template keeps the ordered list of those names. Inside an activity,
threads and unreachable store cells are ordered by their own text, ties
by their text under the names used so far.

Global pass. Activities (cogs) are ordered by template, ties by their
text under the tokens assigned so far; tokens ``A<n>``/``F<n>`` go to
global names in order of first use. Every future binder follows:
referenced futures in token order, the others by template. The filled
text is hashed, and the digest is memoized on the configuration.

A step shares every object it does not change with its successor, so a
digest re-templates only what the step changed.
"""

from __future__ import annotations

import hashlib

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


# -- parts: text with the names still in it -------------------------------------
#
# A part list is a tuple of strings and references. A reference is
# ("o", index) for a store location, ("A", name) for an activity or cog and
# ("F", name) for a future; a namer turns it into text.


def _seal(out: list) -> tuple:
    """Merge adjacent strings."""
    sealed = []
    for p in out:
        if p.__class__ is str and sealed and sealed[-1].__class__ is str:
            sealed[-1] += p
        else:
            sealed.append(p)
    return tuple(sealed)


def _extend(out: list, parts):
    """Append ``parts`` to ``out``, merging the strings at the seam."""
    if parts and out and parts[0].__class__ is str and out[-1].__class__ is str:
        out[-1] += parts[0]
        out.extend(parts[1:])
    else:
        out.extend(parts)


def _render(parts, name) -> str:
    tok = name.tok
    return "".join([p if p.__class__ is str else tok.get(p) or name(p) for p in parts])


def _peek(parts, name) -> str:
    """``_render`` without naming anything new: unseen names read ``?``."""
    tok = name.tok
    return "".join([p if p.__class__ is str else tok.get(p, "?") for p in parts])


def _own_key(obj, parts) -> str:
    """The text of ``parts`` under names of their own, which orders such
    objects up to renaming; memoized on ``obj``."""
    key = obj.__dict__.get("_key")
    if key is None:
        key = _render(parts, _Local())
        object.__setattr__(obj, "_key", key)
    return key


def _val(v, out):
    cls = v.__class__
    if cls is Loc:
        out.append(("o", v.index))
    elif cls is ActRef:
        out.append(("A", v.name))
    elif cls is FutRef:
        out.append(("F", v.name))
    elif cls is ObjRef:
        out.append(f"{v.ident}_")
        out.append(("A", v.cog))
    elif cls is MethodVal:
        out.append(f"@{v.name}")
    elif cls is tuple:
        out.append("(")
        for i, x in enumerate(v):
            if i:
                out.append(",")
            _val(x, out)
        out.append(")")
    else:
        out.append(show_value(v))


def _value_parts(v) -> tuple:
    if v is None or v.__class__ in (int, bool):
        return (show_value(v),)
    out = []
    _val(v, out)
    return _seal(out)


def _plain(parts) -> bool:
    """No names in it: its text is the same under any naming."""
    return len(parts) == 1 and parts[0].__class__ is str


def _expr(e, out):
    if isinstance(e, RuntimeVal):
        out.append("<")
        _val(e.value, out)
        out.append(">")
    else:
        out.append(pp_expr(e))


def _args(args, out):
    for i, a in enumerate(args):
        if i:
            out.append(",")
        _expr(a, out)


def _locals(locals_: dict, out):
    for i, k in enumerate(sorted(locals_)):
        out.append(f",{k}:" if i else f"{k}:")
        _val(locals_[k], out)


class _Local:
    """Names for one template: locations become ``o<n>`` and global names
    become slot markers, both numbered in order of first use."""

    def __init__(self, *first):
        self.tok = {}
        self.names = []
        self.locs = []
        for ref in first:
            self(ref)

    def __call__(self, ref) -> str:
        t = self.tok.get(ref)
        if t is None:
            if ref[0] == "o":
                t = f"o{len(self.locs)}"
                self.locs.append(ref[1])
            else:
                t = f"\x01{ref[0]}{len(self.names)}\x01"
                self.names.append(ref)
            self.tok[ref] = t
        return t


class _Template:
    """Canonical text of one object with its global names as slots.

    ``key`` orders templates up to renaming of global names; ``fill``
    puts a token for each of ``names`` into its slots."""

    __slots__ = ("key", "slots", "names")

    def __init__(self, text: str, names):
        self.key = tuple(text.split("\x01"))  # text, slot, text, ...
        self.slots = tuple(int(marker[1:]) for marker in self.key[1::2])
        self.names = tuple(names)

    def fill(self, tokens) -> str:
        out = list(self.key)
        out[1::2] = [tokens[i] for i in self.slots]
        return "".join(out)


def _pick(ranked, start, alive, fine):
    """The least live id in ``ranked``, (key, id) pairs in order, from
    index ``start`` on: the first live one or, if live ids share its key,
    the one least by ``fine`` (then id), which the caller evaluates under
    the names used so far. Returns (index to resume from, id)."""
    while ranked[start][1] not in alive:
        start += 1
    key, best = ranked[start]
    if fine is not None:
        tied = []
        j = start
        while j < len(ranked) and ranked[j][0] == key:
            if ranked[j][1] in alive:
                tied.append(ranked[j][1])
            j += 1
        if len(tied) > 1:
            best = min(tied, key=lambda i: (fine(i), i))
    return start, best


def _ordered(items: list, key, fine):
    """Indexes of ``items`` by ``key``, ties by ``fine`` at each pick
    (the caller names the picked item before the next pick)."""
    if len(items) < 2:
        yield from range(len(items))
        return
    ranked = sorted((key(x), i) for i, x in enumerate(items))
    alive = set(range(len(items)))
    at = 0
    while alive:
        at, i = _pick(ranked, at, alive, lambda j: fine(items[j]))
        alive.remove(i)
        yield i


_ABSENT = object()


def _emit_store(store: dict, name: _Local, out: list):
    """Store cells: reachable ones in location order; whenever none is
    left to reach, the unreachable cell least by its own text is named."""
    pending = {l.index: s for l, s in store.items()}
    locs = name.locs
    seen = 0
    ranked = None
    at = 0
    while pending:
        while seen < len(locs):
            s = pending.pop(locs[seen], _ABSENT)
            if s is not _ABSENT:
                out.append(f"sto o{seen}={_render(_cell(s), name)}")
            seen += 1
        if pending:
            if ranked is None:
                ranked = sorted((_cell_key(s), i) for i, s in pending.items())
            at, best = _pick(ranked, at, pending, None)
            if not _plain(_cell(pending[best])):
                at, best = _pick(ranked, at, pending, lambda i: _peek(_cell(pending[i]), name))
            name(("o", best))


# -- multi-active configurations ----------------------------------------------


def _mrhs(r, out):
    if isinstance(r, (MNew, MNewActive)):
        out.append(f"{'new' if isinstance(r, MNew) else 'newA'} {r.cls}(")
        _args(r.args, out)
        out.append(")")
    elif isinstance(r, MInvoke):
        _expr(r.target, out)
        out.append(f".{r.method if r.method is not None else f'({r.method_var})'}(")
        _args(r.args, out)
        if r.vararg:
            out.append(f",{r.vararg}...")
        out.append(")")
    else:
        _expr(r, out)


def _mstmt(s) -> tuple:
    out = []
    if isinstance(s, MSkip):
        out.append("skip")
    elif isinstance(s, MSetLimit):
        out.append(f"limit:{s.kind}")
    elif isinstance(s, MReturn):
        out.append("ret ")
        _expr(s.expr, out)
    elif isinstance(s, MHole):
        out.append(f"{s.target}=•")
    elif isinstance(s, MAssign):
        out.append(f"{s.target}=")
        _mrhs(s.rhs, out)
    elif isinstance(s, MIf):
        out.append("if(")
        _expr(s.cond, out)
        out.append("){")
        _stmts(mseq_list(s.then), _mstmt, out)
        out.append("}{")
        _stmts(mseq_list(s.els), _mstmt, out)
        out.append("}")
    else:
        raise TypeError(f"bad statement {s!r}")
    return _seal(out)


def _stmts(stmts, build, out):
    for i, s in enumerate(stmts):
        if i:
            _extend(out, (";",))
        _extend(out, _memo(s, build))


def _body(locals_: dict, stmts, build) -> tuple:
    """``{locals|statements}`` of a frame or process."""
    out = ["{"]
    _locals(locals_, out)
    out.append("|")
    out = list(_seal(out))
    _stmts(stmts, build, out)
    _extend(out, ("}",))
    return tuple(out)


def _frame(f) -> tuple:
    return _body(f.locals, f.stmts, _mstmt)


def _request(q) -> tuple:
    out = ["(", ("F", q.future), f",{q.method},["]
    for i, a in enumerate(q.args):
        if i:
            out.append(",")
        _val(a, out)
    out.append("])")
    return _seal(out)


def _thread(t) -> tuple:
    out = [f"thr[{t.state}] "]
    _extend(out, _memo(t.request, _request))
    _extend(out, (" ",))
    for i, f in enumerate(t.stack):
        if i:
            _extend(out, ("::",))
        _extend(out, _memo(f, _frame))
    return tuple(out)


def _obj(o) -> tuple:
    out = [f"[{o.cls}|"]
    _locals(o.fields, out)
    out.append("]")
    return _seal(out)


def _cell(s) -> tuple:
    return _memo(s, _obj) if s.__class__ is Obj else _value_parts(s)


def _cell_key(s) -> str:
    if s.__class__ is Obj:
        return _own_key(s, _memo(s, _obj))
    return _render(_value_parts(s), _Local())


def _activity(act) -> _Template:
    me = ("A", act.name)
    name = _Local(me, ("o", act.active_loc.index))
    out = [
        f"act {name(me)} cls={act.cls} limit={act.limit} nextid={act.id_counter} self=o0"
    ]
    threads = list(act.current.values())
    # threads by their own text, ties by their text under the names this
    # activity has used so far
    for i in _ordered(
        threads,
        key=lambda t: _own_key(t, _memo(t, _thread)),
        fine=lambda t: _peek(_memo(t, _thread), name),
    ):
        out.append(_render(_memo(threads[i], _thread), name))
    for q in act.queue:
        out.append(_render(_memo(q, _request), name))
    for ident in sorted(act.registry, key=repr):
        out.append(f"reg {ident}->{_render(_value_parts(act.registry[ident]), name)}")
    _emit_store(act.store, name, out)
    return _Template("\n".join(out), name.names)


_SELF = ("F", None)  # a binder's own future, filled in by the global pass


def _binder(b) -> _Template:
    name = _Local(_SELF)
    if not b.resolved:
        return _Template(f"fut {name(_SELF)} bot m={b.method}", name.names)
    val = _render(_value_parts(b.value), name)
    out = []
    _emit_store(b.piece or {}, name, out)
    return _Template(f"fut {name(_SELF)} {val} [{';'.join(out)}] m={b.method}", name.names)


class _Tokens:
    """Global tokens ``A<n>``/``F<n>``, assigned in order of first use."""

    def __init__(self):
        self.tok = {}
        self.activities = 0
        self.futures = []  # future names in token order

    def new(self, n) -> str:
        if n[0] == "F":
            t = self.tok[n] = f"F{len(self.futures)}"
            self.futures.append(n[1])
        else:
            t = self.tok[n] = f"A{self.activities}"
            self.activities += 1
        return t

    def fill(self, tmpl: _Template, names) -> str:
        get = self.tok.get
        return tmpl.fill([get(n) or self.new(n) for n in names])

    def peek(self, tmpl: _Template, names) -> str:
        tok = self.tok
        return tmpl.fill([tok.get(n, "?") for n in names])


def _global_text(units: list, binders: dict) -> str:
    """``units``: (template, real name) per activity or cog, which names
    itself first; ``binders``: future name -> template, naming ``_SELF``
    first."""
    g = _Tokens()
    parts = [
        g.fill(units[i][0], units[i][0].names)
        for i in _ordered(
            units,
            key=lambda u: u[0].key,
            fine=lambda u: (g.peek(u[0], u[0].names), u[1]),
        )
    ]

    def names(f):
        return (("F", f),) + binders[f].names[1:]

    futures = g.futures
    pending = dict(binders)
    seen = 0
    ranked = None
    at = 0
    while pending:
        while seen < len(futures):
            f = futures[seen]
            if f in pending:
                parts.append(g.fill(pending.pop(f), names(f)))
            seen += 1
        if pending:
            # an unreferenced future: the least by template; templates
            # naming nothing but their future tie harmlessly
            if ranked is None:
                ranked = sorted((t.key, f) for f, t in pending.items())
            at, f = _pick(ranked, at, pending, None)
            if len(pending[f].names) > 1:
                at, f = _pick(ranked, at, pending, lambda f: g.peek(pending[f], names(f)))
            g.new(("F", f))
    return "\n".join(parts)


def masp_canonical(config: MaspConfig) -> str:
    units = [(_memo(a, _activity), a.name) for a in config.activities.values()]
    binders = {f: _memo(b, _binder) for f, b in config.futures.items()}
    return _global_text(units, binders)


def _memo_digest(config, render) -> str:
    d = config.__dict__.get("_digest")
    if d is None:
        d = digest_of(render(config))
        object.__setattr__(config, "_digest", d)
    return d


def masp_digest(config: MaspConfig) -> str:
    return _memo_digest(config, masp_canonical)


# -- cooperative configurations ------------------------------------------------


def _aguard(g, out):
    if isinstance(g, GBool):
        _expr(g.expr, out)
    elif isinstance(g, GFut):
        out.append(f"{g.var}?")
    elif isinstance(g, RGFut):
        out.append("<")
        _val(g.value, out)
        out.append(">?")
    else:
        _aguard(g.left, out)
        out.append("&&")
        _aguard(g.right, out)


def _arhs(r, out):
    if isinstance(r, ANew):
        out.append(f"{'newL' if r.local else 'new'} {r.cls}(")
        _args(r.args, out)
        out.append(")")
    elif isinstance(r, (ASync, AAsync)):
        _expr(r.target, out)
        out.append(f"{'.' if isinstance(r, ASync) else '!'}{r.method}(")
        _args(r.args, out)
        out.append(")")
    elif isinstance(r, AGet):
        _expr(r.expr, out)
        out.append(".get")
    else:
        _expr(r, out)


def _astmt(s) -> tuple:
    out = []
    if isinstance(s, ASkip):
        out.append("skip")
    elif isinstance(s, ASuspend):
        out.append("suspend")
    elif isinstance(s, AReturn):
        out.append("ret ")
        _expr(s.expr, out)
    elif isinstance(s, AAwait):
        out.append("await ")
        _aguard(s.guard, out)
    elif isinstance(s, AAssign):
        out.append(f"{s.target}=")
        _arhs(s.rhs, out)
    elif isinstance(s, AIf):
        out.append("if(")
        _expr(s.cond, out)
        out.append("){")
        _stmts(aseq_list(s.then), _astmt, out)
        out.append("}{")
        _stmts(aseq_list(s.els), _astmt, out)
        out.append("}")
    else:
        raise TypeError(f"bad statement {s!r}")
    return _seal(out)


def _process(p) -> tuple:
    return _body(p.locals, p.stmts, _astmt)


def _ob(ob) -> tuple:
    out = [f"ob {ob.name.ident} cls={ob.cls} ["]
    _locals(ob.fields, out)
    out.append("] act=")
    out = list(_seal(out))
    _extend(out, ("idle",) if ob.active is None else _memo(ob.active, _process))
    for p in ob.queue:
        _extend(out, ("\n  q ",))
        _extend(out, _memo(p, _process))
    return tuple(out)


def _cog(config, cog, members: list) -> _Template:
    """A cog's template, memoized on its first member object together
    with the rest of what it reads (running object, next id, the other
    members), which the memo must match to be reused."""
    active = config.cogs[cog]
    nextid = config.id_counters.get(cog, 1)
    members.sort(key=lambda o: o.name.ident)
    inputs = (active, nextid, len(members))
    if members:
        hit = members[0].__dict__.get("_cog")
        if (
            hit is not None
            and hit[0] == inputs
            and all(a is b for a, b in zip(hit[1], members[1:]))
        ):
            return hit[2]
    me = ("A", cog)
    name = _Local(me)
    act = "ε" if active is None else _render(_value_parts(active), name)
    out = [f"cog {name(me)} nextid={nextid} act={act}"]
    for ob in members:
        out.append(_render(_memo(ob, _ob), name))
    tmpl = _Template("\n".join(out), name.names)
    if members:
        object.__setattr__(members[0], "_cog", (inputs, tuple(members[1:]), tmpl))
    return tmpl


_FUT_BOT = _Template("fut \x01F0\x01 bot", [_SELF])


def _abs_binder(value) -> _Template:
    if value is UNRESOLVED:
        return _FUT_BOT
    name = _Local(_SELF)
    return _Template(f"fut {name(_SELF)} {_render(_value_parts(value), name)}", name.names)


def abs_canonical(config) -> str:
    members = {cog: [] for cog in config.cogs}
    for ob in config.objects.values():
        members.setdefault(ob.name.cog, []).append(ob)
    units = [(_cog(config, c, members[c]), c) for c in config.cogs]
    binders = {f: _abs_binder(v) for f, v in config.futures.items()}
    return _global_text(units, binders)


def abs_digest(config) -> str:
    return _memo_digest(config, abs_canonical)


def canonicalize(config) -> str:
    """Digest dispatching on the configuration kind."""
    if isinstance(config, MaspConfig):
        return masp_digest(config)
    return abs_digest(config)


# -- fast structural keys (no renaming; for search-local visited sets) ---------


_SKEY_CACHE = {}


def _skey(x):
    # structure is immutable and widely shared between successor
    # configurations, so identity-keyed memoization pays off hugely
    cacheable = isinstance(x, (dict, tuple)) or hasattr(x, "__dataclass_fields__")
    if cacheable:
        hit = _SKEY_CACHE.get(id(x))
        if hit is not None and hit[0] is x:
            return hit[1]
    if isinstance(x, dict):
        key = tuple(
            sorted(((repr(k), _skey(v)) for k, v in x.items()), key=lambda kv: kv[0])
        )
    elif isinstance(x, (tuple, list)):
        key = tuple(_skey(y) for y in x)
    elif hasattr(x, "__dataclass_fields__"):
        key = (type(x).__name__,) + tuple(
            _skey(getattr(x, f)) for f in x.__dataclass_fields__ if f != "pos"
        )
    elif callable(x):
        return type(x).__name__
    else:
        return x
    if len(_SKEY_CACHE) > 800_000:
        _SKEY_CACHE.clear()
    _SKEY_CACHE[id(x)] = (x, key)
    return key


def masp_struct_key(config: MaspConfig):
    """Exact structural identity, cheap; names are NOT canonicalized."""
    return (
        _skey(config.activities),
        _skey(config.futures),
        config.act_counter,
        config.fut_counter,
    )


def abs_struct_key(config):
    return (
        _skey(config.objects),
        _skey(config.cogs),
        _skey(config.futures),
        config.cog_counter,
        config.fut_counter,
        _skey(config.id_counters),
    )
