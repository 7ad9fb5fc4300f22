"""The equivalence relation between cooperative and multi-active
configurations: value equivalence (with location and future chasing,
``value_equiv``), statement equivalence (translation match or aligned
head assignment, ``stmt_equiv``), and full configuration equivalence
(``config_equiv``), whose conditions are each checked by one function:

- (1a) cogs and activities coincide, modulo scheduler activities that
  host no cooperative object yet: ``config_equiv`` and ``_embryonic``;
- (1b) each object of a cog has a copy in its activity, registered or
  still in flight (``_copies``), and every registered id is an object;
- (1c) the object's fields are equivalent to one copy's: ``_fields_equiv``;
- (1d) an object's active process matches the one active execute thread
  that targets it, and (1e) its pending processes match its passive
  execute threads, in any order, then its queued execute requests, in
  order; both by ``_task_equiv``, and ``_check_cog`` asks that no
  execute task is left over;
- (2) a process and a frame (the thread's user frame, or the method
  body bound for a request never served) hold equivalent locals and
  equivalent statements: ``_frame_equiv``;
- (3) the futures agree, paired by the bijection: ``_futures_equiv``.

Conventions realized structurally: activity names equal cog names and
object identifiers equal registry ids, so only future names need an
explicit bijection (the multi-active side mints extra meta futures).

Memos. Statements are immutable and successor configurations share
them, so two memos live on the statement objects themselves, outside
the dataclass fields (``==`` and ``hash`` ignore them):

- a cooperative statement keeps its translation, one per temporary
  prefix and scope (the variables of the process it runs in, which a
  boolean guard passes on to its condition method), and the translation
  of a remaining tail is the concatenation of those tuples. Each
  statement is translated under a fresh context, where one threaded
  context would number boolean-guard methods ``condition_1``,
  ``condition_2``, ... across the tail. That numbering is the only state
  a context carries from one statement to the next, and ``_stmts_match``
  accepts any ``condition_<k>`` for any other, so the verdict is the
  same;
- every statement node (either language, expressions included) keeps a
  flag saying it holds no ``RuntimeVal``, no ``MethodLit`` naming a
  ``condition_<k>`` method and no bool. Two such trees match exactly
  when they are ``==``, so the structural walk stops there.

Activities are immutable too, and successor pairs share most of them
along with the cooperative cogs, so a third memo lives on each
multi-active ``Activity``: the verdict of the cog check against one cog's
cooperative objects. Its key is the cog name, the ``relaxed`` flag, the
temporary prefix, and the program and the cog node's object table by
identity (a node that only releases its cog keeps its predecessor's
table, and the check does not read the running object). The entry holds
the program and the table, so their ids cannot be reused while it lives,
and it dies with the activity. Beyond
its key, a cog check reads exactly three things, its footprint:

- the future bijection (``fut_map``/``rev_map``, by ``_settle`` and
  ``EquivContext.pair``, trial copies included);
- the cooperative futures (``cn.futures`` in ``value_equiv``);
- ``_predict_future``, which reads the whole multi-active configuration.

A miss records each name it looked up with the answer at the start of the
check, and the pairings it added. ``pair`` only ever adds names, so the
added pairings are the maps' newest entries and every other name answers
as it did at the start. A hit re-asks each recorded read against the
current ``(cn, mcn, ctx)`` and, only if every answer is the same, returns
the stored verdict and reason and adds the stored pairings in their order.
The check is deterministic in its key and these answers, so a hit returns
exactly what a fresh check would, bijection included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import NamedTuple

from .absm.evalfn import abs_evaluate
from .absm.runtime import AbsConfig, Ob, Process, RGFut
from .lang.ast_abs import AAssign, AAwait, AReturn
from .lang.ast_expr import Lit, MethodLit, RuntimeVal, node_fields
from .lang.ast_masp import MAssign, MInvoke, MNew, MNewActive, MReturn
from .masp.evalfn import chase, evaluate
from .masp.runtime import MaspConfig, MHole, Obj, bind
from .translate import TranslationContext, translate_statement
from .values import (
    UNDEFINED,
    UNRESOLVED,
    ActRef,
    FutRef,
    Loc,
    MethodVal,
    ObjRef,
    is_primitive,
)


@dataclass
class EquivContext:
    """Future-name bijection plus the translation's temporary prefix.

    While a configuration pair is being compared, ``mcn`` points at the
    multi-active side so id arguments still hidden behind pending freshId
    futures can be grounded predictively (their value is determined by
    the id counter and the queue order)."""

    fut_map: dict = field(default_factory=dict)  # abs name -> masp name
    rev_map: dict = field(default_factory=dict)
    prefix: str = "§"
    mcn: object = None
    # while a cog check is being memoized: what it reads outside its key
    reads: "_Reads" = field(default=None, repr=False, compare=False)

    def copy(self) -> "EquivContext":
        return EquivContext(
            dict(self.fut_map), dict(self.rev_map), self.prefix, self.mcn, self.reads
        )

    def pair(self, abs_f: str, masp_f: str) -> bool:
        """Record a pairing; False on clash with an existing one."""
        if self.reads is not None:
            self.reads.fut.add(abs_f)
            self.reads.rev.add(masp_f)
        if self.fut_map.get(abs_f, masp_f) != masp_f:
            return False
        if self.rev_map.get(masp_f, abs_f) != abs_f:
            return False
        self.fut_map[abs_f] = masp_f
        self.rev_map[masp_f] = abs_f
        return True

    def is_temp(self, name: str) -> bool:
        return name.startswith(self.prefix)


def _prim_eq(v, w) -> bool:
    if isinstance(v, bool) != isinstance(w, bool):
        return False
    return v == w


def value_equiv(v, w, store, cn: AbsConfig, ctx: EquivContext = None, _seen=None) -> bool:
    """Least relation closed under the five equivalence-of-values rules."""
    ctx = ctx if ctx is not None else EquivContext()
    if _seen is not None:
        key = _guard_key(v, w)
        if key in _seen:
            return False
        _seen.add(key)
    settled = _settle(v, w, ctx)
    if settled is not None:
        return settled
    if _seen is None:
        # the top-level call settles its base cases before building the
        # cycle guard: against a fresh set the guard cannot fire there
        _seen = {_guard_key(v, w)}
    if isinstance(w, Loc) and w in store:
        if value_equiv(v, store[w], store, cn, ctx, _seen):
            return True
    if isinstance(v, ObjRef) and isinstance(w, Obj):
        cog = _chase_ground(w.fields.get("cog"), store, ctx)
        ident = _chase_ground(w.fields.get("myId"), store, ctx)
        return cog == ActRef(v.cog) and ident == v.ident
    if isinstance(v, FutRef):
        val = cn.futures.get(v.name, UNRESOLVED)
        if ctx.reads is not None:
            ctx.reads.futures[v.name] = val
        if val is not UNRESOLVED and value_equiv(val, w, store, cn, ctx, _seen):
            return True
    return False


def _guard_key(v, w):
    # type-tagged, so that True and 1 stay apart; an Obj (unhashable, its
    # fields are a dict) by identity
    return type(v), v, id(w) if type(w) is Obj else (type(w), w)


def _settle(v, w, ctx):
    """The rules that never recurse: True or False, or None to go on."""
    if is_primitive(v) and is_primitive(w):
        return _prim_eq(v, w)
    if isinstance(v, ActRef) and isinstance(w, ActRef):
        return v.name == w.name
    if isinstance(v, FutRef) and isinstance(w, FutRef):
        if ctx.reads is not None:
            ctx.reads.fut.add(v.name)
            ctx.reads.rev.add(w.name)
        if ctx.fut_map.get(v.name) == w.name:
            return True
        if v.name not in ctx.fut_map and w.name not in ctx.rev_map:
            # at most one future is minted per matched step, so pairing two
            # fresh names is unambiguous; later conditions re-verify it
            return ctx.pair(v.name, w.name)
        # fall through: the cooperative side may chase a resolved future
    return None


def _chase_ground(v, store, ctx):
    if not isinstance(v, Loc):
        return v
    try:
        w = chase(v, store)
    except Exception:
        return None
    if isinstance(w, Loc) and isinstance(store.get(w), FutRef):
        return _predict_future(store[w].name, ctx)
    return w


def _predict_future(fname: str, ctx) -> object:
    """The determined value of a pending id-allocation future, if any."""
    if ctx.mcn is None:
        return None
    value = _predicted(fname, ctx.mcn)
    if ctx.reads is not None:
        ctx.reads.predicted[fname] = value
    return value


def _predicted(fname: str, mcn) -> object:
    binder = mcn.futures.get(fname)
    if binder is None:
        return None
    if binder.resolved:
        return binder.value if is_primitive(binder.value) else None
    if binder.method != "freshId":
        return None
    for act in mcn.activities.values():
        ahead = 0
        for q in act.queue:
            if q.future == fname:
                return act.id_counter + ahead
            if q.method == "freshId":
                ahead += 1
        thread = act.current.get(fname)
        if thread is not None:
            head = thread.stack[0].stmts[0]
            if isinstance(head, MReturn) and isinstance(head.expr, RuntimeVal):
                return head.expr.value
    return None


# -- statement equivalence -----------------------------------------------------


def _translated(s, prefix: str, scope: tuple):
    """``translate_statement(s)`` under a fresh context with the given
    scope, memoized on the (immutable) statement per prefix and scope;
    None if it does not translate."""
    memo = s.__dict__.get("_translated")
    if memo is None:
        memo = {}
        object.__setattr__(s, "_translated", memo)
    key = (prefix, scope)
    if key not in memo:
        tctx = TranslationContext(prefix=prefix, scope=scope)
        try:
            memo[key] = tuple(translate_statement(s, tctx))
        except Exception:
            memo[key] = None
    return memo[key]


def _translate_tail(abs_stmts, ctx: EquivContext, scope: tuple):
    """Translate remaining runtime statements, each on its own."""
    out = ()
    for s in abs_stmts:
        t = _translated(s, ctx.prefix, scope)
        if t is None:
            return None
        out += t
    return out


def _is_plain(x) -> bool:
    """Holds no RuntimeVal, no MethodLit naming a ``condition_<k>`` method
    and no bool: such trees match exactly when they are ``==``
    (``Lit(1) == Lit(True)`` in Python, which ``_stmts_match`` tells
    apart). Memoized on statement nodes."""
    plain = getattr(x, "_plain", None)
    if plain is not None:
        return plain
    cls = x.__class__
    if cls is tuple:
        return all(_is_plain(y) for y in x)
    fields = node_fields[cls]
    if fields is None:
        return cls is not bool
    if cls is RuntimeVal:
        plain = False
    elif cls is MethodLit:
        plain = not x.name.startswith("condition_")
    else:
        plain = all(_is_plain(getattr(x, f)) for f in fields)
    object.__setattr__(x, "_plain", plain)
    return plain


def _stmts_match(a, b, store, cn, ctx) -> bool:
    """Structural equality of statement trees, comparing injected runtime
    values by value equivalence and condition-method names loosely."""
    if isinstance(a, tuple) and isinstance(b, tuple):
        if len(a) != len(b):
            return False
        # the plain suffix is one ``==``; the rest goes first, in order, as
        # its value comparisons may pair futures
        k = len(a)
        while k and _is_plain(a[k - 1]) and _is_plain(b[k - 1]):
            k -= 1
        return all(
            _stmts_match(x, y, store, cn, ctx) for x, y in zip(a[:k], b[:k])
        ) and a[k:] == b[k:]
    if _is_plain(a) and _is_plain(b):
        return a == b
    if isinstance(b, RuntimeVal):
        if isinstance(a, (RuntimeVal, Lit)):
            return value_equiv(a.value, b.value, store, cn, ctx)
        return False
    if isinstance(a, RuntimeVal):
        if isinstance(b, Lit):
            return value_equiv(a.value, b.value, store, cn, ctx)
        return False
    if isinstance(a, MethodLit) and isinstance(b, MethodLit):
        if a.name == b.name:
            return True
        return a.name.startswith("condition_") and b.name.startswith("condition_")
    if type(a) is not type(b):
        return False
    if a is None or isinstance(a, (str, int, bool, frozenset)):
        return a == b
    fields = node_fields[type(a)]
    if fields is None:
        return a == b
    return all(_stmts_match(getattr(a, f), getattr(b, f), store, cn, ctx) for f in fields)


_UNKNOWN = object()  # value of a temporary whose meta-call is still pending


def _strip_temps(masp_stmts, ctx: EquivContext, store=None, locals_=None, relaxed=False):
    """Drop leading assignments (and holes) on translation temporaries.

    Pure assignments are evaluated into the returned virtual locals so
    later expressions still see their values; in relaxed mode pending
    meta-calls on temporaries (register, freshId, synchronisation gets)
    are dropped too, their results marked unknown; their completion is a
    confluent silent sequence."""
    vl = dict(locals_) if locals_ is not None else None
    i = 0
    while i < len(masp_stmts):
        s = masp_stmts[i]
        if isinstance(s, MAssign) and ctx.is_temp(s.target):
            if not isinstance(s.rhs, (MInvoke, MNew, MNewActive)):
                if vl is not None and store is not None:
                    try:
                        vl[s.target] = evaluate(s.rhs, store, vl)
                    except Exception:
                        vl[s.target] = _UNKNOWN
                i += 1
                continue
            if relaxed and isinstance(s.rhs, MInvoke):
                if vl is not None:
                    vl[s.target] = _UNKNOWN
                i += 1
                continue
        if isinstance(s, MHole) and ctx.is_temp(s.target):
            i += 1
            continue
        break
    return masp_stmts[i:], vl


def stmt_equiv(
    abs_stmts,
    masp_stmts,
    store,
    locals_,
    cn,
    ctx: EquivContext = None,
    relaxed: bool = False,
    scope: tuple = (),
) -> bool:
    """Either the translation of the remainder matches, or both sides start
    with an assignment of equivalent values to the same variable. The
    relaxed mode additionally aligns a partially-consumed first clause
    (the backward direction's adapted relation). ``scope`` holds the
    cooperative process's variables, which the translation of a boolean
    guard passes on."""
    ctx = ctx if ctx is not None else EquivContext()
    masp_stmts, vlocals = _strip_temps(
        tuple(masp_stmts), ctx, store, locals_, relaxed
    )
    abs_stmts = tuple(abs_stmts)

    def matches(translated, masp):
        # compare both sides with identical temp-consumption rules
        translated, _ = _strip_temps(translated, ctx, relaxed=relaxed)
        return _stmts_match(translated, masp, store, cn, ctx)

    tail = _translate_tail(abs_stmts, ctx, scope)
    if tail is not None and matches(tail, masp_stmts):
        return True
    if not abs_stmts or not masp_stmts:
        return False
    a0, m0 = abs_stmts[0], masp_stmts[0]
    if (
        isinstance(a0, AAssign)
        and isinstance(m0, MAssign)
        and a0.target == m0.target
        and isinstance(a0.rhs, (RuntimeVal, Lit))
        and not isinstance(m0.rhs, (MInvoke, MNew, MNewActive))
    ):
        v = a0.rhs.value
        try:
            w = evaluate(m0.rhs, store, vlocals)
        except Exception:
            w = _UNKNOWN
        if w is not _UNKNOWN and value_equiv(v, w, store, cn, ctx) and tail is not None:
            rest, _ = _strip_temps(masp_stmts[1:], ctx, store, vlocals, relaxed)
            if matches(tail[len(_translated(a0, ctx.prefix, scope)):], rest):
                return True
    if relaxed and tail is not None:
        # the head clause partly consumed: a proper suffix of the tail
        head = _translated(a0, ctx.prefix, scope)
        return any(matches(tail[i:], masp_stmts) for i in range(1, len(head) + 1))
    return False


# -- configuration equivalence ---------------------------------------------------


def _is_execute(req) -> bool:
    return req.method == "execute"


def _embryonic(act, ctx) -> bool:
    """A scheduler activity not yet hosting any identifiable cooperative
    object (copies whose id still hides behind a future don't count)."""
    if act.registry or any(ident is not None for ident in _copies(act, ctx)):
        return False
    for thread in act.current.values():
        if _is_execute(thread.request):
            return False
    return not any(_is_execute(q) for q in act.queue)


def _copies(act, ctx) -> dict:
    """The activity's copies of its cog's objects: grounded identifier to
    locations, in location order (a just-created object may transiently
    have two identical copies while its register request is in flight)."""
    copies = {}
    cog = ActRef(act.name)
    for loc, storable in sorted(act.store.items(), key=lambda kv: kv[0].index):
        if isinstance(storable, Obj) and storable.fields.get("cog") == cog:
            ident = _chase_ground(storable.fields.get("myId"), act.store, ctx)
            copies.setdefault(ident, []).append(loc)
    return copies


def _fields_equiv(ob: Ob, obj: Obj, store, cn, ctx) -> bool:
    masp_fields = set(obj.fields) - {"myId"}
    if set(ob.fields) != masp_fields:
        return False
    for x, v in ob.fields.items():
        if not value_equiv(v, obj.fields[x], store, cn, ctx):
            return False
    return True


def _execute_ident(req, store, ctx):
    if len(req.args) < 2:
        return None, None
    ident = _chase_ground(req.args[0], store, ctx)
    mname = _chase_ground(req.args[1], store, ctx)
    if isinstance(mname, MethodVal):
        mname = mname.name
    return ident, mname


def _frame_equiv(proc: Process, frame, store, cn, ctx, relaxed) -> bool:
    """(2) A process against a frame: its locals, then its statements."""
    for x, v in proc.locals.items():
        if x in ("destiny", "cont"):
            continue
        if x not in frame.locals or not value_equiv(v, frame.locals[x], store, cn, ctx):
            return False
    return stmt_equiv(
        proc.stmts, frame.stmts, store, frame.locals, cn, ctx, relaxed,
        scope=tuple(proc.locals),
    )


def _task_equiv(
    proc: Process, req, stack, act, cn, ctx, witness_loc, ob, program, relaxed
) -> bool:
    """A process against the execute request ``req`` and the stack of the
    thread serving it (None for a request never served): a two-frame
    stack whose top frame runs on the witness object, else the method
    body freshly bound for the request. In relaxed mode the translation's
    in-between shapes also relate: dispatch prologue (no user frame yet),
    return epilogue (user frame already popped), and small plumbing frames
    stacked above the user frame."""
    dest = proc.locals.get("destiny")
    if not isinstance(dest, FutRef):
        return False
    top = None  # the user frame, if the thread has one
    if stack is not None:
        if len(stack) >= 2 and stack[-2].locals.get("this") == witness_loc:
            top = stack[-2]
            if len(stack) > 2 and not relaxed or not all(map(_plumb_frame, stack[:-2])):
                return False
        # no user frame: dispatch prologue or return epilogue of the execute body
        elif not relaxed or any(f.locals.get("this") != act.active_loc for f in stack):
            return False
    if not ctx.pair(dest.name, req.future):
        return False
    if top is not None:
        return _frame_equiv(proc, top, act.store, cn, ctx, relaxed)
    mname = _execute_ident(req, act.store, ctx)[1]
    obj = act.store.get(witness_loc)
    if mname is not None and isinstance(obj, Obj):
        frame = bind(program, witness_loc, obj.cls, mname, tuple(req.args[2:]))
        if frame is not None and _frame_equiv(proc, frame, act.store, cn, ctx, False):
            return True
    if stack is not None and len(stack) == 1 and isinstance(proc.stmts[0], AReturn):
        return _epilogue_equiv(proc, stack[0], act, ob, cn, ctx)
    return False


def _plumb_frame(frame) -> bool:
    """Addressing helpers push tiny return-only frames above the user's."""
    return len(frame.stmts) <= 2 and isinstance(frame.stmts[-1], MReturn)


def _epilogue_equiv(proc, frame, act, ob, cn, ctx) -> bool:
    v = abs_evaluate(proc.stmts[0].expr, ob.fields, proc.locals)
    if v is UNDEFINED:
        return False
    stmts = frame.stmts
    if (
        len(stmts) == 2
        and isinstance(stmts[0], MAssign)
        and isinstance(stmts[0].rhs, (RuntimeVal, Lit))
        and isinstance(stmts[1], MReturn)
    ):
        w = evaluate(stmts[0].rhs, act.store, frame.locals)
    elif len(stmts) == 1 and isinstance(stmts[0], MReturn):
        w = evaluate(stmts[0].expr, act.store, frame.locals)
    else:
        return False
    return value_equiv(v, w, act.store, cn, ctx)


def config_equiv(
    cn: AbsConfig, mcn: MaspConfig, ctx: EquivContext = None, relaxed: bool = False
):
    """Full configuration equivalence; returns (ok, reason, extended ctx).

    ``relaxed`` admits the translation's deterministic in-between states
    (the adapted relation used when reading executions backwards)."""
    ctx = (ctx or EquivContext()).copy()
    ctx.mcn = mcn
    # (1a) cogs and activities coincide, modulo embryonic scheduler activities
    for cog in cn.cogs:
        if cog not in mcn.activities:
            return False, f"cog {cog} has no activity", ctx
    for name, act in mcn.activities.items():
        if name not in cn.cogs and not _embryonic(act, ctx):
            return False, f"activity {name} has no cog", ctx
    for cog, node in cn.cogs.items():
        act = mcn.activities[cog]
        ok, reason = _cog_equiv(cn, mcn, cog, act, node.objects, ctx, relaxed)
        if not ok:
            return False, reason, ctx
    ok, reason = _futures_equiv(cn, mcn, ctx)
    if not ok:
        return False, reason, ctx
    return True, "", ctx


class _Reads:
    """What a cog check reads outside its memo key: the names it looks up
    in each direction of the future bijection, and what ``cn.futures`` and
    ``_predict_future`` answer, by future name."""

    __slots__ = ("fut", "rev", "futures", "predicted")

    def __init__(self):
        self.fut, self.rev = set(), set()
        self.futures, self.predicted = {}, {}


class _Verdict(NamedTuple):
    """A memoized cog check: its result, its reads with their answers at
    the start of the check, and the pairings it added, in order."""

    keep: tuple  # the program and members, so the key's ids stay taken
    ok: bool
    reason: str
    fut: tuple  # (abs name, masp name or None)
    rev: tuple  # (masp name, abs name or None)
    futures: tuple  # (name, cn.futures answer)
    predicted: tuple  # (name, _predict_future answer)
    fut_added: tuple
    rev_added: tuple

    def holds(self, cn, mcn, ctx) -> bool:
        """Does every read answer the same against ``(cn, mcn, ctx)``?"""
        for a, m in self.fut:
            if ctx.fut_map.get(a) != m:
                return False
        for m, a in self.rev:
            if ctx.rev_map.get(m) != a:
                return False
        for f, v in self.futures:
            if not _same(cn.futures.get(f, UNRESOLVED), v):
                return False
        for f, v in self.predicted:
            if not _same(_predicted(f, mcn), v):
                return False
        return True


def _same(a, b) -> bool:
    return a is b or (type(a) is type(b) and a == b)


def _cog_equiv(cn, mcn, cog, act, members, ctx, relaxed=False):
    """``_check_cog``, memoized on the activity: a stored verdict is reused
    when the check's reads outside the key answer as they did."""
    program = mcn.program
    key = (cog, relaxed, ctx.prefix, id(program), id(members))
    memo = act.__dict__.get("_cog_memo")
    if memo is None:
        memo = {}
        object.__setattr__(act, "_cog_memo", memo)
    fut_map, rev_map = ctx.fut_map, ctx.rev_map
    hit = memo.get(key)
    if hit is not None and hit.holds(cn, mcn, ctx):
        fut_map.update(hit.fut_added)
        rev_map.update(hit.rev_added)
        return hit.ok, hit.reason
    n_fut, n_rev = len(fut_map), len(rev_map)
    ctx.reads = reads = _Reads()
    ok, reason = _check_cog(cn, mcn, cog, act, members, ctx, relaxed)
    ctx.reads = None
    # pair() only ever adds names, so the check's pairings are the maps'
    # newest entries, and every other name answers as it did at the start
    fut_added = tuple(islice(fut_map.items(), n_fut, None))
    rev_added = tuple(islice(rev_map.items(), n_rev, None))
    new_fut, new_rev = dict(fut_added), dict(rev_added)
    memo[key] = _Verdict(
        (program, members),
        ok,
        reason,
        tuple((a, None if a in new_fut else fut_map.get(a)) for a in reads.fut),
        tuple((m, None if m in new_rev else rev_map.get(m)) for m in reads.rev),
        tuple(reads.futures.items()),
        tuple(reads.predicted.items()),
        fut_added,
        rev_added,
    )
    return ok, reason


def _check_cog(cn, mcn, cog, act, members, ctx, relaxed=False):
    """``members``: the cog's objects by identifier, in identifier order."""
    # (1b)/(1c): objects against registered (or in-flight) copies
    store, copies, witness = act.store, None, {}
    for ident, ob in members.items():
        loc = act.registry.get(ident)
        if loc is None and copies is None:
            copies = _copies(act, ctx)
        locs = [loc] if loc is not None else copies.get(ident, ())
        if not locs:
            return False, f"object {ident}_{cog} has no copy"
        for loc in locs:
            obj = store.get(loc)
            if isinstance(obj, Obj) and _fields_equiv(ob, obj, store, cn, ctx):
                witness[ident] = loc
                break
        else:
            return False, f"object {ident}_{cog} fields differ"
    for ident in act.registry:
        if ident not in members:
            return False, f"registered {ident} has no object in {cog}"

    # execute tasks by kind (thread state "A" or "P", or "Q" for a queued
    # request) and target id, in service order; each match removes its task
    tasks = {}
    for kind, req, task in (
        *((t.state, t.request, t) for t in act.current.values()),
        *(("Q", q, q) for q in act.queue),
    ):
        if _is_execute(req):
            key = kind, _execute_ident(req, store, ctx)[0]
            tasks.setdefault(key, []).append(task)

    def equiv(proc, req, stack, ctx):  # against the member the loop below is at
        loc = witness[ident]
        return _task_equiv(proc, req, stack, act, cn, ctx, loc, ob, mcn.program, relaxed)

    for ident, ob in members.items():
        # (1d) the active task: associate threads by their request's target id
        if ob.active is not None:
            if "cont" in ob.active.locals:
                return False, "outside-fragment: synchronous continuation"
            match = tasks.pop(("A", ident), [])
            if len(match) != 1:
                return False, f"object {ident}_{cog}: no matching active task"
            if not equiv(ob.active, match[0].request, match[0].stack, ctx):
                return False, f"object {ident}_{cog}: active task differs"
        # (1e) pending tasks: passive threads (any order) or queued requests
        # (in order)
        passive, fresh = tasks.get(("P", ident), []), []
        for proc in ob.queue:
            if "cont" in proc.locals or _is_continuation(proc):
                return False, "outside-fragment: synchronous continuation"
            for i, t in enumerate(passive):
                trial = ctx.copy()
                if equiv(proc, t.request, t.stack, trial):
                    # the trial's new pairings, in the order it made them
                    ctx.fut_map.update(trial.fut_map)
                    ctx.rev_map.update(trial.rev_map)
                    del passive[i]
                    break
            else:
                fresh.append(proc)
        # fresh processes must match this object's queued requests in order
        queued = tasks.pop(("Q", ident), [])
        if len(fresh) != len(queued):
            return False, f"object {ident}_{cog}: queue length mismatch"
        for proc, req in zip(fresh, queued):
            if not equiv(proc, req, None, ctx):
                return False, f"object {ident}_{cog}: queued request differs"
    # no multi-active execute task may be unaccounted for
    for kind, what in (
        ("A", "active execute thread"),
        ("P", "passive execute thread"),
        ("Q", "queued execute request"),
    ):
        if any(rest for (k, _), rest in tasks.items() if k == kind):
            return False, f"{cog}: spurious {what}"
    return True, ""


def _is_continuation(proc: Process) -> bool:
    if not proc.stmts:
        return False
    head = proc.stmts[0]
    return isinstance(head, AAwait) and isinstance(head.guard, RGFut)


def _futures_equiv(cn, mcn, ctx):
    # (3) unresolved futures agree; infer residual pairings when unambiguous
    abs_unres = [f for f, v in cn.futures.items() if v is UNRESOLVED]
    abs_res = [f for f, v in cn.futures.items() if v is not UNRESOLVED]
    masp_exec = {
        f: b for f, b in mcn.futures.items() if b.method == "execute"
    }
    free_abs = [f for f in abs_unres if f not in ctx.fut_map]
    free_masp = [
        f for f, b in masp_exec.items() if not b.resolved and f not in ctx.rev_map
    ]
    if len(free_abs) == 1 and len(free_masp) == 1:
        ctx.pair(free_abs[0], free_masp[0])  # both names are free: no clash
    for f in abs_unres:
        m = ctx.fut_map.get(f)
        if m is None:
            return False, f"unresolved {f} unpaired"
        binder = mcn.futures.get(m)
        if binder is None or binder.resolved or binder.method != "execute":
            return False, f"unresolved {f} resolved on the other side"
    for f in abs_res:
        m = ctx.fut_map.get(f)
        if m is None:
            return False, f"resolved {f} unpaired"
        binder = mcn.futures.get(m)
        if binder is None or not binder.resolved or binder.method != "execute":
            return False, f"resolved {f} unresolved on the other side"
        piece = binder.piece or {}
        if not value_equiv(cn.futures[f], binder.value, piece, cn, ctx):
            return False, f"future {f} values differ"
    for f, binder in masp_exec.items():
        if f not in ctx.rev_map:
            return False, f"execute future {f} unpaired"
    return True, ""
