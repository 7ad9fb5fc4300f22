"""The equivalence relation between cooperative and multi-active
configurations: value equivalence (with location and future chasing),
statement equivalence (translation match or aligned head assignment),
and full configuration equivalence.

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
along with the cooperative objects, so a third memo lives on each
multi-active ``Activity``: the verdict of the cog check against one cog's
cooperative objects. Its key is the cog name, the ``relaxed`` flag, the
temporary prefix, and the program and the member objects (in order) by
identity. The entry holds the program and the members, so their ids
cannot be reused while it lives, and it dies with the activity. Beyond
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
from .lang.ast_abs import AAssign, AAwait, AReturn, GFut
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


def _chase_ground(v, store, ctx=None):
    if not isinstance(v, Loc):
        return v
    try:
        w = chase(v, store)
    except Exception:
        return None
    if isinstance(w, Loc):
        s = store.get(w)
        if isinstance(s, FutRef):
            return _predict_future(s.name, ctx)
        return w
    return w


def _predict_future(fname: str, ctx) -> object:
    """The determined value of a pending id-allocation future, if any."""
    if ctx is None or ctx.mcn is None:
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

    def norm(stmts):
        # compare both sides with identical temp-consumption rules
        if stmts is None:
            return None
        out, _ = _strip_temps(tuple(stmts), ctx, relaxed=relaxed)
        return out

    translated = norm(_translate_tail(abs_stmts, ctx, scope))
    if translated is not None and _stmts_match(translated, masp_stmts, store, cn, ctx):
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
        if w is not _UNKNOWN and value_equiv(v, w, store, cn, ctx):
            translated = norm(_translate_tail(abs_stmts[1:], ctx, scope))
            rest, _ = _strip_temps(masp_stmts[1:], ctx, store, vlocals, relaxed)
            if translated is not None and _stmts_match(
                translated, rest, store, cn, ctx
            ):
                return True
    if relaxed:
        head_clause = _translate_tail(abs_stmts[:1], ctx, scope)
        rest = _translate_tail(abs_stmts[1:], ctx, scope)
        if head_clause is not None and rest is not None:
            for i in range(1, len(head_clause) + 1):
                cand = norm(head_clause[i:] + rest)
                if _stmts_match(cand, masp_stmts, store, cn, ctx):
                    return True
    return False


# -- configuration equivalence ---------------------------------------------------


def _is_execute(req) -> bool:
    return req.method == "execute"


def _embryonic(act, ctx=None) -> bool:
    """A scheduler activity not yet hosting any identifiable cooperative
    object (copies whose id still hides behind a future don't count)."""
    if act.registry:
        return False
    for storable in act.store.values():
        if (
            isinstance(storable, Obj)
            and storable.fields.get("cog") == ActRef(act.name)
            and _chase_ground(storable.fields.get("myId"), act.store, ctx) is not None
        ):
            return False
    for thread in act.current.values():
        if _is_execute(thread.request):
            return False
    return not any(_is_execute(q) for q in act.queue)


def _object_witnesses(act, ident, ctx=None) -> list:
    """Candidate copies: the registered one, else in-flight copies (a
    just-created object may transiently have two identical copies while
    its register request is in flight)."""
    loc = act.registry.get(ident)
    if loc is not None:
        return [loc]
    candidates = []
    for l, storable in sorted(act.store.items(), key=lambda kv: kv[0].index):
        if (
            isinstance(storable, Obj)
            and storable.fields.get("cog") == ActRef(act.name)
            and _chase_ground(storable.fields.get("myId"), act.store, ctx) == ident
        ):
            candidates.append(l)
    return candidates


def _fields_equiv(ob: Ob, obj: Obj, store, cn, ctx) -> bool:
    masp_fields = set(obj.fields) - {"myId"}
    if set(ob.fields) != masp_fields:
        return False
    for x, v in ob.fields.items():
        if not value_equiv(v, obj.fields[x], store, cn, ctx):
            return False
    return True


def _execute_ident(req, store, ctx=None):
    if len(req.args) < 2:
        return None, None
    ident = _chase_ground(req.args[0], store, ctx)
    mname = req.args[1]
    if isinstance(mname, Loc):
        mname = _chase_ground(mname, store, ctx)
    if isinstance(mname, MethodVal):
        mname = mname.name
    return ident, mname


def _frame_locals_equiv(proc: Process, frame_locals, store, cn, ctx) -> bool:
    for x, v in proc.locals.items():
        if x in ("destiny", "cont"):
            continue
        if x not in frame_locals:
            return False
        if not value_equiv(v, frame_locals[x], store, cn, ctx):
            return False
    return True


def _task_equiv(
    proc: Process,
    thread,
    act,
    cn,
    ctx,
    witness_loc,
    ob=None,
    program=None,
    relaxed=False,
) -> bool:
    """Started-task comparison: a two-frame execute stack whose top frame
    runs on the witness object. In relaxed mode the translation's
    in-between shapes also relate: dispatch prologue (no user frame yet),
    return epilogue (user frame already popped), and small plumbing frames
    stacked above the user frame."""
    stack = thread.stack
    dest = proc.locals.get("destiny")
    if not isinstance(dest, FutRef):
        return False
    if len(stack) >= 2 and stack[-2].locals.get("this") == witness_loc:
        if len(stack) > 2 and not relaxed:
            return False
        if not all(_plumb_frame(f) for f in stack[:-2]):
            return False
        top = stack[-2]
        if not ctx.pair(dest.name, thread.request.future):
            return False
        if not _frame_locals_equiv(proc, top.locals, act.store, cn, ctx):
            return False
        return stmt_equiv(
            proc.stmts, top.stmts, act.store, top.locals, cn, ctx, relaxed,
            scope=tuple(proc.locals),
        )
    if not relaxed:
        return False
    # no user frame: dispatch prologue or return epilogue of the execute body
    if not all(f.locals.get("this") == act.active_loc for f in stack):
        return False
    if not ctx.pair(dest.name, thread.request.future):
        return False
    if program is not None and _bound_start_equiv(
        proc, thread.request, act, program, cn, ctx, witness_loc
    ):
        return True
    if len(stack) == 1 and ob is not None and isinstance(proc.stmts[0], AReturn):
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


def _bound_start_equiv(proc, req, act, program, cn, ctx, witness_loc) -> bool:
    """The cooperative process still sits at its freshly bound body."""
    ident, mname = _execute_ident(req, act.store, ctx)
    if mname is None:
        return False
    obj = act.store.get(witness_loc)
    if not isinstance(obj, Obj):
        return False
    frame = bind(program, witness_loc, obj.cls, mname, tuple(req.args[2:]))
    if frame is None:
        return False
    if not _frame_locals_equiv(proc, frame.locals, act.store, cn, ctx):
        return False
    return stmt_equiv(
        proc.stmts, frame.stmts, act.store, frame.locals, cn, ctx,
        scope=tuple(proc.locals),
    )


def _queued_equiv(proc: Process, req, act, program, cn, ctx, witness_loc) -> bool:
    """(1e) for a never-served request: compare against the bound body."""
    dest = proc.locals.get("destiny")
    if not isinstance(dest, FutRef) or not ctx.pair(dest.name, req.future):
        return False
    return _bound_start_equiv(proc, req, act, program, cn, ctx, witness_loc)


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
    members = {cog: {} for cog in cn.cogs}
    for o in cn.objects.values():
        members.setdefault(o.name.cog, {})[o.name.ident] = o
    for cog in cn.cogs:
        act = mcn.activities[cog]
        ok, reason = _cog_equiv(cn, mcn, cog, act, members[cog], ctx, relaxed)
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
    key = (cog, relaxed, ctx.prefix, id(program), *map(id, members.values()))
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
        (program, tuple(members.values())),
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
    """``members``: the cog's objects by identifier."""
    # (1b)/(1c): objects against registered (or in-flight) copies
    witness = {}
    for ident, ob in members.items():
        locs = _object_witnesses(act, ident, ctx)
        if not locs:
            return False, f"object {ident}_{cog} has no copy"
        hit = None
        for loc in locs:
            obj = act.store.get(loc)
            if isinstance(obj, Obj) and _fields_equiv(ob, obj, act.store, cn, ctx):
                hit = loc
                break
        if hit is None:
            return False, f"object {ident}_{cog} fields differ"
        witness[ident] = hit
    for ident in act.registry:
        if ident not in members:
            return False, f"registered {ident} has no object in {cog}"

    # execute threads and requests, each with the object it targets (which
    # reads only the store and ctx.mcn, so it is computed once per call)
    def target(req):
        return _execute_ident(req, act.store, ctx)[0]

    threads = act.current.values()
    active_exec = [
        (t, target(t.request))
        for t in threads
        if t.state == "A" and _is_execute(t.request)
    ]
    passive_exec = [
        (t, target(t.request))
        for t in threads
        if t.state == "P" and _is_execute(t.request)
    ]
    queued_exec = [(q, target(q)) for q in act.queue if _is_execute(q)]

    used_passive, used_queued = set(), set()
    for ident, ob in sorted(members.items()):
        loc = witness[ident]
        # (1d) the active task: associate threads by their request's target id
        if ob.active is not None:
            if "cont" in ob.active.locals:
                return False, "outside-fragment: synchronous continuation"
            match = [t for t, target_id in active_exec if target_id == ident]
            if len(match) != 1:
                return False, f"object {ident}_{cog}: no matching active task"
            if not _task_equiv(
                ob.active, match[0], act, cn, ctx, loc, ob, mcn.program, relaxed
            ):
                return False, f"object {ident}_{cog}: active task differs"
        # (1e) pending tasks: passive threads (any order) or queued requests
        # (in order)
        fresh = []
        for proc in ob.queue:
            if "cont" in proc.locals or _is_continuation(proc):
                return False, "outside-fragment: synchronous continuation"
            hit = None
            for t, target_id in passive_exec:
                if target_id != ident or id(t) in used_passive:
                    continue
                if _task_equiv(
                    proc, t, act, cn, ctx.copy(), loc, ob, mcn.program, relaxed
                ):
                    hit = t
                    break
            if hit is not None:
                used_passive.add(id(hit))
                _task_equiv(proc, hit, act, cn, ctx, loc, ob, mcn.program, relaxed)
                continue
            fresh.append(proc)
        # fresh processes must match this object's queued requests in order
        mine = [q for q, target_id in queued_exec if target_id == ident]
        if len(fresh) != len(mine):
            return False, f"object {ident}_{cog}: queue length mismatch"
        for proc, req in zip(fresh, mine):
            if not _queued_equiv(proc, req, act, mcn.program, cn, ctx, loc):
                return False, f"object {ident}_{cog}: queued request differs"
            used_queued.add(req.future)
    # no multi-active execute task may be unaccounted for
    accounted_active = sum(1 for o in members.values() if o.active is not None)
    if len(active_exec) != accounted_active:
        return False, f"{cog}: spurious active execute thread"
    if len(used_passive) != len(passive_exec):
        return False, f"{cog}: spurious passive execute thread"
    if len(used_queued) != len(queued_exec):
        return False, f"{cog}: spurious queued execute request"
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
        if not ctx.pair(free_abs[0], free_masp[0]):
            return False, "future pairing clash"
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
