"""Statement-level IR extraction: kinds, def/use sets, call sites."""

from __future__ import annotations

import random
import sys

import pytest

import astfuzz
import fixutil
import oracles
import programs
from astgen import (
    Bin,
    Call,
    Contract,
    Fn,
    Id,
    Index,
    Lit,
    Member,
    Modifier,
    EventDef,
    SAsm,
    SAssign,
    SEmit,
    SExpr,
    SOpaque,
    SPlaceholder,
    SRevert,
    StateVar,
    StructDef,
    Un,
    VOpts,
    build_unit,
    yul_assign,
    yul_block,
    yul_call,
    yul_id,
    yul_let,
    yul_lit,
)
from ponzilens.cli import ir_document
from ponzilens.detect import run_static_pipeline
from ponzilens.errors import JsonError, MalformedAst
from ponzilens.hypergraph import NodeId, build
from ponzilens.ingest import load_ast
from ponzilens.model import (
    ContractModel,
    Kind,
    Scope,
    def_use_table,
    linearize,
    lower,
)


def _sv(name: str) -> tuple[Scope, str]:
    return (Scope.STATE, name)


def _lv(name: str) -> tuple[Scope, str]:
    return (Scope.LOCAL, name)


def _pv(name: str) -> tuple[Scope, str]:
    return (Scope.PARAM, name)


def _bv(name: str) -> tuple[Scope, str]:
    return (Scope.BUILTIN, name)


def _refs(f, indices) -> frozenset[tuple[Scope, str]]:
    """The (scope, name) of each entry of `f`'s table that `indices` name."""
    return frozenset((f.decls[i].scope, f.decls[i].name) for i in indices)


def _fn(name: str, contract_fn: str):
    contract, _, fname = contract_fn.partition(".")
    for m in lower(fixutil.load_unit(name)):
        if m.name != contract:
            continue
        for f in m.functions:
            if f.name == fname:
                return f
    raise AssertionError(f"{contract_fn} not found in {name}")


def test_simple_ponzi_statement_kinds():
    f = _fn("simple_ponzi", "SimplePonzi.enter")
    assert [s.kind for s in f.statements] == [
        Kind.DECLARE,
        Kind.ASSIGN,
        Kind.DECLARE,
        Kind.ASSIGN,
        Kind.ASSIGN,
        Kind.ASSIGN,
        Kind.ASSIGN,
        Kind.LOOP,
        Kind.DECLARE,
        Kind.VALUE_TRANSFER,
        Kind.ASSIGN,
        Kind.ASSIGN,
    ]


def test_simple_ponzi_def_use_table():
    f = _fn("simple_ponzi", "SimplePonzi.enter")
    table = {(f.decls[v].scope, f.decls[v].name): du for v, du in def_use_table(f).items()}
    assert table == {
        _bv("msg.sender"): ((), (4,)),
        _bv("msg.value"): ((), (1,)),
        _lv("amount"): ((0, 1), (5, 6)),
        _lv("idx"): ((2,), (4, 5)),
        _lv("transactionAmount"): ((8,), (9, 10)),
        _sv("balance"): ((6, 10), (6, 7, 10)),
        _sv("payoutIdx"): ((11,), (7, 8, 9, 11)),
        _sv("persons"): ((3, 4, 5), (2, 3, 7, 8, 9)),
    }
    # Insertion order is (scope, name) order, so dumps are reproducible.
    assert list(table) == sorted(table)


def test_compound_assign_reads_lhs():
    f = _fn("inherit", "Base.put")
    (s,) = f.statements
    assert _refs(f, s.defs) == {_sv("reserve")}
    assert _refs(f, s.uses) == {_bv("msg.value"), _sv("reserve")}


def test_constructor_names_modern_and_legacy():
    assert _fn("mini_token", "MiniToken.@ctor").name == "@ctor"
    legacy = _fn("legacy", "Legacy.@ctor")
    (s,) = legacy.statements
    assert _refs(legacy, s.defs) == {_sv("owner")}
    assert _refs(legacy, s.uses) == {_bv("msg.sender")}


def test_receive_and_fallback_names():
    _, doc = build_unit(
        "rf",
        [
            Contract(
                "RF",
                [
                    StateVar("uint", "x"),
                    Fn("", [], [SAssign(Id("x"), "=", Lit("1"))], kind="receive", mutability="payable"),
                    Fn("", [], [SAssign(Id("x"), "=", Lit("2"))], kind="fallback"),
                ],
            )
        ],
    )
    m = lower(load_ast(doc))[0]
    assert [f.name for f in m.functions] == ["@receive", "@fallback"]
    assert [f.payable for f in m.functions] == [True, False]
    assert [f.qualified_name for f in m.functions] == ["RF.@receive", "RF.@fallback"]


def test_modifier_inlining_binds_args_then_splices_body():
    join = _fn("gated", "Gated.join")
    kinds = [s.kind for s in join.statements]
    assert kinds == [Kind.ASSIGN, Kind.CALL, Kind.ASSIGN]
    bind, guard, body = join.statements
    assert _refs(join, bind.defs) == {_lv("minv")}
    assert bind.uses == ()
    assert _refs(join, guard.uses) == {_bv("msg.value"), _lv("minv")}
    assert _refs(join, body.defs) == {_sv("pot")}
    assert _refs(join, body.uses) == {_bv("msg.value"), _sv("pot")}


def test_parameterless_modifier_guard():
    sweep = _fn("gated", "Gated.sweep")
    guard = sweep.statements[0]
    assert guard.kind is Kind.CALL
    assert _refs(sweep, guard.uses) == {_bv("msg.sender"), _sv("owner")}
    assert guard.calls == ()


def test_emit_reads_args_without_call_site():
    dep = _fn("pool", "Pool.deposit")
    emit = dep.statements[1]
    assert emit.kind is Kind.EMIT
    assert _refs(dep, emit.uses) == {_bv("msg.sender"), _bv("msg.value")}
    assert emit.calls == ()
    assert emit.defs == ()


@pytest.mark.parametrize("stmt, kind", [(SEmit, Kind.EMIT), (SRevert, Kind.CALL)])
def test_emit_and_revert_keep_nested_call_sites(stmt, kind):
    # emit Ev(f(msg.value)); / revert Ev(f(msg.value)); f is a site, Ev is not.
    _, doc = build_unit(
        "ev",
        [
            Contract(
                "E",
                [
                    StateVar("uint", "x"),
                    EventDef("Ev", [("uint", "v")]),
                    Fn("f", [("uint", "v")], [SAssign(Id("x"), "=", Id("v"))]),
                    Fn("pay", [], [stmt("Ev", [Call(Id("f"), [Member(Id("msg"), "value")])])],
                       mutability="payable"),
                ],
            )
        ],
    )
    unit = load_ast(doc)
    pay = next(f for f in lower(unit)[0].functions if f.name == "pay")
    (s,) = pay.statements
    assert s.kind is kind
    assert [(c.name, _refs(pay, c.arg_reads)) for c in s.calls] == [("f", {_bv("msg.value")})]
    assert _refs(pay, s.uses) == {_bv("msg.value")}
    assert "E.f" in run_static_pipeline(unit).bundle.selected


def test_call_options_transfer_records_single_site():
    flush = _fn("pool", "Pool.flush")
    (s,) = flush.statements
    assert s.kind is Kind.VALUE_TRANSFER
    assert [c.name for c in s.calls] == [".call"]
    assert _refs(flush, s.calls[0].arg_reads) == {_pv("dest"), _sv("poolSize")}


def test_send_transfer_site():
    drain = _fn("inherit", "Child.drain")
    transfer = drain.statements[1]
    assert transfer.kind is Kind.VALUE_TRANSFER
    assert [c.name for c in transfer.calls] == [".send"]
    assert _refs(drain, transfer.calls[0].arg_reads) == {_lv("take"), _pv("target")}


def test_internal_call_sites_resolve_by_name():
    u = fixutil.load_unit("caller")
    m = lower(u)[0]
    sites = {
        f.name: [c.name for s in f.statements for c in s.calls] for f in m.functions
    }
    assert sites == {"stash": [], "bump": [], "take": ["stash"], "tick": ["bump"]}
    take = next(f for f in m.functions if f.name == "take")
    (call_stmt,) = [s for s in take.statements if s.calls]
    assert _refs(take, call_stmt.calls[0].arg_reads) == {_bv("msg.value")}


def test_unresolved_call_keeps_site_and_args():
    ping = _fn("two_contracts", "Beta.ping")
    (s,) = ping.statements
    assert s.kind is Kind.CALL
    assert [(c.name, _refs(ping, c.arg_reads), c.owner) for c in s.calls] == [
        ("mystery", {_pv("n")}, None)
    ]


def test_inline_assembly_reads_through_its_yul_ast():
    lock = _fn("vaulted", "Vaulted.lock")
    asm = lock.statements[1]
    assert asm.kind is Kind.OPAQUE
    assert _refs(lock, asm.uses) == {_sv("vault")}
    assert asm.defs == ()


def _asm_unit(text: str, yul: list[dict] | None) -> dict:
    """Pot, with state pot and a payable put(a) whose body is `assembly {
    text }`, carrying the Yul block of `yul` (no Yul AST when None)."""
    body = [SAsm(text, None if yul is None else yul_block(*yul))]
    put = Fn("put", [("uint", "a")], body, mutability="payable")
    return build_unit("asm", [Contract("Pot", [StateVar("uint", "pot"), put])])[1]


_SSTORE = yul_call("sstore", yul_id("pot.slot"), yul_call("callvalue"))
_ZEROS = [yul_lit("0")] * 5
_PAY = yul_call("call", yul_call("gas"), yul_call("caller"), yul_call("callvalue"), *_ZEROS[:4])
_NO_PAY = yul_call("call", yul_call("gas"), yul_call("caller"), *_ZEROS)


@pytest.mark.parametrize(
    ("text", "yul", "kind", "defs", "uses"),
    [
        # An assembly deposit writes the state it stores to.
        ("sstore(pot.slot, callvalue())", [_SSTORE],
         Kind.OPAQUE, {_sv("pot")}, {_bv("msg.value")}),
        # Neither a comment nor a string literal reads anything.
        ("let z := 0 // was msg.value", [yul_let("z", yul_lit("0"))], Kind.OPAQUE, set(), set()),
        ('let s := "pot"', [yul_let("s", yul_lit("pot", "string"))], Kind.OPAQUE, set(), set()),
        # A Yul local resolves to nothing; a Yul assignment writes.
        ("let b := a a := caller() b := a",
         [yul_let("b", yul_id("a")), yul_assign("a", yul_call("caller")),
          yul_assign("b", yul_id("a"))],
         Kind.OPAQUE, {_pv("a")}, {_pv("a"), _bv("msg.sender")}),
        # A call moving a nonzero value is a transfer; one moving 0 is not.
        ("pop(call(gas(), caller(), callvalue(), 0, 0, 0, 0))", [yul_call("pop", _PAY)],
         Kind.VALUE_TRANSFER, set(), {_bv("msg.sender"), _bv("msg.value")}),
        ("pop(call(gas(), caller(), 0, 0, 0, 0, 0))", [yul_call("pop", _NO_PAY)],
         Kind.OPAQUE, set(), {_bv("msg.sender")}),
        ("let c := create2(sload(pot.slot), 0, 0, a)",
         [yul_let("c", yul_call("create2", yul_call("sload", yul_id("pot.slot")),
                                *_ZEROS[:2], yul_id("a")))],
         Kind.VALUE_TRANSFER, set(), {_sv("pot"), _pv("a")}),
        # solc 0.6 spells x.slot x_slot, and x.offset x_offset.
        ("sstore(pot_slot, callvalue())",
         [yul_call("sstore", yul_id("pot_slot"), yul_call("callvalue"))],
         Kind.OPAQUE, {_sv("pot")}, {_bv("msg.value")}),
        ("let o := pot_offset", [yul_let("o", yul_id("pot_offset"))],
         Kind.OPAQUE, set(), {_sv("pot")}),
        # Before 0.6.0 there is no Yul AST, and the text is not read.
        ("sstore(pot_slot, callvalue())", None, Kind.OPAQUE, set(), set()),
    ],
    ids=["sstore", "comment", "string", "assign", "call", "call_0", "create2", "slot_06",
         "offset_06", "no_ast"],
)
def test_inline_assembly_lowers_from_yul(text, yul, kind, defs, uses):
    fn = lower(load_ast(_asm_unit(text, yul)))[0].functions[0]
    (s,) = fn.statements
    assert (s.kind, _refs(fn, s.defs), _refs(fn, s.uses), s.calls) == (kind, defs, uses, ())


def test_assembly_deposit_taints_the_state_it_stores_to():
    unit = load_ast(_asm_unit("sstore(pot.slot, callvalue())", [_SSTORE]))
    assert NodeId(("Pot", "pot")) in run_static_pipeline(unit).taint.tainted


def test_solc_06_slot_name_deposit_taints_its_stem():
    sstore = yul_call("sstore", yul_id("pot_slot"), yul_call("callvalue"))
    put = Fn("put", [], [SAsm("sstore(pot_slot, callvalue())", yul_block(sstore))],
             mutability="payable")
    pot = Contract("Pot", [StateVar("uint", "pot"), put])
    unit = load_ast(build_unit("asm06", [pot], "^0.6.12", "0.6.12")[1])
    assert NodeId(("Pot", "pot")) in run_static_pipeline(unit).taint.tainted


def test_a_variable_named_like_a_slot_wins_over_the_stem():
    # put's parameter is called pot_slot: the Yul name is that parameter,
    # read as a slot number, and state pot is neither read nor written.
    sstore = yul_call("sstore", yul_id("pot_slot"), yul_call("callvalue"))
    put = Fn("put", [("uint", "pot_slot")],
             [SAsm("sstore(pot_slot, callvalue())", yul_block(sstore))], mutability="payable")
    pot = Contract("Pot", [StateVar("uint", "pot"), put])
    fn = lower(load_ast(build_unit("asm06", [pot], "^0.6.12", "0.6.12")[1]))[0].functions[0]
    (s,) = fn.statements
    assert (s.defs, _refs(fn, s.uses)) == ((), {_pv("pot_slot"), _bv("msg.value")})


def test_unknown_node_reads_its_children_and_not_its_text():
    # Both statements are of a kind lowering does not know; the second
    # carries the expressions `secret` and `msg.value` as children.
    poke = Fn("poke", [], [SOpaque("secret ~~ msg.value"), SOpaque("secret ~~ msg.value")])
    _, doc = build_unit("op", [Contract("Op", [StateVar("uint", "secret"), poke])])
    (entry,) = doc["sources"].values()
    fn_node = entry["ast"]["nodes"][-1]["nodes"][-1]
    mystery = fn_node["body"]["statements"][1]
    mystery["operand"] = {"nodeType": "Identifier", "name": "secret"}
    mystery["more"] = [{"nodeType": "MemberAccess", "memberName": "value",
                        "expression": {"nodeType": "Identifier", "name": "msg"}}]
    fn = lower(load_ast(doc))[0].functions[0]
    text_only, with_children = fn.statements
    assert (text_only.kind, text_only.defs, text_only.uses) == (Kind.OPAQUE, (), ())
    assert with_children.kind is Kind.OPAQUE and with_children.defs == ()
    assert _refs(fn, with_children.uses) == {_sv("secret"), _bv("msg.value")}


@pytest.mark.parametrize("name", fixutil.FIXTURE_NAMES)
def test_lower_reads_the_ast_only(name):
    unit = fixutil.load_unit(name)
    want = ir_document(lower(unit))
    unit.source_text = ""
    assert ir_document(lower(unit)) == want


def test_builtin_call_heads_are_not_sites():
    transfer = _fn("mini_token", "MiniToken.transfer")
    req = transfer.statements[0]
    assert req.kind is Kind.CALL
    assert req.calls == ()
    assert _refs(transfer, req.uses) == {_bv("msg.sender"), _pv("amount"), _sv("balances")}


def test_mapping_writes_read_their_keys():
    ctor = _fn("mini_token", "MiniToken.@ctor")
    first = ctor.statements[0]
    assert _refs(ctor, first.defs) == {_sv("balances")}
    assert _refs(ctor, first.uses) == {_bv("msg.sender"), _pv("supply")}


def test_bare_return_statement():
    f = _fn("hollow", "Noop.nothing")
    (s,) = f.statements
    assert s.kind is Kind.RETURN
    assert s.defs == () and s.uses == ()


def test_view_function_reads_state():
    audit = _fn("pool", "Pool.audit")
    (s,) = audit.statements
    assert s.kind is Kind.RETURN
    assert _refs(audit, s.uses) == {_sv("poolSize")}


def test_constructor_with_literal_only_has_no_uses():
    ctor = _fn("init_rule", "Init.@ctor")
    (s,) = ctor.statements
    assert _refs(ctor, s.defs) == {_sv("limit")}
    assert s.uses == ()


def test_payable_flag():
    assert _fn("init_rule", "Init.fund").payable
    assert not _fn("init_rule", "Init.@ctor").payable


def test_function_spans_are_verbatim():
    u = fixutil.load_unit("simple_ponzi")
    f = lower(u)[0].functions[0]
    start, length = f.source_span
    text = u.source_text[start : start + length]
    assert text.startswith("function enter()")
    assert text.endswith("}")


def test_expression_statement_with_nested_call_argument():
    # g(h(x)) records both sites; the inner one keeps its own argument reads.
    _, doc = build_unit(
        "nest",
        [
            Contract(
                "Nest",
                [
                    StateVar("uint", "x"),
                    Fn("g", [("uint", "a")], []),
                    Fn("h", [("uint", "b")], []),
                    Fn("run", [], [SExpr(Call(Id("g"), [Call(Id("h"), [Id("x")])]))]),
                ],
            )
        ],
    )
    run = next(f for f in lower(load_ast(doc))[0].functions if f.name == "run")
    (s,) = run.statements
    assert sorted(c.name for c in s.calls) == ["g", "h"]
    by_name = {c.name: _refs(run, c.arg_reads) for c in s.calls}
    assert by_name["h"] == {_sv("x")}
    assert _sv("x") in by_name["g"]


_VALUE = Member(Id("msg"), "value")
_CALL_X = Member(Id("x"), "call")


def _pay_statement(expr):
    """The lowered `expr;` in payable C.pay(), where C has state x, c and g
    and a function f."""
    _, doc = build_unit(
        "pay",
        [
            Contract(
                "C",
                [
                    StateVar("address", "x"),
                    StateVar("Bank", "c"),
                    StateVar("uint", "g"),
                    Fn("f", [("uint", "v")], []),
                    Fn("pay", [], [SExpr(expr)], mutability="payable"),
                ],
            )
        ],
    )
    pay = next(f for f in lower(load_ast(doc))[0].functions if f.name == "pay")
    (s,) = pay.statements
    return pay, s


@pytest.mark.parametrize(
    ("expr", "kind", "site", "reads"),
    [
        pytest.param(
            Call(Member(Id("this"), "f"), [_VALUE]), Kind.CALL, "f", {_bv("msg.value")},
            id="this_call",
        ),
        pytest.param(
            Call(Call(Member(Member(Id("c"), "deposit"), "value"), [_VALUE]), [Id("g")]),
            Kind.VALUE_TRANSFER, ".deposit", {_bv("msg.value"), _sv("c"), _sv("g")},
            id="legacy_value_on_a_member",
        ),
        pytest.param(
            Call(VOpts(Member(Id("c"), "deposit"), _VALUE), [Id("g")]),
            Kind.VALUE_TRANSFER, ".deposit", {_bv("msg.value"), _sv("c"), _sv("g")},
            id="options_on_a_member",
        ),
        pytest.param(
            Call(Call(Member(Call(Member(_CALL_X, "gas"), [Id("g")]), "value"), [_VALUE])),
            Kind.VALUE_TRANSFER, ".call", {_bv("msg.value"), _sv("g"), _sv("x")},
            id="gas_then_value",
        ),
        pytest.param(
            Call(Call(Member(Call(Member(_CALL_X, "value"), [_VALUE]), "gas"), [Id("g")])),
            Kind.VALUE_TRANSFER, ".call", {_bv("msg.value"), _sv("g"), _sv("x")},
            id="value_then_gas",
        ),
    ],
)
def test_call_options_belong_to_the_one_site_of_the_called_function(expr, kind, site, reads):
    pay, s = _pay_statement(expr)
    assert s.kind is kind
    assert [c.name for c in s.calls] == [site]
    assert _refs(pay, s.calls[0].arg_reads) == _refs(pay, s.uses) == reads


def test_modifier_arguments_are_read_in_the_function_scope():
    # join(uint v) atLeast(v), where atLeast's parameter is also named v.
    join = _fn("relay", "Bound.join")
    bind, guard, _body = join.statements
    assert (_refs(join, bind.defs), _refs(join, bind.uses)) == ({_lv("v")}, {_pv("v")})
    assert _refs(join, guard.uses) == {_bv("msg.value"), _lv("v")}


def test_modifier_body_resolves_in_its_own_scope():
    # `seen = pot` in track reads the state pot, not join's local pot.
    track = _fn("relay", "Track.join")
    seen, _declare = track.statements
    assert _refs(track, seen.uses) == {_sv("pot")}
    # `pot = f` in fee reads fee's own local f.
    fee = _fn("relay", "Fee.enter")
    declare, pot = fee.statements
    assert _refs(fee, declare.defs) == {_lv("f")}
    assert _refs(fee, pot.uses) == {_lv("f")}


def test_each_function_lowers_its_modifiers_into_its_own_table():
    guard = SExpr(Call(Id("require"), [Bin(Member(Id("msg"), "sender"), "==", Id("owner"))]))
    _, doc = build_unit(
        "shared",
        [
            Contract(
                "Shared",
                [
                    StateVar("address", "owner"),
                    StateVar("uint", "x"),
                    Modifier("onlyOwner", [], [guard, SPlaceholder()]),
                    Fn("a", [], [SAssign(Id("x"), "=", Lit(1))], modifiers=["onlyOwner"]),
                    Fn("b", [], [SAssign(Id("x"), "=", Lit(2))], modifiers=["onlyOwner"]),
                ],
            )
        ],
    )
    a, b = lower(load_ast(doc))[0].functions
    assert a.statements[0] is not b.statements[0]
    for f in (a, b):
        assert _refs(f, f.statements[0].uses) == {_bv("msg.sender"), _sv("owner")}
        assert sorted(d.path for d in f.decls) == [
            ("Shared", f.name, "msg.sender"), ("Shared", "owner"), ("Shared", "x")
        ]


def _run_statements(*body):
    """Lowered `run`, and its statements, in a contract with state members,
    next, a and functions slot and f."""
    _, doc = build_unit(
        "lv",
        [
            Contract(
                "Lv",
                [
                    StateVar("address[]", "members"),
                    StateVar("uint", "next"),
                    StateVar("uint[]", "a"),
                    Fn("slot", [], []),
                    Fn("f", [], []),
                    Fn("run", [("uint", "x")], list(body)),
                ],
            )
        ],
    )
    run = next(f for f in lower(load_ast(doc))[0].functions if f.name == "run")
    return run, run.statements


def test_lvalue_index_keeps_its_writes():
    # members[next++] = msg.sender;
    target = Index(Id("members"), Un("++", Id("next"), prefix=False))
    run, (s,) = _run_statements(SAssign(target, "=", Member(Id("msg"), "sender")))
    assert s.kind is Kind.ASSIGN
    assert _refs(run, s.defs) == {_sv("members"), _sv("next")}
    assert _refs(run, s.uses) == {_sv("next"), _bv("msg.sender")}


def test_lvalue_index_keeps_its_calls():
    # members[slot()] = msg.sender;
    target = Index(Id("members"), Call(Id("slot")))
    run, (s,) = _run_statements(SAssign(target, "=", Member(Id("msg"), "sender")))
    assert s.kind is Kind.ASSIGN
    assert s.callees == ("slot",)
    assert _refs(run, s.defs) == {_sv("members")}


def test_lvalue_index_call_is_recorded_once():
    # a[f()].push(x); a[f()]++; a[f()] += x;
    run, (push, inc, add) = _run_statements(
        SExpr(Call(Member(Index(Id("a"), Call(Id("f"))), "push"), [Id("x")])),
        SExpr(Un("++", Index(Id("a"), Call(Id("f"))), prefix=False)),
        SAssign(Index(Id("a"), Call(Id("f"))), "+=", Id("x")),
    )
    for s in (push, inc, add):
        assert s.callees == ("f",)
        assert _refs(run, s.defs) == {_sv("a")}
        assert _sv("a") in _refs(run, s.uses)


# Each level of an if chain costs the statement walker at least one frame,
# so a chain as deep as the recursion limit is refused.
@pytest.mark.parametrize(
    ("depth", "statements"),
    [(3000, False), (sys.getrecursionlimit(), True)],
    ids=["binary_ops", "ifs"],
)
def test_lowering_refuses_nesting_deeper_than_the_recursion_limit(depth, statements):
    with pytest.raises(MalformedAst, match="nested too deeply"):
        lower(load_ast(programs.deep_doc(depth, statements)))
    shallow = lower(load_ast(programs.deep_doc(100, statements)))
    assert len(shallow[0].functions[0].statements) == (101 if statements else 1)


def test_fuzzed_documents_lower_or_are_refused():
    lowered = 0
    for seed in range(300):
        try:
            lower(load_ast(astfuzz.unit(seed)))
        except (MalformedAst, JsonError):
            continue
        lowered += 1
    # Faults are rare: most documents lower.
    assert lowered > 200


@pytest.mark.parametrize("seed", range(4))
def test_fuzzer_reshapes_lists_and_objects(monkeypatch, seed):
    monkeypatch.setattr(astfuzz, "_RESHAPE", 1.0)
    doc = {"nodes": [{"name": "a"}, 7], "body": {"statements": []}}
    astfuzz._reshape(doc, astfuzz._Gen(seed))
    # A list becomes a scalar or an object keyed by position, whose own
    # object fields become scalars; an object becomes a scalar.
    assert doc["nodes"] in astfuzz._SCALARS or (
        doc["nodes"].keys() == {"0", "1"} and doc["nodes"]["0"] in astfuzz._SCALARS
    )
    assert doc["body"] in astfuzz._SCALARS


def test_member_access_on_a_non_object_reads_nothing():
    # next = msg.sender; a.push(x); with both member bases replaced by
    # non-objects.
    _, doc = build_unit(
        "odd",
        [
            Contract(
                "Odd",
                [
                    StateVar("uint", "next"),
                    StateVar("uint[]", "a"),
                    Fn(
                        "run",
                        [("uint", "x")],
                        [
                            SAssign(Id("next"), "=", Member(Id("msg"), "sender")),
                            SExpr(Call(Member(Id("a"), "push"), [Id("x")])),
                            SExpr(Call(Member(Id("a"), "foo"), [Id("x")])),
                        ],
                    ),
                ],
            )
        ],
    )
    body = doc["sources"]["odd.sol"]["ast"]["nodes"][-1]["nodes"][-1]["body"]
    assign, push, call = (s["expression"] for s in body["statements"])
    assign["rightHandSide"]["expression"] = [1]
    push["expression"]["expression"] = None
    call["expression"]["expression"] = "a"
    run = lower(load_ast(doc))[0].functions[0]
    s1, s2, s3 = run.statements
    assert (_refs(run, s1.defs), s1.uses) == ({_sv("next")}, ())
    assert (s2.defs, _refs(run, s2.uses), s2.calls) == ((), {_pv("x")}, ())
    assert s3.callees == (".foo",)


def _hierarchy(**bases: str) -> dict[str, ContractModel]:
    """Contract models from name="Base1 Base2" (Solidity `is` order)."""
    return {n: ContractModel(n, inherits=b.split()) for n, b in bases.items()}


def _python_mro(models: dict[str, ContractModel], name: str) -> tuple[str, ...]:
    """Python's C3 MRO with each base list reversed, as a reference."""
    classes: dict[str, type] = {}

    def cls(n: str) -> type:
        if n not in classes:
            bases = tuple(cls(b) for b in reversed(models[n].inherits)) or (object,)
            classes[n] = type(n, bases, {})
        return classes[n]

    return tuple(c.__name__ for c in cls(name).__mro__ if c is not object)


def test_linearization_is_c3_with_rightmost_base_most_derived():
    models = _hierarchy(
        O="", A="O", B="O", C="O", D="O", E="O",
        K1="C B A", K2="E B D", K3="A D", Z="K3 K2 K1",
        Diamond="A B",
    )
    lin = linearize(models)
    assert lin["Diamond"] == ("Diamond", "B", "A", "O")
    assert lin["Z"] == ("Z", "K1", "K2", "K3", "D", "A", "B", "C", "E", "O")
    for name in models:
        assert lin[name] == _python_mro(models, name), name
    # Bases declared outside the unit are skipped.
    assert linearize(_hierarchy(A="Ownable", B="A Missing")) == {
        "A": ("A",),
        "B": ("B", "A"),
    }


def test_first_declaration_wins_within_one_contract():
    # K declares x twice; f writes x from y, which K does not declare.
    f = Fn("f", [], [SAssign(Id("x"), "=", Id("y"))])
    _, doc = build_unit(
        "first", [Contract("K", [StateVar("uint", "x"), StateVar("address", "x"), f])]
    )
    (k,) = lower(load_ast(doc))
    first, _second = k.state_vars
    (f,) = k.functions
    assert [(d.path[0], d) for d in f.decls] == [("K", first)]
    assert not any(d.name == "y" for d in f.decls)


def test_lower_binds_each_name_once_per_function():
    # One table entry per (scope, name), each referenced by some statement;
    # a state entry is the declaring contract's own declaration.
    u = fixutil.load_unit("inherit")
    base, child = lower(u)
    (drain,) = child.functions
    assert sorted(_refs(drain, range(len(drain.decls)))) == [
        _lv("take"), _pv("target"), _sv("reserve")
    ]
    assert {i for s in drain.statements for i in s.defs + s.uses} == set(range(len(drain.decls)))
    reserve = next(d for d in drain.decls if d.name == "reserve")
    assert reserve is base.state_vars[0] and reserve.path == ("Base", "reserve")
    take = next(d for d in drain.decls if d.name == "take")
    assert (take.scope, take.path) == (Scope.LOCAL, ("Child", "drain", "take"))
    # Only a state entry has a span: nothing reads a local's or a parameter's.
    off, n = reserve.source_span
    assert u.source_text[off : off + n] == "uint public reserve"
    assert take.source_span is None
    assert next(d for d in drain.decls if d.name == "target").source_span is None
    assert child.linearization == ("Child", "Base")


def test_call_sites_record_the_contract_declaring_their_target():
    # Child.tick calls the inherited bump, then this.bump and an unknown h.
    _, doc = build_unit(
        "own",
        [
            Contract("Base", [StateVar("uint", "x"), Fn("bump", [], [SAssign(Id("x"), "+=", Lit(1))])]),
            Contract(
                "Child",
                [
                    Fn(
                        "tick",
                        [],
                        [
                            SExpr(Call(Id("bump"))),
                            SExpr(Call(Member(Id("this"), "bump"))),
                            SExpr(Call(Id("h"))),
                            SExpr(Call(Member(Id("x"), "bump"))),
                        ],
                    )
                ],
                bases=["Base"],
            ),
        ],
    )
    (tick,) = lower(load_ast(doc))[1].functions
    assert [(c.name, c.owner) for s in tick.statements for c in s.calls] == [
        ("bump", "Base"), ("bump", "Base"), ("h", None), (".bump", None)
    ]


def _bindings(f, indices) -> frozenset[tuple[str, tuple[str, ...]]]:
    return frozenset((f.decls[i].scope.value, f.decls[i].path) for i in indices)


@pytest.mark.parametrize("pragma", ["^0.4.24", "^0.8.19"])
def test_each_identifier_binds_to_the_declaration_in_scope(pragma):
    # Nested ifs and loops whose locals reuse state, outer and sibling
    # names, checked against the generator's own scope model.
    for seed in range(500):
        doc, want = oracles.random_scoped_unit(random.Random(seed), pragma)
        (f,) = lower(load_ast(doc))[0].functions
        got = [(_bindings(f, s.defs), _bindings(f, s.uses)) for s in f.statements]
        assert got == want, seed


def _deposit_target(doc: dict) -> tuple[str, ...]:
    """The node path `pot += msg.value` writes in the block shape's join."""
    join = next(f for f in lower(load_ast(doc))[0].functions if f.name == "join")
    (s,) = [s for s in join.statements if _refs(join, s.uses) >= {_bv("msg.value")}]
    (d,) = s.defs
    return join.decls[d].path


@pytest.mark.parametrize(
    ("compiler", "pragma", "block_scoped"),
    [
        ("0.8.19", "^0.8.19", True),
        ("0.4.26", "^0.4.24", False),
        # Without a version literal in the compiler version, the pragma rules.
        (5, "^0.4.24", False),
        ("latest", "^0.4.24", False),
        ("latest", "^0.8.19", True),
        ("0." + "4" * 5000, "^0.4.24", True),
        # With neither, blocks open scopes.
        (None, "latest", True),
    ],
)
def test_block_local_scope_follows_the_compiler_version(compiler, pragma, block_scoped):
    # join declares a local pot inside an if block, then adds msg.value to
    # pot after the block: state from 0.5.0 on, the hoisted local before.
    _, doc = programs.shape_unit("block", True, pragma)
    doc["compiler"]["version"] = compiler
    assert _deposit_target(doc) == (("Core", "pot") if block_scoped else ("Core", "join", "pot"))


def _emitted(unit, f) -> list[str]:
    """The declaration text of each event in `f.emits`, in order."""
    return [unit.source_text[off : off + n] for off, n in (e.source_span for e in f.emits)]


def test_events_bind_along_the_linearization():
    # Child sees Base's two Paid overloads, its own Left over Base's, and no
    # Other: only an unrelated contract declares that. The modifier's emit
    # lands in the function it wraps; a second emission adds nothing.
    value = Member(Id("msg"), "value")
    base = Contract(
        "Base",
        [
            EventDef("Paid", [("uint", "a")]),
            EventDef("Paid", [("uint", "a"), ("uint", "b")]),
            EventDef("Left", [("uint", "a")]),
        ],
    )
    other = Contract("Other", [EventDef("Other", [("uint", "a")])])
    child = Contract(
        "Child",
        [
            EventDef("Left", [("address", "who")]),
            Modifier("logged", [], [SEmit("Left", [Member(Id("msg"), "sender")]), SPlaceholder()]),
            Fn(
                "pay",
                [],
                [SEmit("Paid", [value]), SEmit("Other", [value]), SEmit("Paid", [value])],
                mutability="payable",
                modifiers=["logged"],
            ),
        ],
        bases=["Base"],
    )
    unit = load_ast(build_unit("events", [base, other, child])[1])
    (pay,) = lower(unit)[2].functions
    assert _emitted(unit, pay) == [
        "event Paid(uint a)",
        "event Paid(uint a, uint b)",
        "event Left(address who)",
    ]


def test_qualified_emit_binds_the_named_contracts_events():
    # Child declares a Paid of its own; `emit Base.Paid(...)` emits Base's
    # two overloads instead, and `emit Other.Ping(...)` the Ping of Other,
    # which Child does not inherit. The slice header holds their lines.
    value = Member(Id("msg"), "value")
    base = Contract(
        "Base", [EventDef("Paid", [("uint", "a")]), EventDef("Paid", [("uint", "a"), ("uint", "b")])]
    )
    other = Contract("Other", [EventDef("Ping", [("uint", "a")])])
    child = Contract(
        "Child",
        [
            StateVar("uint", "pot"),
            EventDef("Paid", [("address", "who")]),
            Fn(
                "pay",
                [],
                [
                    SAssign(Id("pot"), "+=", value),
                    SEmit(Member(Id("Base"), "Paid"), [value]),
                    SEmit(Member(Id("Other"), "Ping"), [value]),
                    SEmit(Member(Id("Nowhere"), "Paid"), [value]),
                ],
                mutability="payable",
            ),
        ],
        bases=["Base"],
    )
    unit = load_ast(build_unit("qualified", [base, other, child])[1])
    (pay,) = lower(unit)[2].functions
    assert _emitted(unit, pay) == [
        "event Paid(uint a)",
        "event Paid(uint a, uint b)",
        "event Ping(uint a)",
    ]
    assert run_static_pipeline(unit).bundle.header.splitlines()[1:] == [
        "event Paid(uint a);",
        "event Paid(uint a, uint b);",
        "event Ping(uint a);",
        "uint public pot;",
    ]


def test_bare_event_call_is_an_emit_not_a_call_site():
    # Before Solidity 0.4.21 `Deposit(msg.value);` emitted the event. It
    # makes no call site, so nothing flows to @external and no unresolved
    # callee is reported; a visible function of that name is still called.
    value = Member(Id("msg"), "value")
    bank = Contract(
        "Bank",
        [
            EventDef("Deposit", [("uint", "amount")]),
            EventDef("Log", [("uint", "amount")]),
            Fn("Log", [("uint", "amount")], []),
            Fn("pay", [], [SExpr(Call(Id("Deposit"), [value])), SExpr(Call(Id("Log"), [value]))],
               mutability="payable"),
        ],
    )
    unit = load_ast(build_unit("bare", [bank], "^0.4.18", "0.4.18")[1])
    models = lower(unit)
    pay = next(f for f in models[0].functions if f.name == "pay")
    deposit, log = pay.statements
    assert deposit.kind is Kind.CALL and deposit.calls == ()
    assert _refs(pay, deposit.uses) == {_bv("msg.value")}
    assert [(c.name, c.owner) for c in log.calls] == [("Log", "Bank")]
    assert _emitted(unit, pay) == ["event Deposit(uint amount)"]
    h = build(models)
    assert h.diagnostics == []
    assert not any(b.path[-1] == "@external" for _a, b in h.all_edges())


def test_struct_and_enum_names_make_no_call_site():
    # S is Base; Base declares struct Person, S enum Tier, the file struct
    # Note. Calling any of them constructs or converts: no call site, so
    # nothing flows to @external and no unresolved callee is reported, but
    # the arguments are read. Other's struct Ping is not visible in S.
    value, sender = Member(Id("msg"), "value"), Member(Id("msg"), "sender")
    base = Contract("Base", [StructDef("Person", [("address", "who"), ("uint", "amount")]),
                             StateVar("Person[]", "persons")])
    join = Fn("join", [("uint", "t")], [
        SExpr(Call(Member(Id("persons"), "push"), [Call(Id("Person"), [sender, value])])),
        SExpr(Call(Id("Tier"), [Id("t")])),
        SExpr(Call(Id("Note"), [value])),
    ], mutability="payable")
    ping = Fn("ping", [], [SExpr(Call(Id("Ping"), [value]))], mutability="payable")
    other = Contract("Other", [StructDef("Ping", [("uint", "n")])])
    _, doc = build_unit("structs", [base, Contract("S", [join, ping], bases=["Base"]), other])
    (entry,) = doc["sources"].values()
    entry["ast"]["nodes"][2]["nodes"].append({"nodeType": "EnumDefinition", "name": "Tier"})
    entry["ast"]["nodes"].append({"nodeType": "StructDefinition", "name": "Note", "members": []})
    models = lower(load_ast(doc))
    join, ping = models[1].functions
    push, tier, note = join.statements
    assert [s.calls for s in join.statements] == [(), (), ()]
    assert _refs(join, push.defs) == {_sv("persons")}
    assert _refs(join, push.uses) == {_sv("persons"), _bv("msg.sender"), _bv("msg.value")}
    assert _refs(join, tier.uses) == {_pv("t")}
    assert _refs(join, note.uses) == {_bv("msg.value")}
    assert [c.name for s in ping.statements for c in s.calls] == ["Ping"]
    h = build(models)
    assert h.diagnostics == ["unresolved callee 'Ping' in S.ping"]
    assert {a.path for a, b in h.all_edges() if b.path[-1] == "@external"} == {
        ("S", "ping", "msg.value")
    }


def _try_unit(clause_params: list[str]) -> dict:
    """T with state x and r, whose f holds `try this.g() {...} catch ...`:
    one clause declaring `clause_params`, whose block is `x = r;`, then
    `x = r;` after the try statement."""
    _, doc = build_unit(
        "tc",
        [Contract("T", [StateVar("uint", "x"), StateVar("uint", "r"), Fn("g", [], []),
                        Fn("f", [], [SAssign(Id("x"), "=", Id("r"))])])],
    )
    (entry,) = doc["sources"].values()
    f = next(m for m in entry["ast"]["nodes"][-1]["nodes"] if m.get("name") == "f")
    (assign,) = f["body"]["statements"]
    uint = {"nodeType": "ElementaryTypeName", "name": "uint"}
    params = [{"nodeType": "VariableDeclaration", "name": p, "typeName": uint} for p in clause_params]
    clause = {
        "nodeType": "TryCatchClause",
        "parameters": {"nodeType": "ParameterList", "parameters": params},
        "block": {"nodeType": "Block", "statements": [assign]},
    }
    call = {"nodeType": "FunctionCall", "arguments": [],
            "expression": {"nodeType": "MemberAccess", "memberName": "g",
                           "expression": {"nodeType": "Identifier", "name": "this"}}}
    f["body"]["statements"] = [{"nodeType": "TryStatement", "externalCall": call,
                                "clauses": [clause]}, assign]
    return doc


def test_try_catch_clause_parameters_are_locals_of_their_clause():
    f = next(f for f in lower(load_ast(_try_unit(["r"])))[0].functions if f.name == "f")
    _try, inside, after = f.statements
    assert inside.kind is Kind.ASSIGN
    assert [f.decls[i].path for i in inside.uses] == [("T", "f", "r")]
    assert [f.decls[i].path for i in inside.defs] == [("T", "x")]
    # Past its clause the parameter is out of scope: r is the state variable.
    assert [f.decls[i].path for i in after.uses] == [("T", "r")]
    # A clause without parameters leaves r to the state variable.
    f = next(f for f in lower(load_ast(_try_unit([])))[0].functions if f.name == "f")
    assert [f.decls[i].path for i in f.statements[1].uses] == [("T", "r")]
