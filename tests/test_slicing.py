"""Function-level slice selection and assembly."""

from __future__ import annotations

import random

import fixutil
import oracles
from astgen import (
    Call,
    Contract,
    EventDef,
    Fn,
    Id,
    Member,
    SAssign,
    SEmit,
    SExpr,
    SOpaque,
    StateVar,
    build_unit,
)
from ponzilens.hypergraph import GraphId, NodeId, build
from ponzilens.ingest import load_ast
from ponzilens.model import lower
from ponzilens.slicing import HEADER_MARK, combine_slices, select_functions
from ponzilens.taint import default_sources, tpa


def _pipeline(name: str):
    u = fixutil.load_unit(name)
    models = lower(u)
    h = build(models)
    t = tpa(h, default_sources(h))
    return u, models, h, t


def _selected(name: str, include_constructors: bool = True):
    _u, models, h, t = _pipeline(name)
    return select_functions(t, h, models, include_constructors=include_constructors)


def test_selection_on_fixtures():
    assert _selected("simple_ponzi") == ["SimplePonzi.enter"]
    assert _selected("pool") == ["Pool.deposit", "Pool.audit", "Pool.flush"]
    assert _selected("gated") == ["Gated.@ctor", "Gated.sweep", "Gated.join"]
    assert _selected("caller") == ["Caller.stash", "Caller.take"]
    assert _selected("mini_token") == ["MiniToken.@ctor", "MiniToken.transfer"]
    assert _selected("two_contracts") == ["Alpha.keep"]
    assert _selected("inherit") == ["Base.put", "Child.drain"]
    assert _selected("multi_base") == ["B.f", "C.go"]
    assert _selected("vaulted") == ["Vaulted.lock"]
    assert _selected("legacy") == ["Legacy.@ctor"]
    assert _selected("hollow") == []


def test_constructor_flag_gates_state_initializers_only():
    # Init's constructor touches no tainted data itself; it is pulled in
    # only because a tainted state variable is visible to it.
    assert _selected("init_rule", include_constructors=True) == [
        "Init.@ctor",
        "Init.fund",
    ]
    assert _selected("init_rule", include_constructors=False) == ["Init.fund"]
    # A constructor with its own tainted refs stays selected either way.
    assert "Gated.@ctor" in _selected("gated", include_constructors=False)


def test_hypernode_taint_selects_callee():
    # stash's own refs are all clean; it is selected because its hypernode
    # received a tainted argument.
    selected = _selected("caller")
    assert "Caller.stash" in selected


def test_slice_texts_are_verbatim_spans():
    u, models, h, t = _pipeline("simple_ponzi")
    bundle = combine_slices(select_functions(t, h, models), models, u.source_text)
    text = bundle.per_function["SimplePonzi.enter"]
    assert text in u.source_text
    assert text.startswith("function enter()")
    assert text.count("{") == text.count("}")


def test_combined_joins_in_source_order():
    u, models, h, t = _pipeline("pool")
    bundle = combine_slices(select_functions(t, h, models), models, u.source_text)
    assert bundle.selected == ("Pool.deposit", "Pool.audit", "Pool.flush")
    parts = bundle.combined_text.split("\n\n")
    assert parts == [
        bundle.per_function["Pool.deposit"],
        bundle.per_function["Pool.audit"],
        bundle.per_function["Pool.flush"],
    ]
    order = [u.source_text.index(p) for p in parts]
    assert order == sorted(order)


def test_header_lists_state_and_emitted_events():
    u, models, h, t = _pipeline("pool")
    bundle = combine_slices(select_functions(t, h, models), models, u.source_text)
    assert bundle.header == (
        HEADER_MARK
        + "\nuint public poolSize;"
        + "\nevent Deposited(address who, uint amount);"
    )
    # keeper is state but only rename (excluded) touches it.
    assert "keeper" not in bundle.header


def test_header_skips_events_missing_from_slice():
    u, models, h, t = _pipeline("pool")
    bundle = combine_slices(["Pool.flush"], models, u.source_text)
    assert bundle.header == HEADER_MARK + "\nuint public poolSize;"
    assert "Deposited" not in bundle.header


def test_header_empty_when_nothing_selected():
    u, models, h, t = _pipeline("hollow")
    bundle = combine_slices([], models, u.source_text)
    assert bundle.header == ""
    assert bundle.combined_text == ""
    assert bundle.stats.functions_total == 1
    assert bundle.stats.functions_selected == 0


def test_duplicate_selection_kept_once():
    u, models, h, t = _pipeline("pool")
    bundle = combine_slices(["Pool.deposit", "Pool.deposit"], models, u.source_text)
    assert bundle.selected == ("Pool.deposit",)
    assert list(bundle.per_function) == ["Pool.deposit"]
    assert bundle.combined_text == bundle.per_function["Pool.deposit"]


def test_unknown_function_is_skipped_not_fatal():
    u, models, h, t = _pipeline("pool")
    bundle = combine_slices(["Ghost.fn", "Pool.audit"], models, u.source_text)
    assert "Ghost.fn" in bundle.stats.skipped
    assert list(bundle.per_function) == ["Pool.audit"]


def test_excluding_functions_shrinks_bytes():
    u, models, h, t = _pipeline("pool")
    bundle = combine_slices(select_functions(t, h, models), models, u.source_text)
    assert bundle.stats.functions_selected < bundle.stats.functions_total
    assert len(bundle.combined_text.encode()) < len(u.source_text.encode())
    assert bundle.stats.combined_bytes == len(bundle.combined_text.encode())


def test_selection_matches_independent_predicate_on_fixtures():
    for name in fixutil.FIXTURE_NAMES:
        _u, models, h, t = _pipeline(name)
        for flag in (True, False):
            got = select_functions(t, h, models, include_constructors=flag)
            want = [
                f"{c}.{f}"
                for c, f in oracles.selection_oracle(models, set(t.tainted), flag)
            ]
            assert got == want, name


def test_selection_matches_independent_predicate_on_random_models():
    rng = random.Random(60193)
    for _ in range(200):
        models, _source = oracles.random_models(rng)
        h = build(models)
        # Every state reference names the contract Solidity's C3 order picks.
        eps = h.view().endpoints
        refs = {
            (m.name, f.name): set(map(eps.__getitem__, h.function_refs(m.name, f.name)[1]))
            for m in models
            for f in m.functions
        }
        assert refs == oracles.reference_nodes(models)
        t = tpa(h, default_sources(h))
        for flag in (True, False):
            got = select_functions(t, h, models, include_constructors=flag)
            want = [
                f"{c}.{f}"
                for c, f in oracles.selection_oracle(models, set(t.tainted), flag)
            ]
            assert got == want


def test_overloads_share_one_hypernode_and_its_refs():
    # Both f overloads lower to the hypernode O.f. Only f(uint) reads the
    # tainted x; the hypernode's references are the union, so O.f is kept.
    contract = Contract(
        "O",
        [
            StateVar("uint", "x"),
            StateVar("uint", "z"),
            Fn("g", [], [SAssign(Id("x"), "=", Member(Id("msg"), "value"))], mutability="payable"),
            Fn("f", [("uint", "a")], [SAssign(Id("a"), "=", Id("x"))]),
            Fn("f", [("address", "b")], [SAssign(Id("z"), "=", Id("z"))]),
        ],
    )
    u = load_ast(build_unit("overloads", [contract])[1])
    models = lower(u)
    h = build(models)
    g, nodes = h.function_refs("O", "f")
    eps = h.view().endpoints
    assert eps[g] == GraphId(("O", "f"))
    assert {NodeId(("O", "x")), NodeId(("O", "z"))} <= set(map(eps.__getitem__, nodes))
    t = tpa(h, default_sources(h))
    assert select_functions(t, h, models) == ["O.g", "O.f", "O.f"]


def _static(contract: Contract):
    u = load_ast(build_unit(contract.name.lower(), [contract])[1])
    models = lower(u)
    h = build(models)
    return u, models, h


def test_every_overload_body_reaches_the_bundle():
    # f(uint) reads x; the payable f(address) writes msg.value into x. The
    # slice of O.f holds both bodies, each from its own span, in source order.
    u, models, h = _static(
        Contract(
            "O",
            [
                StateVar("uint", "x"),
                Fn("f", [("uint", "a")], [SAssign(Id("a"), "=", Id("x"))]),
                Fn(
                    "f",
                    [("address", "b")],
                    [SAssign(Id("x"), "=", Member(Id("msg"), "value"))],
                    mutability="payable",
                ),
            ],
        )
    )
    t = tpa(h, default_sources(h))
    bundle = combine_slices(select_functions(t, h, models), models, u.source_text)
    spans = [f.source_span for f in models[0].functions]
    first, second = (u.source_text[o : o + n] for o, n in spans)
    assert bundle.selected == ("O.f",)
    assert bundle.per_function["O.f"] == first + "\n\n" + second
    assert bundle.combined_text == first + "\n\n" + second
    assert "x = msg.value" in bundle.combined_text


def test_header_keeps_events_invoked_as_whole_identifiers():
    value = Member(Id("msg"), "value")
    u, models, h = _static(
        Contract(
            "Bank",
            [
                StateVar("uint", "total"),
                EventDef("Deposit", [("uint", "amount")]),
                Fn("makeDeposit", [], [SAssign(Id("total"), "+=", value)], mutability="payable"),
                Fn("pay", [], [SEmit("Deposit", [value])], mutability="payable"),
                # Before Solidity 0.4.21 an event was invoked like a function.
                Fn("legacyPay", [], [SExpr(Call(Id("Deposit"), [value]))], mutability="payable"),
            ],
        )
    )
    event = "event Deposit(uint amount);"
    # makeDeposit contains the text "Deposit" but never invokes the event.
    assert event not in combine_slices(["Bank.makeDeposit"], models, u.source_text).header
    assert event in combine_slices(["Bank.pay"], models, u.source_text).header
    assert event in combine_slices(["Bank.legacyPay"], models, u.source_text).header


def test_header_holds_the_events_lowering_bound():
    # Child.pay emits Paid, which its base declares, and Gone, which only the
    # unrelated Other declares, so nothing Child sees binds it. A comment
    # naming Held emits nothing, although the text `Held(` is in the slice.
    value = Member(Id("msg"), "value")
    pay = Fn(
        "pay",
        [],
        [SEmit("Paid", [value]), SOpaque("// emit Held(msg.value);"), SEmit("Gone", [value])],
        mutability="payable",
    )
    contracts = [
        Contract("Base", [EventDef("Paid", [("uint", "amount")])]),
        Contract("Other", [EventDef("Gone", [("uint", "amount")])]),
        Contract("Child", [EventDef("Held", [("uint", "amount")]), pay], bases=["Base"]),
    ]
    _, doc = build_unit("bound", contracts)
    # Drop the comment's statement node: solc keeps no node for a comment.
    (entry,) = doc["sources"].values()
    body = entry["ast"]["nodes"][-1]["nodes"][-1]["body"]
    body["statements"] = [s for s in body["statements"] if s["nodeType"] != "MysteryStatement"]
    u = load_ast(doc)
    bundle = combine_slices(["Child.pay"], lower(u), u.source_text)
    assert "// emit Held(msg.value);" in bundle.combined_text
    assert bundle.header == HEADER_MARK + "\nevent Paid(uint amount);"
