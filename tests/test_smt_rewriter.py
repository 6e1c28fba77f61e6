"""Unit and property tests for the local rewriter (LFS tactic)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt import Op, TermManager, evaluate, simplify, to_sexpr
from strategies import all_assignments, bool_terms, make_manager, replay


@pytest.fixture
def mgr():
    return TermManager()


class TestConstantFolding:
    def test_arith_folds(self, mgr):
        expr = mgr.bvadd(mgr.bv_const(200, 8), mgr.bv_const(100, 8))
        assert simplify(mgr, expr) is mgr.bv_const(44, 8)

    def test_comparison_folds(self, mgr):
        expr = mgr.slt(mgr.bv_const(255, 8), mgr.bv_const(1, 8))
        assert simplify(mgr, expr) is mgr.true

    def test_nested_folding(self, mgr):
        one = mgr.bv_const(1, 8)
        expr = mgr.eq(mgr.bvadd(one, mgr.bvmul(one, one)), mgr.bv_const(2, 8))
        assert simplify(mgr, expr) is mgr.true


class TestBooleanRules:
    def test_double_negation(self, mgr):
        p = mgr.bool_var("p")
        assert simplify(mgr, mgr.not_(mgr.not_(p))) is p

    def test_and_absorbs_true_false(self, mgr):
        p = mgr.bool_var("p")
        assert simplify(mgr, mgr.and_(p, mgr.true)) is p
        assert simplify(mgr, mgr.and_(p, mgr.false)) is mgr.false

    def test_and_contradiction(self, mgr):
        p = mgr.bool_var("p")
        assert simplify(mgr, mgr.and_(p, mgr.not_(p))) is mgr.false

    def test_or_tautology(self, mgr):
        p = mgr.bool_var("p")
        assert simplify(mgr, mgr.or_(p, mgr.not_(p))) is mgr.true

    def test_and_dedupes(self, mgr):
        p, q = mgr.bool_var("p"), mgr.bool_var("q")
        result = simplify(mgr, mgr.and_(p, q, p, q, p))
        assert result.op is Op.AND and len(result.args) == 2

    def test_implies_reflexive(self, mgr):
        p = mgr.bool_var("p")
        assert simplify(mgr, mgr.implies(p, p)) is mgr.true

    def test_eq_with_true_erases(self, mgr):
        p = mgr.bool_var("p")
        assert simplify(mgr, mgr.eq(p, mgr.true)) is p
        assert simplify(mgr, mgr.eq(mgr.false, p)) is simplify(
            mgr, mgr.not_(p))

    def test_xor_self_cancels(self, mgr):
        p = mgr.bool_var("p")
        assert simplify(mgr, mgr.xor(p, p)) is mgr.false


class TestIteRules:
    def test_constant_condition(self, mgr):
        x, y = mgr.bv_var("x", 8), mgr.bv_var("y", 8)
        assert simplify(mgr, mgr.ite(mgr.true, x, y)) is x
        assert simplify(mgr, mgr.ite(mgr.false, x, y)) is y

    def test_equal_branches(self, mgr):
        p = mgr.bool_var("p")
        x = mgr.bv_var("x", 8)
        assert simplify(mgr, mgr.ite(p, x, x)) is x

    def test_bool_ite_to_condition(self, mgr):
        p = mgr.bool_var("p")
        assert simplify(mgr, mgr.ite(p, mgr.true, mgr.false)) is p
        assert simplify(mgr, mgr.ite(p, mgr.false, mgr.true)) is simplify(
            mgr, mgr.not_(p))


class TestBitvectorRules:
    def test_add_zero(self, mgr):
        x = mgr.bv_var("x", 8)
        assert simplify(mgr, mgr.bvadd(x, mgr.bv_const(0, 8))) is x

    def test_sub_self(self, mgr):
        x = mgr.bv_var("x", 8)
        assert simplify(mgr, mgr.bvsub(x, x)) is mgr.bv_const(0, 8)

    def test_mul_identities(self, mgr):
        x = mgr.bv_var("x", 8)
        assert simplify(mgr, mgr.bvmul(x, mgr.bv_const(1, 8))) is x
        assert simplify(mgr, mgr.bvmul(x, mgr.bv_const(0, 8))) \
            is mgr.bv_const(0, 8)

    def test_and_or_identities(self, mgr):
        x = mgr.bv_var("x", 8)
        ones = mgr.bv_const(255, 8)
        zero = mgr.bv_const(0, 8)
        assert simplify(mgr, mgr.bvand(x, ones)) is x
        assert simplify(mgr, mgr.bvand(x, zero)) is zero
        assert simplify(mgr, mgr.bvor(x, zero)) is x
        assert simplify(mgr, mgr.bvor(x, ones)) is ones

    def test_xor_self_zero(self, mgr):
        x = mgr.bv_var("x", 8)
        assert simplify(mgr, mgr.bvxor(x, x)) is mgr.bv_const(0, 8)

    def test_shift_zero(self, mgr):
        x = mgr.bv_var("x", 8)
        assert simplify(mgr, mgr.bvshl(x, mgr.bv_const(0, 8))) is x

    def test_irreflexive_comparisons(self, mgr):
        x = mgr.bv_var("x", 8)
        assert simplify(mgr, mgr.slt(x, x)) is mgr.false
        assert simplify(mgr, mgr.ult(x, x)) is mgr.false
        assert simplify(mgr, mgr.sle(x, x)) is mgr.true

    def test_ult_zero_false(self, mgr):
        x = mgr.bv_var("x", 8)
        assert simplify(mgr, mgr.ult(x, mgr.bv_const(0, 8))) is mgr.false

    def test_commutative_canonicalisation_merges_terms(self, mgr):
        x, y = mgr.bv_var("x", 8), mgr.bv_var("y", 8)
        assert simplify(mgr, mgr.bvadd(x, y)) is simplify(mgr, mgr.bvadd(y, x))


class TestIdempotence:
    def test_simplify_is_idempotent_on_examples(self, mgr):
        p = mgr.bool_var("p")
        x, y = mgr.bv_var("x", 8), mgr.bv_var("y", 8)
        exprs = [
            mgr.and_(p, mgr.not_(mgr.not_(p))),
            mgr.eq(mgr.bvadd(x, mgr.bv_const(0, 8)), mgr.bvmul(y, y)),
            mgr.ite(p, mgr.slt(x, y), mgr.slt(y, x)),
        ]
        for expr in exprs:
            once = simplify(mgr, expr)
            assert simplify(mgr, once) is once


class TestSoundnessProperty:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_simplify_preserves_semantics(self, data):
        mgr, bv_vars, bool_vars = make_manager()
        term = data.draw(bool_terms(mgr, bv_vars, bool_vars))
        simplified = simplify(mgr, term)
        assert simplified.dag_size() <= term.dag_size() + 1
        # Spot-check a handful of assignments rather than the full 2^14.
        for i, env in enumerate(all_assignments(bv_vars, bool_vars)):
            if i % 977 == 0 or i < 4:
                assert evaluate(term, env) == evaluate(simplified, env)


class TestMemo:
    """``simplify`` memoizes on the manager; a warm memo must answer
    exactly what a cold walk would, term for term and id for id."""

    def test_memo_hit_interns_nothing(self, mgr):
        x, y = mgr.bv_var("x", 8), mgr.bv_var("y", 8)
        expr = mgr.eq(mgr.bvadd(y, x), mgr.bvmul(x, mgr.bv_const(1, 8)))
        first = simplify(mgr, expr)
        memo, terms = len(mgr.simplify_memo), len(mgr)
        assert simplify(mgr, expr) is first
        assert (len(mgr.simplify_memo), len(mgr)) == (memo, terms)

    def test_memo_covers_every_sub_term(self, mgr):
        x, y = mgr.bv_var("x", 8), mgr.bv_var("y", 8)
        inner = mgr.bvadd(x, mgr.bv_const(0, 8))
        expr = mgr.ult(inner, y)
        simplify(mgr, expr)
        assert {node.tid for node in expr.iter_dag()} \
            <= set(mgr.simplify_memo)
        assert mgr.simplify_memo[inner.tid] is x

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_warm_memo_matches_cold_walk(self, data):
        mgr, bv_vars, bool_vars = make_manager()
        strategy = bool_terms(mgr, bv_vars, bool_vars)
        target = data.draw(strategy)
        # Warm the memo with other terms and with pieces of the target.
        warmup = data.draw(st.lists(strategy, max_size=3))
        warmup += data.draw(st.lists(
            st.sampled_from(list(target.iter_dag())), max_size=3))

        outcomes = []
        for cold in (False, True):
            manager, copies = replay(warmup + [target])
            for term in copies[:-1]:
                simplify(manager, term)
            if cold:
                manager.simplify_memo.clear()
            result = simplify(manager, copies[-1])
            outcomes.append((result.tid, to_sexpr(result), len(manager)))
            assert len(manager.simplify_memo) <= len(manager)
        assert outcomes[0] == outcomes[1]
