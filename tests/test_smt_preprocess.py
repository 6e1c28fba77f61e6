"""Unit and property tests for the preprocessing pipeline.

The key soundness property: preprocessing preserves satisfiability, and a
model of the residual constraint set extends (via the recorded completion
steps) to a model of the original constraints.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt import (Preprocessor, SmtStatus, TermManager, Verdict,
                       constraint_set_size, evaluate, flatten_conjunction,
                       simplify, smt_solve, to_sexpr)
from strategies import bool_terms, make_manager, replay


@pytest.fixture
def mgr():
    return TermManager()


def run(mgr, constraints, **kwargs):
    return Preprocessor(mgr, **kwargs).run(constraints)


class TestFlatten:
    def test_splits_nested_conjunctions(self, mgr):
        p, q, r = (mgr.bool_var(n) for n in "pqr")
        flat = flatten_conjunction([mgr.and_(p, mgr.and_(q, r))])
        assert flat == [p, q, r]

    def test_size_counts_shared_nodes_once(self, mgr):
        x = mgr.bv_var("x", 8)
        c = mgr.eq(x, mgr.bv_const(1, 8))
        assert constraint_set_size([c, c]) == c.dag_size()


class TestConstantPropagation:
    def test_binding_propagates(self, mgr):
        x, y = mgr.bv_var("x", 8), mgr.bv_var("y", 8)
        result = run(mgr, [
            mgr.eq(x, mgr.bv_const(4, 8)),
            mgr.eq(y, mgr.bvadd(x, mgr.bv_const(1, 8))),
        ])
        assert result.verdict is Verdict.SAT
        model = result.complete_model({})
        assert model[x] == 4 and model[y] == 5

    def test_conflicting_constants_unsat(self, mgr):
        x = mgr.bv_var("x", 8)
        result = run(mgr, [mgr.eq(x, mgr.bv_const(1, 8)),
                           mgr.eq(x, mgr.bv_const(2, 8))])
        assert result.verdict is Verdict.UNSAT

    def test_asserted_bool_var_backward_propagates(self, mgr):
        p, q = mgr.bool_var("p"), mgr.bool_var("q")
        result = run(mgr, [p, mgr.implies(p, q)])
        assert result.verdict is Verdict.SAT
        model = result.complete_model({})
        assert model[p] == 1 and model[q] == 1

    def test_negated_bool_var(self, mgr):
        p = mgr.bool_var("p")
        result = run(mgr, [mgr.not_(p), p])
        assert result.verdict is Verdict.UNSAT


class TestEqualityPropagation:
    def test_chain_collapses(self, mgr):
        # The paper's bar example: z = y, y = 2x; the chained equalities
        # disappear, leaving everything expressed over x.
        x, y, z = (mgr.bv_var(n, 8) for n in "xyz")
        two = mgr.bv_const(2, 8)
        result = run(mgr, [mgr.eq(y, mgr.bvmul(x, two)), mgr.eq(z, y)],
                     enabled=("equalities",))
        assert result.constraints == []
        assert result.verdict is Verdict.SAT

    def test_cyclic_equality_not_substituted_unsoundly(self, mgr):
        x = mgr.bv_var("x", 8)
        # x = x + 1 has no solution; must NOT be treated as a definition.
        constraint = mgr.eq(x, mgr.bvadd(x, mgr.bv_const(1, 8)))
        result = run(mgr, [constraint], enabled=("equalities",))
        assert result.verdict is not Verdict.SAT

    def test_model_completion_follows_definition(self, mgr):
        x, y = mgr.bv_var("x", 8), mgr.bv_var("y", 8)
        result = run(mgr, [mgr.eq(y, mgr.bvadd(x, mgr.bv_const(3, 8)))],
                     enabled=("equalities",))
        assert result.verdict is Verdict.SAT
        model = result.complete_model({x: 10})
        assert model[y] == 13


class TestUnconstrainedElimination:
    def test_paper_section2_example(self, mgr):
        # c = a, d = b, e = c < d with a, b unconstrained: SAT decided in
        # preprocessing, no search needed.
        a, b, c, d = (mgr.bv_var(n, 8) for n in "abcd")
        result = run(mgr, [mgr.eq(c, a), mgr.eq(d, b), mgr.slt(c, d)])
        assert result.verdict is Verdict.SAT
        model = result.complete_model({})
        # The completed model must actually witness c < d.
        assert evaluate(mgr.slt(c, d), model) == 1

    def test_addition_with_fresh_var_unconstrained(self, mgr):
        x, y = mgr.bv_var("x", 8), mgr.bv_var("y", 8)
        # x + (y*y) == 0 is satisfiable for any y since x occurs once.
        constraint = mgr.eq(mgr.bvadd(x, mgr.bvmul(y, y)),
                            mgr.bv_const(0, 8))
        result = run(mgr, [constraint])
        assert result.verdict is Verdict.SAT
        model = result.complete_model({})
        assert evaluate(constraint, model) == 1

    def test_var_occurring_twice_not_eliminated(self, mgr):
        x = mgr.bv_var("x", 8)
        # x + x == 1 is UNSAT in 8-bit arithmetic (LHS always even); an
        # unsound elimination would wrongly declare it SAT.
        constraint = mgr.eq(mgr.bvadd(x, x), mgr.bv_const(1, 8))
        result = run(mgr, [constraint], enabled=("unconstrained",))
        assert result.verdict is not Verdict.SAT

    def test_shared_subterm_counts_as_multiple_occurrences(self, mgr):
        x = mgr.bv_var("x", 8)
        shared = mgr.bvadd(x, mgr.bv_const(1, 8))
        constraint = mgr.eq(mgr.bvmul(shared, shared), mgr.bv_const(3, 8))
        result = run(mgr, [constraint], enabled=("unconstrained",))
        # x reaches the root through two paths; (x+1)^2 == 3 must not be
        # "solved" by unconstrained elimination (it is UNSAT: 3 is not a
        # quadratic residue pattern reachable by squares mod 256).
        assert result.verdict is not Verdict.SAT

    def test_odd_multiplication_inverted(self, mgr):
        x = mgr.bv_var("x", 8)
        constraint = mgr.eq(mgr.bvmul(x, mgr.bv_const(3, 8)),
                            mgr.bv_const(7, 8))
        result = run(mgr, [constraint])
        assert result.verdict is Verdict.SAT
        model = result.complete_model({})
        assert (model[x] * 3) % 256 == 7


class TestGaussianElimination:
    def test_figure1_return_value_conditions(self, mgr):
        # y1 = 2*x1, z1 = y1, c = z1, y2 = 2*x2, z2 = y2, d = z2, c < d.
        names = ["x1", "y1", "z1", "c", "x2", "y2", "z2", "d"]
        v = {n: mgr.bv_var(n, 8) for n in names}
        two = mgr.bv_const(2, 8)
        constraints = [
            mgr.eq(v["y1"], mgr.bvmul(two, v["x1"])),
            mgr.eq(v["z1"], v["y1"]),
            mgr.eq(v["c"], v["z1"]),
            mgr.eq(v["y2"], mgr.bvmul(two, v["x2"])),
            mgr.eq(v["z2"], v["y2"]),
            mgr.eq(v["d"], v["z2"]),
            mgr.slt(v["c"], v["d"]),
        ]
        result = run(mgr, constraints)
        assert result.verdict is Verdict.SAT
        model = result.complete_model({})
        for c in constraints:
            assert evaluate(c, model) == 1

    def test_linear_contradiction(self, mgr):
        x, y = mgr.bv_var("x", 8), mgr.bv_var("y", 8)
        result = run(mgr, [
            mgr.eq(mgr.bvadd(x, y), mgr.bv_const(1, 8)),
            mgr.eq(mgr.bvadd(x, y), mgr.bv_const(2, 8)),
        ], enabled=("gaussian",))
        assert result.verdict is Verdict.UNSAT

    def test_solvable_system(self, mgr):
        x, y = mgr.bv_var("x", 8), mgr.bv_var("y", 8)
        result = run(mgr, [
            mgr.eq(mgr.bvadd(x, y), mgr.bv_const(10, 8)),
            mgr.eq(mgr.bvsub(x, y), mgr.bv_const(4, 8)),
        ])
        assert result.verdict is Verdict.SAT
        model = result.complete_model({})
        assert (model[x] + model[y]) % 256 == 10
        assert (model[x] - model[y]) % 256 == 4

    def test_even_coefficient_divisibility_unsat(self, mgr):
        x = mgr.bv_var("x", 8)
        # 2x = 1 has no solution mod 256: LHS is always even.
        result = run(mgr, [mgr.eq(mgr.bvmul(mgr.bv_const(2, 8), x),
                                  mgr.bv_const(1, 8))],
                     enabled=("gaussian",))
        assert result.verdict is Verdict.UNSAT

    def test_even_coefficient_isolated_row_solved(self, mgr):
        x = mgr.bv_var("x", 8)
        # 254x = 250 mod 256 is solvable (x = 3) despite the even pivot.
        constraint = mgr.eq(mgr.bvmul(mgr.bv_const(254, 8), x),
                            mgr.bv_const(250, 8))
        result = run(mgr, [constraint], enabled=("gaussian",))
        assert result.verdict is Verdict.SAT
        model = result.complete_model({})
        assert evaluate(constraint, model) == 1

    def test_even_row_with_shared_var_kept(self, mgr):
        x, y = mgr.bv_var("x", 8), mgr.bv_var("y", 8)
        # x also appears in a non-linear constraint, so the even row cannot
        # be discharged by fixing x.
        result = run(mgr, [
            mgr.eq(mgr.bvmul(mgr.bv_const(2, 8), x), mgr.bv_const(2, 8)),
            mgr.eq(mgr.bvmul(x, y), mgr.bv_const(9, 8)),
        ], enabled=("gaussian",))
        assert result.verdict is Verdict.UNKNOWN


class TestStrengthReduction:
    def test_mul_by_power_of_two(self, mgr):
        x = mgr.bv_var("x", 8)
        result = run(mgr, [mgr.eq(mgr.bvmul(x, mgr.bv_const(4, 8)),
                                  mgr.bv_var("y", 8))],
                     enabled=("strength",))
        [c] = result.constraints
        assert "bvshl" in repr(c)
        assert result.stats.strength_reduced == 1

    def test_udiv_and_urem_by_power_of_two(self, mgr):
        x, y = mgr.bv_var("x", 8), mgr.bv_var("y", 8)
        result = run(mgr, [
            mgr.eq(y, mgr.bvudiv(x, mgr.bv_const(8, 8))),
        ], enabled=("strength",))
        assert any("bvlshr" in repr(c) for c in result.constraints)
        result = run(mgr, [
            mgr.eq(y, mgr.bvurem(x, mgr.bv_const(8, 8))),
        ], enabled=("strength",))
        assert any("bvand" in repr(c) for c in result.constraints)


class TestPipeline:
    def test_empty_input_is_sat(self, mgr):
        assert run(mgr, []).verdict is Verdict.SAT

    def test_false_constraint_is_unsat(self, mgr):
        assert run(mgr, [mgr.false]).verdict is Verdict.UNSAT

    def test_unknown_pass_name_rejected(self, mgr):
        with pytest.raises(ValueError):
            Preprocessor(mgr, enabled=("nonsense",))

    def test_stats_record_size_reduction(self, mgr):
        x, y, z = (mgr.bv_var(n, 8) for n in "xyz")
        result = run(mgr, [mgr.eq(y, x), mgr.eq(z, y),
                           mgr.slt(z, mgr.bv_var("w", 8))])
        assert result.stats.initial_size > result.stats.final_size
        assert result.verdict is Verdict.SAT


class TestSoundnessProperty:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_preprocess_preserves_satisfiability(self, data):
        """If the evaluator finds a witness for the original constraints,
        preprocessing must not return UNSAT — and SAT verdicts must come
        with extendable models."""
        mgr, bv_vars, bool_vars = make_manager()
        strategy = bool_terms(mgr, bv_vars, bool_vars)
        constraints = data.draw(
            st.lists(strategy, min_size=1, max_size=3))
        witness = data.draw(st.fixed_dictionaries(
            {v: st.integers(0, 15) for v in bv_vars}
            | {v: st.integers(0, 1) for v in bool_vars}))
        original_holds = all(evaluate(c, witness) == 1 for c in constraints)

        result = Preprocessor(mgr).run(constraints)
        if original_holds:
            assert result.verdict is not Verdict.UNSAT
        if result.verdict is Verdict.SAT:
            model = result.complete_model({})
            for c in constraints:
                for var in c.free_vars():
                    model.setdefault(var, 0)
                assert evaluate(c, model) == 1


def _holds(constraint, model):
    for var in constraint.free_vars():
        model.setdefault(var, 0)
    return evaluate(constraint, model) == 1


class TestSubstituteAll:
    """With only variable keys, constraints whose support misses every key
    are skipped; any other key walks every constraint."""

    def test_untouched_constraint_is_kept(self, mgr):
        x, y, z = (mgr.bv_var(n, 8) for n in "xyz")
        touched = mgr.slt(x, y)
        untouched = mgr.ult(z, mgr.bv_const(5, 8))
        out = Preprocessor(mgr)._substitute_all([touched, untouched],
                                                {x: y})
        assert out == [mgr.false, untouched]
        assert {touched.tid, untouched.tid} <= set(mgr.support_memo)

    def test_compound_key_replaced_where_support_looks_untouched(self, mgr):
        """Unconstrained elimination maps a node, not a variable, to a
        fresh variable: the node must be replaced even in a constraint
        whose support shares nothing with the variable keys."""
        x, y, z, w = (mgr.bv_var(n, 8) for n in "xyzw")
        node = mgr.bvadd(x, y)
        fresh = mgr.fresh_var(node.sort)
        first = mgr.eq(node, mgr.bv_const(3, 8))
        second = mgr.ult(z, node)
        pre = Preprocessor(mgr)
        replaced = [simplify(mgr, mgr.eq(fresh, mgr.bv_const(3, 8))),
                    simplify(mgr, mgr.ult(z, fresh))]
        assert pre._substitute_all([first], {node: fresh}) == replaced[:1]
        out = pre._substitute_all([first, second],
                                  {w: mgr.bv_const(1, 8), node: fresh})
        assert out == replaced
        assert all(fresh in c.free_vars() for c in out)
        assert node not in {n for c in out for n in c.iter_dag()}


    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_matches_term_by_term_reference(self, data):
        """Against substituting and simplifying one constraint at a time
        with empty caches: the same constraints, and the same new terms
        interned under the same ids."""
        mgr, bv_vars, bool_vars = make_manager()
        bools = bool_terms(mgr, bv_vars, bool_vars)
        work = data.draw(st.lists(bools, min_size=1, max_size=4))
        keys = data.draw(st.lists(st.sampled_from(bv_vars + bool_vars),
                                  min_size=1, unique=True))
        compound = [n for c in work for n in c.iter_dag() if n.args]
        if compound and data.draw(st.booleans()):
            keys.append(data.draw(st.sampled_from(compound)))
        values = [data.draw(st.sampled_from(
            [v for v in bv_vars + bool_vars if v.sort == key.sort]
            + [c for c in compound if c.sort == key.sort])) for key in keys]

        outcomes = []
        for reference in (False, True):
            manager, copies = replay(work + keys + values)
            n, k = len(work), len(keys)
            mapping = dict(zip(copies[n:n + k], copies[n + k:]))
            if reference:
                out = []
                for c in copies[:n]:
                    manager.simplify_memo.clear()
                    substituted = manager.substitute(c, mapping)
                    out.append(simplify(manager, substituted))
            else:
                out = Preprocessor(manager)._substitute_all(copies[:n],
                                                            mapping)
            outcomes.append(([(c.tid, to_sexpr(c)) for c in out],
                             len(manager)))
        assert outcomes[0] == outcomes[1]


class TestWarmManager:
    """The simplify and support memos persist across runs on one manager;
    a run on a warm manager must match a run whose memos were dropped."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_warm_run_matches_cold_run(self, data):
        mgr, bv_vars, bool_vars = make_manager()
        strategy = bool_terms(mgr, bv_vars, bool_vars)
        target = data.draw(st.lists(strategy, min_size=1, max_size=3))
        pieces = [n for c in target for n in c.iter_dag() if n.sort.is_bool]
        warmup = data.draw(st.lists(strategy, max_size=2))
        warmup += data.draw(st.lists(st.sampled_from(pieces), max_size=2))
        split = len(warmup)

        outcomes = []
        for cold in (False, True):
            manager, copies = replay(warmup + target)
            Preprocessor(manager).run(copies[:split])
            if cold:
                manager.simplify_memo.clear()
                manager.support_memo.clear()
            result = Preprocessor(manager).run(copies[split:])
            outcomes.append((
                result.verdict,
                [(c.tid, to_sexpr(c)) for c in result.constraints],
                result.stats,
                [step.description for step in result.completions],
                len(manager)))
            assert len(manager.simplify_memo) <= len(manager)
            assert len(manager.support_memo) <= len(manager)
            if not cold:
                warm, originals = manager, copies[split:]
        assert outcomes[0] == outcomes[1]

        # The warm manager's completed model satisfies the originals.
        witness = data.draw(st.fixed_dictionaries(
            {v: st.integers(0, 15) for v in bv_vars}
            | {v: st.integers(0, 1) for v in bool_vars}))
        solved = smt_solve(warm, originals, want_model=True)
        if all(_holds(c, dict(witness)) for c in target):
            assert solved.status is SmtStatus.SAT
        if solved.status is SmtStatus.SAT:
            assert all(_holds(c, solved.model) for c in originals)
