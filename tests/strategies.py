"""Shared hypothesis strategies for random term generation.

Terms are built over a fixed pool of bit-vector and Boolean variables so
that satisfiability-oriented properties get interesting sharing, and the
width stays small (4 bits) so brute-force enumeration remains a viable
oracle in property tests.
"""

from __future__ import annotations

import itertools

from hypothesis import strategies as st

from repro.smt.terms import Op, Term, TermManager

WIDTH = 4
NUM_BV_VARS = 3
NUM_BOOL_VARS = 2


def make_manager() -> tuple[TermManager, list[Term], list[Term]]:
    manager = TermManager()
    bv_vars = [manager.bv_var(f"x{i}", WIDTH) for i in range(NUM_BV_VARS)]
    bool_vars = [manager.bool_var(f"p{i}") for i in range(NUM_BOOL_VARS)]
    return manager, bv_vars, bool_vars


def bv_terms(manager: TermManager, bv_vars: list[Term],
             bool_strategy) -> st.SearchStrategy[Term]:
    leaves = st.one_of(
        st.sampled_from(bv_vars),
        st.integers(0, (1 << WIDTH) - 1).map(
            lambda v: manager.bv_const(v, WIDTH)),
    )

    def extend(children: st.SearchStrategy[Term]) -> st.SearchStrategy[Term]:
        binops = st.sampled_from([
            manager.bvadd, manager.bvsub, manager.bvmul,
            manager.bvand, manager.bvor, manager.bvxor,
            manager.bvshl, manager.bvlshr,
            manager.bvudiv, manager.bvurem,
        ])
        unops = st.sampled_from([manager.bvneg, manager.bvnot])
        return st.one_of(
            st.tuples(binops, children, children).map(
                lambda t: t[0](t[1], t[2])),
            st.tuples(unops, children).map(lambda t: t[0](t[1])),
            st.tuples(bool_strategy, children, children).map(
                lambda t: manager.ite(t[0], t[1], t[2])),
        )

    return st.recursive(leaves, extend, max_leaves=8)


def bool_terms(manager: TermManager, bv_vars: list[Term],
               bool_vars: list[Term]) -> st.SearchStrategy[Term]:
    # Break the mutual recursion between Boolean and bit-vector terms by
    # seeding the bit-vector strategy with shallow Boolean conditions.
    shallow_bools = st.one_of(
        st.sampled_from(bool_vars),
        st.just(manager.true),
        st.just(manager.false),
    )
    bvs = bv_terms(manager, bv_vars, shallow_bools)

    leaves = st.one_of(
        st.sampled_from(bool_vars),
        st.just(manager.true),
        st.just(manager.false),
        st.tuples(st.sampled_from([
            manager.eq, manager.ult, manager.ule, manager.slt, manager.sle,
        ]), bvs, bvs).map(lambda t: t[0](t[1], t[2])),
    )

    def extend(children: st.SearchStrategy[Term]) -> st.SearchStrategy[Term]:
        return st.one_of(
            st.tuples(children).map(lambda t: manager.not_(t[0])),
            st.tuples(st.sampled_from([
                lambda a, b: manager.and_(a, b),
                lambda a, b: manager.or_(a, b),
                manager.xor, manager.implies, manager.eq,
            ]), children, children).map(lambda t: t[0](t[1], t[2])),
            st.tuples(children, children, children).map(
                lambda t: manager.ite(t[0], t[1], t[2])),
        )

    return st.recursive(leaves, extend, max_leaves=10)


def all_assignments(bv_vars: list[Term], bool_vars: list[Term]):
    """Enumerate every assignment over the (small) variable pool."""
    bv_domains = [range(1 << WIDTH)] * len(bv_vars)
    bool_domains = [range(2)] * len(bool_vars)
    for values in itertools.product(*bv_domains, *bool_domains):
        assignment = dict(zip(bv_vars, values[:len(bv_vars)]))
        assignment.update(zip(bool_vars, values[len(bv_vars):]))
        yield assignment


def replay(terms: list[Term]) -> tuple[TermManager, list[Term]]:
    """Copy ``terms`` into a fresh manager, interning their nodes in the
    order the source manager did.  Two replays of one list are therefore
    indistinguishable, and an operation run on each must intern the same
    new terms under the same ids."""
    manager = TermManager()
    nodes = {node.tid: node for term in terms for node in term.iter_dag()}
    copies: dict[int, Term] = {}
    for tid in sorted(nodes):
        node = nodes[tid]
        if node.op is Op.VAR:
            copy = manager.var(node.name, node.sort)
        elif node.op is Op.CONST:
            copy = manager.bv_const(node.value, node.sort.width)
        elif node.is_const:
            copy = manager.bool_const(bool(node.value))
        else:
            copy = manager.rebuild(node, tuple(copies[a.tid]
                                               for a in node.args))
        copies[tid] = copy
    return manager, [copies[term.tid] for term in terms]
