import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mopareto.constructors import grid_select
from mopareto.dominance import DominationDigraph, domination_digraph, r_dominates
from mopareto.domsets import (
    NodeLimitExceeded,
    exact_min_dominating_set,
    greedy_cover_dominating_set,
    greedy_tournament_dominating_set,
    tournament_view,
)
from mopareto.generators import (
    gen_antichain,
    gen_duplicated,
    gen_prop_dominated,
    gen_quasi2_gap,
    gen_random,
)
from mopareto.model import RelationKind, RelationSpec, Solution


def sols(*vectors):
    return [
        Solution(f"s{i}", tuple(Fraction(v) for v in vec))
        for i, vec in enumerate(vectors, start=1)
    ]


def digraph_of(out):
    nodes = tuple(out)
    rows = tuple(sum(1 << nodes.index(v) for v in set(vs) | {u}) for u, vs in out.items())
    return DominationDigraph(nodes=nodes, rows=rows)


def is_dominating(graph, members):
    """The reference cover check: every node is a member or the target of an arc from a member."""
    covered = 0
    for u, row in zip(graph.nodes, graph.rows):
        if u in members:
            covered |= row
    return covered == (1 << len(graph.nodes)) - 1


def brute_force_min(graph):
    nodes = list(graph.nodes)
    for size in range(1, len(nodes) + 1):
        for subset in combinations(nodes, size):
            if is_dominating(graph, set(subset)):
                return set(subset)
    raise AssertionError("self-loops guarantee a cover")


class TestTournament:
    def test_single_point(self):
        view = tournament_view(sols((1, 2, 3)), k=2)
        assert greedy_tournament_dominating_set(view) == {"s1"}

    def test_rock_paper_scissors_cycle(self):
        points = sols((1, 2, 3), (2, 3, 1), (3, 1, 2))
        view = tournament_view(points, k=2)
        cycle = {"s1": {"s2"}, "s2": {"s3"}, "s3": {"s1"}}
        assert view.rows == tuple(reference_closed_masks(view.nodes, cycle))
        chosen = greedy_tournament_dominating_set(view)
        assert len(chosen) == 2
        # enumeration confirms no single point dominates the cycle
        assert not any(row == 0b111 for row in view.rows)

    def test_strict_chain_collapses_to_top(self):
        points = sols((1, 1, 1), (2, 2, 2), (3, 3, 3))
        view = tournament_view(points, k=2)
        assert greedy_tournament_dominating_set(view) == {"s1"}

    def test_no_points_is_no_tournament(self):
        with pytest.raises(ValueError, match=r"^tournament needs at least one point$"):
            tournament_view([], 1)

    def test_majority_threshold_needs_enough_objectives(self):
        with pytest.raises(ValueError, match="2k-1"):
            tournament_view(sols((1, 2), (2, 1)), k=2)

    def test_ties_break_by_list_position(self):
        # identical images: earlier point outranks later in every order
        view = tournament_view(sols((1, 1, 1), (1, 1, 1)), k=2)
        assert view.rows == tuple(reference_closed_masks(view.nodes, {"s1": {"s2"}, "s2": set()}))

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=24),
        st.sampled_from([(3, 2), (4, 2), (5, 3)]),
    )
    def test_completeness_validity_and_log_bound(self, seed, n, pk):
        p, k = pk
        instance = gen_random(n, p, seed=seed)
        view = tournament_view(list(instance.solutions), k)
        out = reference_tournament_out(list(instance.solutions), k)
        assert view.rows == tuple(reference_closed_masks(instance.ids, out))
        for u in instance.ids:
            for v in instance.ids:
                if u != v:
                    assert v in out[u] or u in out[v]
        chosen = greedy_tournament_dominating_set(view)
        covered = set()
        for c in chosen:
            covered |= {c} | set(out[c])
        assert covered == set(instance.ids)
        assert len(chosen) <= math.ceil(math.log2(n)) + 1 if n > 1 else len(chosen) == 1


class TestGreedyCover:
    def test_universal_node_wins(self):
        graph = digraph_of({"a": {"b", "c"}, "b": set(), "c": set()})
        assert greedy_cover_dominating_set(graph) == {"a"}

    def test_self_loops_only_takes_everyone(self):
        inst = gen_quasi2_gap(Fraction(1), 2)
        graph = domination_digraph(inst, RelationSpec(RelationKind.QUASI_K, Fraction(1), k=2))
        assert greedy_cover_dominating_set(graph) == {"x0", "x1", "x2"}

    def test_membership_counts_as_coverage(self):
        # even without explicit self-loops a node covers itself by membership
        graph = DominationDigraph(nodes=("a", "b"), rows=(0, 0))
        assert graph.rows == (0b01, 0b10)
        assert greedy_cover_dominating_set(graph) == {"a", "b"}

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_within_log_factor_of_exact(self, seed):
        instance = gen_random(14, 2, seed=seed)
        graph = domination_digraph(instance, RelationSpec(RelationKind.EPSILON, Fraction(1, 2)))
        greedy = greedy_cover_dominating_set(graph)
        exact = exact_min_dominating_set(graph)
        assert is_dominating(graph, greedy)
        n = len(graph.nodes)
        assert len(exact) <= len(greedy) <= (1 + math.log(n)) * len(exact) + 1e-9


class TestExactMinimum:
    def test_no_nodes_take_the_general_path(self):
        # the greedy bound and the search return the empty set; a limit below 0 nodes refuses
        none = DominationDigraph(nodes=(), rows=())
        assert exact_min_dominating_set(none, 0) == set()
        with pytest.raises(NodeLimitExceeded, match="^0 nodes exceeds the exact-solver limit -1$"):
            exact_min_dominating_set(none, -1)

    def test_self_loops_only(self):
        graph = digraph_of({"a": set(), "b": set(), "c": set()})
        assert exact_min_dominating_set(graph) == {"a", "b", "c"}

    def test_rock_paper_scissors_minimum_is_two(self):
        graph = digraph_of({"a": {"b"}, "b": {"c"}, "c": {"a"}})
        result = exact_min_dominating_set(graph)
        assert len(result) == 2
        assert result == brute_force_min(graph)
        assert is_dominating(graph, result)

    def test_dominated_family_quasi_one_minimum_is_two(self):
        inst = gen_prop_dominated(Fraction(1))
        graph = domination_digraph(inst, RelationSpec(RelationKind.QUASI_K, Fraction(1), k=1))
        assert len(exact_min_dominating_set(graph)) == 2

    def test_limit_guard(self):
        instance = gen_random(6, 2, seed=1)
        graph = domination_digraph(instance, RelationSpec(RelationKind.EPSILON, Fraction(1)))
        with pytest.raises(NodeLimitExceeded):
            exact_min_dominating_set(graph, node_limit=5)

    def test_deterministic(self):
        instance = gen_random(12, 3, seed=99)
        graph = domination_digraph(instance, RelationSpec(RelationKind.QUASI_K, Fraction(1), k=2))
        first = exact_min_dominating_set(graph)
        second = exact_min_dominating_set(graph)
        assert first == second

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=10))
    def test_matches_brute_force(self, seed, n):
        instance = gen_random(n, 2, seed=seed)
        graph = domination_digraph(instance, RelationSpec(RelationKind.EPSILON, Fraction(1, 2)))
        exact = exact_min_dominating_set(graph)
        assert is_dominating(graph, exact)
        assert len(exact) == len(brute_force_min(graph))


# The set-based tournament and its greedy cover, kept verbatim from before the
# digraphs stored bitmask rows, as the reference for the row-based ones.
def reference_tournament_out(points, k):
    p = len(points[0].f)
    pos = {sol.id: i for i, sol in enumerate(points)}
    out = {sol.id: set() for sol in points}
    for a in points:
        for b in points:
            if a.id == b.id:
                continue
            wins = sum(
                1
                for j in range(p)
                if (a.f[j], pos[a.id]) < (b.f[j], pos[b.id])
            )
            if wins >= k:
                out[a.id].add(b.id)
    return {u: frozenset(vs) for u, vs in out.items()}


def reference_closed_masks(nodes, out):
    index = {u: i for i, u in enumerate(nodes)}
    cover = []
    for u in nodes:
        mask = 1 << index[u]
        for v in out[u]:
            mask |= 1 << index[v]
        cover.append(mask)
    return cover


def reference_greedy_cover_indices(cover, full):
    chosen = []
    covered = 0
    while covered != full:
        best_i, best_gain = -1, 0
        for i, mask in enumerate(cover):
            gain = (mask & ~covered).bit_count()
            if gain > best_gain:
                best_i, best_gain = i, gain
        if best_i < 0:
            raise ValueError("uncoverable nodes: digraph is missing self-loops")
        chosen.append(best_i)
        covered |= cover[best_i]
    return chosen


def reference_greedy_tournament(points, k):
    ids = [sol.id for sol in points]
    full = (1 << len(ids)) - 1
    cover = reference_closed_masks(ids, reference_tournament_out(points, k))
    return {ids[i] for i in reference_greedy_cover_indices(cover, full)}


def reference_exact_min(nodes, out):
    n = len(nodes)
    if n == 0:
        return set()
    ids = nodes
    cover = reference_closed_masks(ids, out)
    full = (1 << n) - 1

    best = reference_greedy_cover_indices(cover, full)

    def descend(uncovered, chosen):
        nonlocal best
        if uncovered == 0:
            if len(chosen) < len(best):
                best = list(chosen)
            return
        need = uncovered.bit_count()
        biggest = max((mask & uncovered).bit_count() for mask in cover)
        if len(chosen) + -(-need // biggest) >= len(best):
            return
        branch_j, branch_cands = -1, None
        for j in range(n):
            if uncovered >> j & 1:
                cands = [i for i in range(n) if cover[i] >> j & 1]
                if branch_cands is None or len(cands) < len(branch_cands):
                    branch_j, branch_cands = j, cands
        assert branch_cands is not None
        for i in branch_cands:
            chosen.append(i)
            descend(uncovered & ~cover[i], chosen)
            chosen.pop()

    descend(full, [])
    return {ids[i] for i in best}


@st.composite
def tournament_cases(draw):
    """Up to 12 points with p = 1..5 and 2k - 1 <= p: values from a four-value
    alphabet (ties within one objective) and image twins of earlier points."""
    p = draw(st.integers(min_value=1, max_value=5))
    k = draw(st.integers(min_value=0, max_value=(p + 1) // 2))
    vectors = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        if vectors and draw(st.booleans()):
            vectors.append(draw(st.sampled_from(vectors)))
        else:
            vectors.append(tuple(draw(st.integers(min_value=1, max_value=4)) for _ in range(p)))
    return sols(*vectors), k


class TestTournamentRowsMatchTheSetBasedView:
    @settings(max_examples=300, deadline=None)
    @given(tournament_cases())
    def test_rows_and_greedy_match(self, case):
        points, k = case
        view = tournament_view(points, k)
        ids = tuple(sol.id for sol in points)
        assert type(view) is DominationDigraph and view.nodes == ids
        assert view.rows == tuple(reference_closed_masks(ids, reference_tournament_out(points, k)))
        assert greedy_cover_dominating_set(view) == reference_greedy_tournament(points, k)

    def test_rows_are_closed(self):
        view = tournament_view(sols((1, 1, 1), (1, 1, 1)), k=2)
        assert view.rows == (0b11, 0b10)

    def test_one_greedy_serves_both_names(self):
        assert greedy_tournament_dominating_set is greedy_cover_dominating_set


class CountedInt(int):
    """An int that counts the `<` comparisons made on it."""

    calls = 0

    def __lt__(self, other):
        CountedInt.calls += 1
        return int.__lt__(self, other)


class TestTournamentIsBuiltFromPerObjectiveOrders:
    def test_one_sort_per_objective_not_a_comparison_per_pair(self):
        m, p = 256, 4
        rng = random.Random(1)
        points = sols(*(tuple(rng.randint(1, 100) for _ in range(p)) for _ in range(m)))
        counted = [Solution(s.id, tuple(map(CountedInt, s.f))) for s in points]
        CountedInt.calls = 0
        view = tournament_view(counted, 2)
        # the pairwise count made about p * m**2 = 262144 comparisons here
        assert CountedInt.calls <= p * m * math.ceil(math.log2(m))
        assert view == tournament_view(points, 2)

    def test_every_retained_cell_of_a_lifted_antichain_matches_the_set_based_view(self):
        # cells of up to 71 points, so the rows pass 64 bits
        instance = gen_duplicated(gen_antichain(1000), 4, "quasi_k_over_half")
        bucketing, retained, picks = grid_select(
            instance, RelationSpec(RelationKind.QUASI_K, Fraction(1, 4), k=2)
        )
        assert max(len(bucketing.cells[cell]) for cell in retained) > 64
        for cell, picked in zip(retained, picks):
            points = [instance.solution(i) for i in bucketing.cells[cell]]
            ids = tuple(sol.id for sol in points)
            out = reference_tournament_out(points, 2)
            assert tournament_view(points, 2).rows == tuple(reference_closed_masks(ids, out))
            assert picked == sorted(reference_greedy_tournament(points, 2))


def id_set_arcs(nodes, rows):
    """The arcs named by each row's bits, as (u, v) id pairs."""
    return {(u, v) for u, row in zip(nodes, rows) for k, v in enumerate(nodes) if row >> k & 1}


def assert_read_api_matches_id_sets(graph, arcs, subsets):
    """The rows are the closed id-set out-neighborhoods of arcs; so are the count and covers."""
    nodes = graph.nodes
    out = {u: {v for v in nodes if (u, v) in arcs} for u in nodes}
    assert graph.rows == tuple(reference_closed_masks(nodes, out))
    assert graph.arc_count() == len(arcs | {(u, u) for u in nodes})
    for members in subsets:
        covered = set(members) | {v for u, v in arcs if u in members}
        assert is_dominating(graph, members) == (covered >= set(nodes)), members


ALL_SPECS = [
    RelationSpec(RelationKind.EPSILON, Fraction(1, 2)),
    RelationSpec(RelationKind.ONE_EXACT, Fraction(1, 2)),
    RelationSpec(RelationKind.TWO_EXACT, Fraction(1, 2)),
] + [
    RelationSpec(kind, Fraction(1, 2), k)
    for kind in (RelationKind.QUASI_K, RelationKind.ONE_EXACT_QUASI_K)
    for k in (1, 2, 3)
]


class TestReadApiMatchesIdSetDefinitions:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=9),
        st.integers(min_value=3, max_value=4),
        st.data(),
    )
    def test_built_digraphs_of_every_relation_kind(self, seed, n, p, data):
        instance = gen_random(n, p, seed=seed, value_range=1)  # values in {1/2, 1, 2}: many ties
        ids = list(instance.ids)
        subsets = [set(), set(ids)] + [
            set(data.draw(st.lists(st.sampled_from(ids), max_size=n))) for _ in range(4)
        ]
        for spec in ALL_SPECS:
            graph = domination_digraph(instance, spec)
            arcs = {
                (x.id, y.id)
                for x in instance.solutions
                for y in instance.solutions
                if r_dominates(x, y, spec)
            }
            assert id_set_arcs(graph.nodes, graph.rows) == arcs
            assert_read_api_matches_id_sets(graph, arcs, subsets)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=7).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(min_value=0, max_value=(1 << n) - 1), min_size=n, max_size=n),
            st.lists(st.sets(st.integers(min_value=0, max_value=max(n - 1, 0))), max_size=4),
        )
    ))
    def test_hand_built_rows_with_and_without_self_bits(self, case):
        rows, subsets = case
        nodes = tuple(f"v{i}" for i in range(len(rows)))
        graph = DominationDigraph(nodes=nodes, rows=tuple(rows))
        members = [{nodes[i] for i in s if i < len(nodes)} for s in subsets]
        arcs = id_set_arcs(nodes, rows)
        assert_read_api_matches_id_sets(graph, arcs, [set(), set(nodes), *members])

    @settings(max_examples=400, deadline=None)
    @given(st.integers(min_value=5, max_value=12).flatmap(
        lambda n: st.lists(
            st.sets(st.integers(min_value=0, max_value=max(n - 1, 0)), max_size=3),
            min_size=n,
            max_size=n,
        )
    ))
    def test_solvers_match_the_set_based_ones_on_sparse_hand_built_rows(self, targets):
        # sparse rows, with or without self bits, often leave greedy above the minimum
        rows = [sum(1 << j for j in ts) for ts in targets]
        nodes = tuple(f"v{i}" for i in range(len(rows)))
        graph = DominationDigraph(nodes=nodes, rows=tuple(rows))
        out = {u: {nodes[j] for j in ts} for u, ts in zip(nodes, targets)}
        full = (1 << len(nodes)) - 1
        greedy = {nodes[i] for i in reference_greedy_cover_indices(
            reference_closed_masks(nodes, out), full
        )}
        assert greedy_cover_dominating_set(graph) == greedy
        assert exact_min_dominating_set(graph) == reference_exact_min(nodes, out)

    def test_a_row_without_its_self_bit(self):
        graph = DominationDigraph(nodes=("a", "b", "c"), rows=(0b110, 0b000, 0b100))
        assert graph.rows == (0b111, 0b010, 0b100)  # a and b gain their own bits
        assert graph.arc_count() == 5  # self-loops included
        assert is_dominating(graph, {"a"})  # membership covers a itself
        assert not is_dominating(graph, {"b", "c"})
        assert greedy_cover_dominating_set(graph) == {"a"}
        assert exact_min_dominating_set(graph) == {"a"}

    @pytest.mark.parametrize(
        "nodes, rows",
        [(("a", "b"), (0b11,)), (("a",), (0b1, 0b1)), (("a", "b"), (0b100, 0b1)), (("a",), (-1,))],
    )
    def test_rows_must_fit_the_nodes(self, nodes, rows):
        # a stray bit would name no node, and the greedy cover could never finish
        with pytest.raises(ValueError, match="^a digraph needs one row per node"):
            DominationDigraph(nodes=nodes, rows=rows)

    def test_empty_digraph(self):
        graph = DominationDigraph(nodes=(), rows=())
        assert graph.rows == () and graph.arc_count() == 0
        assert is_dominating(graph, set())
        assert greedy_cover_dominating_set(graph) == set()
        assert exact_min_dominating_set(graph) == set()


class TestRowsAreClosedOnConstruction:
    def test_a_cycle_without_self_bits_comes_back_closed(self):
        graph = DominationDigraph(nodes=("a", "b", "c"), rows=(0b010, 0b100, 0b001))
        assert graph.rows == (0b011, 0b110, 0b101)
        assert graph.arc_count() == 6
        assert greedy_cover_dominating_set(graph) == {"a", "b"}
        assert greedy_tournament_dominating_set(graph) == {"a", "b"}
        assert exact_min_dominating_set(graph) == {"a", "b"}
        assert is_dominating(graph, {"a", "b"}) and not is_dominating(graph, {"a"})

    def test_rows_that_have_their_bits_are_kept_as_given(self):
        rows = tuple((1 << 300) - 1 - (1 << (i + 1) % 300) for i in range(300))
        graph = DominationDigraph(nodes=tuple(f"v{i}" for i in range(300)), rows=rows)
        assert all(kept is given for kept, given in zip(graph.rows, rows))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=12))
    def test_closing_a_built_digraph_again_changes_nothing(self, seed, n):
        instance = gen_random(n, 3, seed=seed, value_range=1)
        for spec in ALL_SPECS:
            graph = domination_digraph(instance, spec)
            again = DominationDigraph(nodes=graph.nodes, rows=graph.rows)
            assert again == graph
            assert all(kept is given for kept, given in zip(again.rows, graph.rows))
