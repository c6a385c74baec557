"""Coloured-graph layer: validation, partitions, meets, isomorphism."""

from __future__ import annotations

import inspect
import operator
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maniplexes
from maniplexes import (
    ColouredGraph,
    Partition,
    are_isomorphic,
    bitflip,
    build_graph,
    components,
    flag_graph,
    hypercube,
    induced_poset,
    klein_44,
    mix,
    partition_meet,
    polygon,
    random_maniplex,
    read_mpx,
    rectified_cubic_3torus,
    torus_44,
    write_mpx,
)
from maniplexes.errors import (
    FixedPoint,
    ManiplexError,
    MultiEdge,
    NotInvolution,
    OutOfRange,
    SizeMismatch,
)
from maniplexes.graphs import (
    _propagate,
    discrete,
    extensions,
    gather,
    join,
    numbers,
    orbit,
    pair_join,
)
import oracles
from conftest import lines_run, relabelled, shares_numbers


# -- build_graph validation ----------------------------------------------------


def test_build_graph_accepts_the_segment():
    g = build_graph(1, [[1, 0]])
    assert g.rank == 1 and g.size == 2
    assert g.neighbour(0, 0) == 1 and g.neighbour(0, 1) == 0


def test_neighbour_rejects_flags_out_of_range():
    g = build_graph(1, [[1, 0]])
    for flag in (-1, g.size):
        with pytest.raises(OutOfRange):
            g.neighbour(0, flag)


def test_build_graph_rejects_rank_zero():
    with pytest.raises(OutOfRange):
        build_graph(0, [])


def test_build_graph_rejects_rank_above_word_size():
    with pytest.raises(OutOfRange):
        build_graph(65, [[1, 0]] * 65)


def test_build_graph_rejects_a_missing_matching():
    with pytest.raises(SizeMismatch, match="^expected 2 matchings, got 1$"):
        build_graph(2, [[1, 0]])


def test_build_graph_rejects_a_graph_without_flags():
    with pytest.raises(OutOfRange, match="^graph needs at least one flag$"):
        build_graph(1, [[]])


def test_build_graph_rejects_ragged_rows():
    with pytest.raises(SizeMismatch):
        build_graph(2, [[1, 0], [1, 0, 2]])


def test_build_graph_rejects_fixed_point_with_witness():
    with pytest.raises(FixedPoint) as exc:
        build_graph(1, [[0, 1]])
    assert exc.value.colour == 0 and exc.value.flag == 0


def test_build_graph_rejects_non_involution_with_witness():
    with pytest.raises(NotInvolution) as exc:
        build_graph(1, [[1, 2, 0]])
    assert exc.value.colour == 0 and exc.value.flag == 0


def test_build_graph_rejects_multi_edge_with_witness():
    with pytest.raises(MultiEdge) as exc:
        build_graph(2, [[1, 0, 3, 2], [1, 0, 3, 2]])
    assert (exc.value.colour_a, exc.value.colour_b, exc.value.flag) == (0, 1, 0)


def test_build_graph_rejects_out_of_range_entry():
    with pytest.raises(OutOfRange):
        build_graph(1, [[99, 0]])
    with pytest.raises(OutOfRange, match="colour 1 maps flag 0 to -1") as exc:
        build_graph(2, [[1, 0], [-1, 0]])
    assert exc.value.colour == 1


def test_build_graph_rejects_a_non_integer_rank():
    with pytest.raises(OutOfRange, match="rank 2.0 is not an integer"):
        build_graph(2.0, [[1, 0], [1, 0]])


def test_build_graph_rejects_a_non_integer_entry():
    # A float is named before an entry out of range on either side of it,
    # as the flag scan names it.
    for rows in ([[1.0, 0]], [[1.0, 7]], [[7, 1.0]], [[-1, 0.5]], [[1, 0], [9, 2.5]]):
        c = len(rows) - 1
        with pytest.raises(OutOfRange, match=f"colour {c} has a non-integer entry"):
            build_graph(len(rows), rows)
        got = _outcome(build_graph, len(rows), rows)
        assert got == _outcome(oracles.build_graph, len(rows), rows), rows


def test_error_scan_order_is_colour_major():
    # colour 0 is defective at flag 2, colour 1 already at flag 0; the
    # canonical scan visits all of colour 0 first.
    with pytest.raises(FixedPoint) as exc:
        build_graph(2, [[1, 0, 2, 3], [0, 1, 3, 2]])
    assert exc.value.colour == 0 and exc.value.flag == 2


def _outcome(build, rank, rows):
    """The graph ``build`` returns, or the class, message and witness
    attributes of what it raises."""
    try:
        return build(rank, rows)
    except ManiplexError as exc:
        witness = ("colour", "flag", "colour_a", "colour_b")
        return type(exc), str(exc), [getattr(exc, a, None) for a in witness]


def _involution(pairs):
    row = [0] * (2 * len(pairs))
    for a, b in pairs:
        row[a], row[b] = b, a
    return row


@st.composite
def matching_rows(draw):
    """A rank, then rows that start clean (fixed-point-free involutions) and
    may go bad later: entries drawn from ``-size-2..size+2``, or a clean row
    with a few entries overwritten from that range."""
    size = draw(st.sampled_from([2, 4, 6, 8]) | st.integers(1, 8))
    rank = draw(st.integers(1, 4))
    clean = draw(st.integers(0, rank)) if size % 2 == 0 else 0
    entries = st.integers(-size - 2, size + 2)
    rows = []
    for c in range(rank):
        if c < clean or size % 2 == 0 and draw(st.booleans()):
            perm = draw(st.permutations(range(size)))
            rows.append(_involution(list(zip(perm[::2], perm[1::2]))))
            if c >= clean:
                for _ in range(draw(st.integers(1, 2))):
                    rows[-1][draw(st.integers(0, size - 1))] = draw(entries)
        else:
            rows.append(draw(st.lists(entries, min_size=size, max_size=size)))
    return rank, rows


@settings(max_examples=300)
@given(matching_rows())
def test_build_graph_matches_the_flag_scan_oracle(drawn):
    """Both accept the same rows, or raise the same class and message with
    the same colour and flag, including after clean rows."""
    rank, rows = drawn
    got = _outcome(build_graph, rank, rows)
    assert got == _outcome(oracles.build_graph, rank, rows)


def test_a_negative_entry_never_passes_the_involution_gather():
    # Python reads row[w] for w < 0 as row[w + size]; every negative entry
    # at every flag of a clean row must still be refused as the scan does.
    for size in (2, 4, 6):
        clean = [v ^ 1 for v in range(size)]
        for v, w in product(range(size), range(-size, 0)):
            row = clean[:v] + [w] + clean[v + 1 :]
            got = _outcome(build_graph, 1, [row])
            assert got == _outcome(oracles.build_graph, 1, [row])
            assert not isinstance(got, ColouredGraph), row


def test_build_graph_scans_flags_only_for_a_refused_row():
    scan = "w = row[v]"
    rows = hypercube(3).graph.matchings
    assert scan not in lines_run(build_graph, lambda: build_graph(3, rows))
    refused = [rows[0], rows[1], [rows[2][0]] + list(rows[2][1:-1]) + [0]]
    assert scan in lines_run(
        build_graph, lambda: pytest.raises(NotInvolution, build_graph, 3, refused)
    )


# -- shared flag numbers -------------------------------------------------------


def test_numbers_is_one_tuple_per_size():
    assert numbers(300) == tuple(range(300))
    assert numbers(300) is numbers(300)
    assert discrete(300).ids is numbers(300)
    assert discrete(300).reps is numbers(300)


def _fresh_rows(m):
    """``m``'s rows as lists of ints of their own (none is shared)."""
    return [[int(str(w)) for w in row] for row in m.graph.matchings]


def test_graphs_keep_each_entry_as_the_shared_number():
    # Above 256 flags, where CPython no longer shares equal ints.
    graphs = {
        "build_graph": build_graph(4, _fresh_rows(hypercube(4))),
        "read_mpx": read_mpx(write_mpx(torus_44(7, 0).graph)),
        "mix": mix(torus_44(2, 0), torus_44(3, 0)).graph,
        "polygon": polygon(150).graph,
        "hypercube": hypercube(4).graph,
        "bitflip": bitflip(9).graph,
        "torus_44": torus_44(6, 1).graph,
        "klein_44": klein_44().graph,
        "rectified_cubic_3torus": rectified_cubic_3torus().graph,
        "random_maniplex": random_maniplex(4, 0, 512).graph,
        "flag_graph": flag_graph(induced_poset(torus_44(6, 0))).graph,
    }
    assert min(g.size for name, g in graphs.items() if name != "klein_44") > 256
    for name, g in graphs.items():
        assert all(shares_numbers(row, g.size) for row in g.matchings), name


# -- breadth-first numbering ---------------------------------------------------


def test_orbit_numbers_states_breadth_first_with_colours_ascending():
    calls = []

    def step(c, x):
        calls.append((c, x))
        return (2 * x + c) % 7

    order, rows = orbit(1, step, 2)
    assert order == [1, 2, 3, 4, 5, 6, 0]
    assert rows == [[1, 3, 5, 0, 2, 4, 6], [2, 4, 6, 1, 3, 5, 0]]
    # each step once, colour-major within a state
    assert calls == [(c, x) for x in order for c in range(2)]
    assert orbit("s", lambda c, x: x, 3) == (["s"], [[0], [0], [0]])


# -- components / partitions ---------------------------------------------------


def test_torus11_two_faces_from_colours_01():
    g = torus_44(1, 1).graph
    assert components(g, [0, 1]).block_count() == 2


def test_empty_colour_set_gives_singletons():
    g = torus_44(1, 1).graph
    part = components(g, [])
    assert part.block_count() == g.size


def test_hexagon_colour0_gives_three_edges():
    # the 2-maniplex whose graph is a hexagon = flag graph of the triangle
    g = polygon(3).graph
    assert g.size == 6
    part = components(g, [0])
    assert part.block_count() == 3
    assert all(len(b) == 2 for b in part.blocks())


def test_meet_idempotent_and_discrete_absorbing():
    g = torus_44(1, 1).graph
    p = components(g, [0, 1])
    discrete = components(g, [])
    assert partition_meet(p, p) == p
    assert partition_meet(p, discrete) == discrete


def test_torus11_meet_is_the_cip_failure_pattern():
    g = torus_44(1, 1).graph
    met = partition_meet(components(g, [0, 1]), components(g, [1, 2]))
    assert sorted(len(b) for b in met.blocks()) == [4, 4, 4, 4]
    assert components(g, [1]).block_count() == 8
    # the first meet block consists of exactly two colour-1 edges
    blk = met.blocks()[0]
    assert blk == (0, 3, 4, 7)
    edges = {tuple(sorted((v, g.neighbour(1, v)))) for v in blk}
    assert edges == {(0, 3), (4, 7)}


def test_meet_size_mismatch():
    with pytest.raises(SizeMismatch):
        partition_meet(
            components(polygon(3).graph, [0]), components(polygon(4).graph, [0])
        )


def test_is_connected():
    for g in (polygon(5).graph, hypercube(3).graph):
        assert components(g, g.colours()).block_count() == 1


def test_partition_value_equality_is_canonical():
    g = polygon(4).graph
    assert components(g, [0, 1]) == components(g, [1, 0])
    assert hash(components(g, [0])) == hash(components(g, [0]))


# -- partition laws (property-based) -------------------------------------------


@given(st.data())
def test_join_folds_match_the_union_find_oracle(data):
    """Folding ``join`` over arbitrary maps on the flags, not only
    involutions, gives the oracle's components id for id, each block's
    smallest flag as its representative."""
    size = data.draw(st.integers(1, 12))
    rows = data.draw(
        st.lists(st.lists(st.integers(0, size - 1), min_size=size, max_size=size))
    )
    graph = ColouredGraph(len(rows), size, tuple(map(tuple, rows)))
    part = discrete(size)
    for row in rows:
        part = join(part, row)
    want = oracles.components(graph, range(len(rows)))
    assert (part.ids, part.block_count()) == (want.ids, want.block_count())
    assert list(part.reps) == [b[0] for b in want.blocks()]


def test_gather_returns_a_tuple_for_none_one_and_many_indices():
    assert gather([])("abc") == ()
    assert gather([2])("abc") == ("c",)
    assert gather([2, 0])("abc") == ("c", "a")


def test_join_along_an_involution_pairs_the_ends_of_each_edge():
    row = polygon(4).graph.matchings[0]
    part = join(discrete(len(row)), row)
    edges = {frozenset((v, w)) for v, w in enumerate(row)}
    assert part.block_count() == len(edges) == len(row) // 2
    assert set(map(frozenset, part.blocks())) == edges


def test_join_along_the_segment_reads_its_one_pair():
    part = join(discrete(2), [1, 0])
    assert (part.ids, list(part.reps)) == ((0, 0), [0])


def test_join_along_an_identity_row_reads_no_pair_and_keeps_the_partition():
    for part in (discrete(4), Partition([0, 1, 0, 2])):
        assert join(part, range(4)) is part


def test_join_along_an_arbitrary_map_reads_every_pair():
    # 0 -> 2 -> 1 -> 1: neither an involution nor below the identity
    assert join(discrete(3), [2, 1, 1]).ids == (0, 0, 0)


def test_a_one_block_partition_reads_ids_at_flag_0():
    one = Partition("aaaa")
    assert list(one.reps) == [0]
    assert gather(one.reps)((7, 8, 9, 10)) == (7,)


@st.composite
def partitions(draw, size=12):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n_blocks = draw(st.integers(1, size))
    ids = [rng.randrange(n_blocks) for _ in range(size)]
    return Partition(ids)


@given(partitions(), st.data())
def test_pair_join_along_a_block_involution_matches_join(part, data):
    """A map that sends each block onto the block an involution ``sigma``
    pairs it with merges the same blocks under either kernel, id for id,
    each block's smallest flag its representative; under the identity
    ``sigma`` nothing merges and ``part`` comes back."""
    blocks = part.blocks()
    order = data.draw(st.permutations(range(len(blocks))))
    sigma = list(range(len(blocks)))
    for a, b in zip(order[::2], order[1::2]):
        if data.draw(st.booleans()):
            sigma[a], sigma[b] = b, a
    row = [data.draw(st.sampled_from(blocks[sigma[b]])) for b in part.ids]
    got, want = pair_join(part, row), join(part, row)
    assert (got.ids, got.block_count()) == (want.ids, want.block_count())
    assert list(got.reps) == [b[0] for b in got.blocks()]
    assert list(got.reps) == list(want.reps)
    same = [data.draw(st.sampled_from(blocks[b])) for b in part.ids]
    assert pair_join(part, same) is part


def test_pair_join_matches_the_oracle_on_every_mask_and_colour_of_bitflip_5():
    # Every colour of a bit-flip maniplex commutes with every other, so each
    # colour of a mask pairs the components over the rest of the mask.
    g = bitflip(5).graph
    for mask in range(1, 1 << g.rank):
        cols = [c for c in g.colours() if mask >> c & 1]
        want = oracles.components(g, cols)
        for c in cols:
            prefix = oracles.components(g, [d for d in cols if d != c])
            got = pair_join(prefix, g.matchings[c])
            assert got.ids == want.ids, (mask, c)
            assert list(got.reps) == [b[0] for b in want.blocks()], (mask, c)


@given(partitions(), partitions())
def test_relabelled_partitions_and_meets_carry_each_blocks_smallest_flag(p, q):
    for part in (p, q, partition_meet(p, q)):
        assert list(part.reps) == [b[0] for b in part.blocks()]
        assert gather(part.reps)(part.ids) == tuple(range(part.block_count()))


@given(partitions(), partitions())
def test_meet_commutative(p, q):
    assert partition_meet(p, q) == partition_meet(q, p)


@given(partitions(), partitions(), partitions())
def test_meet_associative(p, q, r):
    assert partition_meet(partition_meet(p, q), r) == partition_meet(
        p, partition_meet(q, r)
    )


@given(partitions())
def test_meet_idempotent(p):
    assert partition_meet(p, p) == p


@given(partitions(), partitions())
def test_meet_refines_both(p, q):
    met = partition_meet(p, q)
    for part in (p, q):
        for block in met.blocks():
            first = block[0]
            assert all(part.ids[first] == part.ids[v] for v in block)


def _subsets(rank):
    return [
        [c for c in range(rank) if mask >> c & 1] for mask in range(1 << rank)
    ]


def test_monotone_colour_sets_give_nested_partitions():
    g = torus_44(1, 1).graph
    subs = _subsets(g.rank)
    for a in subs:
        for b in subs:
            if set(a) <= set(b):
                coarse = components(g, b)
                fine = components(g, a)
                for block in fine.blocks():
                    assert all(coarse.ids[block[0]] == coarse.ids[v] for v in block)


def test_intersection_refines_meet_for_all_colour_pairs():
    g = klein_44().graph
    subs = _subsets(g.rank)
    for a in subs:
        for b in subs:
            met = partition_meet(components(g, a), components(g, b))
            inter = components(g, sorted(set(a) & set(b)))
            for block in inter.blocks():
                assert all(met.ids[block[0]] == met.ids[v] for v in block)


def test_meet_all_matches_pairwise_meet():
    g = torus_44(2, 0).graph
    parts = [components(g, [c]) for c in range(g.rank)]
    expected = parts[0]
    for p in parts[1:]:
        expected = partition_meet(expected, p)
    assert oracles.meet_all(parts) == expected


def test_public_surface_holds_no_test_only_helper():
    public = {
        name
        for name, value in vars(maniplexes).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    listed = [n for n in maniplexes.__all__ if n != "errors"]
    assert sorted(listed) == sorted(public) and len(set(listed)) == len(listed)
    # perfbench's spans look both up by name
    assert {"components", "partition_meet"} <= public
    for name in ("meet_all", "is_connected", "poset_isomorphic"):
        assert not hasattr(maniplexes, name), name
    assert not hasattr(maniplexes.errors, "DisconnectedInput")
    for name in ("is_discrete", "same_block"):
        assert not hasattr(Partition, name), name


# -- isomorphism ----------------------------------------------------------------


def test_isomorphic_to_itself_via_identity():
    g = torus_44(1, 1).graph
    phi = are_isomorphic(g, g)
    assert phi is not None and phi[0] == 0


def test_square_flag_graph_matches_2_cube():
    assert are_isomorphic(polygon(4).graph, hypercube(2).graph) is not None


def test_hexagon_vs_octagon_not_isomorphic():
    assert are_isomorphic(polygon(3).graph, polygon(4).graph) is None


def test_klein_vs_torus_not_isomorphic():
    assert are_isomorphic(klein_44().graph, torus_44(1, 0).graph) is None


def _two_hexagons() -> ColouredGraph:
    """Two disjoint copies of the triangle's 6-flag graph: 12 flags, rank 2."""
    rows = polygon(3).graph.matchings
    return build_graph(2, [list(r) + [w + 6 for w in r] for r in rows])


def test_isomorphism_search_never_returns_a_partial_or_folded_map():
    # Connectivity is a precondition the search does not re-check; on a
    # disconnected input it may miss an isomorphism but returns no map that
    # is not one.
    two, dodecagon = _two_hexagons(), polygon(6).graph
    assert components(two, two.colours()).block_count() == 2
    assert dodecagon.size == two.size
    assert list(extensions(two, two, operator.eq)) == []
    assert are_isomorphic(two, two) is None
    assert are_isomorphic(two, dodecagon) is None
    # 2-to-1 onto either hexagon: total and colour-preserving, not bijective
    folds = list(extensions(dodecagon, two, lambda length, image_length: True))
    assert len(folds) == 12 and all(len(set(phi)) == 6 for phi in folds)
    assert are_isomorphic(dodecagon, two) is None


def test_isomorphism_witness_is_equivariant_bijection():
    g = torus_44(2, 0).graph
    h = torus_44(0, 2).graph
    phi = are_isomorphic(g, h)
    assert phi is not None
    assert sorted(phi) == list(range(g.size))
    for v in range(g.size):
        for c in range(g.rank):
            assert phi[g.neighbour(c, v)] == h.neighbour(c, phi[v])


def test_propagation_matches_the_oracle_at_every_anchor(all_fixtures):
    """Every map and every ``None`` from every anchor: equal-rank pairs of
    fixtures, and each fixture against its relabelled copy both ways."""
    named = list(all_fixtures.items())
    pairs = list(product(named, repeat=2))
    for a, m in named:
        r = (f"{a} relabelled", relabelled(m, 1))
        pairs += [((a, m), r), (r, (a, m))]
    found = 0
    for (a, m), (b, n) in pairs:
        if m.rank == n.rank:
            g, h = m.graph, n.graph
            for anchor in range(h.size):
                phi = _propagate(g, h, anchor)
                assert phi == oracles._propagate(g, h, anchor), (a, b, anchor)
                found += phi is not None
    assert found > 0


def test_propagation_from_a_disconnected_source_is_none():
    # Flags of the second hexagon are out of reach of flag 0; the oracle,
    # which assumes a connected source, leaves them unmapped.
    two, hexagon = _two_hexagons(), polygon(3).graph
    assert _propagate(two, hexagon, 0) is None
    assert -1 in oracles._propagate(two, hexagon, 0)
