"""Maniplex axioms, faces, face factorization, path normalization."""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maniplexes import (
    ColouredPath,
    Maniplex,
    bitflip,
    build_graph,
    hypercube,
    klein_44,
    make_path,
    mix,
    normalize_path,
    polygon,
    torus_44,
    validate,
    walk,
    write_mpx,
)
from maniplexes.errors import (
    BadTwoFactor,
    Disconnected,
    ManiplexError,
    OutOfRange,
    PathUsesPivotColour,
    RankOutOfRange,
)
from maniplexes import maniplex as maniplex_module
from maniplexes.graphs import join
from conftest import (
    ODDBALL8_ROWS,
    POLYTOPAL_NAMES,
    dual,
    lines_run,
    oddball8,
    relabelled,
    squares_mod_half_turn,
    torus11_times_bits,
)
import oracles
from oracles import components


# -- validation -----------------------------------------------------------------


def test_cube_flag_graph_is_a_maniplex():
    m = validate(hypercube(3).graph)
    assert m.rank == 3 and m.size == 48


def test_torus11_is_a_maniplex():
    assert validate(torus_44(1, 1).graph).size == 16


def test_disconnected_graph_rejected_with_witness():
    # two disjoint squares under one colouring
    rows = [[1, 0, 3, 2, 5, 4, 7, 6], [3, 2, 1, 0, 7, 6, 5, 4]]
    with pytest.raises(Disconnected) as exc:
        validate(build_graph(2, rows))
    assert exc.value.flag_a == 0 and exc.value.flag_b in (4, 5, 6, 7)


def _non_commuting_rows(n: int = 12) -> list[list[int]]:
    """Colours 0 and 2 drive an ``n``-cycle (never commute); colour 1 is
    the antipodal matching."""
    r0 = [v + 1 if v % 2 == 0 else v - 1 for v in range(n)]
    r2 = [(v - 1) % n if v % 2 == 0 else (v + 1) % n for v in range(n)]
    r1 = [(v + n // 2) % n for v in range(n)]
    return [r0, r1, r2]


def test_bad_two_factor_rejected_with_witness():
    with pytest.raises(BadTwoFactor) as exc:
        validate(build_graph(3, _non_commuting_rows()))
    assert (exc.value.colour_i, exc.value.colour_j) == (0, 2)
    assert exc.value.flag == 0


def _lifted(pairs: list[tuple[int, int]]) -> list[int]:
    """The involution of ``pairs`` on ``y``, acting on flags ``2y + e``."""
    row = [0] * (4 * len(pairs))
    for a, b in pairs:
        for e in (0, 1):
            row[2 * a + e], row[2 * b + e] = 2 * b + e, 2 * a + e
    return row


def test_bad_two_factor_names_a_later_colour_pair_and_flag():
    # Colour 0 flips e and colours 1-3 act on y, so colour 0 commutes with 2
    # and 3; colours 1 and 3 commute at y = 0 but not at y = 1 (flag 2).
    rows = [
        [v ^ 1 for v in range(20)],
        _lifted([(0, 2), (1, 3), (4, 5), (6, 7), (8, 9)]),
        _lifted([(0, 3), (1, 4), (2, 9), (5, 6), (7, 8)]),
        _lifted([(0, 5), (1, 7), (2, 4), (3, 9), (6, 8)]),
    ]
    with pytest.raises(BadTwoFactor) as exc:
        validate(build_graph(4, rows))
    assert (exc.value.colour_i, exc.value.colour_j, exc.value.flag) == (1, 3, 2)
    assert str(exc.value) == str(BadTwoFactor(1, 3, 2))


def test_validation_scans_flags_only_for_a_failing_colour_pair():
    scan = "if mi[mj[v]] != mj[mi[v]]:"
    good = torus_44(2, 1).graph
    assert scan not in lines_run(Maniplex._validate, lambda: Maniplex(good))
    bad = build_graph(3, _non_commuting_rows())
    assert scan in lines_run(
        Maniplex._validate, lambda: pytest.raises(BadTwoFactor, Maniplex, bad)
    )


def test_disconnected_graph_breaking_the_axiom_is_reported_disconnected():
    """Validation's chain of masks reaches a lone colour only at colour 0,
    paired from singletons, so the components it reads are right even when
    distant colours do not commute."""
    twice = [row + [w + 12 for w in row] for row in _non_commuting_rows()]
    with pytest.raises(Disconnected) as exc:
        validate(build_graph(3, twice))
    assert (exc.value.flag_a, exc.value.flag_b) == (0, 12)


def _outcome(cls, graph):
    """``None`` when ``cls(graph)`` validates, else the error's class and
    witness."""
    try:
        cls(graph)
    except (Disconnected, BadTwoFactor) as err:
        return type(err), vars(err)
    return None


def test_fixtures_and_corpus_land_on_both_sides_of_the_certificate(
    all_fixtures, corpus
):
    """The fixtures and the corpus, as numbered and relabelled, are
    accepted by the chain oracle too; some validate without building a
    partition, the rest read their components."""
    inputs = list(all_fixtures.values()) + [s.maniplex for s in corpus]
    inputs += [relabelled(m, seed) for seed, m in enumerate(inputs)]
    certified = 0
    for m in inputs:
        oracles.ChainValidated(m.graph)
        certified += list(Maniplex(m.graph)._parts) == [0]
    assert (len(inputs), certified) == (2 * 1018, 825)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_validation_matches_the_chain_oracle_on_rewired_graphs(
    all_fixtures, corpus, data
):
    """A fixture or corpus sample, relabelled or not, with one colour's two
    edges ``{u, row[u]}`` and ``{w, row[w]}`` rewired to ``{u, w}`` and
    ``{row[u], row[w]}``: the graph stays properly coloured or is refused by
    ``build_graph``, and may be disconnected or break a 4-cycle.  Validation
    accepts it or raises the same class and witness as the chain oracle."""
    pool = list(all_fixtures.values()) + [s.maniplex for s in corpus[:200]]
    m = data.draw(st.sampled_from(pool))
    seed = data.draw(st.none() | st.integers(0, 2**16))
    if seed is not None:
        m = relabelled(m, seed)
    rows = [list(row) for row in m.graph.matchings]
    if data.draw(st.booleans()):
        row = rows[data.draw(st.integers(0, m.rank - 1))]
        flag = st.integers(0, m.size - 1)
        u, w = data.draw(flag), data.draw(flag)
        su, sw = row[u], row[w]
        if w not in (u, su):
            row[u], row[w], row[su], row[sw] = w, u, sw, su
    try:
        graph = build_graph(m.rank, rows)
    except ManiplexError:
        return
    assert _outcome(Maniplex, graph) == _outcome(oracles.ChainValidated, graph)


def test_two_copies_are_disconnected_at_the_second_copy(all_fixtures, corpus):
    """Flag ``size`` starts the second copy and has no neighbour below it,
    so the certificate fails and the components name it, rank 1 too."""
    inputs = list(all_fixtures.values()) + [s.maniplex for s in corpus[:100]]
    for m in inputs:
        n = m.size
        rows = [row + tuple(w + n for w in row) for row in m.graph.matchings]
        twice = build_graph(m.rank, rows)
        want = (Disconnected, {"flag_a": 0, "flag_b": n})
        assert _outcome(Maniplex, twice) == want
        assert _outcome(oracles.ChainValidated, twice) == want
    assert any(m.rank == 1 for m in inputs)


def test_validation_builds_components_only_without_a_certificate():
    chain = "full = self._components((1 << g.rank) - 1)"
    t20, t10 = torus_44(2, 0), torus_44(1, 0)
    assert chain in lines_run(Maniplex._validate, lambda: Maniplex(t20.graph))
    assert chain not in lines_run(Maniplex._validate, lambda: mix(t20, t10))
    assert chain not in lines_run(Maniplex._validate, lambda: bitflip(5))


def test_commutation_of_distant_colours_holds_everywhere():
    m = torus_44(2, 1)
    for v in range(m.size):
        assert m.neighbour(0, m.neighbour(2, v)) == m.neighbour(2, m.neighbour(0, v))


# -- faces ----------------------------------------------------------------------


def test_torus11_face_counts():
    m = torus_44(1, 1)
    assert [len(m.faces(i)) for i in range(3)] == [2, 4, 2]


def test_torus10_face_counts():
    m = torus_44(1, 0)
    assert [len(m.faces(i)) for i in range(3)] == [1, 2, 1]


def test_segment_has_two_vertices():
    assert len(hypercube(1).faces(0)) == 2


def test_faces_partition_the_flags():
    m = torus_44(2, 1)
    for i in range(m.rank):
        flags = sorted(v for f in m.faces(i) for v in f.flags)
        assert flags == list(range(m.size))


def test_faces_match_component_partition():
    from maniplexes import klein_44

    m = klein_44()
    for i in range(m.rank):
        part = m.components_of([c for c in range(m.rank) if c != i])
        assert tuple(tuple(sorted(f.flags)) for f in m.faces(i)) == part.blocks()


def test_face_of_and_paths_reject_flags_out_of_range():
    m = torus_44(2, 0)
    for flag in (-1, m.size):
        with pytest.raises(OutOfRange):
            m.face_of(0, flag)
        with pytest.raises(OutOfRange):
            make_path(m, flag, [0, 1])
        with pytest.raises(OutOfRange):
            walk(m, flag, [])


def test_face_partition_ids_index_the_faces():
    m = torus_44(2, 1)
    for i in range(m.rank):
        ids = m.face_partition(i).ids
        assert all(v in m.faces(i)[ids[v]].flags for v in range(m.size))
    with pytest.raises(RankOutOfRange):
        m.face_partition(m.rank)


def test_faces_reject_a_non_integer_rank():
    with pytest.raises(RankOutOfRange):
        torus_44(2, 0).faces(1.5)


def test_face_of_reads_a_bool_rank_as_an_int():
    face = torus_44(2, 0).face_of(True, 0)
    assert type(face.rank) is int and face.rank == 1


def test_components_of_rejects_a_non_integer_colour():
    with pytest.raises(OutOfRange):
        torus_44(2, 0).components_of([1.0])


def test_partitions_from_cached_prefixes_equal_graph_components(all_fixtures, corpus):
    """Each colour mask's partition, built from a cached prefix mask (its
    lowest colour with neither neighbour in the mask paired off, else its
    top colour joined), equals the oracle's union-find over all of its
    colours, id for id, and carries the smallest flag of each of the
    oracle's blocks.  The lowest lone colour is not symmetric under colour
    reversal, so the duals of the fixtures are built too."""
    inputs = list(all_fixtures.values()) + [s.maniplex for s in corpus]
    inputs += [bitflip(n) for n in range(2, 9)]
    inputs += [dual(m) for m in all_fixtures.values()]
    inputs += [torus11_times_bits(k) for k in range(1, 4)]
    inputs += [relabelled(m, seed) for seed, m in enumerate(inputs)]
    for m in inputs:
        fresh = Maniplex(m.graph)
        # From the full mask down, so that most builds recurse into a prefix.
        for mask in reversed(range(1 << m.rank)):
            cols = [c for c in range(m.rank) if mask >> c & 1]
            got, want = fresh.components_of(cols), components(m.graph, cols)
            assert (got.ids, got.block_count()) == (want.ids, want.block_count())
            assert list(got.reps) == [b[0] for b in want.blocks()]
    assert len(inputs) == 2 * (18 + 1000 + 7 + 18 + 3)


def test_bitflip8_joins_only_masks_without_a_lone_colour(monkeypatch):
    """Every colour of a bit-flip maniplex commutes with every other, so
    each of the 255 nonempty masks of rank 8 pairs blocks along its lowest
    colour: no mask goes through the union-find, which is where a colour's
    pairs are gathered."""
    calls = []

    def counting_join(part, row):
        calls.append(row)
        return join(part, row)

    graph = bitflip(8).graph
    monkeypatch.setattr(maniplex_module, "join", counting_join)
    m = Maniplex(graph)
    for mask in range(1, 1 << 8):
        m._components(mask)
    assert len(m._parts) == 256
    assert m._links == 0
    assert calls == []


def _joined_masks(m, monkeypatch):
    """The masks that a fresh build of every mask of ``m``, in ascending
    order, sends through the union-find."""
    joined = set()
    mask = None

    def recording_join(part, row):
        joined.add(mask)
        return join(part, row)

    monkeypatch.setattr(maniplex_module, "join", recording_join)
    m._parts = {0: m._parts[0]}
    for mask in range(1, 1 << m.rank):
        # Each smaller mask is cached, so only this one is built.
        m._components(mask)
    return joined


def test_without_commuting_neighbours_the_masks_with_no_lone_colour_join(monkeypatch):
    """No neighbouring colours of ``hypercube(4)`` or ``torus_44(2, 0)``
    commute, so the masks they join are exactly those in which every colour
    has a neighbour."""
    for m in (hypercube(4), torus_44(2, 0)):
        full = (1 << m.rank) - 1
        no_lone = {x for x in range(1, full + 1) if not x & ~(x << 1) & ~(x >> 1)}
        assert _joined_masks(m, monkeypatch) == no_lone
        assert m._links == full >> 1


def test_validation_never_reads_which_neighbours_commute(monkeypatch):
    """Validation pairs blocks only along colours with no neighbour in the
    mask, so two disjoint copies of ``bitflip(3)``, whose colours all
    commute, are still found disconnected by their components, and a valid
    maniplex that is not numbered breadth-first validates without reading
    its commuting neighbours."""

    def refuse(self):
        raise AssertionError("validation read the commuting neighbours")

    monkeypatch.setattr(Maniplex, "_noncommuting_neighbours", refuse)
    twice = [row + tuple(w + 8 for w in row) for row in bitflip(3).graph.matchings]
    with pytest.raises(Disconnected) as exc:
        validate(build_graph(3, twice))
    assert (exc.value.flag_a, exc.value.flag_b) == (0, 8)
    for m in (hypercube(4), torus_44(2, 0)):
        assert len(Maniplex(m.graph)._parts) > 1
    monkeypatch.undo()
    m = Maniplex(torus_44(2, 0).graph)
    assert m._links is None
    m.face_partition(1)
    assert m._links == 0b11


def test_face_of_rank_out_of_range():
    m = polygon(4)
    with pytest.raises(RankOutOfRange):
        m.faces(2)


# -- face factorization ----------------------------------------------------------


def test_cube_edge_factors():
    m = hypercube(3)
    ff = m.face_factors(m.faces(1)[0])
    assert (len(ff.below), len(ff.above), len(ff.face.flags)) == (2, 2, 4)
    assert ff.covering_degree == 1 and ff.is_product


def test_torus10_edge_factors():
    m = torus_44(1, 0)
    ff = m.face_factors(m.face_of(1, 0))
    assert (len(ff.below), len(ff.above), len(ff.face.flags)) == (2, 2, 4)
    assert ff.is_product


def test_polygon_has_no_middle_ranks():
    m = polygon(3)
    for face in m.faces(0) + m.faces(1):
        with pytest.raises(RankOutOfRange):
            m.face_factors(face)


def test_oddball8_middle_face_is_a_degree_two_covering():
    # the product claim fails here: 2 * 8 = 16 flags upstairs over an
    # 8-flag face, so each (below, above) pair is hit twice.
    m = oddball8()
    ff = m.face_factors(m.faces(1)[0])
    assert (len(ff.below), len(ff.above), len(ff.face.flags)) == (2, 8, 8)
    assert ff.covering_degree == 2 and not ff.is_product
    ff2 = m.face_factors(m.faces(2)[0])
    assert (len(ff2.below), len(ff2.above), len(ff2.face.flags)) == (4, 2, 8)
    assert ff2.covering_degree == 1 and ff2.is_product


def test_product_holds_on_geometric_fixtures(geometric_fixtures):
    for name, m in geometric_fixtures.items():
        for i in range(1, m.rank - 1):
            for face in m.faces(i):
                ff = m.face_factors(face)
                assert ff.is_product, (name, i)
                assert len(ff.below) * len(ff.above) == len(ff.face.flags)


def test_product_is_the_former_per_flag_check(all_fixtures, corpus):
    """``is_product`` equals the former test by set intersections on every
    middle face of the fixtures (``hypercube(3)`` and ``hypercube(4)``
    among them), the corpus, the bit-flips of ranks 3 to 7, the torus
    times a cube and the squares modulo their half-turn; both values occur.
    """
    inputs = [*all_fixtures.values(), *(s.maniplex for s in corpus)]
    inputs += [bitflip(n) for n in range(3, 8)]
    inputs += [torus11_times_bits(k) for k in (1, 2, 3)] + [squares_mod_half_turn()]
    seen = {True: 0, False: 0}
    for m in inputs:
        for i in range(1, m.rank - 1):
            for face in m.faces(i):
                got = m.face_factors(face).is_product
                assert got == oracles.is_product(m, face), (m.rank, m.size, face)
                seen[got] += 1
    assert seen == {True: 2809, False: 632}


def test_faces_of_another_maniplex_are_refused():
    # a face equal to one of t's own (same rank, index, smallest flag and
    # flags) is t's face; every other one is refused by both face methods
    t = torus_44(2, 0)
    refused = 0
    for other in (hypercube(3), torus_44(2, 1), klein_44()):
        for r in range(other.rank):
            own = t.faces(r)
            for face in other.faces(r):
                if face.index < len(own) and own[face.index] == face:
                    continue
                refused += 1
                for method in (t.face_factors, t.face_as_maniplex):
                    with pytest.raises(OutOfRange):
                        method(face)
    assert refused == 42


# -- sections as maniplexes -------------------------------------------------------


def test_cube_vertex_figure_is_a_triangle():
    from maniplexes import are_isomorphic

    m = hypercube(3)
    vm = m.face_as_maniplex(m.faces(0)[0])
    assert vm.rank == 2 and vm.size == 6
    assert are_isomorphic(vm.graph, polygon(3).graph) is not None


def test_facet_of_cube_is_a_square():
    from maniplexes import are_isomorphic

    m = hypercube(3)
    fm = m.face_as_maniplex(m.faces(2)[0])
    assert are_isomorphic(fm.graph, polygon(4).graph) is not None


# sha256 of the .mpx bytes of every rank-0 and top face of every polytopal
# fixture of rank 2 or more as a maniplex, by name, rank and face order;
# recorded before faces were renumbered through graphs.component_rows.
FACES_DIGEST = "7d4f2cd5528a8167717316604fbe77d8f70ec9d7352ba39ced5383a99a8fa08e"


def test_bottom_and_top_faces_as_maniplexes_are_pinned(all_fixtures):
    digest = hashlib.sha256()
    for name in sorted(POLYTOPAL_NAMES):
        m = all_fixtures[name]
        if m.rank < 2:
            continue
        for face in m.faces(0) + m.faces(m.rank - 1):
            digest.update(write_mpx(m.face_as_maniplex(face).graph).encode())
    assert digest.hexdigest() == FACES_DIGEST


def test_middle_face_as_maniplex_is_rejected():
    m = hypercube(3)
    with pytest.raises(RankOutOfRange):
        m.face_as_maniplex(m.faces(1)[0])


def test_no_face_of_a_rank_1_maniplex_is_a_maniplex():
    m = bitflip(1)
    for face in m.faces(0):
        with pytest.raises(RankOutOfRange, match="below rank 2"):
            m.face_as_maniplex(face)


# -- paths ------------------------------------------------------------------------


def test_walk_and_make_path():
    m = polygon(4)
    assert walk(m, 0, [0, 1, 0]) == m.neighbour(0, m.neighbour(1, m.neighbour(0, 0)))
    p = make_path(m, 0, [0, 1])
    assert p.start == 0 and p.end == walk(m, 0, [0, 1])


def test_normalize_path_commutes_distant_colours():
    m = hypercube(5)
    p = make_path(m, 0, [4, 1])
    segs = normalize_path(m, p, [3])
    assert [s.colours for s in segs] == [(1,), (4,)]
    assert segs[0].start == 0 and segs[-1].end == p.end


def test_normalize_path_cancels_through_the_four_cycle():
    m = hypercube(5)
    p = make_path(m, 0, [1, 4, 1])
    segs = normalize_path(m, p, [3])
    assert [s.colours for s in segs] == [(), (4,)]
    assert segs[-1].end == p.end


def test_normalize_path_fixed_point():
    m = hypercube(5)
    p = make_path(m, 0, [0, 1, 4])
    segs = normalize_path(m, p, [2])
    assert [s.colours for s in segs] == [(0, 1), (4,)]


def test_normalize_path_rejects_a_non_integer_pivot():
    m = hypercube(3)
    with pytest.raises(OutOfRange, match="pivot 1.5 is not an integer"):
        normalize_path(m, make_path(m, 0, [0]), [1.5])


def test_normalize_path_rejects_pivot_colour():
    m = hypercube(3)
    with pytest.raises(PathUsesPivotColour):
        normalize_path(m, make_path(m, 0, [1]), [1])


def test_normalize_path_rejects_an_end_its_colours_do_not_reach():
    m = torus_44(1, 1)
    assert walk(m, 0, (0,)) != 5
    for pivots in ([], [2]):
        with pytest.raises(OutOfRange, match="path end 5 "):
            normalize_path(m, ColouredPath(0, (0,), 5), pivots)


def test_normalize_path_rejects_bad_pivots():
    m = hypercube(3)
    p = make_path(m, 0, [0])
    with pytest.raises(OutOfRange):
        normalize_path(m, p, [2, 1])
    with pytest.raises(OutOfRange):
        normalize_path(m, p, [7])


def test_normalize_path_fuzz(all_fixtures):
    rng = random.Random(20260825)
    for name, m in all_fixtures.items():
        if m.rank < 2:
            continue
        for _ in range(100):
            k = rng.randrange(1, m.rank)
            pivots = sorted(rng.sample(range(m.rank), k))
            allowed = [c for c in range(m.rank) if c not in pivots]
            cols = [rng.choice(allowed) for _ in range(rng.randrange(0, 12))]
            start = rng.randrange(m.size)
            p = make_path(m, start, cols)
            segs = normalize_path(m, p, pivots)
            assert len(segs) == len(pivots) + 1
            assert segs[0].start == p.start and segs[-1].end == p.end
            bounds = [-1] + pivots + [m.rank]
            at = p.start
            for j, seg in enumerate(segs):
                assert seg.start == at
                assert all(bounds[j] < c < bounds[j + 1] for c in seg.colours)
                assert walk(m, seg.start, seg.colours) == seg.end
                at = seg.end
