"""Induced posets: order, chains, sections, faithfulness, polytope axioms."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from maniplexes import posets
from maniplexes import (
    Maniplex,
    InducedPoset,
    MaximalChain,
    all_chains,
    bitflip,
    chain_intersection,
    chain_of_flag,
    diamond,
    flag_graph,
    hypercube,
    induced_poset,
    is_faithful,
    is_polytopal,
    is_polytope,
    maximal_chains,
    polygon,
    rectified_cubic_3torus,
    section,
    strong_flag_connectivity,
    torus_44,
    uniform_chain_length,
    write_mpx,
)
from maniplexes.errors import (
    NoFlagSets,
    NotAChain,
    NotComparable,
    OutOfRange,
    RankOutOfRange,
)
from conftest import (
    ALT_3TORUS_BASIS,
    POLYTOPAL_NAMES,
    deadline,
    relabelled,
    torus11_times_bits,
)
from oracles import faithful_by_chain_count, faithful_by_enumeration, poset_isomorphic


# (proper level sizes, maximal chains, uniform, diamond, sfc, faithful, polytope)
REPORT_TABLE = {
    "polygon(2)": ([2, 2], 4, True, True, True, True, True),
    "polygon(3)": ([3, 3], 6, True, True, True, True, True),
    "polygon(4)": ([4, 4], 8, True, True, True, True, True),
    "polygon(5)": ([5, 5], 10, True, True, True, True, True),
    "polygon(6)": ([6, 6], 12, True, True, True, True, True),
    "hypercube(1)": ([2], 2, True, True, True, True, True),
    "hypercube(2)": ([4, 4], 8, True, True, True, True, True),
    "hypercube(3)": ([8, 12, 6], 48, True, True, True, True, True),
    "hypercube(4)": ([16, 32, 24, 8], 384, True, True, True, True, True),
    "torus44(1,0)": ([1, 2, 1], 2, True, False, True, False, False),
    "torus44(1,1)": ([2, 4, 2], 16, True, False, True, True, False),
    "torus44(2,0)": ([4, 8, 4], 32, True, True, True, True, True),
    "torus44(2,1)": ([5, 10, 5], 40, True, True, True, True, True),
    "torus44(2,2)": ([8, 16, 8], 64, True, True, True, True, True),
    "klein44": ([1, 2, 1], 2, True, False, True, False, False),
    "rect3torus": ([12, 48, 44, 8], 544, True, False, False, False, False),
    "rect3torus_alt": ([12, 48, 44, 8], 576, True, True, False, True, False),
    "oddball8": ([1, 1, 1, 1], 1, True, False, True, False, False),
}

PROPER_CHAIN_COUNTS = {
    "polygon(2)": 8,
    "polygon(3)": 12,
    "polygon(4)": 16,
    "polygon(5)": 20,
    "polygon(6)": 24,
    "hypercube(1)": 2,
    "hypercube(2)": 16,
    "hypercube(3)": 146,
    "hypercube(4)": 1696,
    "torus44(1,0)": 11,
    "torus44(1,1)": 44,
    "torus44(2,0)": 96,
    "torus44(2,1)": 120,
    "torus44(2,2)": 192,
    "klein44": 11,
    "rect3torus": 2368,
    "rect3torus_alt": 2520,
    "oddball8": 15,
}


def test_report_table(all_fixtures, all_posets, all_reports):
    assert set(all_fixtures) == set(REPORT_TABLE)
    for name, expected in REPORT_TABLE.items():
        counts, chains, uni, dia, sfc, faith, poly = expected
        p = all_posets[name]
        r = all_reports[name]
        assert list(p.counts()) == counts, name
        assert r.chain_count == chains, name
        assert r.uniform_chain_length.holds is uni, name
        assert r.diamond.holds is dia, name
        assert r.strong_flag_connected.holds is sfc, name
        assert r.faithful.holds is faith, name
        assert r.is_polytope is poly, name
        assert r.is_ranked_bounded, name


def test_is_polytope_definitionally_consistent(all_reports):
    for name, r in all_reports.items():
        assert r.is_polytope == (
            r.is_ranked_bounded
            and r.uniform_chain_length.holds
            and r.diamond.holds
            and r.strong_flag_connected.holds
        ), name


# -- order relation ---------------------------------------------------------------


def test_improper_faces_bound_everything():
    p = induced_poset(torus_44(1, 1))
    bottom, top = (-1, 0), (p.n, 0)
    for r in range(p.n):
        for k in range(p.counts()[r]):
            assert p.leq(bottom, (r, k)) and p.leq((r, k), top)
    assert p.leq(bottom, top)


def test_leq_requires_strictly_smaller_rank_or_equality():
    p = induced_poset(torus_44(2, 0))
    assert p.leq((0, 0), (0, 0))
    assert not p.leq((1, 0), (1, 1))
    assert not p.leq((2, 0), (0, 0))


def _all_refs(p):
    refs = [(-1, 0), (p.n, 0)]
    for r in range(p.n):
        refs += [(r, k) for k in range(p.counts()[r])]
    return sorted(refs)


def _leq_matrix(p):
    refs = _all_refs(p)
    idx = {ref: i for i, ref in enumerate(refs)}
    mat = [[p.leq(a, b) for b in refs] for a in refs]
    return refs, idx, mat


def test_leq_is_a_partial_order_on_every_fixture(all_posets):
    for name, p in all_posets.items():
        refs, _, mat = _leq_matrix(p)
        n = len(refs)
        for i in range(n):
            assert mat[i][i], name  # reflexive
            for j in range(n):
                if i != j and mat[i][j]:
                    assert not mat[j][i], name  # antisymmetric
        for i in range(n):
            below_i = mat[i]
            for j in range(n):
                if below_i[j]:
                    row_j = mat[j]
                    for k in range(n):
                        if row_j[k]:
                            assert below_i[k], name  # transitive


def test_leq_equals_hasse_cover_reachability(all_posets):
    # the order is stored as an incidence table for every rank pair; this
    # cross-checks it against reachability through consecutive-rank edges.
    for name, p in all_posets.items():
        refs, idx, mat = _leq_matrix(p)
        n = len(refs)
        reach = [[i == j for j in range(n)] for i in range(n)]
        # refs are sorted by rank, so a single sweep in order suffices
        for i, a in enumerate(refs):
            for j, b in enumerate(refs):
                if b[0] == a[0] + 1 and p.leq(a, b):
                    for s in range(n):
                        if reach[s][i]:
                            reach[s][j] = True
        for i in range(n):
            for j in range(n):
                assert mat[i][j] == reach[i][j], (name, refs[i], refs[j])


# -- the incidence table against the flag-set order --------------------------------


def _assert_flag_sets(p, sets, label):
    """``p`` derives the flag sets the oracle computed without the library."""
    refs = list(p.refs(include_improper=True))
    want = [sets.flags_of(a) for a in refs]
    assert [p.flags_of(a) for a in refs] == want, label
    assert p.universe == sets.universe, label


def _assert_matches_oracles(p, label, sets):
    """The table checks against the oracles over ``sets``, the oracle's flag
    sets of ``p``, which ``p`` must derive too."""
    _assert_flag_sets(p, sets, label)
    refs = list(p.refs(include_improper=True))
    got = [[p.leq(a, b) for b in refs] for a in refs]
    assert got == [[oracles.leq(sets, a, b) for b in refs] for a in refs], label
    assert diamond(p) == oracles.diamond(sets), label
    assert uniform_chain_length(p) == oracles.uniform_chain_length(sets), label
    sfc = strong_flag_connectivity(p)
    assert sfc == oracles.strong_flag_connectivity(p), label
    assert sfc == oracles.strong_flag_connectivity_by_spans(p), label
    return _assert_report_sfc(p, sfc, label)


def _is_prepolytope(r):
    return r.uniform_chain_length.holds and r.diamond.holds


def _is_transitive(p):
    """Whether the order table of ``p`` is transitive: whatever lies above
    an element above ``(r, k)`` lies above ``(r, k)``.  Improper elements
    bound everything, so proper ranks suffice."""
    return all(
        set(p.up[s][t][l]) <= set(p.up[r][t][k])
        for r in range(p.n)
        for s in range(r + 1, p.n)
        for t in range(s + 1, p.n)
        for k in range(p.counts()[r])
        for l in p.up[r][s][k]
    )


def _assert_report_sfc(p, sfc, label):
    """The report of a fresh copy of ``p`` gives ``sfc``, the chain path's
    verdict and witness, deciding a prepolytope from its sections, and
    counts the chains the chain path enumerates.  A strongly flag-connected
    prepolytope enumerates none when its order is transitive, as every
    induced poset's is: the section walk assumes a poset.  Returns that
    report."""
    fresh = InducedPoset(p.n, p.counts(), p.up, p.source)
    r = fresh.report()
    assert r.strong_flag_connected == sfc, label
    assert r.chain_count == len(p._chain_tuples()), label
    if _is_prepolytope(r) and sfc.holds and _is_transitive(p):
        assert fresh._chains is None, label
    return r


def _sections(p, sets):
    """Every ``section(p, a, b)`` with a rank gap of three or more, with its
    flag sets cut from ``sets``, the oracle's flag sets of ``p``."""
    refs = list(p.refs(include_improper=True))
    for a in refs:
        for b in refs:
            if b[0] - a[0] >= 3 and oracles.leq(sets, a, b):
                yield (a, b), section(p, a, b), sets.section(a, b)


def test_table_matches_flag_set_order_on_fixtures(all_fixtures, all_posets):
    prepolytopes = 0
    for name, p in all_posets.items():
        sets = oracles.FlagSets.of_maniplex(all_fixtures[name])
        prepolytopes += _is_prepolytope(_assert_matches_oracles(p, name, sets))
    sfc_failures = [
        name
        for name, p in all_posets.items()
        if not strong_flag_connectivity(p).holds
    ]
    assert sfc_failures == ["rect3torus", "rect3torus_alt"]
    assert prepolytopes == 13


def test_table_matches_flag_set_order_on_corpus(corpus):
    # no corpus sample fails strong flag connectivity, so here the oracle
    # comparison only pins the passing verdict.
    failures = sfc_failures = prepolytopes = 0
    for sample in corpus:
        p = induced_poset(sample.maniplex)
        sets = oracles.FlagSets.of_maniplex(sample.maniplex)
        r = _assert_matches_oracles(p, sample.seed, sets)
        failures += not diamond(p).holds
        sfc_failures += not strong_flag_connectivity(p).holds
        prepolytopes += _is_prepolytope(r)
    assert (failures, sfc_failures, prepolytopes) == (497, 0, 503)


def test_table_matches_flag_set_order_on_sections(all_fixtures, all_posets):
    sections = failures = sfc_failures = prepolytopes = 0
    for name, p in all_posets.items():
        sets = oracles.FlagSets.of_maniplex(all_fixtures[name])
        for ends, s, s_sets in _sections(p, sets):
            r = _assert_matches_oracles(s, (name, ends), s_sets)
            sections += 1
            failures += not diamond(s).holds
            sfc_failures += not strong_flag_connectivity(s).holds
            prepolytopes += _is_prepolytope(r)
    assert (sections, failures, sfc_failures, prepolytopes) == (562, 70, 30, 492)


class FlagSetPoset(InducedPoset):
    """A test fake: a poset carrying its own flag sets, ordered by them,
    where an induced poset derives its flag sets from a maniplex."""

    def __init__(self, sets: oracles.FlagSets):
        n, levels = sets.n, sets.levels
        up = tuple(
            tuple(
                tuple(
                    tuple(l for l, g in enumerate(levels[s]) if f & g)
                    for f in levels[r]
                )
                if s > r
                else ()
                for s in range(n)
            )
            for r in range(n)
        )
        super().__init__(n, sets.counts(), up)
        self.sets = sets

    def flags_of(self, ref):
        return self.sets.flags_of(self._check_ref(ref))

    @property
    def universe(self):
        return self.sets.universe


@st.composite
def flag_set_posets(draw):
    """Small ranked posets on flags ``0..5`` ordered by flag-set intersection,
    most of them far from polytopes (uniform chain length often fails)."""
    n = draw(st.integers(1, 4))
    subsets = st.frozensets(st.integers(0, 5), min_size=1)
    levels = [draw(st.lists(subsets, min_size=1, max_size=4)) for _ in range(n)]
    return FlagSetPoset(oracles.FlagSets(n, levels, frozenset(range(6))))


@given(flag_set_posets())
def test_table_checks_match_oracles_on_arbitrary_posets(p):
    _assert_matches_oracles(p, p.sets.levels, p.sets)
    # a section of an arbitrary poset need not be ordered by its flag sets,
    # but it still derives them through the fake's own flags_of.
    for ends, s, s_sets in _sections(p, p.sets):
        _assert_flag_sets(s, s_sets, (p.sets.levels, ends))


def test_intransitive_prepolytope_takes_the_chain_path():
    # rank 0 face {1} lies below both rank-1 faces, which lie below both
    # rank-2 faces, but not below those: the intersection order is not
    # transitive, so connected sections do not decide strong flag
    # connectivity, and the report asks the chains, which find it holds.
    levels = [[{0}, {1}], [{0, 1}, {0, 1}], [{0}, {0}]]
    levels = [list(map(frozenset, level)) for level in levels]
    sets = oracles.FlagSets(3, levels, frozenset(range(6)))
    p = FlagSetPoset(sets)
    assert not _is_transitive(p)
    r = _assert_matches_oracles(p, levels, sets)
    assert _is_prepolytope(r) and r.strong_flag_connected.holds
    fresh = FlagSetPoset(sets)
    assert fresh.report() == r and fresh._chains is not None


# -- chains -----------------------------------------------------------------------


def test_maximal_chain_counts():
    assert len(maximal_chains(induced_poset(torus_44(1, 0)))) == 2
    assert len(maximal_chains(induced_poset(torus_44(1, 1)))) == 16
    assert len(maximal_chains(induced_poset(polygon(3)))) == 6
    assert len(maximal_chains(induced_poset(polygon(6)))) == 12
    assert len(maximal_chains(induced_poset(hypercube(3)))) == 48


def test_maximal_chains_have_one_face_per_rank():
    p = induced_poset(torus_44(2, 1))
    for ch in maximal_chains(p):
        assert [f[0] for f in ch.faces] == list(range(-1, p.n + 1))
        assert ch.proper == ch.faces[1:-1]


def test_all_chains_counts(all_posets):
    for name, p in all_posets.items():
        assert sum(1 for _ in all_chains(p)) == PROPER_CHAIN_COUNTS[name], name


def test_every_chain_intersection_is_nonempty_small():
    for m in (torus_44(1, 1), hypercube(3), torus_44(2, 2)):
        p = induced_poset(m)
        for ch in all_chains(p):
            assert chain_intersection(p, ch)


def test_chain_intersection_example():
    p = induced_poset(torus_44(1, 1))
    assert chain_intersection(p, [(0, 0), (2, 0)]) == frozenset({0, 3, 4, 7})


def test_chain_intersection_accepts_maniplex_and_faces():
    m = torus_44(1, 1)
    got = chain_intersection(m, [m.faces(0)[0], m.faces(2)[0]])
    assert got == frozenset({0, 3, 4, 7})


def test_one_maniplex_builds_its_poset_once(monkeypatch):
    built = []

    def incidences(m):
        built.append(m)
        return real(m)

    real = posets._incidences
    monkeypatch.setattr(posets, "_incidences", incidences)
    m = torus_44(3, 0)
    faces = [m.faces(0)[0], m.faces(2)[0]]
    assert len({chain_intersection(m, faces) for _ in range(20)}) == 1
    is_polytopal(m)
    assert built == [m]
    assert induced_poset(m).up is induced_poset(m).up
    assert induced_poset(m).source is m


def _gap_1_sections():
    """The sections of ``torus_44(2, 0)``'s poset between each vertex and
    each edge on it: posets of rank 0, with no proper face."""
    p = induced_poset(torus_44(2, 0))
    for k, edges in enumerate(p.up[0][1]):
        for e in edges:
            yield section(p, (0, k), (1, e))


def test_a_gap_1_section_is_a_polytope_with_one_chain():
    sections = list(_gap_1_sections())
    assert len(sections) == 16  # 8 edges, 2 vertices each
    for s in sections:
        report = s.report()
        assert s.n == 0 and report.is_polytope and report.chain_count == 1


def test_flag_graph_refuses_a_poset_of_rank_0():
    for s in _gap_1_sections():
        with pytest.raises(RankOutOfRange) as exc:
            flag_graph(s)
        assert str(exc.value) == "a poset of rank 0 has no flag graph"


def test_chain_intersection_refuses_a_face_of_another_maniplex():
    # the face's flags are {6, 7, 18, 19}; read by its rank and index in
    # torus_44(3, 0), it would stand for flags {6, 7, 34, 35}
    face = torus_44(2, 0).faces(1)[3]
    with pytest.raises(OutOfRange):
        chain_intersection(torus_44(3, 0), [face])


def test_chain_intersection_refuses_a_face_with_no_maniplex_behind_the_poset():
    m = hypercube(3)
    p = induced_poset(m)
    square = section(p, (-1, 0), (2, 0))
    hand_built = InducedPoset(p.n, p.counts(), p.up)
    for q in (square, hand_built):
        with pytest.raises(OutOfRange):
            chain_intersection(q, [m.faces(0)[0]])
    assert chain_intersection(p, [m.faces(0)[0]]) == p.flags_of((0, 0))


def test_chain_intersection_improper_faces_are_neutral():
    p = induced_poset(torus_44(1, 1))
    with_improper = chain_intersection(p, [(-1, 0), (0, 0), (2, 0), (3, 0)])
    assert with_improper == chain_intersection(p, [(0, 0), (2, 0)])


def test_chain_intersection_rejects_same_rank_pair():
    p = induced_poset(torus_44(1, 1))
    with pytest.raises(NotAChain):
        chain_intersection(p, [(1, 0), (1, 1)])


def test_chain_intersection_rejects_incomparable_pair():
    p = induced_poset(torus_44(2, 0))
    vertex = (0, 0)
    other = next(
        (1, k)
        for k in range(p.counts()[1])
        if not p.leq(vertex, (1, k))
    )
    with pytest.raises(NotAChain):
        chain_intersection(p, [vertex, other])


def test_chain_of_flag_passes_through_the_flag():
    m = torus_44(2, 1)
    p = induced_poset(m)
    for v in range(m.size):
        ch = chain_of_flag(m, v)
        assert v in chain_intersection(p, ch.proper)


def test_chain_of_flag_rejects_flags_out_of_range():
    m = torus_44(2, 0)
    for flag in (-1, m.size):
        with pytest.raises(OutOfRange):
            chain_of_flag(m, flag)


def test_chain_of_flag_rejects_a_non_integer_flag():
    with pytest.raises(OutOfRange):
        chain_of_flag(torus_44(2, 0), 1.5)


def test_poset_refs_must_be_integer_pairs_in_range():
    p = induced_poset(torus_44(2, 0))
    calls = [
        lambda ref: p.leq(ref, (1, 0)),
        lambda ref: p.leq((-1, 0), ref),
        p.flags_of,
        lambda ref: section(p, ref, (3, 0)),
        lambda ref: chain_intersection(p, [ref]),
    ]
    for ref in [(0, 1.5), (1.0, 0), (-2, 0), (4, 0), (3, 1), (0, 4), 3, (0, 0, 0)]:
        for call in calls:
            with pytest.raises(OutOfRange):
                call(ref)


# -- sections ---------------------------------------------------------------------


def test_section_of_cube_vertex_is_a_triangle_poset():
    p = induced_poset(hypercube(3))
    s = section(p, (0, 0), (3, 0))
    assert s.n == 2
    assert poset_isomorphic(s, induced_poset(polygon(3))) is not None


def test_full_section_is_the_poset_itself():
    p = induced_poset(torus_44(1, 1))
    assert section(p, (-1, 0), (3, 0)) == p


def test_section_rejects_equal_endpoints():
    p = induced_poset(torus_44(2, 0))
    with pytest.raises(NotComparable, match="not strictly below"):
        section(p, (0, 0), (0, 0))


def test_section_rejects_incomparable_endpoints():
    p = induced_poset(torus_44(2, 0))
    vertex = (0, 0)
    other = next(
        (1, k)
        for k in range(p.counts()[1])
        if not p.leq(vertex, (1, k))
    )
    with pytest.raises(NotComparable):
        section(p, other, vertex)


def _proper_incidence_components(s):
    nodes = [
        (r, k) for r in range(s.n) for k in range(s.counts()[r])
    ]
    parent = {x: x for x in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, a in enumerate(nodes):
        for b in nodes[i + 1 :]:
            if a[0] != b[0] and (s.leq(a, b) or s.leq(b, a)):
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
    return len({find(x) for x in nodes})


def test_3torus_disconnected_vertex_cell_sections():
    p = induced_poset(rectified_cubic_3torus())
    cell_sizes = [len(p.flags_of((3, k))) for k in range(p.counts()[3])]
    octahedra = [k for k, size in enumerate(cell_sizes) if size == 48]
    cuboctahedra = [k for k, size in enumerate(cell_sizes) if size == 96]
    assert len(octahedra) == len(cuboctahedra) == 4
    disconnected = []
    for vid in range(p.counts()[0]):
        for cid in range(p.counts()[3]):
            if not p.leq((0, vid), (3, cid)):
                continue
            s = section(p, (0, vid), (3, cid))
            if _proper_incidence_components(s) > 1:
                disconnected.append((vid, cid))
                assert _proper_incidence_components(s) == 2
                assert s.counts() == (8, 8)
                assert len(s.universe) == 16
    assert disconnected == [(0, 2), (2, 3), (7, 6), (10, 7)]
    assert all(cid in octahedra for _, cid in disconnected)


def _polytopal_inputs(all_fixtures, corpus):
    """Every polytopal fixture (``hypercube(4)`` among them), the polytopal
    corpus samples and the bit-flips of ranks 2 to 6."""
    inputs = [all_fixtures[name] for name in sorted(POLYTOPAL_NAMES)]
    inputs += [s.maniplex for s in corpus if s.cip]
    return inputs + [bitflip(n) for n in range(2, 7)]


def test_sections_of_polytopes_are_polytopes(all_fixtures, corpus):
    """Every section of a polytope with a rank gap of two or more, improper
    ends included, is a polytope (McMullen & Schulte, *Abstract Regular
    Polytopes*, 2B)."""
    sections = 0
    for m in _polytopal_inputs(all_fixtures, corpus):
        p = induced_poset(m)
        refs = list(p.refs(include_improper=True))
        for a in refs:
            for b in refs:
                if b[0] - a[0] >= 2 and p.leq(a, b):
                    assert section(p, a, b).report().is_polytope, (m.size, a, b)
                    sections += 1
    assert sections == 9272


# sha256 of the .mpx bytes of the flag graph of each input above, in order;
# recorded before flag_graph read its rows from the chains' one-face steps.
FLAG_GRAPH_DIGEST = "f8c48db7e5f8d38cc2e471795ca4a786f761953216a3a7b2390e88ab1088cb5d"


def test_flag_graphs_of_polytopes_are_pinned(all_fixtures, corpus):
    digest = hashlib.sha256()
    for m in _polytopal_inputs(all_fixtures, corpus):
        digest.update(write_mpx(flag_graph(induced_poset(m)).graph).encode())
    assert digest.hexdigest() == FLAG_GRAPH_DIGEST


# -- faithfulness -------------------------------------------------------------------


def test_torus10_unfaithful_with_witness():
    res = is_faithful(torus_44(1, 0))
    assert not res
    chain, (a, b) = res.witness
    assert chain == MaximalChain(((-1, 0), (0, 0), (1, 0), (2, 0), (3, 0)))
    assert (a, b) == (0, 1)


def test_is_faithful_matches_the_meet_oracle(all_fixtures, corpus):
    """Verdict and witness equal the meet-based check's: the smallest flag
    sharing every face with a later one, and the smallest such later flag."""
    inputs = [*all_fixtures.items(), *((s.seed, s.maniplex) for s in corpus)]
    unfaithful = 0
    for label, m in inputs:
        res = is_faithful(m)
        assert res == oracles.is_faithful(m), label
        unfaithful += not res.holds
    assert (len(inputs), unfaithful) == (1018, 501)


def test_faithfulness_criteria_agree(all_fixtures, all_posets):
    for name, m in all_fixtures.items():
        p = all_posets[name]
        meet_verdict = bool(is_faithful(m))
        count_verdict = bool(faithful_by_chain_count(m, p))
        enum_verdict = bool(faithful_by_enumeration(m, p))
        assert meet_verdict == count_verdict == enum_verdict, name


def test_faithful_means_chain_count_equals_flags(all_fixtures, all_reports):
    for name, m in all_fixtures.items():
        r = all_reports[name]
        if r.faithful.holds:
            assert r.chain_count == m.size, name
        else:
            assert r.chain_count < m.size, name


# -- polytope axioms ----------------------------------------------------------------


def test_uniform_chain_length_holds_on_fixtures(all_posets):
    for name, p in all_posets.items():
        assert uniform_chain_length(p).holds, name


def test_diamond_witnesses():
    assert diamond(induced_poset(torus_44(1, 1))).witness == ((0, 0), (2, 0), 4)
    assert diamond(induced_poset(torus_44(1, 0))).witness == ((-1, 0), (1, 0), 1)
    assert diamond(induced_poset(rectified_cubic_3torus())).witness == (
        (0, 1),
        (2, 0),
        4,
    )


def test_diamond_witness_count_is_exact():
    p = induced_poset(torus_44(1, 1))
    e, f, count = diamond(p).witness
    middles = [
        k
        for k in range(p.counts()[1])
        if p.leq(e, (1, k)) and p.leq((1, k), f)
    ]
    assert len(middles) == count == 4


# per basis: chain count, witness positions among the maximal chains, and
# the witness chains' proper faces.
SFC_WITNESSES = {
    None: (
        544,
        (3, 9),
        (((0, 0), (1, 0), (2, 1), (3, 2)), ((0, 0), (1, 1), (2, 2), (3, 2))),
    ),
    ALT_3TORUS_BASIS: (
        576,
        (192, 204),
        (((0, 4), (1, 3), (2, 1), (3, 0)), ((0, 4), (1, 14), (2, 9), (3, 0))),
    ),
}


def test_sfc_witness_is_a_pair_of_maximal_chains():
    for basis, (count, positions, proper) in SFC_WITNESSES.items():
        p = induced_poset(rectified_cubic_3torus(basis))
        res = strong_flag_connectivity(p)
        assert not res, basis
        a, b = res.witness
        chains = maximal_chains(p)
        assert len(chains) == count, basis
        assert (chains.index(a), chains.index(b)) == positions, basis
        assert (a.proper, b.proper) == proper, basis


def test_sfc_matches_the_span_oracle_at_higher_rank():
    inputs = [(f"bitflip({n})", bitflip(n)) for n in range(2, 11)]
    inputs += [(f"hypercube({d})", hypercube(d)) for d in range(1, 5)]
    inputs.append(("torus11_times_bits(4)", torus11_times_bits(4)))
    prepolytopes = []
    for label, m in inputs:
        p = induced_poset(m)
        res = strong_flag_connectivity(p)
        assert res == oracles.strong_flag_connectivity_by_spans(p), label
        assert res.holds, label
        if _is_prepolytope(_assert_report_sfc(p, res, label)):
            prepolytopes.append(label)
    # torus44(1,1) fails the diamond condition, and so does its product
    assert prepolytopes == [label for label, _ in inputs[:-1]]


def twin(p: InducedPoset) -> InducedPoset:
    """Two disjoint copies of ``p`` under one bottom and one top face, built
    from counts and incidences alone, so it has no flag sets."""
    counts = p.counts()
    up = tuple(
        tuple(
            row + tuple(tuple(l + counts[s] for l in ls) for ls in row)
            for s, row in enumerate(rows)
        )
        for rows in p.up
    )
    return InducedPoset(p.n, [2 * c for c in counts], up)


@pytest.mark.parametrize(
    "m, chains",
    [(hypercube(4), 384), (bitflip(5), 32), (bitflip(6), 64)],
    ids=["hypercube(4)", "bitflip(5)", "bitflip(6)"],
)
def test_twin_posets_fail_sfc_only_on_the_full_interval(m, chains):
    # every proper section lies inside one copy, so only the interval of
    # all ranks can tell the copies apart.
    p = twin(induced_poset(m))
    assert uniform_chain_length(p).holds and diamond(p).holds
    res = strong_flag_connectivity(p)
    assert not res
    got = maximal_chains(p)
    assert len(got) == 2 * chains
    assert res.witness == (got[0], got[chains])
    assert res == oracles.strong_flag_connectivity_by_spans(p)
    assert res == oracles.strong_flag_connectivity(p)
    assert _is_prepolytope(_assert_report_sfc(p, res, m))


def test_a_poset_without_a_source_has_no_flag_sets():
    p = twin(induced_poset(polygon(3)))
    for q in (p, section(p, (0, 0), (2, 0))):
        with pytest.raises(NoFlagSets):
            q.flags_of((0, 0))
        with pytest.raises(NoFlagSets):
            q.universe
        assert q.report().faithful is None


def test_only_a_poset_induced_by_a_maniplex_reports_faithfulness():
    p = induced_poset(hypercube(3))
    assert p.report().faithful.holds
    assert section(p, (-1, 0), (3, 0)).report().faithful is None


def test_chain_tuples_extend_rank_by_rank_in_lex_order(all_posets):
    for name, p in all_posets.items():
        chains = p._chain_tuples()
        assert list(chains) == sorted(set(chains)), name
        assert all(len(ch) == p.n for ch in chains), name
        assert all(
            ch[r + 1] in p.up[r][r + 1][ch[r]]
            for ch in chains
            for r in range(p.n - 1)
        ), name


def test_klein_and_torus10_have_isomorphic_posets():
    from maniplexes import klein_44

    iso = poset_isomorphic(
        induced_poset(klein_44()), induced_poset(torus_44(1, 0))
    )
    assert iso is not None
    assert iso[(-1, 0)] == (-1, 0)
    assert all(a[0] == b[0] for a, b in iso.items())


def test_poset_isomorphism_respects_order():
    from maniplexes import klein_44

    p = induced_poset(klein_44())
    q = induced_poset(torus_44(1, 0))
    iso = poset_isomorphic(p, q)
    refs = _all_refs(p)
    for a in refs:
        for b in refs:
            assert p.leq(a, b) == q.leq(iso[a], iso[b])


@pytest.mark.parametrize(
    "make",
    [lambda: torus_44(4, 0), lambda: hypercube(4)],
    ids=["torus44(4,0)", "hypercube(4)"],
)
def test_poset_isomorphism_of_a_relabelled_copy_respects_order(make):
    # every vertex of one rank constrains nothing, so mapping rank by rank
    # tried every vertex assignment before an edge could rule one out
    m = make()
    p, q = induced_poset(m), induced_poset(relabelled(m, 7))
    with deadline(10):
        iso = poset_isomorphic(p, q)
    assert iso is not None
    refs = _all_refs(p)
    assert sorted(iso) == sorted(refs)
    assert len(set(iso.values())) == len(refs)
    for a in refs:
        assert iso[a][0] == a[0]
        for b in refs:
            assert p.leq(a, b) == q.leq(iso[a], iso[b])


def test_poset_isomorphism_needs_no_recursion_per_element():
    # 1156 proper elements, more than the default recursion limit
    p = induced_poset(torus_44(17, 0))
    with deadline(30):
        iso = poset_isomorphic(p, p)
    assert iso is not None
    assert len(iso) == sum(p.counts()) + 2


def test_different_posets_are_not_isomorphic():
    assert (
        poset_isomorphic(
            induced_poset(torus_44(1, 0)), induced_poset(torus_44(1, 1))
        )
        is None
    )


def test_is_polytope_matches_report(all_posets, all_reports):
    for name, p in all_posets.items():
        assert is_polytope(p).is_polytope == all_reports[name].is_polytope, name


# -- the implication "faithful + strongly flag connected => diamond" -----------------
#
# Stated as an invariant to hold on every fixture where the premises hold.
# It is FALSE.  torus44(1,1), the map {4,4}_(1,1), has 2 vertices, 4 edges
# and 2 square faces; every edge contains both vertices and every face all 4
# edges, so its 2*4*2 = 16 maximal chains match its 16 flags (faithful), and
# it is strongly flag connected.  Yet 4 edges lie between vertex (0,0) and
# 2-face (2,0), where the diamond condition needs 2.  The test below pins the
# literal statement to that one counterexample among the fixtures, next to a
# green twin that checks the witness and the repaired implication that holds.


def test_invariant_as_stated_faithful_sfc_implies_diamond(all_reports):
    # the implication fails on exactly one fixture; this breaks if another
    # fixture becomes a counterexample or if torus44(1,1) stops being one.
    violators = [
        name
        for name, r in all_reports.items()
        if r.faithful.holds and r.strong_flag_connected.holds and not r.diamond.holds
    ]
    assert violators == ["torus44(1,1)"]


def test_faithful_sfc_but_not_diamond_counterexample():
    r = induced_poset(torus_44(1, 1)).report()
    assert r.faithful.holds
    assert r.strong_flag_connected.holds
    assert not r.diamond.holds
    assert r.diamond.witness == ((0, 0), (2, 0), 4)


def test_repaired_implication_faithful_sfc_diamond_gives_polytope(
    all_reports, corpus
):
    reports = list(all_reports.values()) + [s.poset_report for s in corpus]
    for r in reports:
        if r.faithful.holds and r.strong_flag_connected.holds and r.diamond.holds:
            assert r.is_polytope
