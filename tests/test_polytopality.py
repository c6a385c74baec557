"""CIP / WPIP / SPIP, their equivalence, flag graphs, and the beta map."""

from __future__ import annotations

from dataclasses import replace
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from maniplexes import (
    CheckResult,
    CipWitness,
    Partition,
    SpipWitness,
    are_isomorphic,
    beta,
    bitflip,
    chain_of_flag,
    check_cip,
    check_spip,
    check_wpip,
    flag_graph,
    hypercube,
    induced_poset,
    is_polytopal,
    klein_44,
    partition_meet,
    polygon,
    rectified_cubic_3torus,
    torus_44,
)
from maniplexes.errors import InconsistentVerdicts, NotAPolytope
from maniplexes import polytopality as polytopality_module
from maniplexes.graphs import first_split
from maniplexes.polytopality import (
    _certify_beta,
    _failures,
    _spip_families,
    _subsets,
    _windows,
)
from conftest import (
    ditope,
    ALT_3TORUS_BASIS,
    POLYTOPAL_NAMES,
    dual,
    lines_run,
    relabelled,
    squares_mod_half_turn,
    torus11_times_bits,
)
import oracles
from oracles import check_cip_via_chains, meet_all, split_pair


# -- CIP --------------------------------------------------------------------------


def test_cip_cube_holds():
    assert check_cip(hypercube(3))


def test_cip_torus11_witness():
    res = check_cip(torus_44(1, 1))
    assert not res
    w = res.witness
    assert (w.colours, w.flag_a, w.flag_b) == ((0, 2), 0, 4)


def test_cip_torus11_witness_block_is_two_colour1_edges():
    m = torus_44(1, 1)
    blk = (0, 3, 4, 7)  # the meet block joining the witness flags
    edges = {tuple(sorted((v, m.neighbour(1, v)))) for v in blk}
    assert edges == {(0, 3), (4, 7)}


def test_cip_witness_is_minimal_by_size_then_lex():
    m = torus_44(1, 1)
    # every proper subset scanned before (0,2) passes the equality
    for sub in [(0,), (1,), (2,), (0, 1)]:
        target = m.components_of(c for c in range(3) if c not in sub)
        met = meet_all(m.components_of(c for c in range(3) if c != i) for i in sub)
        assert met == target, sub


def test_cip_torus10_blocks_split_into_two_or_four_single_colour_edges():
    m = torus_44(1, 0)
    res = check_cip(m)
    assert not res and res.witness.colours == (0, 1)
    for sub in [(0, 1), (0, 2), (1, 2)]:
        (k,) = [c for c in range(3) if c not in sub]
        met = meet_all(m.components_of(c for c in range(3) if c != i) for i in sub)
        fine = m.components_of([k])
        for blk in met.blocks():
            pieces = [b for b in fine.blocks() if set(b) <= set(blk)]
            if len(pieces) > 1:
                assert len(pieces) in (2, 4)
                assert all(len(p) == 2 for p in pieces)  # colour-k edges


def test_cip_klein_witness():
    res = check_cip(klein_44())
    assert not res and res.witness.colours == (0, 1)


def test_cip_chain_oracle_agrees(all_fixtures, all_posets):
    for name, m in all_fixtures.items():
        direct = bool(check_cip(m))
        via_chains = bool(check_cip_via_chains(m, all_posets[name]))
        assert direct == via_chains, name


def test_complement_partition_always_refines_the_meet(all_fixtures):
    for name, m in all_fixtures.items():
        n = m.rank
        for mask in range(1, 1 << n):
            sub = [c for c in range(n) if mask >> c & 1]
            met = meet_all(
                m.components_of(c for c in range(n) if c != i) for i in sub
            )
            fine = m.components_of(c for c in range(n) if c not in sub)
            for block in fine.blocks():
                assert all(met.ids[block[0]] == met.ids[v] for v in block), (name, sub)


# -- WPIP -------------------------------------------------------------------------


def test_wpip_torus11():
    res = check_wpip(torus_44(1, 1))
    assert not res.holds
    assert res.failures == ((0, 2),)
    w = res.witness
    assert (w.low, w.high, w.flag_a, w.flag_b) == (0, 2, 0, 4)


def test_wpip_witness_flags_lack_a_colour1_path():
    m = torus_44(1, 1)
    w = check_wpip(m).witness
    between = m.components_of([1])
    assert between.ids[w.flag_a] != between.ids[w.flag_b]
    above = m.components_of([1, 2])
    below = m.components_of([0, 1])
    assert above.ids[w.flag_a] == above.ids[w.flag_b]
    assert below.ids[w.flag_a] == below.ids[w.flag_b]


def test_wpip_torus10_fails_every_pair():
    assert check_wpip(torus_44(1, 0)).failures == ((0, 1), (0, 2), (1, 2))


def test_wpip_3torus_failures_include_0_3():
    res = check_wpip(rectified_cubic_3torus())
    assert res.failures == ((0, 2), (0, 3), (1, 3), (2, 3))
    assert (0, 3) in res.failures


def test_wpip_alt_3torus_fails_exactly_at_0_3():
    res = check_wpip(rectified_cubic_3torus(ALT_3TORUS_BASIS))
    assert res.failures == ((0, 3),)


def test_wpip_cube_holds():
    assert check_wpip(hypercube(3)).holds


# -- SPIP -------------------------------------------------------------------------


def test_spip_equal_subsets_are_trivial():
    m = torus_44(1, 1)
    for mask in range(1 << 3):
        cols = [c for c in range(3) if mask >> c & 1]
        part = m.components_of(cols)
        assert partition_meet(part, part) == part


def test_spip_torus11_witness():
    res = check_spip(torus_44(1, 1))
    assert not res
    w = res.witness
    assert (w.colours_a, w.colours_b) == ((0, 1), (1, 2))
    assert (w.flag_a, w.flag_b) == (0, 4)


def test_spip_cube_holds():
    assert check_spip(hypercube(3))


def test_spip_rank_cap():
    # rank-7 maniplex: colour c flips bit c (flag graph of a 7-fold digonal
    # pile); above rank 6 SPIP checks only the interval property's pairs.
    m = bitflip(7)
    assert check_spip(m)
    assert check_wpip(m).holds


def test_split_pair_of_equal_partitions_raises_a_typed_error():
    part = Partition([0, 0, 1, 1])
    with pytest.raises(InconsistentVerdicts):
        split_pair(part, Partition([0, 0, 1, 1]))


def test_split_at_representatives_matches_the_flag_level_oracle(
    all_fixtures, corpus
):
    """The intersection test read at the target's smallest flags gives the
    flag-level test's answer, ``None`` or the same flag pair, on every
    incomparable colour-mask pair."""
    inputs = list(all_fixtures.values()) + [s.maniplex for s in corpus]
    inputs += [bitflip(n) for n in range(2, 7)] + [hypercube(3)]
    seen = {"holds": 0, "fails": 0, "one-block target": 0}
    for m in inputs:
        for _, a, b in _spip_families(m.rank)[1]:
            pa, pb, target = (m._components(x) for x in (a, b, a & b))
            want = oracles.split(pa, pb, target)
            assert first_split(target, pa.ids, pb.ids) == want
            seen["holds" if want is None else "fails"] += 1
            seen["one-block target"] += target.block_count() == 1
    assert all(seen.values()), seen


@given(st.data())
def test_split_matches_the_oracle_on_random_refining_triples(data):
    size = data.draw(st.integers(1, 12))
    labels = st.lists(st.integers(0, size - 1), min_size=size, max_size=size)
    target = Partition(data.draw(labels))
    # each side labels the target's blocks, so the target refines it
    pa, pb = (
        Partition(map(data.draw(labels).__getitem__, target.ids)) for _ in "ab"
    )
    assert first_split(target, pa.ids, pb.ids) == oracles.split(pa, pb, target)


@given(st.data())
def test_first_split_matches_the_block_walk_on_any_number_of_key_columns(data):
    # zero columns is strong flag connectivity's interval 0..n-1: every
    # flag has the key ()
    size = data.draw(st.integers(1, 12))
    labels = st.lists(st.integers(0, size - 1), min_size=size, max_size=size)
    fine = Partition(data.draw(labels))
    # each column labels fine's blocks, so fine refines the key classes
    cols = [
        tuple(map(data.draw(labels).__getitem__, fine.ids))
        for _ in range(data.draw(st.integers(0, 3)))
    ]
    classes = Partition(tuple(col[v] for col in cols) for v in range(size))
    want = None if classes == fine else split_pair(classes, fine)
    assert first_split(fine, *cols) == want


@given(st.data())
def test_first_split_ignores_the_order_of_two_key_columns(data):
    # the scan's memo keys each mask pair unordered
    size = data.draw(st.integers(1, 12))
    labels = st.lists(st.integers(0, size - 1), min_size=size, max_size=size)
    fine = Partition(data.draw(labels))
    # each column labels fine's blocks, so fine refines the key classes
    x, y = (tuple(map(data.draw(labels).__getitem__, fine.ids)) for _ in "xy")
    assert first_split(fine, x, y) == first_split(fine, y, x)


def test_each_mask_pair_is_split_once_per_maniplex(monkeypatch):
    """The criteria share one memo of split results per maniplex: WPIP
    splits only the windows that CIP did not, and SPIP only the co-pairs
    that neither did; above rank 6 its pairs are the windows, so it splits
    none."""
    calls = []

    def counting_split(*args):
        calls.append(args)
        return first_split(*args)

    monkeypatch.setattr(polytopality_module, "first_split", counting_split)
    assert (len(_windows(6)), len(_spip_families(6)[0])) == (15, 301)
    for n, want in ((6, [57, 10, 234]), (7, [120, 15, 0]), (8, [247, 21, 0])):
        m, got = bitflip(n), []
        for check in (check_cip, check_wpip, check_spip):
            calls.clear()
            assert check(m)
            got.append(len(calls))
        assert got == want, n
        assert len(m._splits) == sum(want), n


def test_first_split_names_no_pair_on_passing_criteria():
    witness = "keys = list(zip(*map(at, key_columns)))"
    m = bitflip(5)
    criteria = lambda: (check_cip(m), check_wpip(m), check_spip(m))
    assert witness not in lines_run(first_split, criteria)
    m = torus_44(1, 1)
    assert witness in lines_run(first_split, criteria)


def test_spip_delegation_translates_wpip_witness():
    m = torus11_times_bits(4)
    w = check_wpip(m).witness
    assert (w.low, w.high, w.flag_a, w.flag_b) == (0, 2, 0, 64)
    res = check_spip(m)
    assert not res
    assert res.witness == SpipWitness(
        tuple(range(w.low + 1, 7)), tuple(range(w.high)), w.flag_a, w.flag_b
    )
    assert res.witness == SpipWitness((1, 2, 3, 4, 5, 6), (0, 1), 0, 64)


@pytest.mark.parametrize(
    "k, witness",
    [(2, SpipWitness((0, 1), (1, 2), 0, 16)), (3, SpipWitness((0, 1), (1, 2), 0, 32))],
)
def test_exhaustive_spip_fails_at_ranks_5_and_6(k, witness):
    # rank 3 + k, at most 6: the co-pairs decide, then the pair scan names
    # the witness.
    m = torus11_times_bits(k)
    res = check_spip(m)
    assert res == oracles.check_spip(m)
    assert res == CheckResult(False, witness)


def _bits(mask):
    return tuple(c for c in range(mask.bit_length()) if mask >> c & 1)


@pytest.mark.parametrize("n", range(1, 7))
def test_spip_pair_counts(n):
    co_pairs, pairs = _spip_families(n)
    assert len(pairs) == (4**n - 2 * 3**n + 2**n) // 2
    assert len(co_pairs) == (3**n - 2 ** (n + 1) + 1) // 2
    assert all(tag == (_bits(a), _bits(b)) for tag, a, b in pairs)
    masks = [(a, b) for _, a, b in pairs]
    full = (1 << n) - 1
    assert all(a | b == full and (a, b) in masks for _, a, b in co_pairs)
    # each co-pair starts at the first pair whose co-pair it is
    for i, a, b in co_pairs:
        pa, pb = masks[i]
        co = pa | (full ^ pb)
        assert (min(co, pb), max(co, pb)) == (a, b)
    starts = [i for i, _, _ in co_pairs]
    assert starts == sorted(set(starts))


@pytest.mark.parametrize("n", range(1, 10))
def test_cip_and_window_family_tables(n):
    full = (1 << n) - 1
    subsets = list(_subsets(n))
    assert len(subsets) == 2**n - n - 1
    # each subset meets in the mask with all of it removed
    assert all(a & b == full - sum(1 << c for c in sub) for sub, a, b in subsets)
    sizes = [len(sub) for sub, _, _ in subsets]
    assert sizes == sorted(sizes)
    windows = _windows(n)
    assert len(windows) == n * (n - 1) // 2
    for (low, high), above, below in windows:
        assert _bits(above) == tuple(range(low + 1, n))
        assert _bits(below) == tuple(range(high))
    if n > 6:
        # above rank 6 SPIP decides on the windows and names its witness there
        deciding, pairs = _spip_families(n)
        assert deciding == tuple((i, a, b) for i, (_, a, b) in enumerate(windows))
        assert pairs == tuple(((_bits(a), _bits(b)), a, b) for _, a, b in windows)


def _fails(m, a, b):
    """Whether the components over colour masks ``a`` and ``b`` meet in a
    coarser partition than those over ``a & b``."""

    def bits(mask):
        return [c for c in range(m.rank) if mask >> c & 1]

    met = partition_meet(m.components_of(bits(a)), m.components_of(bits(b)))
    return met != m.components_of(bits(a & b))


def test_a_failing_pair_has_failing_co_pairs(all_fixtures, corpus):
    # (A, B) fails, so (A | ~B, B) and (A, B | ~A) fail: they meet in the
    # same A & B from coarser sides.  check_spip decides on such co-pairs.
    samples = [*all_fixtures.items(), *((s.seed, s.maniplex) for s in corpus)]
    failing = 0
    for label, m in samples:
        full = (1 << m.rank) - 1
        for a in range(full + 1):
            for b in range(a + 1, full + 1):
                if a & b not in (a, b) and _fails(m, a, b):
                    failing += 1
                    assert _fails(m, a | (full ^ b), b), (label, a, b)
                    assert _fails(m, a, b | (full ^ a)), (label, a, b)
    assert failing == 11436


def test_criteria_match_the_separate_loop_oracles(all_fixtures, corpus):
    samples = list(all_fixtures.items())
    samples += [(s.seed, s.maniplex) for s in corpus]
    samples.append(("torus11_times_bits(4)", torus11_times_bits(4)))
    for label, m in samples:
        assert check_cip(m) == oracles.check_cip(m), label
        assert check_wpip(m) == oracles.check_wpip(m), label
        assert check_spip(m) == oracles.check_spip(m), label


# -- equivalences -------------------------------------------------------------------


def test_criteria_agree_on_fixtures_and_corpus(all_fixtures, all_reports, corpus):
    for name, m in all_fixtures.items():
        a = bool(check_cip(m))
        b = check_wpip(m).holds
        c = bool(check_spip(m))
        d = all_reports[name].is_polytope
        assert a == b == c == d, name
    for s in corpus:
        assert s.cip == s.wpip == s.spip == s.poset_report.is_polytope, s.seed


def test_cip_implies_diamond(all_fixtures, all_reports, corpus):
    for name in all_fixtures:
        if bool(check_cip(all_fixtures[name])):
            assert all_reports[name].diamond.holds, name
    for s in corpus:
        if s.cip:
            assert s.poset_report.diamond.holds, s.seed


def test_diamond_does_not_imply_cip():
    # the quotient by the diagonal lattice keeps the diamond condition but
    # still fails the intersection property at S = {0,3}.
    alt = rectified_cubic_3torus(ALT_3TORUS_BASIS)
    rep = induced_poset(alt).report()
    assert rep.diamond.holds
    res = check_cip(alt)
    assert not res and res.witness.colours == (0, 3)


def test_invariant_as_stated_faithful_implies_sfc_iff_cip(all_fixtures, all_reports):
    # the claim "for faithful maniplexes, strong flag connectivity of the
    # poset is equivalent to the intersection property" is false, and this
    # pins it to its one counterexample among the fixtures.  torus44(1,1) has
    # 2 vertices, 4 edges and 2 faces, every edge on both vertices and every
    # face on all 4 edges: 2*4*2 = 16 maximal chains on 16 flags (faithful),
    # and strongly flag connected, yet CIP fails at S = {0,2} (4 edges lie
    # between vertex (0,0) and face (2,0), not 2).  This breaks if another
    # fixture becomes a counterexample or if torus44(1,1) stops being one.
    violators = [
        name
        for name, m in all_fixtures.items()
        if all_reports[name].faithful.holds
        and all_reports[name].strong_flag_connected.holds != bool(check_cip(m))
    ]
    assert violators == ["torus44(1,1)"]


def test_invariant_as_stated_polytope_poset_implies_polytopal(
    all_fixtures, corpus
):
    # the claim "if the induced poset P_M is a polytope, M is polytopal" is
    # false: M must also be faithful, so that it is P_M's flag graph.  The
    # two squares modulo their joint half-turn refute it, and no fixture or
    # corpus sample does.  This breaks if another input becomes a
    # counterexample or if that one stops being one.
    inputs = dict(all_fixtures, squares_mod_half_turn=squares_mod_half_turn())
    violators = [
        name
        for name, m in inputs.items()
        if induced_poset(m).report().is_polytope and not is_polytopal(m).polytopal
    ]
    assert violators == ["squares_mod_half_turn"]
    assert not [s.seed for s in corpus if s.poset_report.is_polytope and not s.cip]


def test_polytope_poset_without_faithfulness_counterexample():
    m = squares_mod_half_turn()
    assert m.rank == 4 and m.size == 32
    rep = is_polytopal(m)
    assert not rep.polytopal and rep.flag_graph_isomorphism is None
    assert rep.cip.witness == CipWitness((0, 2), 0, 3)
    assert rep.wpip.failures == ((0, 2), (0, 3), (1, 2), (1, 3))
    assert rep.spip.witness == SpipWitness((0, 1), (2, 3), 0, 4)
    assert rep.poset.is_polytope and rep.poset.chain_count == 16
    assert not rep.poset.faithful.holds and rep.poset.faithful.witness[1] == (0, 4)
    # the test oracles agree, each leg on its own
    p = induced_poset(m)
    assert not oracles.check_cip(m) and not check_cip_via_chains(m, p)
    assert not oracles.check_wpip(m) and not oracles.check_spip(m)
    assert oracles.uniform_chain_length(p).holds and oracles.diamond(p).holds
    assert oracles.strong_flag_connectivity(p).holds
    assert not oracles.is_faithful(m).holds


def test_faithful_sfc_without_cip_counterexample():
    m = torus_44(1, 1)
    r = induced_poset(m).report()
    assert r.faithful.holds
    assert r.strong_flag_connected.holds
    assert not check_cip(m)


def test_repaired_equivalence_under_faithful_and_diamond(
    all_fixtures, all_reports, corpus
):
    for name, m in all_fixtures.items():
        r = all_reports[name]
        if r.faithful.holds and r.diamond.holds:
            assert r.strong_flag_connected.holds == bool(check_cip(m)), name
    for s in corpus:
        r = s.poset_report
        if r.faithful.holds and r.diamond.holds:
            assert r.strong_flag_connected.holds == s.cip, s.seed


# -- beta ---------------------------------------------------------------------------


def test_beta_is_a_bijection_for_the_cube():
    chains = beta(hypercube(3))
    assert len(chains) == 48 and len(set(chains)) == 48


def test_beta_torus10_collapses_to_two_chains():
    chains = beta(torus_44(1, 0))
    assert len(chains) == 8 and len(set(chains)) == 2


def test_beta_segment():
    chains = beta(hypercube(1))
    assert len(chains) == 2 and len(set(chains)) == 2


def test_beta_equals_the_chain_of_each_flag(all_fixtures):
    inputs = list(all_fixtures.values()) + [bitflip(n) for n in range(2, 9)]
    for m in inputs:
        assert beta(m) == tuple(chain_of_flag(m, v) for v in range(m.size))


def test_beta_is_onto_the_maximal_chains(all_fixtures, all_posets):
    from maniplexes import maximal_chains

    for name, m in all_fixtures.items():
        p = all_posets[name]
        assert set(beta(m)) == set(maximal_chains(p)), name


def test_beta_injective_iff_faithful(all_fixtures, all_reports):
    for name, m in all_fixtures.items():
        injective = len(set(beta(m))) == m.size
        assert injective == all_reports[name].faithful.holds, name


# -- flag_graph ----------------------------------------------------------------------


def test_flag_graph_of_square_poset_is_the_square():
    p = induced_poset(polygon(4))
    fg = flag_graph(p)
    assert fg.rank == 2 and fg.size == 8
    assert are_isomorphic(fg.graph, polygon(4).graph) is not None


def test_flag_graph_round_trips_the_cube():
    m = hypercube(3)
    fg = flag_graph(induced_poset(m))
    assert are_isomorphic(fg.graph, m.graph) is not None


def test_flag_graph_round_trips_torus20():
    m = torus_44(2, 0)
    fg = flag_graph(induced_poset(m))
    assert are_isomorphic(fg.graph, m.graph) is not None


def test_flag_graph_refuses_non_polytopes():
    with pytest.raises(NotAPolytope) as exc:
        flag_graph(induced_poset(torus_44(1, 1)))
    assert "diamond" in str(exc.value)


# -- is_polytopal -----------------------------------------------------------------------


def test_is_polytopal_cube():
    rep = is_polytopal(hypercube(3))
    assert rep.polytopal and rep.verdicts_consistent
    assert rep.flag_graph_isomorphism is not None
    phi = rep.flag_graph_isomorphism
    assert sorted(phi) == list(range(48))


def test_is_polytopal_torus11_all_false():
    rep = is_polytopal(torus_44(1, 1))
    assert not rep.polytopal
    assert not rep.cip.holds
    assert not rep.wpip.holds
    assert not rep.spip.holds
    assert not rep.poset.is_polytope
    assert rep.flag_graph_isomorphism is None


def test_is_polytopal_torus20():
    assert is_polytopal(torus_44(2, 0)).polytopal


def test_is_polytopal_matches_table(all_fixtures):
    for name, m in all_fixtures.items():
        assert is_polytopal(m).polytopal == (name in POLYTOPAL_NAMES), name


# -- the certified isomorphism ----------------------------------------------------


def test_isomorphism_is_the_one_the_anchor_search_finds(all_fixtures, corpus):
    """The certified ``beta`` equals ``are_isomorphic`` onto the rebuilt flag
    graph on every polytopal input, relabelled copies included."""
    polytopal = [(name, all_fixtures[name]) for name in sorted(POLYTOPAL_NAMES)]
    polytopal += [(s.seed, s.maniplex) for s in corpus if s.cip]
    polytopal += [(f"bitflip({n})", bitflip(n)) for n in range(2, 9)]
    moved = [
        ((label, "relabelled"), relabelled(m, seed))
        for seed, (label, m) in enumerate(polytopal)
    ]
    for label, m in polytopal + moved:
        rep = is_polytopal(m)
        assert rep.polytopal, label
        searched = are_isomorphic(m.graph, flag_graph(induced_poset(m)).graph)
        assert rep.flag_graph_isomorphism == searched, label
    assert len(polytopal) == 12 + 503 + 7


def test_certificate_refuses_a_report_that_cannot_make_beta_bijective():
    m = hypercube(3)
    rep = induced_poset(m).report()
    assert _certify_beta(m, rep) == is_polytopal(m).flag_graph_isomorphism
    for bad in (
        replace(rep, chain_count=rep.chain_count + 1),
        replace(rep, faithful=CheckResult(False)),
        replace(rep, faithful=None),
    ):
        with pytest.raises(InconsistentVerdicts):
            _certify_beta(m, bad)


# -- colour reversal --------------------------------------------------------------


def _face_counts(m):
    return [m.face_partition(i).block_count() for i in range(m.rank)]


def _poset_verdicts(r):
    return (
        r.uniform_chain_length.holds,
        r.diamond.holds,
        r.strong_flag_connected.holds,
        r.chain_count,
    )


def _cip_failures(m):
    """The subsets ``S`` whose meet over all of ``S`` of the components
    without one colour of ``S`` is coarser than those without all of ``S``,
    as ``oracles.check_cip`` judges them, which refine that meet: the
    distinct keys of the meet are fewer than their blocks."""
    n, failing = m.rank, set()
    for size in range(2, n + 1):
        for sub in combinations(range(n), size):
            target = m.components_of(c for c in range(n) if c not in sub)
            sides = [m.components_of(c for c in range(n) if c != i) for i in sub]
            if len(set(zip(*(side.ids for side in sides)))) < target.block_count():
                failing.add(sub)
    return failing


def _spip_failures(m):
    """The failing incomparable pairs of colour sets, unordered, up to rank 6."""
    pairs = _spip_families(m.rank)[1]
    return {frozenset(map(frozenset, tag)) for tag, _ in _failures(m, pairs)}


def test_colour_reversal_maps_verdicts_and_failures(all_fixtures, corpus):
    # The dual reverses every scan order: CIP's last colour, the windows and
    # the poset walk, which visits each section's two lowest ranks.  First
    # witnesses follow those orders, so only verdicts, counts and failure
    # sets are compared; a window (l, h) fails exactly when (n-1-h, n-1-l)
    # fails in the dual, and a subset or a pair of colour sets exactly when
    # its reversal does.
    inputs = list(all_fixtures.items()) + [(s.seed, s.maniplex) for s in corpus]
    inputs += [(f"bitflip({n})", bitflip(n)) for n in range(2, 9)]
    inputs += [(f"times_bits({k})", torus11_times_bits(k)) for k in range(1, 4)]
    polytopal = diamonds = cip_failing = spip_failing = 0
    for label, m in inputs:
        d, n = dual(m), m.rank
        want, got = is_polytopal(m), is_polytopal(d)
        assert got.polytopal == want.polytopal, label
        assert _face_counts(d) == _face_counts(m)[::-1], label
        assert _poset_verdicts(got.poset) == _poset_verdicts(want.poset), label
        mapped = {(n - 1 - h, n - 1 - l) for l, h in want.wpip.failures}
        assert set(got.wpip.failures) == mapped, label
        cip = _cip_failures(m)
        reversed_cip = {tuple(sorted(n - 1 - c for c in sub)) for sub in cip}
        assert _cip_failures(d) == reversed_cip, label
        assert bool(cip) != want.polytopal, label
        if n <= 6:
            spip = _spip_failures(m)
            reversed_spip = {
                frozenset(frozenset(n - 1 - c for c in side) for side in pair)
                for pair in spip
            }
            assert _spip_failures(d) == reversed_spip, label
            assert bool(spip) != want.polytopal, label
            spip_failing += bool(spip)
        polytopal += want.polytopal
        diamonds += not want.poset.diamond.holds
        cip_failing += bool(cip)
    assert (len(inputs), polytopal, diamonds) == (1028, 522, 505)
    assert (cip_failing, spip_failing) == (506, 506)


def test_ditope_keeps_the_verdict_and_adds_two_faces_at_its_end(
    all_fixtures, corpus
):
    # A colour that swaps two copies of the flags and commutes with every
    # colour adds one rank with two faces, the copies, at the top (facets)
    # or at the bottom (vertices), and doubles the maximal chains.
    inputs = list(all_fixtures.items())
    inputs += [(s.seed, s.maniplex) for s in corpus if s.maniplex.size <= 256]
    polytopal = 0
    for label, m in inputs:
        want, counts = is_polytopal(m), _face_counts(m)
        for at_top in (True, False):
            d = ditope(m, at_top)
            got = is_polytopal(d)
            assert got.polytopal == want.polytopal, (label, at_top)
            assert _face_counts(d) == (counts + [2] if at_top else [2] + counts)
            assert got.poset.chain_count == 2 * want.poset.chain_count, label
        polytopal += want.polytopal
    assert (len(inputs), polytopal) == (1018, 515)


def test_torus11_times_bits_is_the_iterated_top_ditope():
    # Each bit colour swaps two copies of the flags and commutes with every
    # colour below it, as the top colour of a ditope does.
    m = torus_44(1, 1)
    for k in range(1, 4):
        m = ditope(m, at_top=True)
        assert are_isomorphic(torus11_times_bits(k).graph, m.graph) is not None, k


def test_facets_and_vertex_figures_of_a_polytope_are_polytopes(all_fixtures):
    """Sections of a polytope are polytopes, so a maniplex with a
    non-polytopal facet or vertex-figure is not polytopal.  The polytopal
    fixtures' facets and vertex-figures all pass; the facets of each
    ``torus11_times_bits(k)`` contain the torus, and it fails too."""
    inputs = [(name, all_fixtures[name]) for name in sorted(POLYTOPAL_NAMES)]
    inputs += [(f"torus11_times_bits({k})", torus11_times_bits(k)) for k in (1, 2, 3)]
    inputs = [(name, m) for name, m in inputs if m.rank > 1]  # not hypercube(1)
    sections = failing = 0
    for name, m in inputs:
        verdicts = [
            is_polytopal(m.face_as_maniplex(face)).polytopal
            for rank in (0, m.rank - 1)
            for face in m.faces(rank)
        ]
        polytopal = is_polytopal(m).polytopal
        assert polytopal == (name in POLYTOPAL_NAMES), name
        assert all(verdicts) or not polytopal, name
        sections += len(verdicts)
        failing += not all(verdicts)
    assert (len(inputs), sections, failing) == (14, 132, 3)
