"""Acceptance gate: one test per release criterion, one pass/fail line each.

Criterion 3 ("not polytopal, yet the diamond condition holds") runs on the
rectified cubic 3-torus quotient by the basis ``((1,1,0),(1,-1,0),(0,0,2))``
(``ALT_3TORUS_BASIS``), which realises every clause of it.  The default basis
of ``rectified_cubic_3torus()`` does not: its diamond condition fails, as
pinned in ``test_posets.py::test_diamond_witnesses``.
"""

from __future__ import annotations

import itertools
import random
import subprocess
import sys

import pytest

from maniplexes import (
    Maniplex,
    all_chains,
    are_isomorphic,
    build_graph,
    chain_intersection,
    check_cip,
    check_spip,
    check_wpip,
    find_covering,
    flag_graph,
    hypercube,
    induced_poset,
    is_covering,
    is_polytopal,
    klein_44,
    make_path,
    mix,
    normalize_path,
    polygon,
    read_mpx,
    rectified_cubic_3torus,
    torus_44,
    walk,
    write_json,
    write_mpx,
)
from conftest import ALT_3TORUS_BASIS, squares_mod_half_turn
from oracles import meet_all

# -------------------------------------------------------------------------------


def test_criterion_1_torus11_flag_counts_and_witnesses():
    m = torus_44(1, 1)
    assert m.size == 16
    assert [len(m.faces(i)) for i in range(3)] == [2, 4, 2]

    rep = induced_poset(m).report()
    assert not rep.diamond.holds
    low, high, count = rep.diamond.witness
    assert low[0] == 0 and high[0] == 2  # a (vertex, face) pair
    assert count == 4  # joined by exactly 4 intermediate edges

    cip = check_cip(m)
    wpip = check_wpip(m)
    spip = check_spip(m)
    assert not cip and not wpip.holds and not spip
    w = cip.witness
    assert (w.colours, w.flag_a, w.flag_b) == ((0, 2), 0, 4)
    # the witness meet block is exactly two colour-1 edges
    met = meet_all(m.components_of(c for c in range(3) if c != i) for i in (0, 2))
    blk = met.block_of(w.flag_a)
    assert set(blk) == {0, 3, 4, 7}
    edges = {tuple(sorted((v, m.neighbour(1, v)))) for v in blk}
    assert edges == {(0, 3), (4, 7)}


def test_criterion_2_torus10_poset_collapse_and_klein_twin():
    m = torus_44(1, 0)
    assert m.size == 8
    assert [len(m.faces(i)) for i in range(3)] == [1, 2, 1]

    p = induced_poset(m)
    rep = p.report()
    assert rep.chain_count == 2
    assert not rep.faithful.holds

    k = klein_44()
    q = induced_poset(k)
    assert are_isomorphic(k.graph, m.graph) is None

    # the two induced posets are isomorphic: same level sizes, and some
    # rank-preserving bijection matches the order relations exactly
    def levels(poset):
        out = [[(-1, 0)]]
        out += [
            [(r, j) for j in range(poset.counts()[r])]
            for r in range(poset.n)
        ]
        out.append([(poset.n, 0)])
        return out

    levels_p, levels_q = levels(p), levels(q)
    assert [len(l) for l in levels_p] == [len(l) for l in levels_q]
    faces_p = [f for lvl in levels_p for f in lvl]
    found = False
    for perms in itertools.product(
        *(itertools.permutations(range(len(l))) for l in levels_q)
    ):
        mapping = {}
        for lvl_idx, lvl in enumerate(levels_p):
            for j, f in enumerate(lvl):
                mapping[f] = levels_q[lvl_idx][perms[lvl_idx][j]]
        if all(
            p.leq(a, b) == q.leq(mapping[a], mapping[b])
            for a in faces_p
            for b in faces_p
        ):
            found = True
            break
    assert found, "no rank-preserving order isomorphism between the two posets"


def test_criterion_3_rectified_3torus_narrative():
    m = rectified_cubic_3torus(ALT_3TORUS_BASIS)
    assert m.size == 576
    cells = sorted(len(f.flags) for f in m.faces(3))
    assert cells == [48] * 4 + [96] * 4  # 4 octahedra + 4 cuboctahedra

    assert not check_cip(m)

    wpip = check_wpip(m)
    assert (0, 3) in wpip.failures
    # exhibit the missing {1,2}-path behind the (0,3) failure, and check the
    # failing sections are pairs of disjoint 8-cycles alternating colours 1,2
    met = meet_all(m.components_of(c for c in range(4) if c != i) for i in (0, 3))
    fine = m.components_of([1, 2])
    failing = []
    for blk in met.blocks():
        pieces = [b for b in fine.blocks() if set(b) <= set(blk)]
        if len(pieces) > 1:
            failing.append((blk, pieces))
    assert failing
    for blk, pieces in failing:
        assert len(blk) == 16 and [len(x) for x in pieces] == [8, 8]
        a, b = pieces[0][0], pieces[1][0]
        above, below = m.components_of([1, 2, 3]), m.components_of([0, 1, 2])
        assert above.ids[a] == above.ids[b]
        assert below.ids[a] == below.ids[b]
        assert fine.ids[a] != fine.ids[b]  # no path through colours {1, 2}
        for cyc in pieces:
            v, col = cyc[0], 1
            seen = [v]
            for _ in range(7):
                v = m.neighbour(col, v)
                col = 3 - col
                seen.append(v)
            assert len(set(seen)) == 8 and m.neighbour(col, v) == cyc[0]

    rep = induced_poset(m).report()
    assert rep.diamond.holds, (
        "expected the diamond condition to hold for this quotient, but it "
        f"fails with witness {rep.diamond.witness}"
    )


def test_criterion_4_flag_graph_round_trip_with_verified_bijection():
    fixtures = (
        [polygon(p) for p in range(2, 7)]
        + [hypercube(d) for d in range(1, 5)]
        + [torus_44(2, 0), torus_44(2, 2)]
    )
    for m in fixtures:
        p = induced_poset(m)
        assert p.report().is_polytope
        rep = is_polytopal(m)
        phi = rep.flag_graph_isomorphism
        assert phi is not None
        fg = flag_graph(p)
        assert sorted(phi) == list(range(m.size))
        for c in range(m.rank):
            for v in range(m.size):
                assert phi[m.neighbour(c, v)] == fg.neighbour(c, phi[v])


def test_criterion_5_four_criteria_agree_everywhere(all_fixtures, corpus):
    # the poset leg is "P_M is a polytope and M is faithful to it": the two
    # squares modulo their joint half-turn have a polytope for a poset but
    # are not faithful, and every other leg says not polytopal
    inputs = dict(all_fixtures, squares_mod_half_turn=squares_mod_half_turn())
    for name, m in inputs.items():
        a = bool(check_cip(m))
        b = check_wpip(m).holds
        c = bool(check_spip(m))
        r = induced_poset(m).report()
        d = r.is_polytope and r.faithful.holds
        assert a == b == c == d, name
    assert len(corpus) == 1000
    for s in corpus:
        r = s.poset_report
        d = r.is_polytope and r.faithful.holds
        assert s.cip == s.wpip == s.spip == d, s.seed


def test_criterion_6_structural_invariants(
    all_fixtures, all_posets, geometric_fixtures, corpus
):
    # every proper chain has a non-empty flag intersection (exhaustive:
    # no fixture has more than 2520 proper chains, well under the cap)
    for name, p in all_posets.items():
        total = 0
        for ch in all_chains(p):
            assert chain_intersection(p, ch), (name, ch)
            total += 1
        assert total <= 10_000, name

    # middle-rank faces factor as (low side) x (high side)
    for name, m in geometric_fixtures.items():
        for i in range(1, m.rank - 1):
            for f in m.faces(i):
                ff = m.face_factors(f)
                assert ff.covering_degree == 1 and ff.is_product, (name, f)
                assert len(ff.below) * len(ff.above) == len(f.flags), (name, f)

    # the intersection property forces the diamond condition
    for name, m in all_fixtures.items():
        if bool(check_cip(m)):
            assert induced_poset(m).report().diamond.holds, name
    for s in corpus:
        if s.cip:
            assert s.poset_report.diamond.holds, s.seed

    # path normalisation: endpoints preserved, colour windows respected
    rng = random.Random(20260825)
    for name, m in all_fixtures.items():
        n = m.rank
        for _ in range(1000):
            pivots = sorted(rng.sample(range(n), rng.randrange(0, n)))
            rest = [c for c in range(n) if c not in pivots]
            colours = (
                [rng.choice(rest) for _ in range(rng.randrange(0, 9))] if rest else []
            )
            start = rng.randrange(m.size)
            pth = make_path(m, start, colours)
            segs = normalize_path(m, pth, pivots)
            assert len(segs) == len(pivots) + 1, name
            for k, seg in enumerate(segs):
                lo = pivots[k - 1] if k > 0 else -1
                hi = pivots[k] if k < len(pivots) else n
                assert all(lo < c < hi for c in seg.colours), (name, colours, pivots)
            flat = [c for seg in segs for c in seg.colours]
            assert walk(m, start, flat) == pth.end, (name, colours, pivots)


def test_criterion_7_mix_suite(all_fixtures):
    for name, m in all_fixtures.items():
        mm = mix(m, m)
        assert are_isomorphic(mm.graph, m.graph) is not None, name
        cov = find_covering(mm, m)
        assert cov is not None and is_covering(mm, m, cov.map), name

    t20, t10 = torus_44(2, 0), torus_44(1, 0)
    mx = mix(t20, t10)
    assert are_isomorphic(mx.graph, t20.graph) is not None
    for target in (t20, t10):
        cov = find_covering(mx, target)
        assert cov is not None and is_covering(mx, target, cov.map)


def test_criterion_8_io_round_trips_goldens_and_exit_codes(
    all_fixtures, tmp_path
):
    for name, m in all_fixtures.items():
        text = write_mpx(m.graph)
        assert read_mpx(text).matchings == m.graph.matchings, name
        assert write_mpx(read_mpx(text)) == text, name

    from pathlib import Path

    golden = Path(__file__).parent / "golden"
    for name, m in [("torus44_1_1", torus_44(1, 1)), ("torus44_2_0", torus_44(2, 0))]:
        assert write_json(m, is_polytopal(m)) == (golden / f"{name}.json").read_text()

    t11 = Path(__file__).parent / "fixtures" / "torus44_1_1.mpx"
    t20 = tmp_path / "t20.mpx"
    bad = tmp_path / "disc.mpx"
    bad.write_text("mpx 2 8\n1 0 3 2 5 4 7 6\n3 2 1 0 7 6 5 4\n")

    def code(*args):
        return subprocess.run(
            [sys.executable, "-m", "maniplexes", *map(str, args)],
            capture_output=True,
        ).returncode

    assert code("gen", "torus44", "--b", 2, "--c", 0, "-o", t20) == 0
    assert code("check", t20) == 0
    assert code("check", t11) == 1
    assert code("check", bad) == 2
    assert code("nonsense") == 64
    assert code("check", tmp_path / "absent.mpx") == 66
