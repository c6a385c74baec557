"""Mix (parallel product), covering maps, and their interaction."""

from __future__ import annotations

import importlib
from itertools import product
from types import SimpleNamespace

import pytest

from maniplexes import (
    are_isomorphic,
    find_covering,
    hypercube,
    is_covering,
    is_polytopal,
    klein_44,
    mix,
    mix_with_projections,
    polygon,
    torus_44,
)
from maniplexes.errors import InconsistentVerdicts, OutOfRange, RankMismatch
import oracles
from conftest import relabelled

# frozen (a, b, |a|, |b|, |a mix b|) table
MIX_SIZES = [
    ("t10", "t11", 8, 16, 16),
    ("t20", "t10", 32, 8, 32),
    ("t20", "t11", 32, 16, 32),
    ("klein", "t10", 8, 8, 16),
    ("klein", "t11", 8, 16, 32),
    ("t21", "t22", 40, 64, 320),
    ("cube", "t11", 48, 16, 192),
]


def _named():
    return {
        "t10": torus_44(1, 0),
        "t11": torus_44(1, 1),
        "t20": torus_44(2, 0),
        "t21": torus_44(2, 1),
        "t22": torus_44(2, 2),
        "klein": klein_44(),
        "cube": hypercube(3),
    }


def test_mix_requires_equal_rank():
    with pytest.raises(RankMismatch):
        mix(polygon(3), hypercube(3))


def test_mix_rejects_base_flags_that_are_not_flags():
    t = torus_44(1, 1)
    for base, factor in [
        ((1.5, 0), "first"),
        ((0, 1.5), "second"),
        ((t.size, 0), "first"),
        ((0, -1), "second"),
    ]:
        with pytest.raises(OutOfRange, match=f"base flag of the {factor} factor"):
            mix(t, t, *base)


def test_mix_with_self_is_isomorphic_to_self():
    for m in (polygon(5), hypercube(3), torus_44(1, 1), klein_44()):
        mm = mix(m, m)
        assert are_isomorphic(mm.graph, m.graph) is not None


def test_mix_with_a_quotient_recovers_the_cover():
    t20, t10 = torus_44(2, 0), torus_44(1, 0)
    mx = mix(t20, t10)
    assert mx.size == 32
    assert are_isomorphic(mx.graph, t20.graph) is not None


@pytest.mark.parametrize("a,b,sa,sb,sm", MIX_SIZES)
def test_mix_sizes_and_divisibility(a, b, sa, sb, sm):
    fx = _named()
    A, B = fx[a], fx[b]
    assert (A.size, B.size) == (sa, sb)
    mx = mix(A, B)
    assert mx.size == sm
    assert mx.size % A.size == 0
    assert mx.size % B.size == 0
    assert (A.size * B.size) % mx.size == 0


def test_mix_projections_are_coverings():
    for a, b, _, _, _ in MIX_SIZES[:4]:
        fx = _named()
        A, B = fx[a], fx[b]
        mx = mix(A, B)
        for target in (A, B):
            cov = find_covering(mx, target)
            assert cov is not None, (a, b)
            assert is_covering(mx, target, cov.map)


def test_mix_of_two_non_polytopal_maniplexes_can_be_polytopal():
    k, t11 = klein_44(), torus_44(1, 1)
    assert not is_polytopal(k).polytopal
    assert not is_polytopal(t11).polytopal
    mx = mix(k, t11)
    assert mx.size == 32
    assert are_isomorphic(mx.graph, torus_44(2, 0).graph) is not None
    assert is_polytopal(mx).polytopal


def test_mix_nonzero_base_still_valid():
    mx = mix(torus_44(2, 0), torus_44(1, 0), base_m=3, base_n=5)
    assert mx.rank == 3 and mx.size % 8 == 0


# -- coverings ----------------------------------------------------------------------


def test_identity_covering():
    t11 = torus_44(1, 1)
    cov = find_covering(t11, t11)
    assert cov is not None
    assert sorted(set(cov.map)) == list(range(16))
    assert is_covering(t11, t11, cov.map)


def test_four_to_one_covering_of_the_small_torus():
    t20, t10 = torus_44(2, 0), torus_44(1, 0)
    cov = find_covering(t20, t10)
    assert cov is not None and len(cov.map) == 32
    assert is_covering(t20, t10, cov.map)
    # fibres have constant size |t20| / |t10| = 4
    fibres = {}
    for v, img in enumerate(cov.map):
        fibres.setdefault(img, []).append(v)
    assert sorted(len(f) for f in fibres.values()) == [4] * 8


def test_no_covering_onto_a_larger_maniplex():
    assert find_covering(torus_44(1, 0), torus_44(2, 0)) is None


def test_no_covering_between_incompatible_quotients():
    assert find_covering(torus_44(1, 0), torus_44(1, 1)) is None


def test_no_covering_when_the_sizes_do_not_divide(monkeypatch):
    # fibres of a covering all have one size; no anchor is tried
    mix_module = importlib.import_module("maniplexes.mix")
    monkeypatch.setattr(mix_module, "extensions", None)
    assert find_covering(torus_44(2, 1), torus_44(1, 1)) is None


def test_no_covering_although_the_sizes_divide():
    t30, k = torus_44(3, 0), klein_44()
    assert t30.size % k.size == 0
    assert find_covering(t30, k) is None
    assert oracles.find_covering(t30, k) is None


def _by_rank(corpus):
    by_rank = {}
    for s in corpus:
        by_rank.setdefault(s.maniplex.rank, []).append((s.seed, s.maniplex))
    return by_rank


def _mix_sweep(all_fixtures, corpus):
    """Equal-rank pairs of fixtures up to 32 flags and of consecutive corpus
    samples, each through the base pairs (0, 0) and (last, middle)."""
    small = [(a, m) for a, m in all_fixtures.items() if m.size <= 32]
    mixed = list(product(small, repeat=2))
    for samples in _by_rank(corpus).values():
        mixed += zip(samples[:20], samples[1:21])
    return [
        ((a, m), (b, n), bases)
        for (a, m), (b, n) in mixed
        if m.rank == n.rank
        for bases in ((0, 0), (m.size - 1, n.size // 2))
    ]


def test_mix_matches_the_two_pass_oracle(all_fixtures, corpus):
    """The mix and both projections are the former numbering's, pair for
    pair: breadth-first from the base pair, colours ascending.  That
    numbering certifies connectivity, so validating the mix builds no
    partition."""
    for (a, m), (b, n), bases in _mix_sweep(all_fixtures, corpus):
        got = mix_with_projections(m, n, *bases)
        want = oracles.mix_with_projections(m, n, *bases)
        assert list(got[0]._parts) == [0], (a, b, bases)
        assert got[0].graph == want[0].graph, (a, b, bases)
        assert got[1:] == want[1:], (a, b, bases)


def test_searches_match_the_unpruned_oracles(all_fixtures, corpus):
    """Pruned anchors never change a map or a ``None``: equal-rank pairs of
    fixtures and of corpus samples, relabelled copies both ways, and mixes
    through two base pairs against their factors and a relabelled factor."""
    named = list(all_fixtures.items())
    small = [(a, m) for a, m in named if m.size <= 64]
    pairs = list(product(named, repeat=2))
    for samples in _by_rank(corpus).values():
        pairs += product(samples[:25], repeat=2)
    for a, m in small + [(s.seed, s.maniplex) for s in corpus[:200]]:
        r = (f"{a} relabelled", relabelled(m, 1))
        pairs += [((a, m), r), (r, (a, m))]
    for (a, m), (b, n), bases in _mix_sweep(all_fixtures, corpus):
        mx = (f"{a} mix {b} at {bases}", mix(m, n, *bases))
        factors = [(a, m), (b, n), (f"{b} relabelled", relabelled(n, 2))]
        pairs += [(mx, f) for f in factors]
    for (a, m), (b, n) in pairs:
        if m.rank == n.rank:
            g, h = m.graph, n.graph
            assert are_isomorphic(g, h) == oracles.are_isomorphic(g, h), (a, b)
            assert find_covering(m, n) == oracles.find_covering(m, n), (a, b)


def test_is_covering_rejects_a_broken_map():
    t20, t10 = torus_44(2, 0), torus_44(1, 0)
    assert not is_covering(t20, t10, tuple([0] * 32))


@pytest.mark.parametrize("entry", [1.0, "1", None], ids=["float", "str", "None"])
def test_is_covering_refuses_a_non_integer_entry(entry):
    t20, t10 = torus_44(2, 0), torus_44(1, 0)
    phi = find_covering(t20, t10).map
    for v in (0, 17, 31):
        assert not is_covering(t20, t10, phi[:v] + (entry,) + phi[v + 1 :]), v
    assert not is_covering(t20, t10, (entry,) * len(phi))
    assert not is_covering(t20, t10, tuple(map(float, phi)))


def test_is_covering_matches_the_flag_scan_oracle():
    """Coverings, maps with negative images or images past the target,
    maps that break a colour, and a colour-preserving map that is not onto
    (into a disconnected target, which no maniplex is)."""
    t20, t10 = torus_44(2, 0), torus_44(1, 0)
    phi = list(find_covering(t20, t10).map)
    twice = SimpleNamespace(
        rank=t10.rank,
        size=2 * t10.size,
        graph=SimpleNamespace(
            matchings=[r + tuple(w + t10.size for w in r) for r in t10.graph.matchings]
        ),
    )
    maps = [(t20, t10, phi), (t20, twice, phi), (t20, t10, phi[:-1])]
    for v, image in product((0, 5, 31), (-1, -t10.size, t10.size, t10.size + 3)):
        maps.append((t20, t10, phi[:v] + [image] + phi[v + 1 :]))
    for v, w in ((0, 1), (3, 17), (30, 31)):
        swapped = list(phi)
        swapped[v], swapped[w] = phi[w], phi[v]
        maps.append((t20, t10, swapped))
    maps += [(t20, t10, [0] * 32), (t20, t10, [v % 4 for v in range(32)])]
    verdicts = []
    for m, n, f in maps:
        got = is_covering(m, n, tuple(f))
        assert got == oracles.is_covering(m, n, tuple(f)), f
        verdicts.append(got)
    assert verdicts[0] and not any(verdicts[1:])


def test_covering_self_check_raises_a_typed_error(monkeypatch):
    # The self-check is a raise, not an assert, so it also runs under -O.
    mix_module = importlib.import_module("maniplexes.mix")
    monkeypatch.setattr(mix_module, "is_covering", lambda m, n, phi: False)
    with pytest.raises(InconsistentVerdicts):
        find_covering(torus_44(2, 0), torus_44(1, 0))
