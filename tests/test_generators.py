"""Built-in families: parameter checks, sizes, and frozen structural facts."""

from __future__ import annotations

import hashlib
import importlib.util
import math
import random
import sys
from pathlib import Path

import pytest

from maniplexes import (
    Maniplex,
    are_isomorphic,
    bitflip,
    build_graph,
    hypercube,
    klein_44,
    polygon,
    random_maniplex,
    rectified_cubic_3torus,
    torus_44,
    write_mpx,
)
from maniplexes.errors import BadParam, DegenerateBasis
from maniplexes.generators import _hnf_lower, _rect3_phi, _rect3_types
from conftest import ALT_3TORUS_BASIS, deadline, lines_run
import oracles


# -- parameter validation --------------------------------------------------------


@pytest.mark.parametrize("p", [-1, 0, 1])
def test_polygon_rejects_fewer_than_two_sides(p):
    with pytest.raises(BadParam):
        polygon(p)


@pytest.mark.parametrize("d", [0, 6, -2])
def test_hypercube_rejects_dimension_outside_1_to_5(d):
    with pytest.raises(BadParam):
        hypercube(d)


def test_torus_rejects_zero_translation():
    with pytest.raises(BadParam):
        torus_44(0, 0)


def test_random_rejects_bad_rank_and_budget():
    with pytest.raises(BadParam):
        random_maniplex(0, 1)
    with pytest.raises(BadParam):
        random_maniplex(5, 1)
    with pytest.raises(BadParam):
        random_maniplex(3, 1, budget=513)
    with pytest.raises(BadParam):
        random_maniplex(4, 1, budget=4)


@pytest.mark.parametrize(
    "make",
    [
        lambda: rectified_cubic_3torus(((0, 2.7, 0), (1, 0, 0), (1, 0, 2.9))),
        lambda: torus_44(1.5, 0),
        lambda: polygon(2.5),
        lambda: hypercube(2.0),
    ],
    ids=["3torus_float_basis", "torus_float_b", "polygon_float", "hypercube_float"],
)
def test_generators_reject_non_integer_parameters(make):
    with pytest.raises(BadParam):
        make()


@pytest.mark.parametrize("n", [0, 17, 2.0])
def test_bitflip_rejects_a_bad_rank(n):
    with pytest.raises(BadParam):
        bitflip(n)


_DIAGONAL = ((0, 1, 0), (0, 0, 1))


@pytest.mark.parametrize(
    "make,flags",
    [
        (lambda: polygon(32769), 65538),
        (lambda: polygon(500_000), 1_000_000),
        (lambda: torus_44(87, 25), 65552),
        (lambda: torus_44(350, 50), 1_000_000),
        (lambda: rectified_cubic_3torus(((456, 0, 0), *_DIAGONAL)), 65664),
        (lambda: rectified_cubic_3torus(((6945, 0, 0), *_DIAGONAL)), 1_000_080),
    ],
    ids=["polygon_above", "polygon_1e6", "torus_above", "torus_1e6",
         "3torus_above", "3torus_1e6"],
)
def test_generators_refuse_more_than_2_to_the_16_flags_before_building(make, flags):
    with deadline(5), pytest.raises(BadParam) as exc:
        make()
    assert str(exc.value).endswith(f"has {flags} flags, over the cap of 65536")


def test_the_flag_cap_admits_its_own_size():
    assert polygon(32768).size == 1 << 16  # bitflip(16)'s size


def test_3torus_rejects_singular_basis():
    with pytest.raises(DegenerateBasis):
        rectified_cubic_3torus(((1, 0, 0), (0, 1, 0), (1, 1, 0)))


def test_3torus_rejects_malformed_basis():
    with pytest.raises(BadParam):
        rectified_cubic_3torus(((1, 0, 0), (0, 1, 0)))


@pytest.mark.parametrize(
    "basis",
    [5, [1, 2, 3], [[1, 0, 0], [0, 1, 0], None]],
    ids=["integer", "one_row", "none_row"],
)
def test_3torus_rejects_a_basis_whose_rows_are_not_vectors(basis):
    with pytest.raises(BadParam):
        rectified_cubic_3torus(basis)


# -- sizes ------------------------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 4, 5, 6, 7, 12])
def test_polygon_has_2p_flags(p):
    m = polygon(p)
    assert m.rank == 2 and m.size == 2 * p


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_hypercube_flag_count(d):
    m = hypercube(d)
    assert m.rank == d and m.size == (1 << d) * math.factorial(d)


@pytest.mark.parametrize(
    "b,c", [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2), (4, 3)]
)
def test_torus_has_8_b2_plus_c2_flags(b, c):
    m = torus_44(b, c)
    assert m.rank == 3 and m.size == 8 * (b * b + c * c)


def test_torus_parameters_commute():
    for b, c in [(2, 1), (3, 1), (2, 0)]:
        assert are_isomorphic(torus_44(b, c).graph, torus_44(c, b).graph) is not None


def test_klein_has_8_flags_but_differs_from_the_torus_quotient():
    k = klein_44()
    assert k.rank == 3 and k.size == 8
    assert are_isomorphic(k.graph, torus_44(1, 0).graph) is None


def test_klein_rows_are_pinned():
    # torus_44(1, 0)'s rows but colour 0's, which keeps the side at a
    # vertical edge: the vertical translation is a glide
    assert klein_44().graph.matchings == (
        (5, 4, 6, 7, 1, 0, 2, 3),
        (3, 6, 5, 0, 7, 2, 1, 4),
        (1, 0, 3, 2, 5, 4, 7, 6),
    )


# -- rectified cubic 3-torus ------------------------------------------------------


def test_3torus_default_basis_shape():
    m = rectified_cubic_3torus()
    assert m.rank == 4 and m.size == 576
    assert [len(m.faces(i)) for i in range(4)] == [12, 48, 44, 8]


def test_3torus_cells_split_into_octahedra_and_cuboctahedra():
    for basis in (None, ALT_3TORUS_BASIS):
        m = rectified_cubic_3torus(basis)
        sizes = sorted(len(f.flags) for f in m.faces(3))
        assert sizes == [48, 48, 48, 48, 96, 96, 96, 96]


def test_3torus_cell_count_is_twice_the_determinant():
    # |det| = 4 for both stock bases, 8 cells; a doubled cube gives 16.
    m = rectified_cubic_3torus(((2, 0, 0), (0, 2, 0), (0, 0, 2)))
    assert len(m.faces(3)) == 16 and m.size == 1152


def test_3torus_alt_basis_same_face_vector_more_chains():
    from maniplexes import induced_poset

    alt = rectified_cubic_3torus(ALT_3TORUS_BASIS)
    assert [len(alt.faces(i)) for i in range(4)] == [12, 48, 44, 8]
    assert induced_poset(alt).report().chain_count == 576
    assert are_isomorphic(alt.graph, rectified_cubic_3torus().graph) is None


# -- numbering pins ---------------------------------------------------------------
#
# sha256 of the .mpx bytes, recorded before the breadth-first numbering was
# shared through ``graphs.orbit``: flag ids, and so every written file, must
# not move.

TORI_GRID_DIGEST = "524d5b84c1405828f7bbc18274a3684200cab6904bbfc1a1b55ce85a07debf6b"

RECT_3TORUS_DIGESTS = {
    None: "2fa7faff3992d2bddff540f3b19747eb113588dc0dd54a7170f2e9dd02cb9b6e",
    ALT_3TORUS_BASIS: (
        "d515f08960bf16c24d8c9139c839f1accb6d142ab68fd05f6a54c6282ac97612"
    ),
    ((2, 0, 0), (0, 2, 0), (0, 0, 2)): (
        "a4e4579b6046ba1319719e24da51db2c3397641fe78dbc87e83b839ff625cef3"
    ),
    ((1, 0, 0), (0, 1, 0), (0, 0, 1)): (
        "92a083e6de955983b53781b88635bb0283ce5cc50a8a32957f08d8bde2865d56"
    ),
}


def test_torus_mpx_bytes_are_pinned():
    # 103 tori: b in -4..8, c in -3..4, written back to back
    digest = hashlib.sha256()
    for b in range(-4, 9):
        for c in range(-3, 5):
            if (b, c) != (0, 0):
                digest.update(write_mpx(torus_44(b, c).graph).encode())
    assert digest.hexdigest() == TORI_GRID_DIGEST


@pytest.mark.parametrize("basis", list(RECT_3TORUS_DIGESTS), ids=str)
def test_3torus_mpx_bytes_are_pinned(basis):
    text = write_mpx(rectified_cubic_3torus(basis).graph)
    assert hashlib.sha256(text.encode()).hexdigest() == RECT_3TORUS_DIGESTS[basis]


def test_3torus_type_table_has_144_types_and_colours_are_involutions():
    types, table = _rect3_types()
    assert len(types) == len(table) == 144
    zero = (0, 0, 0)  # the table's None
    for t, steps in enumerate(table):
        for c, (u, d) in enumerate(steps):
            back, e = table[u][c]
            assert back == t, (t, c)
            assert [x + y for x, y in zip(d or zero, e or zero)] == [0, 0, 0], (t, c)


def test_3torus_geometry_runs_only_while_the_table_is_built():
    def call():
        return rectified_cubic_3torus(ALT_3TORUS_BASIS)

    _rect3_types.cache_clear()
    assert lines_run(_rect3_phi, call)  # the first call builds the table
    assert lines_run(_rect3_phi, rectified_cubic_3torus) == set()
    assert lines_run(_rect3_types.__wrapped__, call) == set()


def _sweep_bases(count: int = 30) -> list[tuple[tuple[tuple[int, ...], ...], int]]:
    """Seeded nonsingular bases with entries in -2..2 and ``|det| <= 4``, each
    with its determinant."""
    rng = random.Random(25)
    out = []
    while len(out) < count:
        a, b, c = basis = tuple(
            tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(3)
        )
        det = (
            a[0] * (b[1] * c[2] - b[2] * c[1])
            - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0])
        )
        if 0 < abs(det) <= 4:
            out.append((basis, det))
    return out


def test_3torus_matches_the_flag_level_construction():
    sweep = _sweep_bases()
    hnfs = [_hnf_lower(basis) for basis, _ in sweep]
    # The sweep reaches negative determinants and skewed, negative HNFs.
    assert any(det < 0 for _, det in sweep)
    assert any(h[1][0] or h[2][0] or h[2][1] for h in hnfs)
    assert any(x < 0 for h in hnfs for row in h for x in row)
    for basis in [*RECT_3TORUS_DIGESTS, *(basis for basis, _ in sweep)]:
        new = rectified_cubic_3torus(basis).graph.matchings
        assert new == oracles.rectified_cubic_3torus(basis).graph.matchings, basis


def _benchmark_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # Registered first: the module's dataclasses look themselves up there.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_bitflip_rows_are_the_benchmark_rows():
    workloads = _benchmark_workloads()
    for n in range(1, 9):
        rows = tuple(map(tuple, workloads.bitflip_rows(n)))
        assert bitflip(n).graph.matchings == rows, n


# -- random -----------------------------------------------------------------------


def test_random_is_deterministic_per_seed():
    a = random_maniplex(3, 42)
    b = random_maniplex(3, 42)
    assert a.graph.matchings == b.graph.matchings
    assert a.size == 12


def test_random_rank_one_is_the_segment():
    m = random_maniplex(1, 0)
    assert m.rank == 1 and m.size == 2


def test_random_rank_two_is_a_polygon():
    m = random_maniplex(2, 7)
    assert m.size % 2 == 0
    assert are_isomorphic(m.graph, polygon(m.size // 2).graph) is not None


# sha256 of the .mpx bytes of random_maniplex(rank, seed, budget) for ranks
# 1..4, seeds 0..99 and budgets 16, 64 and 200, written back to back; recorded
# before flag 0's component was kept through graphs.component_rows.
RANDOM_DIGEST = "95dbf0792e199bb1d036e52d4e5db2d5d6f3f815725a547fb3950ccbef588cd2"


def test_random_mpx_bytes_are_pinned():
    digest = hashlib.sha256()
    for rank in range(1, 5):
        for seed in range(100):
            for budget in (16, 64, 200):
                m = random_maniplex(rank, seed, budget)
                digest.update(write_mpx(m.graph).encode())
    assert digest.hexdigest() == RANDOM_DIGEST


@pytest.mark.parametrize("rank", [3, 4])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_random_samples_revalidate(rank, seed):
    m = random_maniplex(rank, seed)
    again = Maniplex(build_graph(rank, [list(row) for row in m.graph.matchings]))
    assert again.size == m.size <= 64
