from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests_support_orbits import all_partitions, centralizer_codim

from classinv.groebner import Ideal, krull_dim
from classinv.orbits import (
    OrbitLabel,
    Partition,
    closure_leq,
    fiber_dim,
    flat_everywhere,
    flatness_locus,
    gorenstein,
    has_symplectic_resolution,
    max_rank,
    nilcone_dim,
    orbit_dim,
    partition,
    symplectic_reduction_orbit,
    valid_partition,
)
from classinv.poly import ring

partitions_strategy = st.lists(st.integers(1, 6), min_size=1, max_size=5).map(
    lambda xs: Partition(tuple(sorted(xs, reverse=True)))
)


class TestPartitions:
    def test_validation(self):
        with pytest.raises(ValueError):
            Partition((1, 2))
        with pytest.raises(ValueError):
            Partition((2, 0))

    def test_parity_rules(self):
        assert valid_partition("gl", partition(2, 1))
        assert not valid_partition("sp", partition(3, 1))
        assert valid_partition("sp", partition(3, 3, 1, 1))
        assert valid_partition("so", partition(2, 2))
        assert not valid_partition("so", partition(2, 1, 1))

    def test_very_even(self):
        assert partition(2, 2).is_very_even()
        assert partition(4, 4, 2, 2).is_very_even()
        assert not partition(2, 2, 1, 1).is_very_even()

    def test_very_even_needs_tag(self):
        with pytest.raises(ValueError):
            OrbitLabel("so", 4, partition(2, 2))
        OrbitLabel("so", 4, partition(2, 2), tag="I")

    @settings(max_examples=60, deadline=None)
    @given(partitions_strategy)
    def test_transpose_involution(self, p):
        assert p.transpose().transpose() == p
        assert p.transpose().total == p.total


class TestOrbitDim:
    def test_two_block_gl(self):
        for d in (3, 4):
            lab = OrbitLabel("gl", d, Partition((2,) + (1,) * (d - 2)))
            assert orbit_dim(lab) == 2 * d - 2

    def test_sp_two_column(self):
        for N, d in [(1, 2), (2, 3), (2, 2)]:
            lab = OrbitLabel("sp", 2 * d, Partition((2,) * N + (1,) * (2 * (d - N))))
            assert orbit_dim(lab) == N * (2 * d + 1 - N)

    def test_so_full_two_column(self):
        for d in (2, 4):
            lab = OrbitLabel("so", 2 * d, Partition((2,) * d), tag="I")
            assert orbit_dim(lab) == d * (d - 1)

    def test_gl_against_centralizer_oracle(self):
        for m in range(1, 5):
            for parts in all_partitions(m):
                lab = OrbitLabel("gl", m, Partition(parts))
                assert orbit_dim(lab) == centralizer_codim(parts), parts

    def test_zero_orbit(self):
        assert orbit_dim(OrbitLabel("gl", 3, partition(1, 1, 1))) == 0


class TestClosure:
    def test_examples(self):
        assert closure_leq(partition(1, 1), partition(2))
        assert closure_leq(partition(2, 2), partition(3, 1))
        assert not closure_leq(partition(3, 1), partition(2, 2))

    def test_chain_monotone(self):
        d = 4
        chain = [Partition((2,) * i + (1,) * (d - 2 * i)) for i in range(d // 2 + 1)]
        for a, b in zip(chain, chain[1:]):
            assert closure_leq(a, b)

    def test_extremes(self):
        m = 5
        for parts in all_partitions(m):
            p = Partition(parts)
            assert closure_leq(Partition((1,) * m), p)
            assert closure_leq(p, Partition((m,)))

    @settings(max_examples=60, deadline=None)
    @given(partitions_strategy, partitions_strategy)
    def test_antisymmetry(self, a, b):
        if a.total != b.total:
            return
        if closure_leq(a, b) and closure_leq(b, a):
            assert a == b

    def test_total_mismatch(self):
        with pytest.raises(ValueError):
            closure_leq(partition(2), partition(2, 1))


class TestReduction:
    def test_gl_small(self):
        lab = symplectic_reduction_orbit("GL", 1, 2)
        assert (lab.lie_type, lab.part.parts) == ("gl", (2,))

    def test_o_case(self):
        lab = symplectic_reduction_orbit("O", 2, 3)
        assert (lab.lie_type, lab.size, lab.part.parts) == ("sp", 6, (2, 2, 1, 1))

    def test_sp_very_even_pair(self):
        pair = symplectic_reduction_orbit("Sp", 2, 4)
        assert isinstance(pair, tuple)
        assert pair[0].part.parts == (2, 2, 2, 2)
        assert {pair[0].tag, pair[1].tag} == {"I", "II"}

    def test_sp_odd_small(self):
        lab = symplectic_reduction_orbit("Sp", 2, 3)
        assert lab.part.parts == (2, 2, 1, 1)

    def test_reduction_dimension(self):
        # quotient dimension 2N(d - N) in the bilinear case
        for n, d in product(range(1, 4), range(1, 6)):
            lab = symplectic_reduction_orbit("GL", n, d)
            N = min(d // 2, n)
            assert orbit_dim(lab) == 2 * N * (d - N)


class TestPredicates:
    def test_sp_side(self):
        assert has_symplectic_resolution(OrbitLabel("sp", 4, partition(2, 2)))
        assert not has_symplectic_resolution(OrbitLabel("sp", 6, partition(2, 1, 1, 1, 1)))

    def test_so_adjacent_odd_pair(self):
        for d in (3, 5):  # two-column with a trailing odd pair needs d odd
            lab = OrbitLabel("so", 2 * d, Partition((2,) * (d - 1) + (1, 1)))
            assert has_symplectic_resolution(lab)

    def test_so_many_odd_parts(self):
        lab = OrbitLabel("so", 12, partition(2, 2, 1, 1, 1, 1, 1, 1, 1, 1))
        assert not has_symplectic_resolution(lab)

    def test_gl_always(self):
        assert has_symplectic_resolution(OrbitLabel("gl", 5, partition(3, 2)))

    def test_sweep_matches_parameter_predicates(self):
        # orthogonal-group reductions resolve iff d <= n; symplectic-group
        # reductions (components) resolve iff d <= n + 1
        for n in range(1, 6):
            for d in range(1, 6):
                lab = symplectic_reduction_orbit("O", n, d)
                assert has_symplectic_resolution(lab) == (d <= n)
        for nh in range(1, 6):
            n_amb = 2 * nh
            for d in range(1, 6):
                labs = symplectic_reduction_orbit("Sp", nh, d)
                labs = labs if isinstance(labs, tuple) else (labs,)
                for lab in labs:
                    assert has_symplectic_resolution(lab) == (d <= n_amb + 1), (nh, d)

    def test_gorenstein(self):
        assert gorenstein("GL", (2, 3, 3))
        assert not gorenstein("GL", (2, 3, 4))
        assert gorenstein("O", (2, 5))
        assert not gorenstein("O", (2, 4))
        assert gorenstein("SL", (2, 3)) and gorenstein("Sp", (4, 4))


class TestDims:
    def test_gl_nilcone(self):
        assert nilcone_dim("GL", (2, 2, 2)) == 5
        assert nilcone_dim("GL", (2, 2, 1)) == 4
        assert nilcone_dim("GL", (1, 3, 3)) == 3
        assert nilcone_dim("GL", (5, 2, 2)) == 5 * 2 + 5 * 2 - 4

    def test_gl_nilcone_brute_force(self):
        # maximize the stratification polynomial m(n-m) + n1 m + n2 (n-m)
        for n, n1, n2 in product(range(1, 5), range(1, 5), range(1, 5)):
            if n >= n1 + n2:
                continue
            lo = max(0, n - n2)
            hi = min(n, n1)
            want = max(
                m * (n - m) + n1 * m + n2 * (n - m) for m in range(lo, hi + 1)
            )
            assert nilcone_dim("GL", (n, n1, n2)) == want, (n, n1, n2)

    def test_o_nilcone(self):
        assert nilcone_dim("O", (3, 3)) == 4
        assert nilcone_dim("O", (2, 2)) == 2
        assert nilcone_dim("O", (3, 2)) == 3

    def test_sp_nilcone(self):
        # four vectors spanning an isotropic plane: LG(2,4), of dimension 3,
        # plus 8 coordinates; krull_dim of the sp4 nilcone ideal agrees
        assert nilcone_dim("Sp", (4, 4)) == 11

    def test_symplectic_variants(self):
        assert nilcone_dim("GLsym", (2, 2)) == 5
        assert nilcone_dim("GLsym", (1, 2)) == 3
        assert nilcone_dim("GLsym", (2, 5)) == 2 * 2 * 5 - 4
        assert nilcone_dim("Osym", (2, 2)) == 7
        assert nilcone_dim("Spsym", (2, 2)) == 5

    def test_gl_fibers(self):
        assert fiber_dim("GL", (2, 2, 2), 2) == 4
        assert fiber_dim("GL", (2, 2, 2), 0) == 5
        with pytest.raises(ValueError):
            fiber_dim("GL", (2, 2, 2), 3)

    def test_o_fibers(self):
        assert fiber_dim("O", (2, 2), 2) == 1
        assert fiber_dim("O", (3, 3), 3) == 3

    def test_sp_fibers(self):
        assert fiber_dim("Sp", (4, 4), 2) == 10

    def test_fiber_generic_matches_table(self):
        # generic-fiber row of each flatness table
        assert fiber_dim("GL", (3, 2, 2), 2) == 3 * 2 + 3 * 2 - 4
        assert fiber_dim("O", (5, 2), 2) == 5 * 2 - 3
        assert fiber_dim("Sp", (4, 3), 1) == 4 * 3 - 3

    def test_flatness_loci(self):
        assert flatness_locus("GL", (3, 2, 2)) == [0, 1, 2]
        assert flat_everywhere("GL", (3, 2, 2))
        assert flatness_locus("GL", (2, 2, 2)) == [1, 2]
        assert flatness_locus("O", (2, 3)) == [2]
        assert flatness_locus("O", (3, 3)) == [2, 3]
        assert flat_everywhere("Sp", (4, 3))
        assert flatness_locus("Sp", (4, 5)) == [2]
        assert flatness_locus("SL", (2, 3)) == [1]
        assert flat_everywhere("SL", (3, 3))

    # the first flat stratum of each parameter tuple in lexicographic order,
    # recorded from the per-situation formulas before they became one rule;
    # the locus runs from there to the top stratum
    FLAT_FROM = {
        ("GL", 6): "011111111111111111111111111111111111001111012222122222122222122222"
                   "122222000111001222012333123333123333123333000011000122001233012344"
                   "123444123444000001000012000123001234012345123455000000000001000012"
                   "000123001234012345",
        ("O", 8): "0111111101222222002333330013444400024555000135660000246700001357",
        ("SO", 8): "0111111101222222002333330013444400024555000135660000246700001357",
        ("Sp", 8): "00111111000122220000123300000123",
        ("SL", 8): "0000000000111111000111110000111100000111000000110000000100000000",
    }

    @pytest.mark.parametrize("situation, top", list(FLAT_FROM))
    def test_flatness_locus_grid(self, situation, top):
        arity = 3 if situation == "GL" else 2
        grid = [ps for ps in product(range(1, top + 1), repeat=arity)
                if situation != "Sp" or ps[0] % 2 == 0]
        assert len(grid) == len(self.FLAT_FROM[situation, top])
        for ps, start in zip(grid, self.FLAT_FROM[situation, top]):
            want = list(range(int(start), max_rank(situation, ps) + 1))
            assert flatness_locus(situation, ps) == want, ps

    def test_max_rank(self):
        assert max_rank("GL", (3, 2, 4)) == 2
        assert max_rank("O", (5, 3)) == max_rank("SO", (5, 3)) == 3
        assert max_rank("Sp", (4, 5)) == 2
        assert [max_rank("SL", p) for p in ((3, 2), (2, 2), (2, 3))] == [0, 1, 1]

    def test_flat_everywhere_is_the_whole_locus(self):
        for sit in ("O", "SO", "Sp", "SL"):
            for n, m in product(range(1, 9), range(1, 9)):
                if sit == "Sp" and n % 2:
                    continue
                whole = list(range(max_rank(sit, (n, m)) + 1))
                assert flat_everywhere(sit, (n, m)) == (flatness_locus(sit, (n, m)) == whole)

    @pytest.mark.parametrize(
        "situation, params",
        [("GL", (2, 2)), ("GL", (1, 2, 3, 4)), ("O", (0, 2)), ("GLsym", (2, -1)),
         ("Sp", (3, 2)), ("Spsym", (5, 1)), ("E8", (1, 1))],
    )
    def test_bad_parameters_raise(self, situation, params):
        with pytest.raises(ValueError):
            nilcone_dim(situation, params)


def _nilcone_ideal(situation, params):
    """The zero fiber of the quotient map, built here from its definition:
    GL, the entries of b.a for a (n x n1) and b (n2 x n); O, the Gram
    entries v_i . v_j of n' vectors in Q^n; Sp, the symplectic pairings
    of n' vectors in Q^n under sum_c (u_c v_{c+h} - u_{c+h} v_c)."""
    if situation == "GL":
        n, n1, n2 = params
        blocks = {"a": (n, n1), "b": (n2, n)}
    else:
        n, nprime = params
        blocks = {"w": (n, nprime)}
    r = ring(*[f"{k}{i}_{j}" for k, (p, q) in blocks.items() for i in range(p) for j in range(q)])
    v = lambda k, i, j: r.var(f"{k}{i}_{j}")
    if situation == "GL":
        gens = [sum((v("b", i, c) * v("a", c, j) for c in range(n)), r.zero())
                for i in range(n2) for j in range(n1)]
    elif situation == "O":
        gens = [sum((v("w", c, i) * v("w", c, j) for c in range(n)), r.zero())
                for i in range(nprime) for j in range(i, nprime)]
    else:
        h = n // 2
        gens = [sum((v("w", c, i) * v("w", c + h, j) - v("w", c + h, i) * v("w", c, j)
                     for c in range(h)), r.zero())
                for i in range(nprime) for j in range(i + 1, nprime)]
    return Ideal(r, gens)


_KRULL_SWEEP = (
    [("GL", p) for p in product(range(1, 13), repeat=3) if p[0] * (p[1] + p[2]) <= 12]
    + [("O", p) for p in product(range(1, 13), repeat=2) if p[0] * p[1] <= 12]
    + [("Sp", (n, m)) for n in (2, 4, 6) for m in range(1, 7)]
)


@pytest.mark.parametrize(
    "situation, params", _KRULL_SWEEP, ids=[f"{s}{p}".replace(" ", "") for s, p in _KRULL_SWEEP]
)
def test_closed_form_nilcone_matches_krull_dim(situation, params):
    dim = krull_dim(_nilcone_ideal(situation, params))
    assert nilcone_dim(situation, params) == dim
    assert fiber_dim(situation, params, 0) == dim
