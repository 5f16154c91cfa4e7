import numpy as np
import pytest
import scipy.linalg as sla
from scipy.optimize import brentq
from scipy.sparse._compressed import _cs_matrix
from scipy.special import jv, jvp
from hypothesis import given, settings, strategies as st

import dynheat as dh
from dynheat import discretize

from conftest import dirichlet_form, frozen_assembly, unit_random_state


class TestGridWeights:
    def test_interval_bulk_weights_are_trapezoid(self, iv_domain):
        grid = dh.build_grid(iv_domain, n=11)
        dx = 0.1
        assert grid.w_bulk[0] == pytest.approx(dx / 2)
        assert grid.w_bulk[-1] == pytest.approx(dx / 2)
        assert np.all(grid.w_bulk[1:-1] == pytest.approx(dx))
        assert grid.w_bulk.sum() == pytest.approx(1.0, abs=1e-15)

    def test_interval_trace_weights_are_unit_atoms(self, iv_domain):
        grid = dh.build_grid(iv_domain, n=11)
        assert grid.w_trace[grid.boundary_idx] == pytest.approx([1.0, 1.0])
        off_boundary = np.setdiff1d(np.arange(grid.n_dofs), grid.boundary_idx)
        assert off_boundary.size == 9 and np.all(grid.w_trace[off_boundary] == 0.0)

    def test_norm_of_ones_is_total_measure(self, iv_ops, disk_ops):
        # ||1||^2 = |Omega| + |Gamma|: 1 + 2 on the interval
        ones = np.ones(iv_ops.n_dofs)
        assert iv_ops.inner(ones, ones) == pytest.approx(3.0, rel=1e-14)
        ones_d = np.ones(disk_ops.n_dofs)
        assert disk_ops.inner(ones_d, ones_d) == pytest.approx(
            np.pi + 2.0 * np.pi, rel=1e-12)

    def test_disk_weights_sum_to_area_and_perimeter(self, disk_domain):
        grid = dh.build_grid(disk_domain, nr=9, ntheta=20)
        assert grid.w_bulk.sum() == pytest.approx(np.pi, rel=1e-12)
        assert grid.w_trace.sum() == pytest.approx(2.0 * np.pi, rel=1e-14)

    def test_omega_nodes_lie_inside_omega(self, iv_domain):
        grid = dh.build_grid(iv_domain, n=21)
        xs = grid.points[grid.omega_idx, 0]
        assert np.all((xs >= 0.3) & (xs <= 0.7))
        assert grid.omega_idx.size > 0

    def test_resolution_floor_enforced(self, iv_domain, disk_domain):
        with pytest.raises(dh.ConfigurationError):
            dh.build_grid(iv_domain, n=3)
        with pytest.raises(dh.ConfigurationError):
            dh.build_grid(disk_domain, nr=1, ntheta=8)
        with pytest.raises(dh.ConfigurationError):
            dh.build_grid(disk_domain, nr=4, ntheta=3)

    def test_grid_arrays_are_read_only(self, iv_domain):
        grid = dh.build_grid(iv_domain, n=8)
        with pytest.raises(ValueError):
            grid.points[0, 0] = 99.0
        with pytest.raises(ValueError):
            grid.w_bulk[0] = 99.0


class TestOperatorStructure:
    def test_constants_are_annihilated_exactly(self, iv_ops, disk_ops):
        for ops in (iv_ops, disk_ops):
            out = ops.apply_A(np.ones(ops.n_dofs))
            assert np.all(out == 0.0)

    def test_mass_self_adjointness(self, iv_ops, disk_ops):
        rng = np.random.default_rng(7)
        for ops in (iv_ops, disk_ops):
            u = rng.standard_normal(ops.n_dofs)
            v = rng.standard_normal(ops.n_dofs)
            lhs = ops.inner(ops.apply_A(u), v)
            rhs = ops.inner(u, ops.apply_A(v))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_dissipativity(self, iv_ops, disk_ops):
        rng = np.random.default_rng(8)
        for ops in (iv_ops, disk_ops):
            for _ in range(20):
                u = rng.standard_normal(ops.n_dofs)
                assert ops.inner(ops.apply_A(u), u) <= 1e-12 * ops.inner(u, u)

    def test_quadratic_form_matches_dirichlet_form(self, iv_ops, disk_ops):
        rng = np.random.default_rng(9)
        for ops in (iv_ops, disk_ops):
            u = rng.standard_normal(ops.n_dofs)
            lhs = float(u @ ops.apply_K(u))
            assert lhs == pytest.approx(dirichlet_form(ops, u, u), rel=1e-12)

    @pytest.mark.parametrize("name", ["iv_ops", "disk_ops"])
    @pytest.mark.parametrize("cols", [None, 3])
    def test_apply_K_matches_on_the_fly_transpose(self, request, name, cols):
        """apply_K is D.T (g * D u) to the bit, for a state and a block."""
        ops = request.getfixturevalue(name)
        shape = (ops.n_dofs,) if cols is None else (ops.n_dofs, cols)
        u = np.random.default_rng(12).standard_normal(shape)
        g = ops.edge_weights if cols is None else ops.edge_weights[:, None]
        expect = ops.incidence.T @ (g * (ops.incidence @ u))
        assert np.array_equal(ops.apply_K(u), expect)

    @pytest.mark.parametrize("nr, ntheta", [(2, 4), (6, 16), (128, 160)])
    def test_disk_edges_match_the_ring_loop(self, disk_domain, monkeypatch, nr, ntheta):
        """The vectorised disk edges are the ring-by-ring loop's, in order and
        to the bit, so K is unchanged to the last bit."""
        grid = dh.build_grid(disk_domain, nr=nr, ntheta=ntheta)
        edges, g = discretize._edges_disk(grid)
        loop_edges, loop_g = ring_loop_edges(grid)
        assert np.array_equal(edges, loop_edges) and np.array_equal(g, loop_g)
        K = dh.assemble_operator(grid).K
        monkeypatch.setattr(discretize, "_edges_disk", ring_loop_edges)
        loop_K = dh.assemble_operator(grid).K
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(K, name), getattr(loop_K, name))

    def test_interval_stencil_against_literal_second_difference(self, iv_domain):
        """Oracle: interior rows of K act as (2u_i - u_{i-1} - u_{i+1})/dx."""
        grid = dh.build_grid(iv_domain, n=9)
        ops = dh.assemble_operator(grid)
        dx = grid.spacing[0]
        rng = np.random.default_rng(10)
        u = rng.standard_normal(grid.n_dofs)
        ku = ops.apply_K(u)
        for i in range(1, grid.n_dofs - 1):
            expect = (2.0 * u[i] - u[i - 1] - u[i + 1]) / dx
            assert ku[i] == pytest.approx(expect, rel=1e-13, abs=1e-13)
        assert ku[0] == pytest.approx((u[0] - u[1]) / dx, rel=1e-13)
        assert ku[-1] == pytest.approx((u[-1] - u[-2]) / dx, rel=1e-13)


def assert_same_csr(got, ref):
    for name in ("data", "indices", "indptr"):
        x, y = getattr(got, name), getattr(ref, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name


def assert_assembly_equals_frozen_product(grid):
    ops = dh.assemble_operator(grid)
    K, D = frozen_assembly(grid)
    assert_same_csr(ops.K, K)
    assert_same_csr(ops.incidence, D)


class TestAssemblyAgainstProduct:
    """assemble_operator writes K and D from the edge list; both equal the
    sparse product D^T diag(g) D and its incidence D bit for bit, index
    dtypes included."""

    @pytest.mark.parametrize("n", [4, 5, 32, 1000, 16384])
    def test_interval(self, iv_domain, n):
        assert_assembly_equals_frozen_product(dh.build_grid(iv_domain, n=n))

    @pytest.mark.parametrize("nr, ntheta", [(2, 4), (3, 5), (7, 13), (16, 48), (32, 96),
                                            (64, 192), (128, 160)])
    def test_disk(self, disk_domain, nr, ntheta):
        assert_assembly_equals_frozen_product(dh.build_grid(disk_domain, nr=nr, ntheta=ntheta))

    @settings(max_examples=60, deadline=None)
    @given(disk=st.booleans(), n=st.integers(4, 300), nr=st.integers(2, 24),
           ntheta=st.integers(4, 40))
    def test_small_grids(self, iv_domain, disk_domain, disk, n, nr, ntheta):
        grid = (dh.build_grid(disk_domain, nr=nr, ntheta=ntheta) if disk
                else dh.build_grid(iv_domain, n=n))
        assert_assembly_equals_frozen_product(grid)

    def test_no_sparse_product(self, monkeypatch, iv_domain, disk_domain):
        def refuse(self, other):
            raise AssertionError("a sparse matrix product")

        monkeypatch.setattr(_cs_matrix, "_matmul_sparse", refuse)
        grids = [dh.build_grid(iv_domain, n=12), dh.build_grid(disk_domain, nr=6, ntheta=16)]
        for grid in grids:
            with pytest.raises(AssertionError, match="sparse matrix product"):
                frozen_assembly(grid)
            dh.assemble_operator(grid)


def ring_loop_edges(grid):
    """Reference disk edges and weights, built one ring at a time."""
    nr, ntheta = grid.shape
    dr, dtheta = grid.spacing
    n_int = nr * ntheta
    edges, weights = [], []
    j = np.arange(ntheta)
    jn = (j + 1) % ntheta
    for i in range(nr - 1):
        edges.append(np.column_stack([i * ntheta + j, (i + 1) * ntheta + j]))
        weights.append(np.full(ntheta, (i + 1) * dr * dtheta / dr))
    edges.append(np.column_stack([(nr - 1) * ntheta + j, n_int + j]))
    weights.append(np.full(ntheta, nr * dr * dtheta / dr))
    for i in range(nr):
        r = (i + 0.5) * dr
        edges.append(np.column_stack([i * ntheta + j, i * ntheta + jn]))
        weights.append(np.full(ntheta, dr / (r * dtheta)))
    r_half = (nr + 0.25) * dr
    edges.append(np.column_stack([n_int + j, n_int + jn]))
    weights.append(np.full(ntheta, 0.5 * dr / (r_half * dtheta)))
    edges.append(np.column_stack([n_int + j, n_int + jn]))
    weights.append(np.full(ntheta, 1.0 / (grid.domain.radius * dtheta)))
    return np.vstack(edges), np.concatenate(weights)


class TestSpectrumAgainstContinuum:
    """The coupled bulk/boundary eigenvalues have closed transcendental
    characterizations; the assembled operator must reproduce them."""

    def test_interval_eigenvalues(self, iv_domain):
        # antisymmetric tan(k/2) = 1/k; symmetric tan(k/2) = -k
        k0 = brentq(lambda k: np.tan(k / 2) - 1.0 / k, 0.5, np.pi - 1e-9)
        k1 = brentq(lambda k: np.tan(k / 2) + k, np.pi + 1e-6, 2 * np.pi - 1e-6)
        ops = dh.assemble_operator(dh.build_grid(iv_domain, n=100))
        ev = _symmetrized_spectrum(ops)
        assert abs(ev[0]) < 1e-10
        assert ev[1] == pytest.approx(k0 ** 2, rel=1e-4)
        assert ev[2] == pytest.approx(k1 ** 2, rel=1e-3)

    def test_disk_eigenvalues(self, disk_domain):
        # angular family m: k Jm'(k) = (k^2 - m^2) Jm(k) on the unit disk
        def bessel_root(m, lo, hi):
            return brentq(lambda k: k * jvp(m, k) - (k * k - m * m) * jv(m, k),
                          lo, hi)

        lam1 = bessel_root(1, 0.2, 1.84) ** 2
        lam2 = bessel_root(2, 0.5, 3.05) ** 2
        lam0 = bessel_root(0, 2.5, 3.83) ** 2
        ops = dh.assemble_operator(
            dh.build_grid(dh.DomainSpec.disk((0.0, 0.0), 1.0, (0.0, 0.0),
                                             (0.0, 0.0), 0.5), nr=16, ntheta=32))
        ev = _symmetrized_spectrum(ops)
        assert abs(ev[0]) < 1e-10
        # rotational symmetry doubles every m >= 1 mode
        assert ev[1] == pytest.approx(ev[2], rel=1e-10)
        assert ev[1] == pytest.approx(lam1, rel=2e-2)
        assert ev[3] == pytest.approx(ev[4], rel=1e-10)
        assert ev[3] == pytest.approx(lam2, rel=2e-2)
        assert ev[5] == pytest.approx(lam0, rel=2e-2)


def _symmetrized_spectrum(ops):
    m = ops.mass
    L = -ops.dense_A()
    Lsym = np.sqrt(m)[:, None] * L / np.sqrt(m)[None, :]
    return np.sort(sla.eigvalsh(0.5 * (Lsym + Lsym.T)))


class TestOmegaRestriction:
    def test_restrict_embed_round_trip(self, iv_small_ops):
        rng = np.random.default_rng(11)
        u = rng.standard_normal(iv_small_ops.n_dofs)
        r = iv_small_ops.restrict_omega(u)
        back = iv_small_ops.embed_omega(r)
        assert back[iv_small_ops.grid.omega_idx] == pytest.approx(r)
        mask = np.ones(iv_small_ops.n_dofs, dtype=bool)
        mask[iv_small_ops.grid.omega_idx] = False
        assert np.all(back[mask] == 0.0)

    def test_omega_norm_is_bulk_measure_of_patch(self, iv_small_ops):
        u = np.ones(iv_small_ops.n_dofs)
        r = iv_small_ops.restrict_omega(u)
        expect = iv_small_ops.grid.w_bulk[iv_small_ops.grid.omega_idx].sum()
        assert iv_small_ops.norm_omega(r) ** 2 == pytest.approx(expect)

    def test_shape_mismatch_errors(self, iv_small_ops):
        with pytest.raises(dh.UsageError):
            iv_small_ops.norm_omega(np.ones(iv_small_ops.n_dofs))
        with pytest.raises(dh.UsageError):
            iv_small_ops.embed_omega(np.ones(3))


def _spread(rng, shape):
    """Normal entries scaled across 16 orders of magnitude."""
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-8.0, 8.0, shape)


def _pairwise_sum(x):
    """numpy's pairwise summation of a contiguous float64 vector, written
    out: under 8 terms a running sum; up to 128 eight accumulators, joined
    as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the tail;
    above that the two halves, split at a multiple of 8."""
    n = x.size
    if n < 8:
        total = 0.0
        for v in x:
            total += v
        return total
    if n <= 128:
        r = list(x[:8])
        stop = n - n % 8
        for i in range(8, stop, 8):
            for j in range(8):
                r[j] += x[i + j]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for v in x[stop:]:
            total += v
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(x[:half]) + _pairwise_sum(x[half:])


class TestColumnReduction:
    """column_dots, the one reduction behind every inner product and form:
    a block's column sums equal the one-state sums bit for bit, because
    both are numpy's pairwise sum over one contiguous column."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 4097), m=st.integers(1, 20), seed=st.integers(0, 2**32 - 1),
           order=st.sampled_from("CF"), broadcast=st.booleans())
    def test_block_sums_equal_one_column_sums(self, n, m, seed, order, broadcast):
        rng = np.random.default_rng(seed)
        a = np.asarray(_spread(rng, (n, 1) if broadcast else (n, m)), order=order)
        b = np.asarray(_spread(rng, (n, m)), order=order)
        got = discretize.column_dots(a, b)
        assert got.shape == (m,)
        for j in range(m):
            x, y = a[:, 0 if broadcast else j].copy(), b[:, j].copy()
            assert got[j] == float(np.sum(x * y)) == discretize.column_dots(x, y)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 4097), seed=st.integers(0, 2**32 - 1))
    def test_one_state_sum_is_numpys_pairwise_order(self, n, seed):
        """Block identity rests on this order; a numpy that sums in another
        fails here, before any artifact moves."""
        x = _spread(np.random.default_rng(seed), n)
        assert float(np.sum(x)) == _pairwise_sum(x), (
            f"numpy's float64 sum of {n} terms no longer follows the pairwise order")


class TestUnitRandomHelper:
    def test_unit_norm(self, iv_ops):
        st = unit_random_state(iv_ops, 3)
        assert iv_ops.norm(st) == pytest.approx(1.0, rel=1e-14)
