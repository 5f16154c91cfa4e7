import numpy as np
import pytest

import dynheat as dh
from dynheat.geometry import phi_extremes, weight_phi_bundle

from conftest import measures


class TestDomainValidation:
    def test_interval_accepts_interior_anchor(self):
        dom = dh.DomainSpec.interval(0.0, 1.0, 0.5, 0.3, 0.7)
        assert dom.kind == "interval"
        assert dom.dim == 1

    def test_anchor_on_boundary_rejected(self):
        with pytest.raises(dh.ConfigurationError):
            dh.DomainSpec.interval(0.0, 1.0, 0.0, 0.3, 0.7)

    def test_omega_must_be_compactly_contained(self):
        with pytest.raises(dh.ConfigurationError):
            dh.DomainSpec.interval(0.0, 1.0, 0.5, 0.3, 1.0)

    def test_anchor_must_lie_inside_omega(self):
        with pytest.raises(dh.ConfigurationError):
            dh.DomainSpec.interval(0.0, 1.0, 0.1, 0.3, 0.7)

    def test_disk_anchor_outside_rejected(self):
        with pytest.raises(dh.ConfigurationError):
            dh.DomainSpec.disk((0.0, 0.0), 1.0, (1.0, 0.0), (0.0, 0.0), 0.5)

    def test_measures(self):
        iv = dh.DomainSpec.interval(0.0, 1.0, 0.5, 0.3, 0.7)
        assert measures(iv) == (1.0, 2.0)
        dk = dh.DomainSpec.disk((0.0, 0.0), 2.0, (0.0, 0.0), (0.0, 0.0), 0.5)
        vol, per = measures(dk)
        assert vol == pytest.approx(4.0 * np.pi, rel=1e-14)
        assert per == pytest.approx(4.0 * np.pi, rel=1e-14)


class TestWeightParams:
    def test_C0_is_one_minus_s_cubed(self):
        assert dh.WeightParams(s=0.5, h=0.5, T=1.0).C0 == pytest.approx(0.875)

    @pytest.mark.parametrize("bad", [{"s": 0.0}, {"s": 1.5}, {"h": 0.0},
                                     {"h": -1.0}, {"T": 0.0}])
    def test_out_of_range_rejected(self, bad):
        kw = {"s": 0.5, "h": 0.5, "T": 1.0}
        kw.update(bad)
        with pytest.raises(dh.ConfigurationError):
            dh.WeightParams(**kw)


class TestPhiBundle:
    """phi = -|x - x0|^2 / 4, grad = -(x - x0)/2, laplacian = -dim/2."""

    def test_values_against_direct_formula(self):
        dom = dh.DomainSpec.interval(0.0, 1.0, 0.5, 0.3, 0.7)
        pts = np.linspace(0.0, 1.0, 7)[:, None]
        b = weight_phi_bundle(dom, pts)
        assert b.phi == pytest.approx(-(pts[:, 0] - 0.5) ** 2 / 4.0)
        assert b.grad[:, 0] == pytest.approx(-(pts[:, 0] - 0.5) / 2.0)
        assert b.laplacian == pytest.approx(-0.5)

    def test_eikonal_combination_vanishes(self):
        # phi + |grad phi|^2 = 0 is what removes the quadratic weight terms
        dom = dh.DomainSpec.disk((0.0, 0.0), 1.0, (0.1, 0.0), (0.0, 0.0), 0.5)
        rng = np.random.default_rng(0)
        r = 0.9 * np.sqrt(rng.uniform(size=40))
        th = rng.uniform(0, 2 * np.pi, size=40)
        pts = np.column_stack([r * np.cos(th), r * np.sin(th)])
        b = weight_phi_bundle(dom, pts)
        assert b.phi + np.sum(b.grad ** 2, axis=1) == pytest.approx(
            np.zeros(40), abs=1e-15)
        assert b.laplacian == pytest.approx(-1.0)

class TestPhiExtremes:
    def test_interval_against_dense_sampling(self):
        dom = dh.DomainSpec.interval(0.0, 1.0, 0.5, 0.3, 0.7)
        phi_min, phi_max_out = phi_extremes(dom)
        xs = np.linspace(0.0, 1.0, 200001)
        phi = -(xs - 0.5) ** 2 / 4.0
        outside = (xs <= 0.3) | (xs >= 0.7)
        assert phi_min == pytest.approx(phi.min(), abs=1e-9)
        assert phi_max_out == pytest.approx(phi[outside].max(), abs=1e-9)

    def test_disk_against_dense_sampling(self):
        dom = dh.DomainSpec.disk((0.0, 0.0), 1.0, (0.1, 0.0), (0.1, 0.0), 0.4)
        phi_min, phi_max_out = phi_extremes(dom)
        r, th = np.meshgrid(np.linspace(0.0, 1.0, 1501),
                            np.linspace(0.0, 2 * np.pi, 3001))
        pts = np.column_stack([(r * np.cos(th)).ravel(), (r * np.sin(th)).ravel()])
        phi = -np.sum((pts - np.array([0.1, 0.0])) ** 2, axis=1) / 4.0
        outside = np.hypot(pts[:, 0] - 0.1, pts[:, 1]) >= 0.4
        assert phi_min == pytest.approx(phi.min(), abs=1e-5)
        assert phi_max_out == pytest.approx(phi[outside].max(), abs=1e-5)

