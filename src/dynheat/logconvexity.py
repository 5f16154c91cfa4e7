"""Frequency function machinery for the weighted flow.

The weighted state is F = E(t) U with E = exp(Phi/2).  Along the flow,

    dF/dt = P1 F,    P1 = diag(dPhi/dt / 2) + E A E^{-1},

and the splitting S = (P1 + P1*)/2, Aanti = (P1 - P1*)/2 is taken in the
discrete mass inner product, where P1* = M^{-1} P1^T M.  Because the
splitting is exact at the matrix level, the energy identity

    1/2 d/dt ||F||^2 + N(t) ||F||^2 = 0,    N = <-S F, F> / ||F||^2,

holds up to time discretization only, and the commutator identity for

    Q = <-S' F, F> - 2 <S F, Aanti F>

becomes a statement about convergence to the closed-form integrals, not an
exact discrete identity.  This module provides:

* the weights at a chunk of sample times as one array (with an overflow
  guard on the exponent), and one kernel that reads a block of states X,
  never forms F, and gives ||F||^2, <-S F, F>, Q and <S' F, F> per column
  from one product of K with X and a weighted copy of X; the trace hands
  both the same chunk of consecutive samples of an ensemble (TRACE_CHUNK),
* Q in closed form from that one product: dE/dt = d E gives
  S' = diag(d') + [diag(d), Aanti] exactly, and the skewness of Aanti
  turns <S' F, F> into <d' F, F> + 2 <d F, Aanti F>, so no derivative in t
  is differenced,
* the frequency trace runner: an ensemble traced as one block into one
  record, rows bit for bit its one-member traces, with two fits per
  member, where C0 = 1 - s^3: the rate fit C in
  dN/dt <= (1 + C0) N/Upsilon + C/h^2, and the form fit C_form in
  Q <= (1 + C0)/Upsilon <-S F, F> + C_form/h^2 ||F||^2,
* the commutator identity refinement study (interval, and disk with the
  anchor at the center so the weight is constant on the boundary),
* the three-point logarithmic interpolation inequality with the explicit
  exponent M and additive drift D,
* the telescoping constants M_ell, D_ell with their sign condition, and
* the empirical observability fit (beta, mu, K), which reads the ensemble's
  final block from its trace (FrequencyTrace.final), with the derived
  penalization constants (M1, M2, delta).

All operations are pure functions of immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry
from .discretize import assemble_operator, build_grid, column_dots
from .errors import (ConfigurationError, DegenerateDataError, FitFailureError,
                     NumericalError, ParameterError, UsageError)
from .evolve import Propagator

PHI_EXP_GUARD = 700.0
# relative slack of the drift bound and interpolation checks, and of the
# observability estimate
SLACK = 1e-8
OBSERVABILITY_SLACK = 1e-12
# ensemble values whose forms one _forms call takes (64 KiB): the trace
# gathers max(1, TRACE_CHUNK // (n m)) samples of an (n, m) ensemble per
# call.  Each call costs tens of microseconds of dispatch whatever its
# size, so small ensembles gain from a chunk (a 32-node interval with 20
# members: 12 samples a call, a 51-sample trace in 2.2 ms against 4.7 ms
# one sample at a time); with 15 members on the 816-dof disk one sample
# already passes it, and there chunks of 2 to 10 samples took 45-56 ms
# against 34 ms (2-core Xeon, one BLAS thread).
TRACE_CHUNK = 2 ** 13


# ---------------------------------------------------------------------------
# weights and the weighted forms
# ---------------------------------------------------------------------------

def _s_phi(ops, params, times):
    """s phi at the grid nodes, Phi(t) = s phi / Upsilon(t), guarded at all
    the given times: ParameterError names the first where |Phi| passes
    PHI_EXP_GUARD (max|s phi| / Upsilon is max|Phi| to the bit)."""
    grid = ops.grid
    s_phi = params.s * geometry.weight_phi_bundle(grid.domain, grid.points).phi
    ups = params.T - np.asarray(times, dtype=float) + params.h
    past = np.abs(s_phi).max() / ups > PHI_EXP_GUARD
    if np.any(past):
        Phi = np.abs(s_phi / ups[np.argmax(past)])
        raise ParameterError(
            f"|Phi| exceeds {PHI_EXP_GUARD} at {int((Phi > PHI_EXP_GUARD).sum())} nodes "
            f"(max {Phi.max():.3g}); increase the pad h")
    return s_phi


def _weights(ops, params, s_phi, times):
    """The weights at the S given times as one array (7, n, S, 1) of
    columns, contiguous down the nodes: E^2 = exp(Phi); G = E^2 - c with c
    the midrange of E^2; d = dPhi/dt / 2, the diagonal part of P1; M E^2,
    M d E^2 and M d' E^2 with d' = dd/dt; and 1 / (2 M E^2).  s_phi comes
    from _s_phi, which guards these times."""
    ups = (params.T - np.asarray(times, dtype=float) + params.h)[:, None]
    E2, d = np.exp(s_phi / ups), 0.5 * (s_phi / ups ** 2)
    G, ME2 = E2 - 0.5 * (E2.max(axis=1) + E2.min(axis=1))[:, None], ops.mass * E2
    # stacked as (7, S, n) and seen as (7, n, S)
    return np.stack([E2, G, d, ME2, d * ME2, s_phi / ups ** 3 * ME2,
                     0.5 / ME2]).swapaxes(1, 2)[..., None]


def _forms(ops, w, X):
    """(||F||^2, <-S F, F>, Q, <S' F, F>) per column of F = E X, each
    (S, m), from the Fortran-order (n, S, m) block X of S consecutive
    samples by m members and their weights w, shaped (7, n, S, 1) (see
    _weights), with one product by K.  Every product broadcasts a weight
    against X and runs fastest down the nodes when the weights are
    contiguous there too, as _weights stacks them; the layout changes no
    bit.

    B = E A E^{-1} and B* = E^{-1} A E give B F = -E K X / M and
    B* F = -K Y / (E M) with Y = E^2 X.  Aanti F and the forms rest on
    Z = E^2 K X - K Y = G K X - K (G X), formed from G, so its cancellation
    costs digits of G's size, not of E^2's: ||F||^2 = <E^2 X, X>,
    <-S F, F> = Y.KX - <d E^2 X, X> and Aanti F = -Z / (2 E M).
    dE/dt = d E gives S' = diag(d') + [diag(d), Aanti], and Aanti is skew
    in the mass product, so <S' F, F> = <d' E^2 X, X> - d X.Z and
    Q = -<S' F, F> - 2 <S F, Aanti F> = 2 d X.Z - <d' E^2 X, X>
    - Z.(K X / M - Z / (2 M E^2)), with no difference quotient in t.
    Every sum is a column_dots sum down one contiguous column, and the CSR
    product sums each column alone, so each column is its one-column,
    one-sample forms bit for bit.
    """
    E2, G, d, ME2, MdE2, MdpE2, half = w
    n, S, m = X.shape
    # column s + S j of the (n, S m) view is sample s of member j
    R = np.asfortranarray(ops.K @ np.concatenate(
        [X.reshape(n, -1, order="F"), (G * X).reshape(n, -1, order="F")], axis=1))
    KX = R[:, :S * m].reshape(X.shape, order="F")
    Z = G * KX - R[:, S * m:].reshape(X.shape, order="F")
    X2 = X * X
    twist, dp = column_dots(d * X, Z), column_dots(MdpE2, X2)
    return (column_dots(ME2, X2), column_dots(E2 * X, KX) - column_dots(MdE2, X2),
            2.0 * twist - dp - column_dots(Z, KX / ops.mass[:, None, None] - half * Z),
            dp - twist)


def _state_forms(ops, params, t, F):
    """_forms of one weighted state F (n,) at a time t in [0, T], as floats."""
    if not 0.0 <= t <= params.T:
        raise UsageError(f"t={t} outside [0, {params.T}]")
    w = _weights(ops, params, _s_phi(ops, params, [t]), [t])
    X = np.asarray(F, dtype=float)[:, None, None] / np.sqrt(w[0])
    return [float(f[0, 0]) for f in _forms(ops, w, X)]


def s_prime_form(ops, params, t, F):
    """<S'(t) F, F> = <d' F, F> + 2 <d F, Aanti F>, exact."""
    return _state_forms(ops, params, t, F)[3]


def commutator_form(ops, params, t, F):
    """Q(F) = <-S' F, F> - 2 <S F, Aanti F> at time t."""
    return _state_forms(ops, params, t, F)[2]


# ---------------------------------------------------------------------------
# frequency trace along the flow
# ---------------------------------------------------------------------------

@dataclass
class FrequencyTrace:
    """Weighted-flow diagnostics of an ensemble of m members at s times t.

    normF2, N, Q and neg_S (<-S F, F>) are (m, s), row j member j's.  C
    and C_form, each member's rate and form fits, are (m,) (see
    run_traces).  final is the (n, m) block U(T) the trajectory ends at.
    """

    params: geometry.WeightParams
    t: np.ndarray
    normF2: np.ndarray
    N: np.ndarray
    Q: np.ndarray
    neg_S: np.ndarray
    C: np.ndarray
    C_form: np.ndarray
    final: np.ndarray

    def rows(self, j, C):
        """Member j's t, normF2, N, Q and drift bound with the constant C,
        the bound count_bound_violations checks, one row per sample."""
        return np.column_stack([self.t, self.normF2[j], self.N[j], self.Q[j],
                                _drift_bound(self.params, self.t, self.neg_S[j],
                                             self.normF2[j], C)])


def _drift_bound(params, t, neg_S, normF2, C):
    """(1 + C0)/Upsilon <-S F, F> + C/h^2 ||F||^2 at the times t, with C a
    float or, for the (m, s) forms, (m, 1)."""
    return (1.0 + params.C0) / (params.T - t + params.h) * neg_S + (C / params.h ** 2) * normF2


def run_traces(ops, params, block, sched):
    """Propagate the (n, m) block of states into one FrequencyTrace, row j
    bit for bit member j's one-member trace (the step solve and every
    reduction treat each column alone).

    Each chunk of max(1, TRACE_CHUNK // (n m)) samples takes one _weights
    and one _forms call, with one product by K; a one-sample chunk hands
    _forms a view of the trajectory's own array.  The |Phi| guard checks
    every sample time before the first step.

    C, the rate fit, is each member's smallest constant >= 0 with dN/dt <=
    (1 + C0) N / Upsilon + C / h^2 at the interior samples (centered
    differencing).  C_form, the form fit, is each member's smallest
    constant >= 0 with Q <= (1 + C0) / Upsilon <-S F, F> + C_form / h^2
    ||F||^2 at every sample: the bound count_bound_violations checks with
    the C it is given, which observe takes as the ensemble's largest rate
    fit.  Neither bounds the other: on rough data C can exceed C_form by
    orders of magnitude (the differenced N carries CN's
    time-discretization transient), and on some inputs C falls below
    C_form, so the bound with C fails (benchmark input 8020, a 32-node
    interval: C = 0 against C_form = 0.0145, 18 violations; ROADMAP item 15).
    """
    if abs(sched.t1 - params.T) > 1e-12 * max(1.0, params.T) or sched.t0 != 0.0:
        raise UsageError(
            f"schedule [{sched.t0}, {sched.t1}] must match the weight horizon [0, {params.T}]")
    if np.any(ops.norm(block) == 0.0):
        raise DegenerateDataError("cannot trace a zero initial state")

    times = sched.times()
    s_phi = _s_phi(ops, params, times)
    per = max(1, TRACE_CHUNK // block.size)
    states = Propagator(ops, sched.dt, sched.scheme).trajectory(block, sched.steps)
    normF2, neg_S, Q = (np.empty((block.shape[1], times.size)) for _ in range(3))
    for k in range(0, times.size, per):
        t = times[k:k + per]
        Xs = [next(states) for _ in t]
        # a chunk's blocks are copied in as (m, S, n) in C order, which is
        # (n, S, m) in Fortran order
        X = Xs[0][:, None] if t.size == 1 else np.stack([x.T for x in Xs], axis=1).T
        forms = _forms(ops, _weights(ops, params, s_phi, t), X)
        vanished = np.any(forms[0] <= 0.0, axis=1)
        if np.any(vanished):
            raise DegenerateDataError(f"weighted state vanished at t={t[np.argmax(vanished)]}")
        normF2[:, k:k + per], neg_S[:, k:k + per], Q[:, k:k + per] = (f.T for f in forms[:3])
    N = neg_S / normF2

    C0, h2 = params.C0, params.h ** 2
    ups = params.T - times + params.h
    dN = (N[:, 2:] - N[:, :-2]) / (times[2:] - times[:-2])
    # max(0.0, c) in scalars, which reads a NaN fit as 0
    C, C_form = (np.array([max(0.0, c) for c in fit]) for fit in (
        np.max(h2 * (dN - (1.0 + C0) / ups[1:-1] * N[:, 1:-1]), axis=1, initial=-np.inf),
        np.max(h2 * (Q - (1.0 + C0) / ups * neg_S) / normF2, axis=1)))
    return FrequencyTrace(params=params, t=times, normF2=normF2, N=N, Q=Q, neg_S=neg_S,
                          C=C, C_form=C_form, final=Xs[-1])


def run_trace(ops, params, u0, sched):
    """The FrequencyTrace of one state (n,): run_traces of u0[:, None]."""
    return run_traces(ops, params, u0[:, None], sched)


def count_bound_violations(trace, C):
    """(member, sample) pairs of a FrequencyTrace where Q exceeds the drift
    bound with the constant C, in one comparison of its (m, s) arrays: the
    sum of the one-member counts."""
    rhs = _drift_bound(trace.params, trace.t, trace.neg_S, trace.normF2, C)
    scale = np.maximum(1.0, np.maximum(np.abs(trace.Q), np.abs(rhs)))
    return int(np.count_nonzero(trace.Q > rhs + SLACK * scale))


# ---------------------------------------------------------------------------
# commutator identity refinement study
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CommutatorReport:
    """Residuals of the weighted commutator identity across refinements."""

    resolutions: tuple
    spacings: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    rel_residual: np.ndarray
    orders: np.ndarray


def _require_constant_boundary_weight(domain):
    if domain.kind == "disk":
        off = np.hypot(domain.x0[0] - domain.center[0], domain.x0[1] - domain.center[1])
        if off > 1e-12 * domain.radius:
            raise ConfigurationError(
                "the boundary identity check needs the weight constant on the "
                "boundary; move the anchor to the disk center (offset "
                f"{off:.3g})")


class InteriorBump:
    """Smooth compactly supported test family for identity checks.

    value(x) = exp(-1 / (1 - |x - center|^2 / width^2)) inside the ball of
    the given width, zero outside; infinitely differentiable, so interior
    quadrature errors converge at second order.
    """

    def __init__(self, center, width):
        self.center = np.atleast_1d(np.asarray(center, dtype=float))
        self.width = float(width)
        if self.width <= 0.0:
            raise ConfigurationError(f"bump width must be positive, got {width}")

    def _squared_radius(self, pts):
        d = pts - self.center[None, :]
        return np.sum(d * d, axis=1) / self.width ** 2, d

    def value(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        t, _ = self._squared_radius(pts)
        out = np.zeros(pts.shape[0])
        inside = t < 1.0
        out[inside] = np.exp(-1.0 / (1.0 - t[inside]))
        return out

    def gradient(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        t, d = self._squared_radius(pts)
        out = np.zeros_like(pts)
        inside = t < 1.0
        ti = t[inside]
        f = np.exp(-1.0 / (1.0 - ti))
        scale = -f / (1.0 - ti) ** 2 * (2.0 / self.width ** 2)
        out[inside] = scale[:, None] * d[inside]
        return out


def commutator_rhs(ops, params, t, family):
    """Grid quadrature of the closed-form right side of the identity.

    Needs the weight constant along the boundary (interval, or disk with a
    centered anchor), which kills every term driven by tangential
    derivatives of phi.
    """
    grid = ops.grid
    _require_constant_boundary_weight(grid.domain)
    s = params.s
    ups = params.T - t + params.h

    pts = grid.points
    bundle = geometry.weight_phi_bundle(grid.domain, pts)
    f = np.asarray(family.value(pts), dtype=float)
    gf = np.asarray(family.gradient(pts), dtype=float)
    grad_phi_sq = np.sum(bundle.grad * bundle.grad, axis=1)

    wb = grid.w_bulk
    bulk = (
        -(s / ups ** 3) * np.dot(wb, (bundle.phi + 0.5 * s * grad_phi_sq) * f * f)
        + (s / ups) * np.dot(wb, np.sum(gf * gf, axis=1))
        - (s ** 2 * (2.0 - s) / (4.0 * ups ** 3)) * np.dot(wb, grad_phi_sq * f * f)
    )

    bidx = grid.boundary_idx
    wt = grid.w_trace[bidx]
    nrm = grid.normals
    phi_b = bundle.phi[bidx]
    dn_phi = np.sum(bundle.grad[bidx] * nrm, axis=1)
    f_b = f[bidx]
    dn_f = np.sum(gf[bidx] * nrm, axis=1)
    lap_phi = bundle.laplacian

    # with phi constant on the boundary, its tangential gradient, tangential
    # Hessian and Laplace-Beltrami terms drop; the surviving boundary family
    # is below
    boundary = (
        (s / ups) * np.dot(wt, dn_phi * dn_f * dn_f)
        - (s / ups ** 3) * np.dot(wt, phi_b * f_b * f_b)
        + (s / ups) * np.dot(wt, (lap_phi + dn_phi) * dn_f * f_b)
        + (s ** 3 / (4.0 * ups ** 3)) * np.dot(wt, dn_phi ** 3 * f_b * f_b)
    )
    return bulk + boundary


def commutator_identity_check(domain, params, t, family, resolutions):
    """Refinement study of LHS = Q(F) against the closed-form right side.

    resolutions: list of build_grid keyword dicts, e.g. {"n": 64} on the
    interval or {"nr": 8, "ntheta": 24} on the disk.  The family is sampled
    on each grid; zero families yield zero residuals.
    """
    _require_constant_boundary_weight(domain)
    if len(resolutions) < 1:
        raise ConfigurationError("need at least one resolution")
    lhs_list, rhs_list, spacing = [], [], []
    for res in resolutions:
        grid = build_grid(domain, **res)
        spacing.append(grid.spacing[0])
        ops = assemble_operator(grid)
        F = np.asarray(family.value(grid.points), dtype=float)
        lhs_list.append(commutator_form(ops, params, t, F))
        rhs_list.append(commutator_rhs(ops, params, t, family))

    lhs = np.array(lhs_list)
    rhs = np.array(rhs_list)
    rel = np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-300)
    spacing = np.array(spacing)
    with np.errstate(divide="ignore", invalid="ignore"):
        orders = np.log(rel[:-1] / rel[1:]) / np.log(spacing[:-1] / spacing[1:])
    return CommutatorReport(resolutions=tuple(resolutions), spacings=spacing,
                            lhs=lhs, rhs=rhs, rel_residual=rel, orders=orders)


# ---------------------------------------------------------------------------
# three-point interpolation inequality
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InterpolationRecord:
    """Per-triple arrays of one interpolation_check, shaped like the
    triples without their last axis; times adds that axis, (t1, t2, t3)."""

    times: np.ndarray
    M: np.ndarray
    D: np.ndarray
    lhs_log: np.ndarray
    rhs_log: np.ndarray
    passed: np.ndarray


def _weight_antiderivative(params, t):
    """(T - t + h)^{-C0} / C0 at a scalar t: an antiderivative of the
    weight (T - t + h)^{-(1+C0)}."""
    return (params.T - t + params.h) ** (-params.C0) / params.C0


def interpolation_check(times, normF2, params, C, triples):
    """Check (||F(t2)||^2)^{1+M} <= (||F(t1)||^2)^M ||F(t3)||^2 e^D
    on index triples (i1, i2, i3) of traces, with D = 2 (1+M) (t3-t1)^2 C / h^2.

    normF2 is one trace (s,) over times with triples (k, 3), or one member
    per row (m, s), as FrequencyTrace.normF2, with triples (m, k, 3), row
    j's on member j.  Comparison happens in log space with the relative
    SLACK.  Returns one InterpolationRecord of arrays.
    """
    times = np.asarray(times, dtype=float)
    normF2 = np.asarray(normF2, dtype=float)
    triples = np.asarray(triples)
    if np.any(normF2 <= 0.0):
        raise DegenerateDataError("interpolation needs strictly positive ||F||^2")
    i1, i2, i3 = np.moveaxis(triples, -1, 0)
    bad = ~((0 <= i1) & (i1 < i2) & (i2 <= i3) & (i3 < times.size))
    if np.any(bad):
        raise UsageError(f"triple {tuple(triples[bad][0].tolist())} must satisfy "
                         "i1 < i2 <= i3 in range")
    t1, t2, t3 = times[i1], times[i2], times[i3]
    # one scalar power per sample time: numpy's array power may round
    # differently
    anti = np.array([_weight_antiderivative(params, t) for t in times])
    denom = anti[i2] - anti[i1]
    if np.any(denom <= 0.0):
        raise UsageError("need t1 < t2 in every triple")
    M = (anti[i3] - anti[i2]) / denom
    D = 2.0 * (1.0 + M) * (t3 - t1) ** 2 * C / params.h ** 2
    log_n = np.log(np.atleast_2d(normF2))
    rows = np.arange(log_n.shape[0]).reshape((-1,) + (1,) * (triples.ndim - 2))
    lhs = (1.0 + M) * log_n[rows, i2]
    rhs = M * log_n[rows, i1] + log_n[rows, i3] + D
    tol = SLACK * np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    return InterpolationRecord(times=np.stack([t1, t2, t3], axis=-1), M=M, D=D,
                               lhs_log=lhs, rhs_log=rhs, passed=lhs <= rhs + tol)


# ---------------------------------------------------------------------------
# telescoping constants and sign condition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StepConstants:
    ell: float
    M_ell: float
    D_ell: float
    sign_lhs: float
    sign_ok: bool


def step_constants(domain, params, C, ell):
    """Telescoping constants M_ell, D_ell for chain length ell > 1.

    M_ell = ((ell+1)^C0 - 1) / (1 - ((ell+1)/(2 ell+1))^C0),
    D_ell = 2 C ell^2 (1 + M_ell),
    together with the geometric sign condition
    -(1 + M_ell)/(1 + ell) min phi + max_{outside omega} phi < 0.
    """
    if ell <= 1.0:
        raise ParameterError(f"chain length ell must exceed 1, got {ell}")
    C0 = params.C0
    M_ell = ((ell + 1.0) ** C0 - 1.0) / (1.0 - ((ell + 1.0) / (2.0 * ell + 1.0)) ** C0)
    D_ell = 2.0 * C * ell ** 2 * (1.0 + M_ell)
    phi_min, phi_max_out = geometry.phi_extremes(domain)
    sign_lhs = -(1.0 + M_ell) / (1.0 + ell) * phi_min + phi_max_out
    return StepConstants(ell=float(ell), M_ell=float(M_ell), D_ell=float(D_ell),
                         sign_lhs=float(sign_lhs), sign_ok=bool(sign_lhs < 0.0))


# ---------------------------------------------------------------------------
# empirical observability fit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ObservabilityFit:
    """Fitted final-state observability estimate and derived constants.

    The estimate reads ||U(T)|| <= (mu e^{K/T} ||u(T)||_omega)^beta
    ||U(0)||^{1-beta}.  The prefactor decomposition splits the fitted
    product G = mu e^{K/T} evenly in log scale, and the penalization
    constants follow the explicit formulas M1 = K1^{1/beta}
    (1-beta)^{(1-beta)/(2 beta)} beta^{1/2}, M2 = K2/beta,
    delta = (1-beta)/beta with K1 = mu^beta, K2 = beta K.
    """

    beta: float
    log_G: float
    mu: float
    K: float
    K1: float
    K2: float
    M1: float
    M2: float
    delta: float
    n_members: int

    def kappa0(self, horizon, eps):
        """Penalization seed M1 e^{M2/horizon} / eps^delta; NumericalError
        when it leaves the positive float range."""
        if horizon <= 0.0 or eps <= 0.0:
            raise UsageError(f"need positive horizon and eps, got {horizon}, {eps}")
        try:
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                seed = self.M1 * np.exp(self.M2 / horizon) / eps ** self.delta
        except OverflowError:  # eps ** delta above the float range
            seed = 0.0
        if not (np.isfinite(seed) and seed > 0.0):
            raise NumericalError(
                f"kappa seed M1 e^(M2/horizon) / eps^delta leaves the float range: "
                f"beta={self.beta!r}, delta={self.delta!r}, M1={self.M1!r}, "
                f"M2={self.M2!r}, eps={eps!r}, horizon={horizon!r}")
        return seed


def derive_penalization_constants(beta, K1, K2):
    """(M1, M2, delta) from the interpolation step of the duality argument."""
    if not (0.0 < beta < 1.0):
        raise UsageError(f"beta must lie in (0, 1), got {beta}")
    M1 = K1 ** (1.0 / beta) * (1.0 - beta) ** ((1.0 - beta) / (2.0 * beta)) * np.sqrt(beta)
    M2 = K2 / beta
    delta = (1.0 - beta) / beta
    return float(M1), float(M2), float(delta)


def ensemble_observation_data(ops, block, final):
    """Per-member (final norm, omega observation, initial norm) triples of
    the (n, m) block of states and final, the (n, m) block of the members
    at T (FrequencyTrace.final, or Propagator.flow over the schedule)."""
    c = ops.norm(block)
    if np.any(c == 0.0):
        raise DegenerateDataError("observability ensemble contains a zero state")
    return ops.norm(final), ops.norm_omega(ops.restrict_omega(final)), c


def fit_observability_constants(ops, sched, block, final):
    """Fit beta in (0, 1) and the smallest prefactor from an ensemble of
    runs, one per column of the (n, m) block of states.

    Least squares in log scale on log(a/c) = beta log(b/c) + beta log G,
    followed by a shift of log G so the inequality holds with equality for
    at least one member.  Degenerate ensembles (identical observations) and
    slopes outside (0, 1) raise FitFailureError.  final as in
    ensemble_observation_data; sched gives the horizon T.
    """
    m = block.shape[1]
    if m < 2:
        raise ConfigurationError(f"observability fit needs >= 2 members, got {m}")
    a, b, c = ensemble_observation_data(ops, block, final)
    if np.any(a <= 0.0) or np.any(b <= 0.0):
        raise DegenerateDataError("observability fit needs nonvanishing final states "
                                  "and observations")
    y = np.log(a) - np.log(c)
    x = np.log(b) - np.log(c)
    if float(np.std(x)) < 1e-12:
        raise FitFailureError("degenerate ensemble: identical observation ratios",
                              diagnostics={"x": x.tolist(), "y": y.tolist()})
    beta, intercept = np.polyfit(x, y, 1)
    beta = float(beta)
    if not (0.0 < beta < 1.0):
        raise FitFailureError(
            f"fitted exponent beta={beta:.6g} left (0, 1); the ensemble does not "
            "separate observation from dissipation",
            diagnostics={"beta": beta, "intercept": float(intercept)})
    log_G = float(np.max((y - beta * x) / beta))

    T = sched.t1 - sched.t0
    if log_G > 0.0:
        mu = float(np.exp(0.5 * log_G))
        K = float(0.5 * T * log_G)
    else:
        mu = float(np.exp(log_G))
        K = 0.0
    K1 = mu ** beta
    K2 = beta * K
    M1, M2, delta = derive_penalization_constants(beta, K1, K2)
    return ObservabilityFit(beta=beta, log_G=log_G, mu=mu, K=K, K1=K1, K2=K2,
                            M1=M1, M2=M2, delta=delta, n_members=m)


def count_observability_violations(fit, ops, block, final):
    """Members (columns of block, at T the columns of final) violating the
    fitted estimate beyond the relative OBSERVABILITY_SLACK."""
    a, b, c = ensemble_observation_data(ops, block, final)
    lhs = np.log(a)
    rhs = fit.beta * (fit.log_G + np.log(b)) + (1.0 - fit.beta) * np.log(c)
    tol = OBSERVABILITY_SLACK * np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    return int(np.sum(lhs > rhs + tol))


def diverse_ensemble(ops, count, seed, sched):
    """Seeded ensemble of unit states with varied spectral and spatial
    content, as one Fortran-order (n, count) block.

    Cycles through raw noise, mean-free noise, smoothed noise (a few steps
    of the flow over sched; mode 3 mean-free), and noise concentrated away
    from omega with a fifth of the raw noise on top.  The mix spreads the observation-to-norm ratios, which an
    informative observability fit needs; identical-member ensembles are
    degenerate by design.
    """
    rng = np.random.default_rng(seed)
    grid = ops.grid
    n = grid.n_dofs
    smoothing = {2: 2, 3: 4}   # mode -> flow steps
    ones = np.ones(n)
    ones_nrm2 = ops.inner(ones, ones)
    off_omega = np.setdiff1d(np.arange(n), grid.omega_idx)

    block = np.empty((n, count), order="F")
    for k in range(count):
        u = rng.standard_normal(n)
        mode = k % 5
        if mode in (1, 3):
            u -= ops.inner(u, ones) / ones_nrm2 * ones
        elif mode == 4:
            v = np.zeros(n)
            v[off_omega] = rng.standard_normal(off_omega.size)
            u = v + 0.2 * u
        block[:, k] = u

    prop = Propagator(ops, sched.dt, sched.scheme)
    for mode, steps in smoothing.items():
        if mode < count:
            block[:, mode::5] = prop.flow(block[:, mode::5], steps)
    block /= ops.norm(block)
    return block
