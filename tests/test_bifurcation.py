"""Stationary states, stability, critical couplings, branch tracing.

The brute-force root oracle here shares no code with the package's
finder: plain pow arithmetic on a dense grid plus bisection. The
stability oracle is the central finite-difference Jacobian of
vector_field that the closed-form jacobian_at replaced. The
all-bisection fold and root kernels that safeguarded Newton replaced,
and the json.dumps diagram writer, are oracles in kernel_oracles. The
per-point _make_fixed_point is the bit-exact oracle for the spectra
trace_branches computes over columns.
"""

import math
import random
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dimer_hysteresis import (DomainError, EtaSchedule, IntegratorConfig,
                              ModelParams, NoConvergenceError, PhaseState,
                              R_THRESHOLD, SingularityError,
                              ThresholdProximityError, bifurcation,
                              asymmetric_states_below_star,
                              classify_pitchfork, classify_stability,
                              diagram_to_csv, find_eta_plus, find_eta_star,
                              find_fixed_points, find_r_threshold,
                              grad_hamiltonian, integrate, jacobian_at,
                              pitchfork_cubic_coefficient, predict_window,
                              stationary_residual, sweep_report,
                              trace_branches, vector_field)
from dimer_hysteresis.bifurcation import (BifurcationDiagram, Branch,
                                          eigenvalues_2x2)
from dimer_hysteresis.model import EPS_CLAMP, power_difference
from dimer_hysteresis.serialize import BRANCH_HEADER, diagram_to_json
import kernel_oracles
from kernel_oracles import (branches_by_points, diagram_json_by_dumps,
                            eta_star_numeric, fold_by_bisection,
                            graph_roots_by_bisection)


def oracle_roots(eta, r, theta_star, grid=100_001):
    """Positive stationary roots by dense scan + bisection, no shared code."""
    ct = math.cos(theta_star)

    def g(z):
        return (-2.0 * z * ct / math.sqrt(1.0 - z * z)
                - eta / 2.0 ** r * ((1.0 + z) ** r - (1.0 - z) ** r))

    zs = np.linspace(1e-9, 1.0 - 1e-9, grid)
    vals = (-2.0 * zs * ct / np.sqrt(1.0 - zs * zs)
            - eta / 2.0 ** r * ((1.0 + zs) ** r - (1.0 - zs) ** r))
    roots = []
    sign = np.sign(vals)
    for i in np.nonzero(sign[:-1] * sign[1:] < 0)[0]:
        lo, hi = float(zs[i]), float(zs[i + 1])
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if g(lo) * g(mid) <= 0:
                hi = mid
            else:
                lo = mid
        roots.append(0.5 * (lo + hi))
    for i in np.nonzero(vals == 0.0)[0]:
        roots.append(float(zs[i]))
    roots.sort()
    deduped = []
    for z in roots:
        if not deduped or z - deduped[-1] > 1e-8:
            deduped.append(z)
    return deduped


def fold_oracle(r, points=100_001):
    """Fold coupling: the minimum of xi in plain powers on a dense z grid,
    scanned again between the neighbours of the coarse minimum."""
    def xi(z):
        return 2.0 ** (r + 1) * z / (np.sqrt(1.0 - z * z)
                                     * ((1.0 + z) ** r - (1.0 - z) ** r))

    z = np.linspace(1e-9, 1.0 - 1e-9, points)
    i = int(np.argmin(xi(z)))
    z = np.linspace(z[max(i - 1, 0)], z[min(i + 1, points - 1)], points)
    return float(xi(z).min())


def hexes(eigenvalues):
    """Both eigenvalues as exact bits, signed zeros included."""
    assert type(eigenvalues) is tuple and len(eigenvalues) == 2
    assert all(type(v) is complex for v in eigenvalues)
    return [(v.real.hex(), v.imag.hex()) for v in eigenvalues]


def point_bits(p):
    return (p.z_star.hex(), p.theta_star, p.eta.hex(), p.stability,
            hexes(p.eigenvalues), p.kind)


def scalar_fixed_points(z, etas, r):
    """The former per-point loop of trace_branches on the sheet
    theta* = 0, as _fixed_points' (stability, eigenvalues) columns:
    _fixed_points' oracle."""
    points = [bifurcation._make_fixed_point(zz, 0.0, eta, r)
              for zz, eta in zip(z.tolist(), etas.tolist())]
    return (tuple(p.stability for p in points),
            tuple(p.eigenvalues for p in points))


def diagram_outcome(r, eta_range, steps):
    """trace_branches' branches as exact bits, or its error's type and
    message."""
    try:
        d = trace_branches(r, eta_range, steps)
    except (ValueError, RuntimeError) as e:
        return type(e), str(e)
    return (d.eta_star, d.eta_plus, d.classification,
            [(b.branch_id, b.kind, b.theta_star,
              list(map(point_bits, b.points))) for b in d.branches])


def assert_scalar_spectra(diagram):
    """Every point of the diagram is the one the scalar path builds:
    _make_fixed_point's eigenvalues, bit for bit, and stability."""
    for b in diagram.branches:
        for p in b.points:
            want = bifurcation._make_fixed_point(p.z_star, p.theta_star,
                                                 p.eta, diagram.r)
            assert point_bits(p) == point_bits(want), p


def diagram_csv_by_rows(diagram):
    """The former row-by-row writer: the oracle for diagram_to_csv."""
    lines = [BRANCH_HEADER]
    for branch in diagram.branches:
        for p in branch.points:
            lines.append(",".join((
                str(branch.branch_id), branch.kind,
                "%.15g" % branch.theta_star, "%.15g" % p.eta,
                "%.15g" % p.z_star, p.stability)))
    return "\n".join(lines) + "\n"


def fd_jacobian(state, eta, params, h=1e-6):
    """Central finite differences of vector_field, step h."""
    z, theta = state.z, state.theta

    def f(zz, tt):
        return vector_field(PhaseState(z=zz, theta=tt), eta, params)

    fz_p, fz_m = f(z + h, theta), f(z - h, theta)
    ft_p, ft_m = f(z, theta + h), f(z, theta - h)
    return (((fz_p[0] - fz_m[0]) / (2.0 * h), (ft_p[0] - ft_m[0]) / (2.0 * h)),
            ((fz_p[1] - fz_m[1]) / (2.0 * h), (ft_p[1] - ft_m[1]) / (2.0 * h)))


class TestResidual:
    def test_symmetric_point_always_stationary(self):
        for eta in (0.0, -3.0, 5.0):
            for r in (1.0, 2.5, 5.0):
                assert stationary_residual(0.0, 0.0, eta, r) == 0.0

    def test_hand_value(self):
        assert stationary_residual(0.5, 0.0, 0.0, 1.0) == pytest.approx(
            -2.0 * 0.5 / math.sqrt(0.75), rel=1e-15)

    def test_root_exists_past_critical_coupling(self):
        roots = oracle_roots(-3.0, 1.0, 0.0)
        assert len(roots) == 1
        # closed form for r=1: z* = sqrt(1 - 4 / eta^2)
        assert roots[0] == pytest.approx(math.sqrt(5.0) / 3.0, abs=1e-9)
        assert abs(stationary_residual(roots[0], 0.0, -3.0, 1.0)) < 1e-8

    @pytest.mark.parametrize("sign", (1.0, -1.0))
    def test_one_boundary_rule_for_every_derivative(self, sign):
        params = ModelParams(r=5.0)
        evaluations = (
            lambda z: grad_hamiltonian(PhaseState(z=z), -1.0, 5.0),
            lambda z: stationary_residual(z, 0.0, -1.0, 5.0),
            lambda z: stationary_residual(np.array([0.5, z]), 0.0,
                                          np.array([-1.0, -1.0]), 5.0),
            lambda z: jacobian_at(PhaseState(z=z), -1.0, params),
            lambda z: vector_field(PhaseState(z=z), -1.0, params),
        )
        for evaluate in evaluations:
            with pytest.raises(SingularityError):
                evaluate(sign * (1.0 - EPS_CLAMP))
            assert np.all(np.isfinite(evaluate(sign * (1.0 - 2e-9))))


class TestFindFixedPoints:
    def test_below_critical_only_symmetric(self):
        pts = find_fixed_points(-1.0, 1.0)
        assert sorted(p.theta_star for p in pts) == [0.0, math.pi]
        assert all(p.z_star == 0.0 and p.kind == "symmetric" for p in pts)

    def test_supercritical_pair(self):
        pts = [p for p in find_fixed_points(-3.0, 1.0) if p.theta_star == 0.0]
        sym = [p for p in pts if p.kind == "symmetric"]
        asym = sorted((p for p in pts if p.kind == "asymmetric"),
                      key=lambda p: p.z_star)
        assert len(sym) == 1 and sym[0].stability == "unstable"
        assert [p.stability for p in asym] == ["stable", "stable"]
        assert asym[1].z_star == pytest.approx(math.sqrt(5.0) / 3.0, abs=1e-10)
        assert asym[0].z_star == -asym[1].z_star

    def test_subcritical_double_pair(self):
        pts = [p for p in find_fixed_points(-5.0, 5.0) if p.theta_star == 0.0]
        sym = [p for p in pts if p.kind == "symmetric"]
        asym = sorted((p for p in pts if p.kind == "asymmetric"),
                      key=lambda p: abs(p.z_star))
        assert len(sym) == 1 and sym[0].stability == "stable"
        assert len(asym) == 4
        inner = [p.stability for p in asym[:2]]
        outer = [p.stability for p in asym[2:]]
        assert inner == ["unstable", "unstable"]
        assert outer == ["stable", "stable"]

    def test_residuals_below_tolerance(self):
        for p in find_fixed_points(-5.0, 5.0):
            assert abs(stationary_residual(
                p.z_star, p.theta_star, p.eta, 5.0)) < 1e-10

    @given(eta=st.floats(-8.0, -0.5), r=st.floats(0.5, 6.0))
    @settings(max_examples=25, deadline=None)
    def test_mirror_symmetry_with_shared_spectrum(self, eta, r):
        pts = find_fixed_points(eta, r)
        by_key = {(p.theta_star, p.z_star): p for p in pts}
        for p in pts:
            if p.kind != "asymmetric":
                continue
            mirror = by_key.get((p.theta_star, -p.z_star))
            assert mirror is not None
            assert mirror.stability == p.stability
            assert mirror.eigenvalues == p.eigenvalues

    def test_mirror_spectrum_agrees_when_recomputed(self):
        pts = [p for p in find_fixed_points(-5.0, 5.0)
               if p.kind == "asymmetric" and p.z_star < 0]
        assert pts
        for p in pts:
            jac = jacobian_at(PhaseState(z=p.z_star, theta=p.theta_star),
                              p.eta, ModelParams(r=5.0, nu=0.0))
            fresh = eigenvalues_2x2(jac)
            for a, b in zip(sorted(fresh, key=lambda c: (c.real, c.imag)),
                            sorted(p.eigenvalues,
                                   key=lambda c: (c.real, c.imag))):
                assert abs(a - b) < 1e-12

    @pytest.mark.parametrize("eta", (math.nan, math.inf, -math.inf))
    def test_rejects_non_finite_coupling(self, eta):
        with pytest.raises(DomainError):
            find_fixed_points(eta, 1.0)

    def test_root_next_to_the_boundary(self):
        # z* = sqrt(1 - 4 / eta^2) = 0.9999995: inside |z| < 1 - EPS_CLAMP,
        # but too close to it for a finite-difference Jacobian
        asym = [p for p in find_fixed_points(-2000.0, 1.0)
                if p.kind == "asymmetric"]
        assert len(asym) == 2
        for p in asym:
            assert abs(p.z_star) == pytest.approx(
                math.sqrt(1.0 - 4.0 / 2000.0 ** 2), abs=1e-12)
            assert p.stability == "stable"
        d = trace_branches(1.0, (1.0, 3000.0), 50)
        assert max(abs(p.z_star) for b in d.branches for p in b.points) > 0.9999995

    def test_oracle_equivalence_spot_draws(self):
        rng = random.Random(1207)
        for _ in range(8):
            eta = rng.uniform(-8.0, -0.5)
            r = rng.uniform(0.5, 6.0)
            for theta_star in (0.0, math.pi):
                expected = oracle_roots(eta, r, theta_star)
                got = sorted(p.z_star for p in find_fixed_points(eta, r)
                             if p.theta_star == theta_star and p.z_star > 0)
                assert len(got) == len(expected), (eta, r, theta_star)
                for a, b in zip(got, expected):
                    assert a == pytest.approx(b, abs=1e-6)


class TestStability:
    def test_center_counts_as_stable(self):
        # eigenvalues +-2i
        assert classify_stability(((0.0, 2.0), (-2.0, 0.0))) == "stable"

    def test_fast_center_counts_as_stable(self):
        # eigenvalues +-2e8 i: the real parts are exactly 0, not a
        # rounding residue of the square root above EPS_EIG
        jac = ((0.0, 2.0), (-2e16, 0.0))
        assert hexes(eigenvalues_2x2(jac)) == hexes(
            (complex(0.0, 2e8), complex(0.0, -2e8)))
        assert classify_stability(jac) == "stable"

    def test_symmetric_center_at_a_large_coupling_is_stable(self):
        # at theta* = pi the symmetric point is a center with eigenvalues
        # about +-1.4e10 i
        (p,) = [p for p in find_fixed_points(-1e20, 1.0)
                if p.theta_star == math.pi]
        assert p.z_star == 0.0 and p.stability == "stable"
        assert [v.real.hex() for v in p.eigenvalues] == [(0.0).hex()] * 2
        assert p.eigenvalues[0].imag > 1e10

    def test_saddle_is_unstable(self):
        # eigenvalues +-2
        assert classify_stability(((0.0, 2.0), (2.0, 0.0))) == "unstable"

    def test_double_zero_is_marginal(self):
        assert classify_stability(((0.0, 0.0), (0.0, 0.0))) == "marginal"

    def test_damped_node_is_stable(self):
        assert classify_stability(((-1.0, 0.0), (0.0, -2.0))) == "stable"

    def test_jacobian_at_symmetric_point(self):
        jac = jacobian_at(PhaseState(z=0.0, theta=0.0), 0.0,
                          ModelParams(r=1.0, nu=0.0))
        assert jac[0][0] == pytest.approx(0.0, abs=1e-9)
        assert jac[0][1] == pytest.approx(2.0, rel=1e-6)
        assert jac[1][0] == pytest.approx(-2.0, rel=1e-6)
        assert jac[1][1] == pytest.approx(0.0, abs=1e-9)

    def test_field_vanishes_at_found_points(self):
        for p in find_fixed_points(-3.0, 1.0):
            f = vector_field(PhaseState(z=p.z_star, theta=p.theta_star),
                             p.eta, ModelParams(r=1.0, nu=0.0))
            assert math.hypot(*f) < 1e-9

    @pytest.mark.parametrize("jac", [
        ((0.0, 2.0), (-1.5e308, 0.0)),           # center
        ((0.0, 2.0), (1.7e308, 0.0)),            # saddle
        ((1e308, 1e308), (-1e308, 1.7e308)),     # spiral, trace overflows
        ((-1.7e308, 1e-300), (3.0, 1.7e308)),    # det overflows
    ])
    def test_eigenvalues_when_the_discriminant_overflows(self, jac):
        lam = eigenvalues_2x2(jac)
        want = np.linalg.eigvals(np.array(jac) / 2.0 ** 1000) * 2.0 ** 1000
        key = (lambda c: (c.imag, c.real))
        for a, b in zip(sorted(lam, key=key), sorted(want, key=key)):
            assert abs(a - b) <= 1e-15 * max(abs(b), abs(lam[0]))

    @pytest.mark.parametrize("jac", [
        ((-math.inf, math.inf), (1.0, 1.0)),     # raised OverflowError
        ((math.nan, 0.0894), (math.inf, 0.0)),
        ((1.0, 2.0), (3.0, -math.inf)),
        ((math.nan, 0.0), (0.0, 1.0)),
    ])
    def test_eigenvalues_of_a_non_finite_matrix_are_nan(self, jac):
        lam = eigenvalues_2x2(jac)
        assert len(lam) == 2
        assert all(math.isnan(v.real) and math.isnan(v.imag) for v in lam)
        assert classify_stability(jac) == "marginal"

    @pytest.mark.parametrize("eta", [math.nan, math.inf, -math.inf])
    def test_jacobian_refuses_a_non_finite_coupling(self, eta):
        with pytest.raises(DomainError,
                           match=f"eta must be finite, got {eta}$"):
            jacobian_at(PhaseState(z=0.5), eta, ModelParams(r=2.0))

    def test_jacobian_refuses_an_overflowing_entry(self):
        # eta r 2^-r (1-z)^(r-1) exceeds the float range for r < 1
        with pytest.raises(DomainError, match="Jacobian overflows"):
            jacobian_at(PhaseState(z=0.999), -1e308, ModelParams(r=0.5))
        jac = jacobian_at(PhaseState(z=0.999), -1e300, ModelParams(r=0.5))
        assert all(map(math.isfinite, (*jac[0], *jac[1])))

    def test_jacobian_keeps_finite_entries_whose_sum_overflows(
            self, monkeypatch):
        huge = ((1.7e308, 1.7e308), (0.0, -0.0))
        monkeypatch.setattr(bifurcation, "_jacobian", lambda *args: huge)
        assert jacobian_at(PhaseState(z=0.5), -1.0, ModelParams(r=1.0)) \
            == huge

    @given(a=st.floats(-1e3, 1e3), b=st.floats(-1e3, 1e3),
           c=st.floats(-1e3, 1e3), d=st.floats(-1e3, 1e3))
    @example(a=0.0, b=2.0, c=-1.0, d=0.0)
    @example(a=-0.0, b=1.0, c=-1.0, d=-0.0)
    @settings(max_examples=50, deadline=None)
    def test_eigenvalues_are_the_real_closed_form(self, a, b, c, d):
        # a center's real parts are exactly tr / 2, signed zeros included
        tr = a + d
        disc = tr * tr - 4.0 * (a * d - b * c)
        root = math.sqrt(abs(disc))
        want = ((complex(tr / 2.0, root / 2.0),
                 complex(tr / 2.0, -root / 2.0)) if disc < 0.0 else
                (complex((tr + root) / 2.0, 0.0),
                 complex((tr - root) / 2.0, 0.0)))
        assert hexes(eigenvalues_2x2(((a, b), (c, d)))) == hexes(want)

    def test_pitchfork_point_is_degenerate(self):
        # at eta = -eta_star the closed form's H_zz is exactly 0
        jac = jacobian_at(PhaseState(z=0.0, theta=0.0), -2.0,
                          ModelParams(r=1.0, nu=0.0))
        assert eigenvalues_2x2(jac) == (0.0, 0.0)
        assert classify_stability(jac) == "marginal"

    def test_diagram_spectra_are_the_scalar_path(self):
        # the pitchfork coupling 2 at r = 1 has a discriminant of exactly
        # 0, so a "marginal" point with eigenvalues (0j, 0j)
        diagram = trace_branches(1.0, (1.0, 3.0), 3)
        assert_scalar_spectra(diagram)
        pitchfork = [p for b in diagram.branches for p in b.points
                     if p.stability == "marginal"]
        assert [hexes(p.eigenvalues) for p in pitchfork] == \
            [hexes((0j, 0j))]
        for r in sorted(GOLDEN_ATLAS):
            assert_scalar_spectra(atlas_diagram(r, 400))

    @given(r=st.one_of(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0, 1013.0]),
                       st.floats(0.3, 1013.0)),
           top=st.floats(0.0, 308.2), share=st.floats(0.0, 0.999),
           steps=st.integers(2, 40))
    @example(r=0.5, top=308.2, share=0.06, steps=40)  # rescaled
    @example(r=3.0, top=308.2, share=0.0, steps=40)  # refused
    @settings(max_examples=80, deadline=None)
    def test_diagram_spectra_are_the_scalar_path_up_to_the_float_range(
            self, r, top, share, steps):
        # above about 1e300 the discriminant overflows, and
        # eigenvalues_2x2 rescales the matrix; further up jacobian_at
        # refuses an overflowing entry, at the same first point
        assume(abs(r - R_THRESHOLD) > 1e-5)
        hi = 10.0 ** top
        got = diagram_outcome(r, (share * hi, hi), steps)
        with mock.patch.object(bifurcation, "_fixed_points",
                               scalar_fixed_points):
            assert got == diagram_outcome(r, (share * hi, hi), steps)

    @given(rows=st.lists(st.tuples(st.floats(-1.0, 1.0),
                                   st.floats(-1.7e308, 1.7e308)),
                         min_size=1, max_size=12),
           r=st.one_of(st.sampled_from([0.5, 1.0, 2.0, 5.0, 1013.0]),
                       st.floats(0.3, 1013.0)))
    @settings(max_examples=200, deadline=None)
    def test_column_points_are_make_fixed_point(self, rows, r):
        # any z and eta on the sheet theta* = 0: the same points, or the
        # same error at the same first failing row, and no numpy warning
        z, etas = (np.array(col) for col in zip(*rows))

        def outcome(build):
            try:
                stability, eigenvalues = build(z, etas, r)
            except (DomainError, SingularityError) as e:
                return type(e), str(e)
            return stability, list(map(hexes, eigenvalues))

        want = outcome(scalar_fixed_points)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert outcome(bifurcation._fixed_points) == want

    @given(z=st.floats(-0.99, 0.99), theta=st.floats(-4.0, 4.0),
           eta=st.floats(-10.0, 10.0), r=st.floats(0.3, 8.0),
           nu=st.one_of(st.just(0.0), st.floats(0.0, 2.0)))
    @settings(max_examples=200, deadline=None)
    def test_jacobian_matches_finite_differences(self, z, theta, eta, r, nu):
        state, params = PhaseState(z=z, theta=theta), ModelParams(r=r, nu=nu)
        jac = jacobian_at(state, eta, params)
        oracle = fd_jacobian(state, eta, params)
        for row, fd_row in zip(jac, oracle):
            for entry, fd_entry in zip(row, fd_row):
                assert abs(entry - fd_entry) <= 1e-7 * (1.0 + abs(entry))

    def test_jacobian_refused_only_at_the_clamp(self):
        params = ModelParams(r=1.0)
        jacobian_at(PhaseState(z=1.0 - 2e-9), -1.0, params)
        for z in (1.0 - 1e-9, -1.0):
            with pytest.raises(SingularityError):
                jacobian_at(PhaseState(z=z), -1.0, params)


class TestCriticalCouplings:
    def test_eta_star_closed_form(self):
        expected = {1: 2.0, 2: 2.0, 3: 8.0 / 3.0, 4: 4.0, 5: 6.4}
        for r, val in expected.items():
            assert find_eta_star(float(r)) == val

    @given(r=st.floats(0.5, 8.0))
    @settings(max_examples=20, deadline=None)
    def test_numeric_cross_check(self, r):
        assert find_eta_star(r) == 2.0 ** r / r
        assert abs(eta_star_numeric(r) - find_eta_star(r)) < 1e-6

    def test_eta_plus_reference_values(self):
        assert find_eta_plus(4.0) == pytest.approx(3.67, abs=0.01)
        assert find_eta_plus(5.0) == pytest.approx(4.41, abs=0.01)

    def test_eta_plus_absent_for_supercritical_powers(self):
        for r in (1.0, 2.0, 3.0):
            assert find_eta_plus(r) is None

    @given(r=st.floats(3.35, 8.0))
    @settings(max_examples=15, deadline=None)
    def test_eta_plus_ordering(self, r):
        plus = find_eta_plus(r)
        assert plus is not None
        assert 0.0 < plus < find_eta_star(r)

    def test_eta_plus_beyond_the_overflow_of_expm1(self):
        # from r = 33.14 on, the power difference used to overflow at
        # the top of the fold scan, and the scan found no sign change
        plus = find_eta_plus(34.0)
        assert 0.0 < plus < find_eta_star(34.0)

    def test_eta_plus_marks_root_count_change(self):
        plus = find_eta_plus(5.0)
        before = [p for p in find_fixed_points(-(plus - 0.01), 5.0)
                  if p.theta_star == 0.0]
        after = [p for p in find_fixed_points(-(plus + 0.01), 5.0)
                 if p.theta_star == 0.0]
        assert len(before) == 1
        assert len(after) == 5


class TestPitchforkClass:
    def test_reference_classifications(self):
        for r in (1.0, 2.0, 3.0):
            assert classify_pitchfork(r) == "supercritical"
        for r in (4.0, 5.0, 6.0):
            assert classify_pitchfork(r) == "subcritical"

    def test_flips_across_threshold(self):
        assert classify_pitchfork(R_THRESHOLD - 1e-3) == "supercritical"
        assert classify_pitchfork(R_THRESHOLD + 1e-3) == "subcritical"

    def test_refuses_near_threshold(self):
        with pytest.raises(ThresholdProximityError):
            classify_pitchfork(R_THRESHOLD + 1e-9)

    def test_cubic_coefficient_matches_finite_differences(self):
        # d3G/dz3 at (z=0, eta=-eta_star) should equal -6 kappa
        h = 1e-3
        for r in (1.0, 2.5, 3.5, 4.0, 5.0):
            eta = -find_eta_star(r)

            def g(z):
                return stationary_residual(z, 0.0, eta, r)

            third = (g(2 * h) - 2 * g(h) + 2 * g(-h) - g(-2 * h)) / (2 * h ** 3)
            kappa = pitchfork_cubic_coefficient(r)
            assert third == pytest.approx(-6.0 * kappa, rel=1e-4, abs=1e-6)

    def test_behavioral_probe_agrees_away_from_threshold(self):
        for r in (1.0, 2.0, 2.5, 3.0, 3.2):
            assert asymmetric_states_below_star(r) is False
            assert classify_pitchfork(r) == "supercritical"
        for r in (3.5, 4.0, 5.0, 6.0):
            assert asymmetric_states_below_star(r) is True
            assert classify_pitchfork(r) == "subcritical"

    def test_threshold_recovery(self):
        found = find_r_threshold(3.0, 4.0, 1e-4)
        assert found == pytest.approx(R_THRESHOLD, abs=1e-4)

    def test_threshold_recovery_at_probe_resolution(self):
        # tolerances beyond the classifier's refusal band still terminate
        found = find_r_threshold(3.0, 4.0, 1e-9)
        assert found == pytest.approx(R_THRESHOLD, abs=2e-6)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_threshold_tolerance_must_be_finite_and_positive(self, tol):
        with pytest.raises(DomainError, match="tol"):
            find_r_threshold(3.0, 4.0, tol)

    def test_threshold_requires_straddling_bracket(self):
        with pytest.raises(DomainError):
            find_r_threshold(1.0, 2.0, 1e-4)


class TestTraceBranches:
    def test_supercritical_structure(self):
        d = trace_branches(1.0, (0.5, 4.0), 500)
        assert d.classification == "supercritical"
        assert d.eta_star == 2.0
        assert d.eta_plus is None
        assert len(d.branches) == 3
        sym = [b for b in d.branches if b.kind == "symmetric"]
        asym = [b for b in d.branches if b.kind == "asymmetric"]
        assert len(sym) == 1 and len(asym) == 2
        stabs = [p.stability for p in sym[0].points]
        flips = sum(1 for a, b in zip(stabs, stabs[1:]) if a != b)
        assert flips == 1
        assert stabs[0] == "stable" and stabs[-1] == "unstable"
        born = min(abs(p.eta) for p in asym[0].points)
        assert born == pytest.approx(2.0, abs=0.02)
        assert all(p.stability == "stable"
                   for b in asym for p in b.points)
        # the two asymmetric branches mirror each other
        zs0 = [p.z_star for p in asym[0].points]
        zs1 = [p.z_star for p in asym[1].points]
        assert len(zs0) == len(zs1)
        assert all(a == -b for a, b in zip(zs0, zs1))

    def test_subcritical_structure(self):
        d = trace_branches(5.0, (3.0, 8.0), 500)
        assert d.classification == "subcritical"
        assert d.eta_plus == pytest.approx(4.41, abs=0.01)
        assert len(d.branches) == 5
        sym = next(b for b in d.branches if b.kind == "symmetric")
        for p in sym.points:
            expected = "stable" if abs(p.eta) < 6.4 else "unstable"
            if abs(abs(p.eta) - 6.4) > 0.02:
                assert p.stability == expected
        asym = [b for b in d.branches if b.kind == "asymmetric"]
        born = {min(abs(p.eta) for p in b.points) for b in asym}
        for m in born:
            assert m == pytest.approx(d.eta_plus, abs=0.02)
        unstable = [b for b in asym
                    if all(p.stability == "unstable" for p in b.points)]
        stable = [b for b in asym
                  if all(p.stability == "stable" for p in b.points)]
        assert len(unstable) == 2 and len(stable) == 2
        # the unstable pair terminates at the pitchfork
        for b in unstable:
            assert max(abs(p.eta) for p in b.points) <= 6.4 + 0.02
            last = max(b.points, key=lambda p: abs(p.eta))
            assert abs(last.z_star) < 0.1
        # the stable pair persists to the end of the range
        for b in stable:
            assert max(abs(p.eta) for p in b.points) == pytest.approx(8.0)

    def test_range_below_critical_is_single_branch(self):
        d = trace_branches(2.0, (0.1, 1.0), 100)
        assert len(d.branches) == 1
        only = d.branches[0]
        assert only.kind == "symmetric"
        assert all(p.stability == "stable" for p in only.points)
        assert len(only.points) == 100

    def test_points_ordered_by_magnitude(self):
        d = trace_branches(5.0, (3.0, 8.0), 50)
        for b in d.branches:
            mags = [abs(p.eta) for p in b.points]
            assert mags == sorted(mags)
            assert all(p.eta < 0 for p in b.points)

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            trace_branches(1.0, (2.0, 1.0), 100)
        with pytest.raises(DomainError):
            trace_branches(1.0, (0.5, 4.0), 1)
        for eta_range in ((1.0, math.inf), (math.nan, 3.0), (1.0, math.nan)):
            with pytest.raises(DomainError):
                trace_branches(1.0, eta_range, 10)
        for steps in (2.5, "5", math.nan, 10.0):
            with pytest.raises(DomainError):
                trace_branches(1.0, (1.0, 3.0), steps)


# Recorded from the grid-scan finder with order-preserving stitching
# that the branch graph replaced: atlas span (0.25, 1.4) * eta_star,
# 400 steps. (branch_id, kind, points, first |eta|, last |eta|)
GOLDEN_ATLAS = {
    1.0: [(0, "symmetric", 400, 0.5, 2.8),
          (1, "asymmetric", 139, 2.004511278195489, 2.8),
          (2, "asymmetric", 139, 2.004511278195489, 2.8)],
    2.0: [(0, "symmetric", 400, 0.5, 2.8),
          (1, "asymmetric", 139, 2.004511278195489, 2.8),
          (2, "asymmetric", 139, 2.004511278195489, 2.8)],
    3.0: [(0, "symmetric", 400, 0.6666666666666666, 3.733333333333333),
          (1, "asymmetric", 139, 2.6726817042606514, 3.733333333333333),
          (2, "asymmetric", 139, 2.6726817042606514, 3.733333333333333)],
    4.0: [(0, "symmetric", 400, 1.0, 5.6),
          (1, "asymmetric", 168, 3.6746867167919794, 5.6),
          (2, "asymmetric", 29, 3.6746867167919794, 3.997493734335839),
          (3, "asymmetric", 29, 3.6746867167919794, 3.997493734335839),
          (4, "asymmetric", 168, 3.6746867167919794, 5.6)],
    5.0: [(0, "symmetric", 400, 1.6, 8.959999999999999),
          (1, "asymmetric", 247, 4.422255639097744, 8.959999999999999),
          (2, "asymmetric", 108, 4.422255639097744, 6.3959899749373434),
          (3, "asymmetric", 108, 4.422255639097744, 6.3959899749373434),
          (4, "asymmetric", 247, 4.422255639097744, 8.959999999999999)],
}


def atlas_diagram(r, steps):
    star = find_eta_star(r)
    return trace_branches(r, (0.25 * star, 1.4 * star), steps)


class TestBranchGraph:
    @pytest.mark.parametrize("r", sorted(GOLDEN_ATLAS))
    def test_atlas_matches_stitched_branches(self, r):
        d = atlas_diagram(r, 400)
        got = [(b.branch_id, b.kind, len(b.points), abs(b.points[0].eta),
                abs(b.points[-1].eta)) for b in d.branches]
        assert got == GOLDEN_ATLAS[r]
        assert all(b.theta_star == 0.0 for b in d.branches)

    @pytest.mark.parametrize("r", sorted(GOLDEN_ATLAS))
    def test_diagram_spectra_match_finite_differences(self, r):
        params = ModelParams(r=r, nu=0.0)

        def key(c):
            return (c.real, c.imag)

        for b in atlas_diagram(r, 400).branches:
            for p in b.points:
                jac = fd_jacobian(PhaseState(z=p.z_star, theta=p.theta_star),
                                  p.eta, params)
                assert p.stability == classify_stability(jac)
                for got, want in zip(sorted(p.eigenvalues, key=key),
                                     sorted(eigenvalues_2x2(jac), key=key)):
                    assert abs(got - want) <= 1e-7 * max(1.0, abs(want))

    @pytest.mark.parametrize("r", (0.5, 3.4, 5.0))
    def test_diagram_points_match_dense_oracle(self, r):
        d = atlas_diagram(r, 40)
        by_eta = {}
        for b in d.branches:
            for p in b.points:
                by_eta.setdefault(p.eta, []).append(p.z_star)
        assert len(by_eta) == 40
        for eta, zs in by_eta.items():
            roots = oracle_roots(eta, r, 0.0)
            expected = sorted([0.0] + roots + [-z for z in roots])
            assert len(zs) == len(expected), (r, eta)
            for a, b in zip(sorted(zs), expected):
                assert a == pytest.approx(b, abs=1e-6), (r, eta)

    @pytest.mark.parametrize("patch", [
        # two sign changes
        lambda mp: mp.setattr(bifurcation, "_xi_slope_numerator",
                              lambda z, r: (z - 0.1) * (z - 0.5)),
        # xi falling at the top
        lambda mp: mp.setattr(bifurcation, "_xi_slope_numerator",
                              lambda z, r: 0.5 - z),
        # the fold fails its residual check
        lambda mp: mp.setattr(bifurcation, "_RESIDUAL_TOL", 0.0),
    ])
    def test_unexpected_slope_signs_raise(self, monkeypatch, patch):
        patch(monkeypatch)
        with pytest.raises(NoConvergenceError):
            predict_window(5.0)
        with pytest.raises(NoConvergenceError):
            find_eta_plus(5.0)
        with pytest.raises(NoConvergenceError):
            find_fixed_points(-5.0, 5.0)
        with pytest.raises(NoConvergenceError):
            trace_branches(5.0, (3.0, 8.0), 10)
        with pytest.raises(NoConvergenceError):
            asymmetric_states_below_star(5.0)

    @given(r=st.floats(0.05, 20.0))
    @settings(max_examples=60, deadline=None)
    def test_fold_exists_exactly_when_subcritical(self, r):
        assume(abs(r - R_THRESHOLD) >= 1e-6)
        has_fold = find_eta_plus(r) is not None
        assert has_fold == (classify_pitchfork(r) == "subcritical")

    @pytest.mark.parametrize("offset", (1.05e-6, 2e-6, 1e-5, 1e-3))
    def test_fold_found_next_to_threshold(self, offset):
        r = R_THRESHOLD + offset
        plus = find_eta_plus(r)
        assert plus is not None
        assert 0.0 < plus < find_eta_star(r)
        d = atlas_diagram(r, 50)
        assert d.classification == "subcritical" and d.eta_plus == plus

    @pytest.mark.parametrize("offset", (1.05e-6, 1e-3))
    def test_no_fold_just_below_threshold(self, offset):
        assert find_eta_plus(R_THRESHOLD - offset) is None

    @pytest.mark.parametrize("offset", (
        7.181039092537342e-09, 2.8720631177978283e-08,  # noisy slope signs
        7.462935686310144e-09, 2.4620924014946255e-08,  # fold depth ~ ulps
        1e-7, 5e-7, -1e-7))
    def test_inside_refusal_band_ends_in_a_result(self, offset):
        # subcritical powers whose fold the scan cannot see refuse
        r = R_THRESHOLD + offset
        if 0.0 < offset < 1e-7:
            with pytest.raises(ThresholdProximityError):
                find_eta_plus(r)
            with pytest.raises(ThresholdProximityError):
                find_fixed_points(-2.9878, r)
            return
        plus = find_eta_plus(r)
        assert plus is None or 0.0 < plus < find_eta_star(r)
        assert len(find_fixed_points(-2.9878, r)) >= 2

    @pytest.mark.parametrize("offset", (1e-9, 1e-8, 2e-8, 5e-8))
    def test_unresolvable_subcritical_fold_refuses(self, offset):
        # kappa < 0, but the fold lies below the scan's resolution: no
        # finder may answer "no fold"
        r = R_THRESHOLD + offset
        assert pitchfork_cubic_coefficient(r) < 0.0
        for finder in (find_eta_plus, predict_window,
                       asymmetric_states_below_star,
                       lambda r: find_fixed_points(-2.9878, r)):
            with pytest.raises(ThresholdProximityError):
                finder(r)
        sched = EtaSchedule(kind="triangular", eta_start=-2.0,
                            eta_peak=-4.0, T=1.0)
        traj = integrate(PhaseState(z=0.01), ModelParams(r=r, nu=0.5),
                         sched, IntegratorConfig(), (0.0, 1.0))
        with pytest.raises(ThresholdProximityError):
            sweep_report(traj, 16)

    def test_fold_next_to_the_band_is_unchanged(self):
        assert find_eta_plus(R_THRESHOLD + 1e-7) == 2.987827226272193
        assert predict_window(R_THRESHOLD + 1e-7)[0] == 2.987827226272193
        assert find_eta_plus(R_THRESHOLD - 1e-8) is None
        assert predict_window(R_THRESHOLD - 1e-8) is None

    def test_diagram_scans_for_the_fold_once(self, monkeypatch):
        scans = []
        fold = bifurcation._fold
        monkeypatch.setattr(bifurcation, "_fold",
                            lambda r: scans.append(r) or fold(r))
        d = trace_branches(5.0, (3.0, 8.0), 10)
        assert scans == [5.0]
        assert d.eta_plus == fold(5.0)[1]

    @pytest.mark.parametrize("r", sorted(GOLDEN_ATLAS))
    def test_diagram_csv_matches_the_row_writer(self, r):
        d = atlas_diagram(r, 400)
        assert diagram_to_csv(d) == diagram_csv_by_rows(d)

    def test_diagram_csv_matches_the_row_writer_at_2000_steps(self):
        d = trace_branches(5.0, (3.0, 8.0), 2000)
        text = diagram_to_csv(d)
        assert text.count("\n") > 4097
        assert text == diagram_csv_by_rows(d)

    def test_single_root_at_the_fold(self):
        plus = find_eta_plus(5.0)
        z_f = bifurcation._fold(5.0)[0]
        asym = [p.z_star for p in find_fixed_points(-plus, 5.0)
                if p.kind == "asymmetric"]
        assert sorted(asym) == [-z_f, z_f]

    def test_repulsive_roots_live_on_the_pi_sheet(self):
        pts = find_fixed_points(5.0, 5.0)
        asym = [p for p in pts if p.kind == "asymmetric"]
        assert len(asym) == 4
        assert all(p.theta_star == math.pi for p in asym)
        assert sorted(abs(p.z_star) for p in asym) == sorted(
            abs(p.z_star) for p in find_fixed_points(-5.0, 5.0)
            if p.kind == "asymmetric")

    def test_no_theta_star_parameter(self):
        with pytest.raises(TypeError):
            trace_branches(1.0, (0.5, 4.0), 10, theta_star=0.0)


EPS = np.finfo(np.float64).eps


def by_bisection(mp):
    """Route the package's fold and roots through the all-bisection oracle."""
    mp.setattr(bifurcation, "_fold", fold_by_bisection)
    mp.setattr(bifurcation, "_graph_roots", graph_roots_by_bisection)


def assert_same_states(got, want, r):
    """Same points, kinds and stability; each z_star with |G| at most the
    oracle's own |G| or 64 ulps of G's terms."""
    assert len(got) == len(want)
    for p, q in zip(got, want):
        assert (p.eta, p.theta_star, p.kind, p.stability) == (
            q.eta, q.theta_star, q.kind, q.stability)
        assert np.sign(p.z_star) == np.sign(q.z_star)
        if p.z_star == q.z_star:
            continue
        z = abs(p.z_star)
        cos_theta = math.cos(p.theta_star)
        g = stationary_residual(np.array([z, abs(q.z_star)]), p.theta_star,
                                np.full(2, p.eta), r)
        terms = (abs(2.0 * z * cos_theta / math.sqrt(1.0 - z * z))
                 + abs(p.eta * power_difference(z, r) / 2.0 ** r))
        assert abs(g[0]) <= max(abs(g[1]), 64.0 * EPS * terms), (r, p, q)


def oracle_atlas_powers():
    rng = random.Random(4242)
    bands = ((0.5, 3.2), (3.4, 6.0))
    return ([1.0, 2.0, 3.0, 4.0, 5.0, 10.0, 40.0]
            + [rng.uniform(lo, hi) for lo, hi in bands for _ in range(4)])


class TestBranchColumns:
    """Branches store columns; points rebuilds the FixedPoints that the
    former per-point assembly stored."""

    @pytest.mark.parametrize("r, eta_range", [
        *((r, (0.25 * find_eta_star(r), 1.4 * find_eta_star(r)))
          for r in sorted(GOLDEN_ATLAS)),
        (1013.0, (1.0, 1e300))])
    def test_points_are_the_former_fixed_points(self, r, eta_range):
        # r = 1013 spans couplings from 1 to 1e300
        d = trace_branches(r, eta_range, 400)
        for b in d.branches:
            columns = (b.eta, b.z_star, b.stability, b.eigenvalues)
            assert all(type(c) is tuple for c in columns)
            assert len(set(map(len, columns))) == 1
            assert all(type(v) is float for v in b.eta + b.z_star)
        got = [(b.branch_id, b.kind, b.theta_star,
                list(map(point_bits, b.points))) for b in d.branches]
        want = [(i, kind, theta_star, list(map(point_bits, points)))
                for i, kind, theta_star, points
                in branches_by_points(r, eta_range, 400)]
        assert got == want
        again = trace_branches(r, eta_range, 400).branches
        assert again == d.branches and hash(again) == hash(d.branches)


class TestNewtonKernel:
    """Safeguarded Newton against the all-bisection kernels it replaced."""

    @pytest.mark.parametrize("r", oracle_atlas_powers())
    def test_atlas_matches_the_bisection_oracle(self, r, monkeypatch):
        got = atlas_diagram(r, 400)
        with monkeypatch.context() as mp:
            by_bisection(mp)
            want = atlas_diagram(r, 400)
        assert [(b.branch_id, b.kind, len(b.points)) for b in got.branches] \
            == [(b.branch_id, b.kind, len(b.points)) for b in want.branches]
        for b, c in zip(got.branches, want.branches):
            assert_same_states(b.points, c.points, r)
        assert (got.eta_plus is None) == (want.eta_plus is None)
        if got.eta_plus is not None:
            assert got.eta_plus == pytest.approx(want.eta_plus, rel=1e-13)

    def test_fixed_points_match_the_bisection_oracle(self, monkeypatch):
        rng = random.Random(31)
        calls = [(rng.uniform(-8.0, -0.5), rng.uniform(0.5, 6.0))
                 for _ in range(100)]
        got = [find_fixed_points(eta, r) for eta, r in calls]
        with monkeypatch.context() as mp:
            by_bisection(mp)
            want = [find_fixed_points(eta, r) for eta, r in calls]
        for (eta, r), points, oracle in zip(calls, got, want):
            assert_same_states(points, oracle, r)

    def test_fold_matches_the_bisection_oracle_at_large_powers(self):
        # xi's own rounding grows like r ulps (P's exp(r log1p(z))), and
        # flat as xi is at z_f, eta_plus = xi(z_f) carries it
        for r in (34.0, 106.0, 300.0, 1013.0):
            assert bifurcation._fold(r)[1] == pytest.approx(
                fold_by_bisection(r)[1], rel=16.0 * r * EPS)

    # (eta, r): the r = 5 window, the fold next to the threshold power
    # (find_eta_plus and a 50-step atlas diagram, as in
    # test_fold_found_next_to_threshold), and the largest power
    COUNTED = ([(-6.0, 5.0)]
               + [(None, R_THRESHOLD + offset)
                  for offset in (1.05e-6, 2e-6, 1e-5, 1e-3)]
               + [(-200.0, 1013.0), (-1000.0, 1013.0)])

    @staticmethod
    def evaluations(monkeypatch, fold, roots, eta, r):
        """(F evaluations of one fold solve, G evaluations of one root
        solve), counted by wrapping the two residuals."""
        counts = {"F": 0, "G": 0}
        for name, key in (("_xi_slope_numerator", "F"),
                          ("stationary_residual", "G")):
            def counted(*args, _f=getattr(bifurcation, name), _k=key):
                counts[_k] += 1
                return _f(*args)
            for module in (bifurcation, kernel_oracles):
                monkeypatch.setattr(module, name, counted)
        found = fold(r)
        f_evals, counts["G"] = counts["F"], 0
        if eta is None:
            star = find_eta_star(r)
            mags = np.linspace(0.25 * star, 1.4 * star, 50)
        else:
            mags = [abs(eta)]
        assert len(roots(mags, r, found)[2]) > 0
        monkeypatch.undo()
        return f_evals, counts["G"]

    @pytest.mark.parametrize("eta, r", COUNTED)
    def test_at_most_16_evaluations_per_solve(self, monkeypatch, eta, r):
        f_evals, g_evals = self.evaluations(
            monkeypatch, bifurcation._fold, bifurcation._graph_roots, eta, r)
        assert f_evals <= 16 and g_evals <= 16

    @pytest.mark.parametrize("eta, r", COUNTED[:1] + COUNTED[-1:])
    def test_bisection_needs_more_than_40(self, monkeypatch, eta, r):
        # the count tells the kernels apart
        f_evals, g_evals = self.evaluations(
            monkeypatch, fold_by_bisection, graph_roots_by_bisection, eta, r)
        assert f_evals > 40 and g_evals > 40


class TestDiagramJson:
    """diagram_to_json against the former json.dumps(doc, indent=2)."""

    @pytest.mark.parametrize("r", sorted(GOLDEN_ATLAS))
    def test_atlas_bytes(self, r):
        d = atlas_diagram(r, 400)
        assert diagram_to_json(d) == diagram_json_by_dumps(d)
        effective = {"r": r, "eta-min": 0.5, "out": "b.csv", "steps": 400}
        assert (diagram_to_json(d, effective)
                == diagram_json_by_dumps(d, effective))

    def test_supercritical_diagram_bytes(self):
        d = trace_branches(1.0, (0.5, 4.0), 500)
        assert d.eta_plus is None
        assert diagram_to_json(d) == diagram_json_by_dumps(d)

    def test_2000_step_bytes(self):
        d = trace_branches(5.0, (3.0, 8.0), 2000)
        assert diagram_to_json(d) == diagram_json_by_dumps(d)

    def test_non_finite_values_and_numpy_floats(self):
        columns = (
            (-1.0, np.float64(-2.0), -math.inf),
            (np.float64(0.5), 0.0, math.nan),
            ("stable", "marginal", "unstable"),
            ((complex(math.nan, math.inf), complex(-math.inf, np.float64(2.5))),
             (np.complex128(1e-300 - 1e300j), 0j),
             (1j, complex(0.0, -0.0))))
        d = BifurcationDiagram(
            r=np.float64(5.0),
            branches=(Branch(0, "asymmetric", np.float64(0.0), *columns),
                      Branch(1, "asymmetric", math.nan, (), (), (), ())),
            eta_star=6.4, eta_plus=np.float64(4.4),
            classification="subcritical")
        text = diagram_to_json(d, {"note": "x"})
        assert text == diagram_json_by_dumps(d, {"note": "x"})
        assert "NaN" in text and "-Infinity" in text

    def test_empty_diagram_bytes(self):
        d = BifurcationDiagram(r=1.0, branches=(), eta_star=2.0,
                               eta_plus=None, classification="supercritical")
        assert diagram_to_json(d) == diagram_json_by_dumps(d)


class TestLargePowers:
    """The fold's check scales with its terms, which grow as z_f -> 1."""

    def test_fold_found_for_every_integer_power_from_106(self):
        for r in range(106, 1014):
            plus = find_eta_plus(float(r))
            assert plus is not None and 0.0 < plus < find_eta_star(r), r

    @pytest.mark.parametrize("r", (106.0, 300.0, 1013.0))
    def test_fold_matches_a_dense_oracle(self, r):
        assert find_eta_plus(r) == pytest.approx(fold_oracle(r), rel=1e-9)

    def test_roots_at_couplings_up_to_1e300_warn_nothing(self):
        # the Newton start's m * m overflows above about 1.3e154, in rows
        # below the fold, which take the parabola's start instead
        mags = np.linspace(1.0, 1e300, 4)
        fold = bifurcation._fold(1013.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            piece, index, z = bifurcation._graph_roots(mags, 1013.0, fold)
        assert (piece.tolist(), index.tolist()) == ([0, 0, 0], [1, 2, 3])
        for k, zz in zip(index.tolist(), z.tolist()):
            assert abs(stationary_residual(zz, 0.0, -mags[k], 1013.0)) \
                <= 1e-10 * mags[k] * power_difference(zz, 1013.0) / 2.0 ** 1013

    def test_every_finder_answers_at_r_300(self):
        plus = find_eta_plus(300.0)
        assert plus == pytest.approx(40.3009, abs=1e-4)
        assert predict_window(300.0) == (plus, find_eta_star(300.0))
        assert asymmetric_states_below_star(300.0)
        assert len(find_fixed_points(-50.0, 300.0)) == 6
        d = trace_branches(300.0, (30.0, 60.0), 40)
        assert d.classification == "subcritical" and d.eta_plus == plus
        assert len(d.branches) == 5

    def test_sweep_report_at_r_300(self):
        schedule = EtaSchedule(kind="triangular", eta_start=-30.0,
                               eta_peak=-60.0, T=20.0)
        traj = integrate(PhaseState(z=0.01), ModelParams(r=300.0, nu=0.5),
                         schedule, IntegratorConfig(sample_stride=10),
                         (0.0, 20.0))
        report = sweep_report(traj, 16)
        assert report.reference["eta_plus"] == find_eta_plus(300.0)
