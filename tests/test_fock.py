import functools
import math
import re

import mpmath
import numpy as np
import pytest

from asymsqueeze import (
    CutoffTooSmallError,
    FockState2,
    PhasePoint,
    SqueezeParams,
    ValidationError,
    bell_function,
    build_state_exponential,
    cf_closed,
    cf_numeric,
    coefficients,
    covariance,
    covariance_numeric,
    fock_amplitudes,
    log_negativity,
    log_negativity_numeric,
    phase_space,
    wigner_closed,
    wigner_numeric,
)
from asymsqueeze import fock, verify
from asymsqueeze.bell import _chsh_from_wigner
from asymsqueeze.fock import _chebyshev_weights, _quadrature_eigh, _quadratures, _row_sum_bound

EPS = np.finfo(float).eps


def ladder(dim):
    """The truncated annihilation operator, a|n> = sqrt(n) |n - 1>."""
    a = np.zeros((dim, dim))
    for n in range(dim - 1):
        a[n, n + 1] = math.sqrt(n + 1)
    return a


def ladder_quadratures(dim):
    """Q = (a + a')/sqrt2 and the Hermitian P = -i (a - a')/sqrt2, from ``ladder``, not from ``fock``."""
    a = ladder(dim)
    return (a + a.T) / math.sqrt(2.0), -1j * (a - a.T) / math.sqrt(2.0)


def dense_state(params, cutoff):
    """exp(-i G)|00> by eigen-decomposition of the kron-built joint-space generator."""
    d = cutoff + 1
    q, p = ladder_quadratures(d)
    gen = params.lam1 * np.kron(q, p) + params.lam2 * np.kron(p, q)
    w, u = np.linalg.eigh(gen)
    return (u @ (np.exp(-1j * w) * u[0].conj())).reshape(d, d)


class TestOperators:
    def test_quadratures_hermitian(self):
        # the real pair: q symmetric and p' antisymmetric, so q and P = -i p' are Hermitian, and they are
        # the ladder operator's
        q, p = _quadratures(7)
        assert q.dtype == p.dtype == np.float64
        assert np.array_equal(q, q.T) and np.array_equal(p, -p.T)
        ref_q, ref_p = ladder_quadratures(7)
        assert np.max(np.abs(q - ref_q)) < 1e-15 and np.max(np.abs(-1j * p - ref_p)) < 1e-15

    def test_canonical_commutator_on_retained_block(self):
        # [q, P] = i with P = -i p', away from the truncation edge
        q, p = _quadratures(9)
        comm = -1j * (q @ p - p @ q)
        assert np.allclose(comm[:8, :8], 1j * np.eye(8), atol=1e-12)

    @pytest.mark.parametrize("cutoff", [10, 21, 40, 80])
    def test_quadrature_eigh_is_parity_symmetric(self, cutoff):
        # the Wigner route needs O^T Pi O to be exactly the reversal; odd and even dims both occur
        x, o = _quadrature_eigh(cutoff + 1)
        q, _ = _quadratures(cutoff + 1)
        assert np.array_equal(x[::-1], -x)
        assert np.array_equal(((-1.0) ** np.arange(cutoff + 1))[:, None] * o, o[:, ::-1])
        assert np.max(np.abs(o.T @ o - np.eye(cutoff + 1))) < 1e-13
        assert np.max(np.abs(o @ np.diag(x) @ o.T - q)) < 1e-13


def dense_displacement(cutoff, alpha):
    """exp(alpha a' - alpha* a) from an eigh of its own generator i(alpha a' - alpha* a)."""
    a = ladder(cutoff + 1)
    w, u = np.linalg.eigh(1j * (alpha * a.T - np.conj(alpha) * a))
    return u @ (np.exp(-1j * w)[:, None] * u.conj().T)


def random_state(rng, cutoff):
    table = rng.normal(size=(cutoff + 1, cutoff + 1)) + 1j * rng.normal(size=(cutoff + 1, cutoff + 1))
    return FockState2(table / np.linalg.norm(table))


class TestPhaseSpace:
    @pytest.mark.parametrize("cutoff", [10, 20, 40, 80])
    def test_matches_dense_eigh_displacements(self, cutoff, rng):
        # W = <psi| D Pi D^dag |psi> / pi^2 and CF = <psi| D1 D2 |psi> with dense displacements
        # (A x B acts on the amplitude matrix as A C B^T), for a built state and a complex random one
        edge = cutoff / 4.0
        alphas = [0.0, -edge, 1j * edge, 0.4 - 0.2j, edge * np.exp(2.3j), 0.7 * edge * np.exp(-1.1j)]
        points = [PhasePoint.from_complex(a, b) for a, b in zip(alphas, alphas[::-1])]
        points.append(PhasePoint.from_complex(edge, -1j * edge))
        parity = (-1.0) ** np.add.outer(np.arange(cutoff + 1), np.arange(cutoff + 1))
        for state in (build_state_exponential(SqueezeParams(0.15, 0.5), cutoff), random_state(rng, cutoff)):
            c = state.amplitudes
            wigner, cf = phase_space(state, points)
            for pt, w, chi in zip(points, wigner, cf):
                d1, d2 = dense_displacement(cutoff, pt.alpha), dense_displacement(cutoff, pt.beta)
                phi = d1.conj().T @ c @ d2.conj()
                assert abs(w - np.sum(parity * np.abs(phi) ** 2) / math.pi ** 2) < 1e-13
                assert abs(chi - np.sum(c.conj() * (d1 @ c @ d2.T))) < 1e-13

    def test_one_point_calls_equal_batch_entries(self, rng):
        state = random_state(rng, 30)
        points = [PhasePoint(*rng.uniform(-2.0, 2.0, size=4)) for _ in range(9)] + [PhasePoint.origin()]
        wigner, cf = phase_space(state, points)
        for pt, w, chi in zip(points, wigner, cf):
            assert wigner_numeric(state, pt) == w and type(wigner_numeric(state, pt)) is float
            assert cf_numeric(state, pt) == chi and type(cf_numeric(state, pt)) is complex

    def test_guard_checks_every_point_before_any_work(self, monkeypatch, rng):
        state = random_state(rng, 20)
        points = [PhasePoint.origin(), PhasePoint.from_complex(0.3, 5.0), PhasePoint.from_complex(0.0, 5.01)]
        monkeypatch.setattr(fock, "_quadrature_eigh", None)  # any evaluation would fail on it
        with pytest.raises(ValidationError, match=r"cutoff/4 = 5\.0"):
            phase_space(state, points)
        with pytest.raises(ValidationError, match=r"cutoff/4 = 5\.0"):
            phase_space(state, [PhasePoint.origin(), PhasePoint(math.nan, 0.0, 0.0, 0.0)])

    def test_verify_evaluates_each_point_once(self, monkeypatch, rng):
        # verify's check points and the 2 x 4 Bell points, (0, 0) shared, in one call; the values
        # are those of the one-point calls
        params = SqueezeParams(0.3, 0.7)
        points = [PhasePoint(*rng.uniform(-0.5, 0.5, size=4)) for _ in range(6)]
        batches = []

        def recording(state, batch):
            batches.append(list(batch))
            return phase_space(state, batch)

        monkeypatch.setattr(fock, "phase_space", recording)
        deviations = verify.oracle_deviations(params, 26, points)
        assert len(batches) == 1 and len(batches[0]) == len(set(batches[0])) == len(points) + 7
        oracle = build_state_exponential(params, 26)
        wigner = functools.partial(wigner_numeric, oracle)
        assert deviations["wigner"] == max(abs(wigner(pt) - wigner_closed(params, pt)) for pt in points)
        assert deviations["char-fn"] == max(abs(cf_numeric(oracle, pt) - cf_closed(params, pt)) for pt in points)
        assert deviations["bell-combination"] == max(
            abs(bell_function(params, s).value - _chsh_from_wigner(wigner, s)) for s in verify.BELL_SETTINGS
        )


class TestStateConstruction:
    def test_vacuum_untouched(self):
        state = build_state_exponential(SqueezeParams(0.0, 0.0), 10)
        expected = np.zeros((11, 11))
        expected[0, 0] = 1.0
        assert np.allclose(state.amplitudes, expected, atol=1e-12)

    def test_rejects_small_cutoff(self):
        with pytest.raises(ValidationError):
            build_state_exponential(SqueezeParams(0.2, 0.0), 8)

    def test_cutoff_too_small_flagged(self):
        with pytest.raises(CutoffTooSmallError):
            build_state_exponential(SqueezeParams(0.8, 0.0), 12)

    def test_cutoff_error_names_the_edge_mass(self):
        # the norm holds to about 1e-14 here, so the edge mass is what trips the gate
        with pytest.raises(CutoffTooSmallError) as info:
            build_state_exponential(SqueezeParams(1.0, 1.0), 60)
        message = str(info.value)
        assert re.search(r"\(edge mass 1\.51\de-05\)$", message), message
        assert "norm deficit" not in message
        assert info.value.deficit == pytest.approx(1.514e-5, rel=1e-3)

    def test_unconverged_oracle_names_the_norm_deficit(self):
        table = np.zeros((13, 13), dtype=complex)
        table[0, 0] = 0.99
        with pytest.raises(CutoffTooSmallError, match=r"\(norm deficit 1\.990e-02\)$"):
            log_negativity_numeric(FockState2(table))

    def test_symmetric_state_geometric_with_positive_tail(self):
        # gamma = 0 reduces to the standard two-mode squeezed vacuum with a
        # POSITIVE cross-creation coefficient: this generator is the inverse
        # of the squeezer that carries the -tanh convention.
        lam = 0.5
        state = build_state_exponential(SqueezeParams(lam, 0.0), 24)
        c = state.amplitudes
        sech, th = 1.0 / math.cosh(lam), math.tanh(lam)
        reference = np.zeros((25, 25), dtype=complex)
        for n in range(25):
            reference[n, n] = sech * th ** n
        overlap = abs(np.sum(np.conj(reference) * c))
        assert overlap >= 1.0 - 1e-8
        assert (c[1, 1] / c[0, 0]).real == pytest.approx(th, abs=1e-10)

    def test_two_construction_routes_agree(self):
        for lam, gamma in [(0.3, 0.7), (0.5, 1.0), (0.5, -1.0)]:
            params = SqueezeParams(lam, gamma)
            exp_state = build_state_exponential(params, 30)
            series = fock_amplitudes(params, 30)
            assert exp_state.overlap(series) >= 1.0 - 1e-8

    @pytest.mark.parametrize(
        "lam, gamma, cutoff",
        [
            (0.0, 1.3, 11),
            (0.3, -0.8, 12),
            (0.25, 0.6, 12),
            (0.15, -1.2, 11),
            # R from about 1e-322 to 1e-6: below 2 eps only J_0 = 1 is kept, and 2k/R would overflow
            (5e-324, 0.7, 11),
            (1e-300, -0.4, 11),
            (1e-20, 1.3, 12),
            (1e-8, 0.0, 11),
        ],
    )
    def test_chebyshev_action_matches_dense_eigh(self, lam, gamma, cutoff):
        params = SqueezeParams(lam, gamma)
        state = build_state_exponential(params, cutoff)
        assert np.max(np.abs(state.amplitudes - dense_state(params, cutoff))) <= 1e-13

    @pytest.mark.parametrize("cutoff", [40, 80])
    def test_chebyshev_action_unitary(self, cutoff):
        for lam, gamma in [(0.5, 1.0), (0.6, -0.5), (0.45, 0.0)]:
            state = build_state_exponential(SqueezeParams(lam, gamma), cutoff)
            assert abs(state.norm_deficit) <= 1e-13

    @pytest.mark.parametrize("bound", [1e-8, 0.5, 10.0, 104.0, 2200.0])
    def test_chebyshev_weights_match_50_digit_bessel(self, bound):
        # weights are J_0, 2 J_1, 2 J_2, ..., ending before the first k > R with |J_k(R)| < eps;
        # at R = 2200 every 107th order and the last ones are checked, as mpmath takes 30 ms per order there
        weights = _chebyshev_weights(bound)
        stop = len(weights)
        orders = range(stop + 1) if bound < 1e3 else sorted({*range(0, stop, 107), *range(stop - 3, stop + 1)})
        eps = np.finfo(float).eps
        with mpmath.workdps(50):
            exact = {k: float(mpmath.besselj(k, mpmath.mpf(bound))) for k in orders}
        for k in orders[:-1]:
            assert abs(weights[k] / (2.0 if k else 1.0) - exact[k]) <= 4 * eps, (k, weights[k], exact[k])
        assert abs(exact[stop]) < eps < abs(exact[stop - 1]) or stop - 1 <= bound

    def test_build_applies_the_generator_about_r_times(self, monkeypatch):
        # every application multiplies the stacked parity blocks by the left factor that
        # np.concatenate builds, (2, h, 2h) with h = 21 at cutoff 40.  At (0.5, 1.0) the norm bound
        # R = 104 is the smaller one, and a scaled Taylor series makes 324 applications; at
        # (0.45, 0.0) the row-sum bound takes R from 61 to 36, below the 103 applications R = 61 needs
        calls = []

        class Counting(np.ndarray):
            def __matmul__(self, other):
                calls.append((self.shape, other.shape))
                return np.asarray(self) @ other

        concatenate = np.concatenate
        monkeypatch.setattr(np, "concatenate", lambda *args, **kwargs: concatenate(*args, **kwargs).view(Counting))
        params = SqueezeParams(0.5, 1.0)
        state = build_state_exponential(params, 40)
        counts = [len(calls)]
        calls.clear()
        near_symmetric = build_state_exponential(SqueezeParams(0.45, 0.0), 40)
        counts.append(len(calls))
        monkeypatch.undo()
        assert set(calls) == {((2, 21, 42), (2, 42, 21))}
        q, _ = _quadratures(41)
        bound = (params.lam1 + params.lam2) * np.linalg.norm(q, 2) ** 2
        assert 104 < bound < 105
        assert bound < counts[0] <= math.ceil(bound) + 60
        assert 36 < counts[1] < 103
        assert state.overlap(fock_amplitudes(params, 40)) >= 1.0 - 1e-8
        assert near_symmetric.overlap(fock_amplitudes(SqueezeParams(0.45, 0.0), 40)) >= 1.0 - 1e-8

    @pytest.mark.parametrize("cutoff", [10, 11, 12, 13, 14])
    def test_row_sum_bound_is_the_largest_row_sum_and_bounds_the_norm(self, cutoff):
        d = cutoff + 1
        q, p = ladder_quadratures(d)
        for lam in (0.0, 1e-8, 0.3, 1.5):
            for gamma in (-3.0, -0.5, 0.0, 0.7, 5.0):
                params = SqueezeParams(lam, gamma)
                gen = params.lam1 * np.kron(q, p) + params.lam2 * np.kron(p, q)
                bound = _row_sum_bound(params.lam1, params.lam2, d)
                assert abs(bound - np.max(np.sum(np.abs(gen), axis=1))) <= 1e-12 * bound, (lam, gamma)
                assert np.max(np.abs(np.linalg.eigvalsh(gen))) <= bound, (lam, gamma)

    @pytest.mark.parametrize("cutoff", [20, 21, 30, 31])
    def test_odd_total_photon_number_amplitudes_are_exactly_zero(self, cutoff):
        # G changes each mode's photon number by one, so from |00> only m + n even is reached
        m, n = np.indices((cutoff + 1, cutoff + 1))
        for lam, gamma in [(0.3, 0.7), (0.2, 0.0), (0.15, -1.2)]:
            amplitudes = build_state_exponential(SqueezeParams(lam, gamma), cutoff).amplitudes
            assert np.all(amplitudes[(m + n) % 2 == 1] == 0.0)
            assert np.count_nonzero(amplitudes[(m + n) % 2 == 0]) > cutoff

    def test_norm_accounting(self):
        state = build_state_exponential(SqueezeParams(0.4, 0.6), 20)
        assert np.sum(np.abs(state.amplitudes) ** 2) + state.norm_deficit == pytest.approx(
            1.0, abs=1e-12
        )
        assert state.norm_deficit >= -1e-12

    def test_fields_are_read_off_the_table(self):
        state = build_state_exponential(SqueezeParams(0.4, 0.6), 40)
        copy = FockState2(state.amplitudes)
        assert copy.cutoff == 40 and copy.norm_deficit == state.norm_deficit
        assert copy.edge_mass() == state.edge_mass() < 1e-20
        for field in ({"cutoff": 20}, {"norm_deficit": 0.0}):
            with pytest.raises(TypeError):
                FockState2(state.amplitudes, **field)

    @pytest.mark.parametrize(
        "entry, deficit",
        [(2.0, r"-3\.000e\+00"), (math.nan, "nan"), (1.0 + 4 * EPS, r"-1\.776e-15")],
        ids=["norm-2", "nan", "above-one"],
    )
    def test_table_that_is_no_unit_vector_is_refused(self, entry, deficit):
        # a norm-2 table, a NaN, and |c00| = 1 + 4 eps, whose deficit lies inside the rounding allowance
        table = np.zeros((9, 9))
        table[0, 0] = entry
        message = rf"^amplitudes do not form a truncated unit vector \(norm deficit {deficit}"
        with pytest.raises(CutoffTooSmallError, match=message):
            FockState2(table)

    @pytest.mark.parametrize(
        "table",
        [np.ones((3, 5)) / 15**0.5, 2.0 * np.ones((3, 5)), np.array([0.6, 0.8]), np.zeros((0, 0))],
        ids=["3x5-unit", "3x5-norm-60", "1-d", "0x0"],
    )
    def test_table_that_is_not_square_is_refused(self, table):
        # the shape is checked before the unit-vector gate, so the norm-60 table is refused for its shape too
        message = rf"^amplitudes must be a square table of at least 1 x 1, got shape {re.escape(str(table.shape))}$"
        with pytest.raises(ValidationError, match=message):
            FockState2(table)

    def test_build_refuses_a_nan_state(self, monkeypatch):
        monkeypatch.setattr(fock, "_chebyshev_weights", lambda bound: [math.nan])
        with pytest.raises(CutoffTooSmallError, match="not form a truncated unit vector"):
            build_state_exponential(SqueezeParams(0.3, 0.5), 20)

    def test_overlap_requires_matching_cutoffs(self):
        a = fock_amplitudes(SqueezeParams(0.2, 0.0), 10)
        b = fock_amplitudes(SqueezeParams(0.2, 0.0), 12)
        with pytest.raises(ValidationError):
            a.overlap(b)


class TestNumberType:
    """The state is real in the number basis, so the builders keep it real; a complex table stays complex."""

    def test_builders_return_float64_and_a_complex_table_stays_complex(self, rng):
        params = SqueezeParams(0.5, 1.0)
        for state in (build_state_exponential(params, 40), fock_amplitudes(params, 40)):
            assert state.amplitudes.dtype == np.float64
        assert FockState2([[1]]).amplitudes.dtype == np.float64
        assert random_state(rng, 20).amplitudes.dtype == np.complex128
        table = np.zeros((3, 3), dtype=complex)
        table[0, 0] = 1.0
        state = FockState2(table)  # a copy: changing the table afterwards leaves the state as it was
        table[0, 0] = 0.5
        assert state.amplitudes[0, 0] == 1.0 and state.amplitudes.dtype == np.complex128

    @pytest.mark.parametrize("build", [build_state_exponential, fock_amplitudes])
    def test_readers_agree_on_the_real_table_and_its_complex_copy(self, build):
        # real and complex BLAS/LAPACK may round differently: each reader's values agree within
        # 8 eps max(1, |value|), a few ulps (measured: 0 for all but E_N, 2 eps, and overlap, 1 eps)
        params = SqueezeParams(0.5, 1.0)
        real = build(params, 40)
        copy = FockState2(real.amplitudes.astype(complex))
        other = build_state_exponential(params, 40) if build is fock_amplitudes else fock_amplitudes(params, 40)
        points = verify.check_points("fine") + [PhasePoint.from_complex(2.5 + 3j, -4j)]

        def agree(a, b):
            a, b = np.asarray(a), np.asarray(b)
            return np.all(np.abs(a - b) <= 8 * EPS * np.maximum(1.0, np.abs(a)))

        assert agree(covariance_numeric(real).entries, covariance_numeric(copy).entries)
        assert agree(log_negativity_numeric(real), log_negativity_numeric(copy))
        for value, copied in zip(phase_space(real, points), phase_space(copy, points)):
            assert agree(value, copied)
        assert agree(real.overlap(other), copy.overlap(FockState2(other.amplitudes.astype(complex))))
        assert agree(real.overlap(real), copy.overlap(copy))
        assert agree(real.edge_mass(), copy.edge_mass()) and agree(real.norm_deficit, copy.norm_deficit)


class TestCovarianceNumeric:
    def test_vacuum(self):
        state = build_state_exponential(SqueezeParams(0.0, 0.0), 10)
        cov = covariance_numeric(state)
        assert np.allclose(cov.entries, 0.5 * np.eye(4), atol=1e-12)

    def test_matches_closed_form(self):
        params = SqueezeParams(0.3, 0.7)
        state = build_state_exponential(params, 30)
        cov = covariance_numeric(state)
        assert np.max(np.abs(cov.entries - covariance(params).entries)) < 1e-8

    def test_first_moments_vanish(self):
        state = build_state_exponential(SqueezeParams(0.4, 0.9), 24)
        q, p = ladder_quadratures(25)
        c = state.amplitudes
        for moved in (q @ c, c @ p.T):  # Q1 and P2 applied to psi
            assert abs(np.vdot(c, moved)) < 1e-12

    def test_symmetric_standard_form(self):
        lam = 0.5
        state = build_state_exponential(SqueezeParams(lam, 0.0), 30)
        cov = covariance_numeric(state)
        ch, sh = math.cosh(2 * lam), math.sinh(2 * lam)
        expected = 0.5 * np.array(
            [[ch, 0, sh, 0], [0, ch, 0, -sh], [sh, 0, ch, 0], [0, -sh, 0, ch]]
        )
        assert np.max(np.abs(cov.entries - expected)) < 1e-8

    @pytest.mark.parametrize(
        "reader",
        [covariance_numeric, log_negativity_numeric, lambda state: phase_space(state, [PhasePoint.origin()])],
        ids=["covariance_numeric", "log_negativity_numeric", "phase_space"],
    )
    def test_rejects_unconverged_state(self, reader):
        table = np.zeros((13, 13), dtype=complex)
        table[0, 0] = 0.99  # deliberately lossy
        state = FockState2(table)
        with pytest.raises(CutoffTooSmallError, match="oracle requires a state with norm deficit below 1e-8"):
            reader(state)


@pytest.fixture(scope="module")
def oracle_state():
    params = SqueezeParams(0.4, 0.8)
    return params, build_state_exponential(params, 30)


class TestPhaseSpaceOracles:
    def test_wigner_at_origin(self, oracle_state):
        params, state = oracle_state
        assert wigner_numeric(state, PhasePoint.origin()) == pytest.approx(
            1.0 / math.pi ** 2, abs=1e-10
        )

    def test_wigner_matches_closed(self, oracle_state, rng):
        params, state = oracle_state
        for _ in range(10):
            pt = PhasePoint.from_complex(
                complex(*rng.uniform(-0.5, 0.5, 2)), complex(*rng.uniform(-0.5, 0.5, 2))
            )
            assert wigner_numeric(state, pt) == pytest.approx(wigner_closed(params, pt), abs=1e-6)

    def test_wigner_symmetric_reduction(self, rng):
        lam = 0.5
        params = SqueezeParams(lam, 0.0)
        state = build_state_exponential(params, 30)
        for _ in range(5):
            pt = PhasePoint(*rng.uniform(-0.6, 0.6, size=4))
            expected = (1.0 / math.pi ** 2) * math.exp(
                -(pt.q1 ** 2 + pt.p1 ** 2 + pt.q2 ** 2 + pt.p2 ** 2) * math.cosh(2 * lam)
                + 2.0 * (pt.q1 * pt.q2 - pt.p1 * pt.p2) * math.sinh(2 * lam)
            )
            assert wigner_numeric(state, pt) == pytest.approx(expected, abs=1e-6)

    def test_cf_normalization(self, oracle_state):
        _, state = oracle_state
        assert cf_numeric(state, PhasePoint.origin()) == pytest.approx(1.0, abs=1e-10)

    def test_cf_matches_closed(self, oracle_state, rng):
        params, state = oracle_state
        for _ in range(10):
            pt = PhasePoint.from_complex(
                complex(*rng.uniform(-0.5, 0.5, 2)), complex(*rng.uniform(-0.5, 0.5, 2))
            )
            val = cf_numeric(state, pt)
            assert abs(val.imag) < 1e-8
            assert val.real == pytest.approx(cf_closed(params, pt), abs=1e-6)

    def test_displacement_guard(self, oracle_state):
        _, state = oracle_state
        with pytest.raises(ValidationError):
            wigner_numeric(state, PhasePoint.from_complex(9.0, 0.0))
        with pytest.raises(ValidationError):
            cf_numeric(state, PhasePoint.from_complex(0.0, 9.0))


class TestLogNegativityNumeric:
    def test_vacuum(self):
        state = build_state_exponential(SqueezeParams(0.0, 0.0), 10)
        assert log_negativity_numeric(state) == pytest.approx(0.0, abs=1e-10)

    def test_symmetric_twice_lambda(self):
        state = build_state_exponential(SqueezeParams(0.5, 0.0), 40)
        assert log_negativity_numeric(state) == pytest.approx(1.0, abs=1e-4)

    def test_asymmetric_matches_closed(self):
        params = SqueezeParams(0.5, 1.0)
        state = build_state_exponential(params, 40)
        value = log_negativity_numeric(state)
        assert value == pytest.approx(log_negativity(covariance(params)), abs=1e-3)
        assert value == pytest.approx(1.3570, abs=1e-3)

    def test_schmidt_identity_for_pure_states(self):
        # trace norm of the partial transpose of a pure state equals the
        # squared sum of its Schmidt coefficients
        params = SqueezeParams(0.4, 0.6)
        state = build_state_exponential(params, 16)
        d = state.cutoff + 1
        c = state.amplitudes
        rho_pt = np.einsum("mn,pq->mqpn", c, np.conj(c)).reshape(d * d, d * d)
        expected = math.log(np.sum(np.abs(np.linalg.eigvalsh(rho_pt))))
        assert log_negativity_numeric(state) == pytest.approx(expected, abs=1e-10)


class TestTruncationConvergence:
    def test_oracle_quantities_stable_under_cutoff_growth(self, rng):
        params = SqueezeParams(0.3, 0.5)
        pt = PhasePoint.from_complex(0.3 - 0.1j, 0.2 + 0.25j)
        small = build_state_exponential(params, 30)
        large = build_state_exponential(params, 40)
        assert np.max(
            np.abs(covariance_numeric(small).entries - covariance_numeric(large).entries)
        ) < 1e-8
        assert abs(wigner_numeric(small, pt) - wigner_numeric(large, pt)) < 1e-8
        assert abs(cf_numeric(small, pt) - cf_numeric(large, pt)) < 1e-8
        assert abs(log_negativity_numeric(small) - log_negativity_numeric(large)) < 1e-8
