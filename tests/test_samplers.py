import numpy as np
import pytest
from scipy.stats import kstest, ks_2samp
from scipy.stats import t as student_t

from randmax import samplers
from randmax.depcore import student_t_cdf
from randmax.errors import DomainError, InputParseError
from randmax.estimators import pickands_points, pseudo_uniforms
from randmax.samplers import (
    PairedBlock,
    PairedSample,
    RngStream,
    sample_experiment1,
    sample_experiment1_block,
    sample_experiment2,
    sample_logistic_maxstable,
    sample_pareto_block_size,
    sample_positive_stable,
)

from oracles import oracle_sample_experiment1, sample_bivariate_t, sample_spectral_scaled


def _mc_check(values, target, factor=3.0):
    se = values.std(ddof=1) / np.sqrt(values.size)
    assert abs(values.mean() - target) <= factor * se, (
        f"mean {values.mean()} vs target {target} (se {se})"
    )


class TestRngStream:
    def test_same_stream_same_draws(self):
        a = RngStream(123, 7).generator().random(64)
        b = RngStream(123, 7).generator().random(64)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(123, 7).generator().random(64)
        b = RngStream(123, 8).generator().random(64)
        c = RngStream(124, 7).generator().random(64)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestPositiveStable:
    def test_laplace_transform(self):
        s = sample_positive_stable(0.5, RngStream(1, 1), 100_000)
        _mc_check(np.exp(-s), np.exp(-1.0))
        _mc_check(np.exp(-2.0 * s), np.exp(-(2.0**0.5)))

    def test_transform_alpha_free_at_one(self):
        s = sample_positive_stable(0.9, RngStream(1, 2), 100_000)
        _mc_check(np.exp(-s), np.exp(-1.0))

    def test_positive(self):
        s = sample_positive_stable(0.3, RngStream(1, 3), 10_000)
        assert np.all(s > 0.0) and np.all(np.isfinite(s))

    @pytest.mark.parametrize("bad", [0.0, 1.0, 1.5])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            sample_positive_stable(bad, RngStream(1, 4))


def _madogram_theta(z):
    u = np.exp(-1.0 / z)
    nu = np.abs(u[:, 0] - u[:, 1]).mean() / 2.0
    return (1.0 + 2.0 * nu) / (1.0 - 2.0 * nu)


class TestLogisticSampler:
    def test_independent_copula_value(self):
        z = sample_logistic_maxstable(1.0, 2, RngStream(2, 1), 100_000)
        u = np.exp(-1.0 / z)
        hits = ((u[:, 0] <= 0.5) & (u[:, 1] <= 0.5)).astype(float)
        _mc_check(hits, 0.25)

    def test_unit_frechet_margins(self):
        z = sample_logistic_maxstable(0.5, 2, RngStream(2, 2), 100_000)
        for j in range(2):
            _mc_check((z[:, j] <= 1.0).astype(float), np.exp(-1.0))

    def test_extremal_coefficient(self):
        z = sample_logistic_maxstable(0.5, 2, RngStream(2, 3), 100_000)
        assert abs(_madogram_theta(z) - 2.0**0.5) < 0.02

    def test_copula_grid(self):
        psi = 0.6
        z = sample_logistic_maxstable(psi, 2, RngStream(2, 4), 100_000)
        u = np.exp(-1.0 / z)
        for u1 in (0.25, 0.5, 0.75):
            for u2 in (0.25, 0.5, 0.75):
                target = np.exp(
                    -(((-np.log(u1)) ** (1 / psi) + (-np.log(u2)) ** (1 / psi)) ** psi)
                )
                hits = ((u[:, 0] <= u1) & (u[:, 1] <= u2)).astype(float)
                _mc_check(hits, target)

    def test_higher_dimension(self):
        z = sample_logistic_maxstable(0.4, 4, RngStream(2, 5), 2_000)
        assert z.shape == (2_000, 4) and np.all(z > 0.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            sample_logistic_maxstable(1.2, 2, RngStream(2, 6))


class TestExperiment1:
    def test_xi_is_row_maximum(self):
        s = sample_experiment1(0.5, 0.5, 5_000, RngStream(3, 1))
        assert np.array_equal(s.xi, s.eta.max(axis=1))

    def test_alpha_frechet_margins(self):
        s = sample_experiment1(0.5, 0.5, 100_000, RngStream(3, 2))
        for j in range(2):
            _mc_check((s.eta[:, j] <= 1.0).astype(float), np.exp(-1.0))

    def test_scaled_extremal_coefficient(self):
        s = sample_experiment1(0.5, 0.5, 100_000, RngStream(3, 3))
        u = np.exp(-s.eta ** -0.5)  # exact margins of the scaled law
        nu = np.abs(u[:, 0] - u[:, 1]).mean() / 2.0
        theta = (1.0 + 2.0 * nu) / (1.0 - 2.0 * nu)
        assert abs(theta - 2.0**0.25) < 0.02

    def test_general_dimension(self):
        s = sample_experiment1(0.7, 0.6, 100, RngStream(3, 4), d=3)
        assert s.eta.shape == (100, 3)
        assert np.array_equal(s.xi, s.eta.max(axis=1))

    def test_determinism(self):
        a = sample_experiment1(0.5, 0.5, 500, RngStream(3, 5))
        b = sample_experiment1(0.5, 0.5, 500, RngStream(3, 5))
        assert np.array_equal(a.eta, b.eta) and np.array_equal(a.xi, b.xi)

    @pytest.mark.parametrize("psi", [0.1, 0.3, 0.55, 0.9, 1.0])
    def test_block_matches_per_stream_oracle(self, psi):
        # every sample of a block has the bits the per-stream sampler draws
        # from its stream; psi = 1 skips the draws of S_psi
        checked = 0
        for alpha in (0.15, 0.5, 0.77):
            for n in (2, 7, 50):
                for d in (2, 3, 5):
                    streams = [RngStream(30, 1000 * n + 10 * d + i) for i in range(3)]
                    block = sample_experiment1_block(psi, alpha, n, streams, d)
                    assert block.eta.shape == (3, n, d) and block.xi.shape == (3, n)
                    for b, stream in enumerate(streams):
                        eta, xi = oracle_sample_experiment1(psi, alpha, n, stream.generator(), d)
                        assert block.eta[b].tobytes() == eta.tobytes()
                        assert block.xi[b].tobytes() == xi.tobytes()
                        checked += 1
        assert checked == 81

    @pytest.mark.parametrize("psi", [0.4, 1.0])
    def test_running_generator_advances_as_per_stream(self, psi):
        # a running Generator gives the oracle's draws call after call, and
        # is left in the state the oracle leaves its twin in
        gen, twin = RngStream(31, 1).generator(), RngStream(31, 1).generator()
        for n in (2, 9, 2):
            s = sample_experiment1(psi, 0.6, n, gen, d=3)
            eta, xi = oracle_sample_experiment1(psi, 0.6, n, twin, 3)
            assert s.eta.tobytes() == eta.tobytes() and s.xi.tobytes() == xi.tobytes()
        block = sample_experiment1_block(psi, 0.6, 5, (gen, gen))
        for b in range(2):
            eta, xi = oracle_sample_experiment1(psi, 0.6, 5, twin)
            assert block.eta[b].tobytes() == eta.tobytes()
        assert gen.random() == twin.random()

    def test_block_is_validated_like_a_sample(self):
        block = sample_experiment1_block(0.5, 0.5, 10, [RngStream(32, i) for i in range(2)])
        assert len(block) == 2
        assert block.meta == {"experiment": 1, "psi": 0.5, "alpha": 0.5, "n": 10, "d": 2}
        bad = block.eta.copy()
        bad[1, 3, 0] = -1.0
        with pytest.raises(DomainError):
            PairedBlock(bad, block.xi)
        with pytest.raises(DomainError):
            PairedBlock(block.eta[0], block.xi[0])  # one sample, not a stack
        with pytest.raises(DomainError):
            sample_experiment1_block(0.5, 1.0, 10, [RngStream(32, 0)])


class TestParetoBlockSize:
    def test_tail_probability(self):
        n = sample_pareto_block_size(0.5, RngStream(4, 1), 1_000_000)
        # ceil(N') > 10 iff N' > 10
        _mc_check((n > 10).astype(float), 10.0**-0.5)

    def test_median_alpha_09(self):
        n = sample_pareto_block_size(0.9, RngStream(4, 2), 200_001)
        assert np.median(n) == 3

    def test_at_least_one(self):
        n = sample_pareto_block_size(0.9, RngStream(4, 3), 100_000)
        assert n.min() >= 1
        assert isinstance(sample_pareto_block_size(0.5, RngStream(4, 4)), int)

    @pytest.mark.parametrize("alpha", [0.1, 0.06])
    def test_sizes_past_int64_stay_exact(self, alpha):
        # sizes beyond 2^63 come back as integer-valued floats, not wrapped ints
        n = sample_pareto_block_size(alpha, RngStream(1), 100_000)
        assert n.dtype == np.float64
        assert np.all(np.isfinite(n)) and n.min() >= 1
        assert np.array_equal(n, np.ceil(n))
        assert n.max() > 2.0**63
        if alpha == 0.1:
            _mc_check((n > 1e30).astype(float), 1e30**-alpha)

    def test_overflow_raises_naming_alpha(self):
        with pytest.raises(DomainError, match="alpha=0.01"):
            sample_pareto_block_size(0.01, RngStream(4, 5), 100_000)
        with pytest.raises(DomainError, match="alpha=0.01"):
            sample_experiment2(0.5, 1.0, 0.01, 50, RngStream(4, 6), n_prime=500)


class TestBivariateT:
    def test_symmetric_margin(self):
        x = sample_bivariate_t(0.3, 2.0, RngStream(5, 1), 100_000)
        _mc_check((x[:, 0] <= 0.0).astype(float), 0.5)

    def test_margin_matches_closed_form(self):
        x = sample_bivariate_t(0.3, 2.0, RngStream(5, 2), 100_000)
        _mc_check((x[:, 1] <= np.sqrt(2.0)).astype(float), student_t_cdf(np.sqrt(2.0), 2.0))
        assert abs((x[:, 1] <= np.sqrt(2.0)).mean() - 0.8535534) < 0.005

    def test_near_comonotone(self):
        x = sample_bivariate_t(0.99, 3.0, RngStream(5, 3), 50_000)
        clipped = np.clip(x, -50.0, 50.0)
        assert np.corrcoef(clipped.T)[0, 1] > 0.95

    def test_single_draw_shape(self):
        x = sample_bivariate_t(0.0, 1.0, RngStream(5, 4))
        assert x.shape == (2,)


def _uint64_drawn(gen):
    """Position of a Philox generator in its output stream, in uint64 words."""
    state = gen.bit_generator.state
    return 4 * int(state["state"]["counter"][0]) + state["buffer_pos"]


class TestExperiment2:
    def test_degenerate_unit_blocks(self, monkeypatch):
        # with every block size forced to 1, xi = 1 and eta is the componentwise
        # maximum of n_prime t-rows, whose margins have law F_t(x)^n_prime
        # (a single row would be negative half the time, which eta excludes)
        monkeypatch.setattr(
            samplers, "sample_pareto_block_size", lambda alpha, rng, size=None: np.ones(size)
        )
        s = sample_experiment2(0.3, 2.0, 0.5, 20_000, RngStream(6, 1), n_prime=70)
        assert np.all(s.xi == 1.0)
        for x in (10.0, 100.0):
            target = student_t_cdf(x, 2.0) ** 70
            for j in range(2):
                _mc_check((s.eta[:, j] <= x).astype(float), target)

    def test_pooled_maxima_match_bruteforce_law(self):
        gen = RngStream(6, 2).generator()
        fast = np.array([samplers._pooled_t_maxima(gen, 2_000, 0.5, 1.0) for _ in range(2_000)])
        brute = []
        for _ in range(2_000):
            rows = sample_bivariate_t(0.5, 1.0, gen, 2_000)
            brute.append(rows.max(axis=0))
        brute = np.array(brute)
        assert ks_2samp(fast[:, 0], brute[:, 0]).pvalue > 0.01
        assert ks_2samp(fast[:, 1], brute[:, 1]).pvalue > 0.01

    @pytest.mark.parametrize("rho", [-0.5, 0.99])
    @pytest.mark.parametrize("m", [1, 70, 10**9])
    def test_pooled_maxima_match_exact_law(self, m, rho):
        # each margin of the maximum of m rows is standard t, so its law is F_t(x)^m
        gen = RngStream(6, 7).generator()
        draws = np.array([samplers._pooled_t_maxima(gen, m, rho, 1.0) for _ in range(10_000)])

        def cdf(x):
            return np.exp(m * np.log1p(-student_t.sf(x, 1.0)))

        for j in range(2):
            assert kstest(draws[:, j], cdf).pvalue > 0.01

    def test_near_complete_dependence(self):
        s = sample_experiment2(0.99, 1.0, 0.5, 400, RngStream(6, 3), n_prime=50)
        md, _ = pickands_points(pseudo_uniforms(s.eta), np.array([[0.5, 0.5]]), "MD")
        theta_hat = 2.0 * md[0]
        assert theta_hat < 1.1

    def test_xi_tail_regime(self):
        # P(xi > y) = 1 - (1 - y^-alpha)^n' ~ n' y^-alpha for a heavy-tail block maximum
        n_prime, y = 20, 10_000.0
        s = sample_experiment2(0.3, 1.0, 0.5, 2_000, RngStream(6, 4), n_prime=n_prime)
        target = 1.0 - (1.0 - y**-0.5) ** n_prime
        _mc_check((s.xi > y).astype(float), target, factor=3.5)

    def test_cost_does_not_grow_with_row_count(self):
        # the top-down scan stops on the leading radii, so 10^30 rows draw no
        # more random words than 10^3 rows on the same stream
        for rho in (-0.5, 0.5, 0.99):
            drawn = {}
            for m in (1e3, 1e30):
                gen = RngStream(6, 5).generator()
                start = _uint64_drawn(gen)
                for _ in range(500):
                    samplers._pooled_t_maxima(gen, m, rho, 1.0)
                drawn[m] = _uint64_drawn(gen) - start
            assert drawn[1e30] <= drawn[1e3], (rho, drawn)

    def test_radius_overflow_raises_naming_upsilon(self):
        # at upsilon = 0.1 the largest radius grows like total^10
        with pytest.raises(DomainError, match="upsilon=0.1"):
            sample_experiment2(0.5, 0.1, 0.1, 50, RngStream(6, 8), n_prime=500)

    def test_small_inner_size_raises_naming_it(self):
        # the maximum of a few t-rows is negative with positive probability,
        # and eta must be strictly positive
        with pytest.raises(DomainError, match=r"inner_size=1 .* of 50 observations"):
            sample_experiment2(-0.5, 1.0, 0.5, 50, RngStream(6, 9), n_prime=1)

    def test_determinism(self):
        a = sample_experiment2(0.5, 1.0, 0.5, 10, RngStream(6, 6), n_prime=30)
        b = sample_experiment2(0.5, 1.0, 0.5, 10, RngStream(6, 6), n_prime=30)
        assert np.array_equal(a.eta, b.eta) and np.array_equal(a.xi, b.xi)


class TestSpectralOracle:
    def test_margins(self):
        r = sample_spectral_scaled(0.5, RngStream(7, 1), 20_000, base_psi=1.0)
        _mc_check((r[:, 0] <= 1.0).astype(float), np.exp(-1.0))

    def test_matches_direct_construction(self):
        r = sample_spectral_scaled(0.5, RngStream(7, 2), 5_000, base_psi=0.6)
        s = sample_experiment1(0.6, 0.5, 5_000, RngStream(7, 3))
        assert ks_2samp(r.max(axis=1), s.xi).pvalue > 0.01


class TestPairedSampleCsv:
    def test_round_trip_exact(self):
        s = sample_experiment1(0.5, 0.5, 50, RngStream(8, 1))
        back = PairedSample.from_csv(s.to_csv())
        assert np.array_equal(back.eta, s.eta)
        assert np.array_equal(back.xi, s.xi)

    def test_byte_identical_reruns(self):
        texts = [sample_experiment1(0.5, 0.5, 50, RngStream(8, 2)).to_csv() for _ in range(2)]
        assert texts[0] == texts[1]

    def test_header_error(self):
        with pytest.raises(InputParseError) as err:
            PairedSample.from_csv("a,b,c\n1,2,3\n")
        assert err.value.line == 1

    def test_bad_cell_names_line(self):
        text = "eta_1,eta_2,xi\n1.0,2.0,2.0\n1.0,oops,2.0\n"
        with pytest.raises(InputParseError) as err:
            PairedSample.from_csv(text)
        assert err.value.line == 3

    def test_column_count_error(self):
        text = "eta_1,eta_2,xi\n1.0,2.0,2.0\n1.0,2.0\n"
        with pytest.raises(InputParseError) as err:
            PairedSample.from_csv(text)
        assert err.value.line == 3

    def test_positivity_validated(self):
        with pytest.raises(DomainError):
            PairedSample(np.array([[1.0, -1.0], [1.0, 2.0]]), np.array([1.0, 2.0]))

    @staticmethod
    def _parse_error(text):
        with pytest.raises(InputParseError) as err:
            PairedSample.from_csv(text)
        return err.value

    def test_crlf_line_endings(self, tmp_path):
        text = "eta_1,eta_2,xi\r\n1.5,2.0,2.0\r\n3.0,0.25,3.0\r\n"
        path = tmp_path / "crlf.csv"
        path.write_bytes(text.encode())
        # as given, and as a universal-newline read of the file gives it
        for source in (text, path.read_text(encoding="utf-8")):
            s = PairedSample.from_csv(source)
            assert np.array_equal(s.eta, [[1.5, 2.0], [3.0, 0.25]])
            assert np.array_equal(s.xi, [2.0, 3.0])

    def test_spaces_around_cells(self):
        s = PairedSample.from_csv("eta_1,eta_2,xi\n 1.5 ,2.0,\t2.0\n3.0 , 0.25,3.0  \n")
        assert np.array_equal(s.eta, [[1.5, 2.0], [3.0, 0.25]])
        assert np.array_equal(s.xi, [2.0, 3.0])

    def test_no_trailing_newline(self):
        s = PairedSample.from_csv("eta_1,eta_2,xi\n1.5,2.0,2.0\n3.0,0.25,3.0")
        assert np.array_equal(s.xi, [2.0, 3.0])

    def test_blank_lines_are_skipped_and_counted(self):
        text = "eta_1,eta_2,xi\n1.5,2.0,2.0\n\n   \n3.0,0.25,3.0\n\n"
        s = PairedSample.from_csv(text)
        assert np.array_equal(s.eta, [[1.5, 2.0], [3.0, 0.25]])
        err = self._parse_error("eta_1,eta_2,xi\n1.5,2.0,2.0\n\n   \n1.0,oops,2.0\n")
        assert err.line == 5
        assert str(err) == "line 5: could not convert string to float: 'oops'"

    @pytest.mark.parametrize(
        "rows, message",
        [
            pytest.param(
                "1.0,2.0\n1.0,oops,2.0\n", "line 3: expected 3 columns, got 2", id="count-first"
            ),
            pytest.param(
                "1.0, oops,2.0\n1.0,2.0\n",
                "line 3: could not convert string to float: ' oops'",
                id="value-first",
            ),
            # on one line the column count is checked before the values
            pytest.param("1.0,oops\n", "line 3: expected 3 columns, got 2", id="same-line"),
        ],
    )
    def test_earlier_bad_line_is_named(self, rows, message):
        err = self._parse_error("eta_1,eta_2,xi\n1.0,2.0,2.0\n" + rows)
        assert str(err) == message

    @pytest.mark.parametrize(
        "text", ["eta_1,eta_2,xi\n", "eta_1,eta_2,xi\n\n", "eta_1,eta_2,xi\n1.0,2.0,2.0\n"]
    )
    def test_fewer_than_two_rows(self, text):
        err = self._parse_error(text)
        assert str(err) == "line 2: need at least 2 data rows"

    def test_round_trip_three_columns(self):
        s = sample_experiment1(0.5, 0.5, 30, RngStream(8, 3), d=3)
        text = s.to_csv()
        assert text.startswith("eta_1,eta_2,eta_3,xi\n")
        back = PairedSample.from_csv(text)
        assert np.array_equal(back.eta, s.eta)
        assert np.array_equal(back.xi, s.xi)
