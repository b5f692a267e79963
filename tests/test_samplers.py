import re

import numpy as np
import pytest
from scipy.stats import kstest, ks_2samp
from scipy.stats import t as student_t

from randmax import samplers
from randmax.depcore import student_t_cdf
from randmax.errors import DomainError, InputParseError
from randmax.estimators import pickands_points, pseudo_uniforms
from randmax.samplers import (
    PairedSample,
    RngStream,
    sample_experiment1,
    sample_experiment2,
    sample_logistic_maxstable,
    sample_pareto_block_size,
    sample_positive_stable,
)

from oracles import (
    oracle_from_csv,
    oracle_sample_experiment1,
    oracle_sample_experiment2,
    sample_bivariate_t,
    sample_spectral_scaled,
)


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
        s = sample_experiment1(0.5, 0.5, 5_000, [RngStream(3, 1)])
        assert np.array_equal(s.xi, s.eta.max(axis=2))

    def test_alpha_frechet_margins(self):
        s = sample_experiment1(0.5, 0.5, 100_000, [RngStream(3, 2)])
        for j in range(2):
            _mc_check((s.eta[0, :, j] <= 1.0).astype(float), np.exp(-1.0))

    def test_scaled_extremal_coefficient(self):
        s = sample_experiment1(0.5, 0.5, 100_000, [RngStream(3, 3)])
        u = np.exp(-s.eta[0] ** -0.5)  # exact margins of the scaled law
        nu = np.abs(u[:, 0] - u[:, 1]).mean() / 2.0
        theta = (1.0 + 2.0 * nu) / (1.0 - 2.0 * nu)
        assert abs(theta - 2.0**0.25) < 0.02

    def test_general_dimension(self):
        s = sample_experiment1(0.7, 0.6, 100, [RngStream(3, 4)], d=3)
        assert s.eta.shape == (1, 100, 3)
        assert np.array_equal(s.xi, s.eta.max(axis=2))

    def test_determinism(self):
        a = sample_experiment1(0.5, 0.5, 500, [RngStream(3, 5)])
        b = sample_experiment1(0.5, 0.5, 500, [RngStream(3, 5)])
        assert np.array_equal(a.eta, b.eta) and np.array_equal(a.xi, b.xi)

    @pytest.mark.parametrize("psi", [0.1, 0.3, 0.55, 0.9, 1.0])
    def test_block_matches_per_stream_oracle(self, psi):
        # every row of a many-stream sample has the bits the per-stream
        # oracle draws from its stream; psi = 1 skips the draws of S_psi
        checked = 0
        for alpha in (0.15, 0.5, 0.77):
            for n in (2, 7, 50):
                for d in (2, 3, 5):
                    streams = [RngStream(30, 1000 * n + 10 * d + i) for i in range(3)]
                    block = sample_experiment1(psi, alpha, n, streams, d)
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
            s = sample_experiment1(psi, 0.6, n, [gen], d=3)
            eta, xi = oracle_sample_experiment1(psi, 0.6, n, twin, 3)
            assert s.eta[0].tobytes() == eta.tobytes() and s.xi[0].tobytes() == xi.tobytes()
        block = sample_experiment1(psi, 0.6, 5, (gen, gen))
        for b in range(2):
            eta, xi = oracle_sample_experiment1(psi, 0.6, 5, twin)
            assert block.eta[b].tobytes() == eta.tobytes()
        assert gen.random() == twin.random()

    def test_block_is_validated_like_a_sample(self):
        block = sample_experiment1(0.5, 0.5, 10, [RngStream(32, i) for i in range(2)])
        assert len(block) == 2
        assert block.meta == {"experiment": 1, "psi": 0.5, "alpha": 0.5, "n": 10, "d": 2}
        bad = block.eta.copy()
        bad[1, 3, 0] = -1.0
        with pytest.raises(DomainError):
            PairedSample(bad, block.xi)
        with pytest.raises(DomainError):
            PairedSample(block.eta[0], block.xi[0])  # one sample, not a stack
        with pytest.raises(DomainError):
            sample_experiment1(0.5, 1.0, 10, [RngStream(32, 0)])


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
            sample_experiment2(0.5, 1.0, 0.01, 50, [RngStream(4, 6)], n_prime=500)


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


#: observations per path of the lockstep scan in test_lockstep_scan_matches_oracle
PATHS_AT_BATCH_ROWS = {
    2: {"lockstep": 70, "short": 0, "continued": 250},
    64: {"lockstep": 206, "short": 114, "continued": 0},
}


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
        s = sample_experiment2(0.3, 2.0, 0.5, 20_000, [RngStream(6, 1)], n_prime=70)
        assert np.all(s.xi == 1.0)
        for x in (10.0, 100.0):
            target = student_t_cdf(x, 2.0) ** 70
            for j in range(2):
                _mc_check((s.eta[0, :, j] <= x).astype(float), target)

    def test_pooled_maxima_match_bruteforce_law(self):
        gen = RngStream(6, 2).generator()
        fast = samplers._pooled_t_maxima(gen, np.full(2_000, 2_000.0), 0.5, 1.0)
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
        draws = samplers._pooled_t_maxima(gen, np.full(10_000, float(m)), rho, 1.0)

        def cdf(x):
            return np.exp(m * np.log1p(-student_t.sf(x, 1.0)))

        for j in range(2):
            assert kstest(draws[:, j], cdf).pvalue > 0.01

    def test_near_complete_dependence(self):
        s = sample_experiment2(0.99, 1.0, 0.5, 400, [RngStream(6, 3)], n_prime=50)
        md, _ = pickands_points(pseudo_uniforms(s.eta[0]), np.array([[0.5, 0.5]]), "MD")
        theta_hat = 2.0 * md[0]
        assert theta_hat < 1.1

    def test_xi_tail_regime(self):
        # P(xi > y) = 1 - (1 - y^-alpha)^n' ~ n' y^-alpha for a heavy-tail block maximum
        n_prime, y = 20, 10_000.0
        s = sample_experiment2(0.3, 1.0, 0.5, 2_000, [RngStream(6, 4)], n_prime=n_prime)
        target = 1.0 - (1.0 - y**-0.5) ** n_prime
        _mc_check((s.xi[0] > y).astype(float), target, factor=3.5)

    def test_cost_does_not_grow_with_row_count(self):
        # the top-down scan stops on the leading radii, so 10^30 rows draw no
        # more random words than 10^3 rows on the same stream
        for rho in (-0.5, 0.5, 0.99):
            drawn = {}
            for m in (1e3, 1e30):
                gen = RngStream(6, 5).generator()
                start = _uint64_drawn(gen)
                samplers._pooled_t_maxima(gen, np.full(500, m), rho, 1.0)
                drawn[m] = _uint64_drawn(gen) - start
            assert drawn[1e30] <= drawn[1e3], (rho, drawn)

    def test_radius_overflow_raises_naming_upsilon(self):
        # at upsilon = 0.1 the largest radius grows like total^10; the
        # lockstep hands that observation to the one-row scan, which names
        # the total the per-observation scan names
        message = r"^t-row radii overflow float64 for \S+ rows at upsilon=0\.1$"
        with pytest.raises(DomainError, match=message) as got:
            sample_experiment2(0.5, 0.1, 0.1, 50, [RngStream(6, 8)], n_prime=500)
        with pytest.raises(DomainError) as want:
            oracle_sample_experiment2(0.5, 0.1, 0.1, 50, RngStream(6, 8).generator(), 500)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("batch_rows", [2, 64])
    def test_lockstep_scan_matches_oracle(self, monkeypatch, batch_rows):
        # the maxima, the generator's next draw and the observations finished
        # alone are those of the per-observation scan; at 2 rows a batch most
        # scans continue past their first batch, and at 64 many totals of 1
        # or 5 blocks are below one batch, so both kinds fall back
        monkeypatch.setattr(samplers, "_BATCH_ROWS", batch_rows)
        alone = []
        scan_one = samplers._scan_one

        def spy(gen, total, rho, nu):
            alone.append(total)
            return scan_one(gen, total, rho, nu)

        monkeypatch.setattr(samplers, "_scan_one", spy)
        paths = {"lockstep": 0, "short": 0, "continued": 0}
        for n_prime in (1, 5, 64, 65):
            for nu in (1.0, 4.0):
                for rho in (-0.5, 0.99):
                    stream = RngStream(43, 100 * n_prime + int(nu))
                    gen, twin = stream.generator(), stream.generator()
                    sizes = sample_pareto_block_size(0.5, gen, (20, n_prime))
                    alone.clear()
                    eta = samplers._pooled_t_maxima(gen, sizes.sum(axis=1), rho, nu)
                    want = oracle_sample_experiment2(rho, nu, 0.5, 20, twin, n_prime, batch_rows)
                    want_eta, want_xi, totals, batches = want
                    assert eta.tobytes() == want_eta.tobytes()
                    assert sizes.max(axis=1).tobytes() == want_xi.tobytes()
                    assert gen.random() == twin.random()
                    short = totals < batch_rows
                    continued = ~short & (batches > 1)
                    assert alone == list(totals[short | continued])
                    paths["short"] += np.count_nonzero(short)
                    paths["continued"] += np.count_nonzero(continued)
                    paths["lockstep"] += np.count_nonzero(~short & ~continued)
        assert paths == PATHS_AT_BATCH_ROWS[batch_rows]

    @pytest.mark.parametrize("n_prime", [1, 5, 64, 65])
    def test_block_matches_per_stream_oracle(self, n_prime):
        # every row of a many-stream sample, and a running generator's next
        # draw, has the bits of the per-observation scan; a sample with a
        # non-positive maximum raises, counting the oracle's non-positive rows
        streams = [RngStream(44, 10 * n_prime + i) for i in range(3)]
        for rho, nu in ((-0.5, 1.0), (0.99, 4.0)):
            want = [
                oracle_sample_experiment2(rho, nu, 0.5, 20, stream.generator(), n_prime)
                for stream in streams
            ]
            nonpositive = [np.count_nonzero(~np.all(eta > 0.0, axis=1)) for eta, *_ in want]
            if any(nonpositive):
                first = next(count for count in nonpositive if count)
                with pytest.raises(DomainError, match=rf"={n_prime} is too small: {first} of 20 "):
                    sample_experiment2(rho, nu, 0.5, 20, streams, n_prime)
                continue
            block = sample_experiment2(rho, nu, 0.5, 20, streams, n_prime)
            assert block.meta == {
                "experiment": 2,
                "rho": rho,
                "upsilon": nu,
                "alpha": 0.5,
                "n": 20,
                "inner_size": n_prime,
            }
            for b, (eta, xi, _, _) in enumerate(want):
                assert block.eta[b].tobytes() == eta.tobytes()
                assert block.xi[b].tobytes() == xi.tobytes()
            gen, twin = streams[0].generator(), streams[0].generator()
            for _ in range(2):
                sample = sample_experiment2(rho, nu, 0.5, 20, [gen], n_prime)
                eta, xi, _, _ = oracle_sample_experiment2(rho, nu, 0.5, 20, twin, n_prime)
                assert sample.eta[0].tobytes() == eta.tobytes()
                assert sample.xi[0].tobytes() == xi.tobytes()
            assert gen.random() == twin.random()

    def test_small_inner_size_raises_naming_it(self):
        # the maximum of a few t-rows is negative with positive probability,
        # and eta must be strictly positive
        with pytest.raises(DomainError, match=r"inner_size=1 .* of 50 observations"):
            sample_experiment2(-0.5, 1.0, 0.5, 50, [RngStream(6, 9)], n_prime=1)

    def test_determinism(self):
        a = sample_experiment2(0.5, 1.0, 0.5, 10, [RngStream(6, 6)], n_prime=30)
        b = sample_experiment2(0.5, 1.0, 0.5, 10, [RngStream(6, 6)], n_prime=30)
        assert np.array_equal(a.eta, b.eta) and np.array_equal(a.xi, b.xi)


class TestSpectralOracle:
    def test_margins(self):
        r = sample_spectral_scaled(0.5, RngStream(7, 1), 20_000, base_psi=1.0)
        _mc_check((r[:, 0] <= 1.0).astype(float), np.exp(-1.0))

    def test_matches_direct_construction(self):
        r = sample_spectral_scaled(0.5, RngStream(7, 2), 5_000, base_psi=0.6)
        s = sample_experiment1(0.6, 0.5, 5_000, [RngStream(7, 3)])
        assert ks_2samp(r.max(axis=1), s.xi[0]).pvalue > 0.01


#: whitespace float() strips around a cell (space, tab, VT, FF, NBSP, U+2028),
#: and U+001C, which str.strip() and the C reader strip but float() does not
_CELL_SPACES = [" ", "\t", "\x0b", "\x0c", "\xa0", "\u2028", "\x1c"]

#: cell values that are odd as text or as numbers
_ODD_CELLS = [
    "nan", "inf", "-inf", "Infinity", "1e400", "4.9e-324", "0", "-2.5", "1e", "0x10", "",
    "1 2", "\x00", "\r",
]


def _mutated_csv(rng, d):
    """A sample CSV text of 0-8 rows at dimension d with 0-3 mutations: cells
    padded, signed, given `_` separators, non-ASCII digits, odd values, `#`
    or quotes, emptied, added or removed; blank, whitespace-only and `#`
    lines; a bad header; CRLF or lone CR endings; no final newline."""
    n = int(rng.integers(0, 9))
    scale = 10.0 ** rng.integers(-4, 5, size=(n, d + 1))
    rows = [[repr(float(v)) for v in row] for row in rng.exponential(size=(n, d + 1)) * scale]
    header = [f"eta_{j + 1}" for j in range(d)] + ["xi"]
    bad_headers = [["eta_1", "xi"], ["eta_2", "eta_1", "xi"], header[:-1] + ["x"], [""]]
    for _ in range(int(rng.choice(4, p=[0.3, 0.35, 0.2, 0.15]))):
        kind = int(rng.integers(0, 12))
        cells = [row for row in rows if row]
        if kind < 9 and cells:
            row = cells[int(rng.integers(len(cells)))]
            j = int(rng.integers(len(row)))
            if kind == 0:
                pads = [str(rng.choice(_CELL_SPACES)) * int(rng.integers(0, 3)) for _ in "lr"]
                row[j] = pads[0] + row[j] + pads[1]
            elif kind == 1:
                row[j] = "+" + row[j]
            elif kind == 2:
                row[j] = re.sub(r"(\d)(\d)", r"\1_\2", row[j], count=1)
            elif kind == 3:
                zero = int(rng.choice([0x0660, 0xFF10, 0x0966]))
                row[j] = re.sub(r"\d", lambda m: chr(zero + int(m.group())), row[j], count=1)
            elif kind == 4:
                row[j] = str(rng.choice(_ODD_CELLS))
            elif kind == 5:
                row[j] = "#" + row[j] if rng.random() < 0.5 else f'"{row[j]}"'
            elif kind == 6:
                row.append(repr(float(rng.exponential())))
            elif kind == 7:
                row.pop(j)
            else:
                row.insert(j, "")
        elif kind == 9:
            blank = "".join(rng.choice([" ", "\t", "\x0b"], size=int(rng.integers(0, 3))))
            rows.insert(int(rng.integers(len(rows) + 1)), [blank])
        elif kind == 10:
            rows.insert(int(rng.integers(len(rows) + 1)), ["# comment"])
        elif kind == 11:
            header = bad_headers[int(rng.integers(len(bad_headers)))]
    lines = [",".join(header)] + [",".join(row) for row in rows]
    ending = str(rng.choice(["\n", "\r\n", "\r"], p=[0.7, 0.2, 0.1]))
    text = ending.join(lines)
    if ending == "\n" and len(lines) > 2 and rng.random() < 0.1:
        # one lone CR among LF endings
        at = text.index("\n", len(lines[0]) + 1)
        text = text[:at] + "\r" + text[at + 1 :]
    return text + ending if rng.random() < 0.8 else text


class TestPairedSampleCsv:
    def test_round_trip_exact(self):
        s = sample_experiment1(0.5, 0.5, 50, [RngStream(8, 1)])
        back = PairedSample.from_csv(s.to_csv(0))
        assert np.array_equal(back.eta, s.eta)
        assert np.array_equal(back.xi, s.xi)
        # row b of a two-stream draw writes the text of stream b drawn alone,
        # and reads back as that row, bit for bit, in a one-row sample
        streams = [RngStream(8, 5), RngStream(8, 6)]
        two = sample_experiment1(0.5, 0.5, 50, streams)
        for b, stream in enumerate(streams):
            text = two.to_csv(b)
            assert text == sample_experiment1(0.5, 0.5, 50, [stream]).to_csv(0)
            back = PairedSample.from_csv(text)
            assert back.eta.shape == (1, 50, 2) and back.xi.shape == (1, 50)
            assert back.eta.tobytes() == two.eta[b].tobytes()
            assert back.xi.tobytes() == two.xi[b].tobytes()

    def test_byte_identical_reruns(self):
        texts = [sample_experiment1(0.5, 0.5, 50, [RngStream(8, 2)]).to_csv(0) for _ in range(2)]
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
            PairedSample(np.array([[[1.0, -1.0], [1.0, 2.0]]]), np.array([[1.0, 2.0]]))

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
            assert np.array_equal(s.eta, [[[1.5, 2.0], [3.0, 0.25]]])
            assert np.array_equal(s.xi, [[2.0, 3.0]])

    def test_spaces_around_cells(self):
        s = PairedSample.from_csv("eta_1,eta_2,xi\n 1.5 ,2.0,\t2.0\n3.0 , 0.25,3.0  \n")
        assert np.array_equal(s.eta, [[[1.5, 2.0], [3.0, 0.25]]])
        assert np.array_equal(s.xi, [[2.0, 3.0]])

    def test_no_trailing_newline(self):
        s = PairedSample.from_csv("eta_1,eta_2,xi\n1.5,2.0,2.0\n3.0,0.25,3.0")
        assert np.array_equal(s.xi, [[2.0, 3.0]])

    def test_blank_lines_are_skipped_and_counted(self):
        text = "eta_1,eta_2,xi\n1.5,2.0,2.0\n\n   \n3.0,0.25,3.0\n\n"
        s = PairedSample.from_csv(text)
        assert np.array_equal(s.eta, [[[1.5, 2.0], [3.0, 0.25]]])
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

    @pytest.mark.parametrize("chunk_chars", [None, 1], ids=["default-chunks", "one-line-chunks"])
    def test_parser_matches_line_walk_oracle(self, monkeypatch, chunk_chars):
        # on each text: the same bits, or the same error class, message and line
        if chunk_chars is not None:
            monkeypatch.setattr(samplers, "_CSV_CHUNK_CHARS", chunk_chars)
        read_rows = samplers._read_rows
        reader_tables = []

        def counted(*args):
            table = read_rows(*args)
            reader_tables.append(table is not None)
            return table

        monkeypatch.setattr(samplers, "_read_rows", counted)
        rng = np.random.default_rng(2025)
        for i in range(2_400):
            text = _mutated_csv(rng, 2 + i % 2)
            try:
                want = oracle_from_csv(text)
            except Exception as exc:
                with pytest.raises(type(exc)) as err:
                    PairedSample.from_csv(text)
                assert str(err.value) == str(exc), text
                assert err.value.line == exc.line, text
                continue
            got = PairedSample.from_csv(text)
            assert got.eta.shape == want.eta.shape and got.xi.shape == want.xi.shape, text
            assert got.eta.tobytes() == want.eta.tobytes(), text
            assert got.xi.tobytes() == want.xi.tobytes(), text
        # the C reader gave its table for a good share of the corpus
        assert sum(reader_tables) > 300

    @pytest.mark.parametrize(
        "chunk_chars", [5, 1, 100], ids=["few-bytes", "one-row", "rows-cut-mid-line"]
    )
    def test_chunk_boundaries(self, monkeypatch, chunk_chars):
        monkeypatch.setattr(samplers, "_CSV_CHUNK_CHARS", chunk_chars)
        s = sample_experiment1(0.5, 0.5, 500, [RngStream(8, 4)])
        text = s.to_csv(0)
        # the C reader reads every chunk, and the line walk is not needed
        table = samplers._read_rows(text, text.index("\n") + 1, 2)
        assert table.tobytes() == np.column_stack([s.eta[0], s.xi[0]]).tobytes()
        back = PairedSample.from_csv(text)
        assert back.eta.tobytes() == s.eta.tobytes()
        assert back.xi.tobytes() == s.xi.tobytes()
        self.test_bad_cell_names_line()
        self.test_column_count_error()

    def test_round_trip_three_columns(self):
        s = sample_experiment1(0.5, 0.5, 30, [RngStream(8, 3)], d=3)
        text = s.to_csv(0)
        assert text.startswith("eta_1,eta_2,eta_3,xi\n")
        back = PairedSample.from_csv(text)
        assert np.array_equal(back.eta, s.eta)
        assert np.array_equal(back.xi, s.xi)
