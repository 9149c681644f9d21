import tracemalloc

import numpy as np
import pytest
from numpy.random import Generator, Philox
from scipy.special import ndtr, ndtri

import sysvar as sv
import sysvar.shocks
from sysvar.shocks import lomax_cdf, lomax_mean
from sysvar.util import CapacityError, ValidationError, row_block
from conftest import blocks_of

GROUPING = sv.Grouping(g=2, assignment=np.array([0, 0, 1, 1]))


def params(**kw):
    base = dict(nu=3.0, beta_by_group=np.array([100.0, 50.0]), rho=0.3, n=50, seed=11)
    base.update(kw)
    return sv.ShockParams(**base)


class TestValidation:
    def test_shape_must_exceed_one(self):
        with pytest.raises(ValidationError):
            sv.sample_shocks(params(nu=1.0), GROUPING)

    def test_correlation_range(self):
        with pytest.raises(ValidationError):
            sv.sample_shocks(params(rho=1.0), GROUPING)
        with pytest.raises(ValidationError):
            sv.sample_shocks(params(rho=-0.1), GROUPING)

    def test_beta_length_matches_groups(self):
        with pytest.raises(ValidationError):
            sv.sample_shocks(params(beta_by_group=np.array([1.0])), GROUPING)

    @pytest.mark.parametrize("n", [-5, 0, 4])
    def test_head_takes_between_one_and_all_scenarios(self, n):
        scen = sv.ScenarioSet(values=np.ones((3, 2)))
        with pytest.raises(ValidationError):
            scen.head(n)
        assert scen.head(1).n == 1 and scen.head(3).n == 3


class TestByteCap:
    """The cap counts what the sampler allocates: the N x d values, one
    block of normals, d + 1 a row, and the normal CDF's working arrays for
    one block of values."""

    def test_request_just_over_the_cap_allocates_nothing(self):
        d = GROUPING.assignment.size
        block = row_block(d + 1)
        words = sysvar.shocks._NDTR_WORDS
        most = (sysvar.shocks._SAMPLE_BYTE_CAP // 8 - block * (d + 1 + words * d)) // d
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                sv.sample_shocks(params(n=most + 1), GROUPING)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_cap_counts_one_block_of_normals(self, monkeypatch):
        # 50 scenarios of 4 banks in blocks of 7: 200 values, 35 normals and
        # the CDF's words for 28 cells
        words = sysvar.shocks._NDTR_WORDS
        monkeypatch.setattr(sysvar.shocks, "row_block", lambda width: 7)
        monkeypatch.setattr(sysvar.shocks, "_SAMPLE_BYTE_CAP",
                            8 * (50 * 4 + 7 * 5 + words * 7 * 4))
        assert sv.sample_shocks(params(n=50), GROUPING).n == 50
        with pytest.raises(CapacityError):
            sv.sample_shocks(params(n=51), GROUPING)


def _neighbours(points, k=4):
    """Each point and its k nearest floats on either side."""
    out = []
    for c in points:
        lo = hi = c
        out.append(c)
        for _ in range(k):
            lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
            out += [lo, hi]
    return np.array(out)


class TestNdtr:
    """The sampler's normal CDF has scipy.special.ndtr's bits, and raises no
    RuntimeWarning (an error under this suite's settings)."""

    @pytest.mark.parametrize("draw", [
        *(pytest.param(lambda rng, s=s: s * rng.standard_normal(1_000_000),
                       id=f"normal-x{s}") for s in (1, 3, 12, 40)),
        pytest.param(lambda rng: rng.uniform(-40.0, 40.0, 1_000_000), id="uniform-40"),
        # the edges of Cephes' branches: |x| = 1 and 8, and x^2 = MAXLOG
        pytest.param(lambda rng: _neighbours(
            s * np.sqrt(2.0) * b for s in (1.0, -1.0)
            for b in (1.0, 8.0, np.sqrt(sysvar.shocks._MAXLOG))), id="branch-edges"),
        pytest.param(lambda rng: np.array([0.0, -0.0, np.inf, -np.inf, 1e300, -1e300,
                                           5e-324, -5e-324, 1e-310, -1e-310,
                                           2.2250738585072014e-308]), id="specials"),
    ])
    def test_bits_equal_scipy(self, rng, draw):
        a = draw(rng)
        got = sysvar.shocks._ndtr(a.copy())
        assert np.array_equal(got.view(np.int64), ndtr(a).view(np.int64))

    @pytest.mark.parametrize("value", [0.5, 5.0, -20.0, np.inf])
    def test_working_memory_within_its_count(self, value):
        # one value everywhere: every cell takes the same branch
        a = np.full(100_000, value)
        tracemalloc.start()
        try:
            sysvar.shocks._ndtr(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * sysvar.shocks._NDTR_WORDS * a.size


class TestSampling:
    def test_benchmark_config_runs(self):
        scen = sv.sample_shocks(params(), GROUPING)
        assert scen.n == 50 and scen.d == 4
        assert np.all(scen.values > 0)

    def test_deterministic_and_prefix_stable(self):
        a = sv.sample_shocks(params(n=30), GROUPING)
        b = sv.sample_shocks(params(n=30), GROUPING)
        assert np.array_equal(a.values, b.values)
        # scenario n does not depend on the total sample count
        c = sv.sample_shocks(params(n=12), GROUPING)
        assert np.array_equal(a.values[:12], c.values)

    def test_mean_matches_lomax(self):
        scen = sv.sample_shocks(params(n=100_000, rho=0.0), GROUPING)
        nu = 3.0
        for col, beta in ((0, 100.0), (3, 50.0)):
            x = scen.values[:, col]
            se = x.std(ddof=1) / np.sqrt(x.size)
            assert abs(x.mean() - lomax_mean(nu, beta)) <= 3 * se

    def test_zero_rho_gives_independent_latents(self):
        scen = sv.sample_shocks(params(n=100_000, rho=0.0), GROUPING)
        nu = 3.0
        beta = np.array([100.0, 100.0, 50.0, 50.0])
        z = ndtri(lomax_cdf(scen.values, nu, beta))
        n = scen.n
        for i in range(4):
            for j in range(i + 1, 4):
                r = np.corrcoef(z[:, i], z[:, j])[0, 1]
                assert abs(r) <= 4 / np.sqrt(n)

    def test_equicorrelation_recovered(self):
        rho = 0.3
        scen = sv.sample_shocks(params(n=100_000, rho=rho), GROUPING)
        beta = np.array([100.0, 100.0, 50.0, 50.0])
        z = ndtri(lomax_cdf(scen.values, 3.0, beta))
        rs = [np.corrcoef(z[:, i], z[:, j])[0, 1]
              for i in range(4) for j in range(i + 1, 4)]
        assert abs(np.mean(rs) - rho) <= 0.05

    def test_marginal_cdf_within_ks_bound(self):
        scen = sv.sample_shocks(params(n=100_000, rho=0.3), GROUPING)
        n = scen.n
        for col, beta in ((1, 100.0), (2, 50.0)):
            x = np.sort(scen.values[:, col])
            cdf = lomax_cdf(x, 3.0, beta)
            grid = np.arange(1, n + 1) / n
            d_stat = max(np.abs(cdf - grid).max(), np.abs(cdf - grid + 1.0 / n).max())
            # asymptotic 1% Kolmogorov-Smirnov critical value
            assert d_stat <= 1.63 / np.sqrt(n)


def _reference_rows(p: sv.ShockParams, assignment: np.ndarray) -> np.ndarray:
    """Row n from a fresh generator on scenario n's counter block n << 64."""
    beta_bank = np.asarray(p.beta_by_group, dtype=float)[assignment]
    rows = []
    for n in range(p.n):
        normals = Generator(Philox(key=p.seed, counter=n << 64)).standard_normal(
            assignment.size + 1)
        z = np.sqrt(p.rho) * normals[0] + np.sqrt(1.0 - p.rho) * normals[1:]
        rows.append(beta_bank * (np.power(ndtr(-z), -1.0 / p.nu) - 1.0))
    return np.array(rows)


class TestCounterLayout:
    """The reseeked generator must walk the same stream as one Philox per
    scenario; a change to Philox's state layout fails here bit for bit."""

    CASES = [
        ([0, 0, 1, 1], [100.0, 50.0], 0.3, 11),
        ([0, 1, 2, 0, 1], [10.0, 20.0, 30.0], 0.0, 36),
        ([0], [7.5], 0.5, 5),
        ([1, 0, 1], [2.0, 3.0], 0.9, 2**64 + 3),
        ([0, 1], [1.0, 1.0], 0.2, 2**127 + 12345),
    ]

    @pytest.mark.parametrize("assignment, beta, rho, seed", CASES)
    def test_rows_match_one_generator_per_scenario(self, assignment, beta, rho, seed):
        self._check(assignment, beta, rho, seed)

    @pytest.mark.parametrize("assignment, beta, rho, seed", CASES)
    def test_rows_match_across_row_blocks(self, monkeypatch, assignment, beta, rho, seed):
        # the 40 rows span six blocks of 7, so the reseek is checked at
        # every block edge
        blocks_of(monkeypatch, 7)
        self._check(assignment, beta, rho, seed)

    @staticmethod
    def _check(assignment, beta, rho, seed):
        assignment = np.array(assignment)
        grouping = sv.Grouping(g=len(beta), assignment=assignment)
        p = sv.ShockParams(nu=2.5, beta_by_group=np.array(beta), rho=rho, n=40, seed=seed)
        got = sv.sample_shocks(p, grouping).values
        want = _reference_rows(p, assignment)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
