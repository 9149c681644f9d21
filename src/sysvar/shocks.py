"""Correlated heavy-tailed operating-cash-flow scenarios.

Each scenario is drawn from a Gaussian copula with equicorrelation rho across
all banks and mapped through the Lomax (Pareto type II) inverse CDF, with a
shared shape ``nu`` and one scale per group.  The Lomax support is [0, inf),
so every cash flow profile stays in the nonnegative orthant.

Scenario n owns the Philox counter block that starts at n * 2^64 (Salmon et
al. 2011), so it does not depend on the sample count.  One generator is
reseeked before each scenario by setting its 256-bit counter to the words
``[0, n, 0, 0]`` and emptying its output buffer; this is the same stream as
a fresh ``Philox(key=seed, counter=n << 64)`` per scenario.  The normals
are drawn one block of ``util.row_block`` rows at a time into one block
buffer, and the copula and the marginal transforms, which act element by
element, write each block straight into the N x d values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .network import Grouping
from .util import CapacityError, ValidationError, frozen_array, frozen_whole, row_block

# Scenario n starts at Philox counter n << 64, whose little-endian uint64
# words are [0, n, 0, 0]: n goes in word 1.  One scenario consumes d+1
# normals, far below the 2^64 counter steps between two scenarios.
_SCENARIO_WORD = 1
# bytes a sample may allocate: the N x d values and one block of normals,
# d + 1 a row
_SAMPLE_BYTE_CAP = 2 << 30


@dataclass(frozen=True)
class ShockParams:
    """Lomax marginals (shape nu, per-group scales) under an equicorrelated
    copula.  Checked when built: n is a whole number of at least 1 (kept as
    an int) and the seed an integer in [0, 2**128), the Philox key range."""

    nu: float
    beta_by_group: np.ndarray
    rho: float
    n: int
    seed: int

    def __post_init__(self) -> None:
        if not 1 < self.nu < np.inf:
            raise ValidationError("nu must be finite and exceed 1 (finite mean)")
        beta = frozen_array(self.beta_by_group, "beta_by_group")
        if beta.ndim != 1 or not np.all(beta > 0):
            raise ValidationError("beta_by_group must be a vector of positive scales")
        if not 0 <= self.rho < 1:
            raise ValidationError("rho must lie in [0, 1)")
        n = int(frozen_whole(self.n, "sample count"))
        if n < 1:
            raise ValidationError("sample count must be at least 1")
        if not (isinstance(self.seed, (int, np.integer)) and 0 <= int(self.seed) < 2**128):
            raise ValidationError("seed must be an integer in [0, 2**128), Philox's key range")
        object.__setattr__(self, "beta_by_group", beta)
        object.__setattr__(self, "n", n)


@dataclass(frozen=True)
class ScenarioSet:
    """N x d matrix of cash-flow scenarios; row n is scenario n.  Checked
    when built to be finite, and kept as a read-only view, not a copy.  A
    translated set may hold negative entries; ``check_nonnegative`` refuses
    them where cash flows enter or leave the program."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = frozen_array(self.values, "scenario values", copy=False)
        if v.ndim != 2:
            raise ValidationError("scenario values must be an N x d matrix")
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]

    def check_nonnegative(self) -> None:
        """Refuse a set with a negative cash flow."""
        if self.values.size and self.values.min() < 0:
            raise ValidationError("scenario values must be nonnegative")

    def head(self, n: int) -> "ScenarioSet":
        """First n scenarios (prefix of the same stream), 1 <= n <= N."""
        if not 1 <= n <= self.n:
            raise ValidationError(f"cannot take {n} of {self.n} scenarios")
        return ScenarioSet(values=self.values[:n])


def lomax_ppf(u: np.ndarray, nu: float, beta: np.ndarray | float) -> np.ndarray:
    """Inverse CDF x = beta * ((1-u)^(-1/nu) - 1)."""
    return beta * (np.power(1.0 - u, -1.0 / nu) - 1.0)


def lomax_cdf(x: np.ndarray, nu: float, beta: np.ndarray | float) -> np.ndarray:
    """CDF 1 - (beta / (beta + x))^nu on x >= 0."""
    return 1.0 - np.power(beta / (beta + x), nu)


def lomax_mean(nu: float, beta: float) -> float:
    """beta / (nu - 1), finite for nu > 1."""
    return beta / (nu - 1.0)


def sample_shocks(params: ShockParams, grouping: Grouping) -> ScenarioSet:
    """Draw N correlated Lomax scenarios for the banks of `grouping`.

    The latent Gaussian vector uses the one-factor representation
    z_i = sqrt(rho) * common + sqrt(1-rho) * own_i, which realizes an exact
    equicorrelation matrix.  z is pushed through the normal CDF and then the
    group's Lomax inverse CDF.
    """
    # imported here, so that the commands which do not sample never pay
    # for loading scipy.special
    from scipy.special import ndtr

    if params.beta_by_group.size != grouping.g:
        raise ValidationError("beta_by_group length must equal the group count")

    d = grouping.assignment.size
    step = min(params.n, row_block(d + 1))
    # check before allocating, so an oversized request fails fast instead
    # of filling memory
    if 8 * (params.n * d + step * (d + 1)) > _SAMPLE_BYTE_CAP:
        raise CapacityError(f"{params.n} scenarios of {d} banks exceed "
                            f"{_SAMPLE_BYTE_CAP} bytes of sample arrays")
    beta_bank = params.beta_by_group[grouping.assignment]
    sq_common = np.sqrt(params.rho)
    sq_own = np.sqrt(1.0 - params.rho)

    # one generator, reseeked to scenario n's counter block before each row;
    # an empty output buffer makes the first draw start the block
    bitgen = Philox(key=params.seed)
    gen = Generator(bitgen)
    state = bitgen.state
    state["buffer_pos"] = 4
    state["has_uint32"] = 0
    counter = state["state"]["counter"]
    counter[:] = 0
    values = np.empty((params.n, d))
    normals = np.empty((step, d + 1))
    for start in range(0, params.n, step):
        block = values[start:start + step]
        for k in range(block.shape[0]):
            counter[_SCENARIO_WORD] = start + k
            bitgen.state = state
            gen.standard_normal(out=normals[k])
        drawn = normals[:block.shape[0]]
        np.multiply(drawn[:, 1:], sq_own, out=block)
        block += sq_common * drawn[:, :1]
        # 1 - Phi(z) computed as Phi(-z) for tail accuracy
        np.negative(block, out=block)
        ndtr(block, out=block)
        np.power(block, -1.0 / params.nu, out=block)
        block -= 1.0
        block *= beta_bank

    return ScenarioSet(values=values)
