"""Correlated heavy-tailed operating-cash-flow scenarios.

Each scenario is drawn from a Gaussian copula with equicorrelation rho across
all banks and mapped through the Lomax (Pareto type II) inverse CDF, with a
shared shape ``nu`` and one scale per group.  The Lomax support is [0, inf),
so every cash flow profile stays in the nonnegative orthant.

Scenario n owns the Philox counter block that starts at n * 2^64 (Salmon et
al. 2011), so it does not depend on the sample count.  One generator is
reseeked before each scenario by setting its 256-bit counter to the words
``[0, n, 0, 0]`` and emptying its output buffer, through one state dict of
plain Python ints built once per sample; this is the same stream as a fresh
``Philox(key=seed, counter=n << 64)`` per scenario.  The normals
are drawn one block of ``util.row_block`` rows at a time into one block
buffer, and the copula and the marginal transforms, which act element by
element, write each block straight into the N x d values.

The copula's normal CDF is Cephes ``ndtr`` (Cody 1969 rational
approximations, as published in Moshier, *Methods and Programs for
Mathematical Functions*, 1989), transcribed in Cephes' order of operations
and with libm's ``exp``; that is what ``scipy.special.ndtr`` evaluates, so
every bit equals scipy's and the package needs only numpy at run time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .network import Grouping
from .util import CapacityError, ValidationError, frozen_array, frozen_whole, row_block

# Scenario n starts at Philox counter n << 64, whose little-endian uint64
# words are [0, n, 0, 0]: n goes in word 1.  One scenario consumes d+1
# normals, far below the 2^64 counter steps between two scenarios.
_SCENARIO_WORD = 1
# bytes a sample may allocate: the N x d values, one block of normals, d + 1
# a row, and the normal CDF's working arrays for one block of values
_SAMPLE_BYTE_CAP = 2 << 30

# Cephes ndtr's coefficients.  erf(x) = x T(x^2) / U(x^2) on |x| < 1;
# erfc(x) = exp(-x^2) P(x) / Q(x) on [1, 8) and exp(-x^2) R(x) / S(x) from 8
# on.  U, Q and S have a leading 1 that ``_p1evl`` supplies.
_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
      7.00332514112805075473E3, 5.55923013010394962768E4)
_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
      2.26290000613890934246E4, 4.92673942608635921086E4)
_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
      4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
      9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
      9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
      1.65666309194161350182E3, 5.57535340817727675546E2)
_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
      6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_S = (2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
      1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0)
# Cephes' MAXLOG, log(2**1024): erfc is 0 once x^2 exceeds it
_MAXLOG = 7.09782712893383996843E2
# 8-byte words per cell that ``_ndtr`` holds at most at once: a little over
# 7 when every cell is past 8 sqrt(2), about 2.5 on standard normals
_NDTR_WORDS = 8


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
    equicorrelation matrix.  z is pushed through the normal CDF (``_ndtr``,
    bit for bit scipy's) and then the group's Lomax inverse CDF.
    """
    if params.beta_by_group.size != grouping.g:
        raise ValidationError("beta_by_group length must equal the group count")

    d = grouping.assignment.size
    step = min(params.n, row_block(d + 1))
    # check before allocating, so an oversized request fails fast instead
    # of filling memory
    if 8 * (params.n * d + step * (d + 1) + _NDTR_WORDS * step * d) > _SAMPLE_BYTE_CAP:
        raise CapacityError(f"{params.n} scenarios of {d} banks exceed "
                            f"{_SAMPLE_BYTE_CAP} bytes of sample arrays")
    beta_bank = params.beta_by_group[grouping.assignment]
    sq_common = np.sqrt(params.rho)
    sq_own = np.sqrt(1.0 - params.rho)

    # one generator, reseeked to scenario n's counter block before each row
    # through one state dict of plain ints, which the setter reads faster
    # than numpy scalars; an empty output buffer makes the first draw start
    # the block
    bitgen = Philox(key=params.seed)
    gen = Generator(bitgen)
    counter = [0, 0, 0, 0]
    state = {"bit_generator": "Philox",
             "state": {"counter": counter, "key": bitgen.state["state"]["key"].tolist()},
             "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
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
        _ndtr(block)
        np.power(block, -1.0 / params.nu, out=block)
        block -= 1.0
        block *= beta_bank

    return ScenarioSet(values=values)


def _polevl(x: np.ndarray, coef: tuple) -> np.ndarray:
    """Cephes ``polevl``: Horner from the leading coefficient coef[0]."""
    out = np.multiply(x, coef[0])
    out += coef[1]
    for c in coef[2:]:
        out *= x
        out += c
    return out


def _p1evl(x: np.ndarray, coef: tuple, out: np.ndarray | None = None) -> np.ndarray:
    """Cephes ``p1evl``: Horner with a leading coefficient of 1 before coef."""
    out = np.add(x, coef[0], out=out)
    for c in coef[1:]:
        out *= x
        out += c
    return out


def _erfc_ratio(e: np.ndarray, z: np.ndarray, num: tuple, den: tuple) -> np.ndarray:
    """(e * num(z)) / den(z) into e, Cephes erfc's last step."""
    e *= _polevl(z, num)
    e /= _p1evl(z, den)
    return e


def _half_erfc(z: np.ndarray) -> np.ndarray:
    """0.5 * erfc(z) for z >= 1, as Cephes ``ndtr`` takes it, in a new
    array; z is clipped in place."""
    # past sqrt(MAXLOG) ~ 26.6 the result is 0 anyway; the clip keeps z^2
    # and the polynomials finite for inf and 1e300
    np.minimum(z, 64.0, out=z)
    arg = z * z
    np.negative(arg, out=arg)
    under = arg < -_MAXLOG
    # libm's exp through math.exp: numpy's SIMD exp differs from it in the
    # last bit on about 3% of arguments
    e = np.fromiter(map(math.exp, memoryview(arg)), float, arg.size)
    del arg
    e[under] = 0.0
    del under
    far = np.flatnonzero(z >= 8.0)
    e_far = _erfc_ratio(e[far], z[far], _R, _S)
    _erfc_ratio(e, z, _P, _Q)
    e[far] = e_far
    e *= 0.5
    return e


def _ndtr(a: np.ndarray) -> np.ndarray:
    """Overwrite the C-contiguous float array a with the standard normal CDF
    of its cells and return it: Cephes ``ndtr`` in Cephes' order of
    operations, so each cell has the bits of ``scipy.special.ndtr``.

    With x = a / sqrt(2), cells with |x| < 1 take 0.5 + 0.5 erf(x); that
    polynomial runs over the whole array, with the other cells set to 0.
    Those tail cells, about 16% of standard normals, are taken out first
    and take 0.5 erfc(|x|), or 1 minus it where x > 0."""
    x = a.reshape(-1)
    x *= 0.70710678118654752440
    tail = np.flatnonzero(np.abs(x) >= 1.0)
    xt = x[tail]
    pos = xt > 0
    y = _half_erfc(np.abs(xt, out=xt))
    np.subtract(1.0, y, out=y, where=pos)
    x[tail] = 0.0
    z = x * x
    num = _polevl(z, _T)
    num *= x
    # x is spent: its cells take the denominator, then the quotient
    np.divide(num, _p1evl(z, _U, out=x), out=x)
    x *= 0.5
    x += 0.5
    x[tail] = y
    return a
