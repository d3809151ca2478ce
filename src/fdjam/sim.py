"""Monte Carlo oracle and end-to-end slot simulator.

Eavesdroppers are a Poisson point process of density ``lambda_e`` on a disk
of radius ``r_cut`` around the transmitter (the analysis integrates over
the whole plane; choose ``r_cut`` so the straggler contribution is
negligible and check it with the doubling test in the suite).  All fading
gains are unit-mean exponentials.

Signal-side thinning.  Jamming only lowers an eavesdropper's SINR, so only
an eavesdropper whose noise-only SINR beats the threshold x can cause an
outage.  With u = d_ak^2, a = sigma_e2 * x / p_a and v = a * u^(alpha/2),
that happens with probability exp(-v), independently per point, so the
sampler draws the thinned process directly (independent thinning of a PPP):

* the kept count per trial is Poisson with mean
  lambda_e * pi * r_cut^2 * 1F1(k; k+1; -c), with k = 2/alpha and
  c = a * r_cut^alpha, which is defined at every finite c >= 0 (at a = 0
  nothing is thinned and the mean is lambda_e * pi * r_cut^2).  Below
  c = 38 it is summed as Kummer's series e^-c * sum_n c^n / (k+1)_n, whose
  terms are all positive; from there on it is the whole plane's
  Gamma(1+k) * c^(-k), as 1F1(k; k+1; -c) = Gamma(1+k) * c^(-k) * P(k, c)
  (DLMF 8.5.1; P is the regularized lower incomplete gamma function) and
  P(k, c) rounds to 1 there;
* a kept point's v is Gamma(k) truncated to [0, c], and its distance is
  r_cut * (v / c)^(1/alpha);
* by memorylessness gamma_ak = v + Exp(1).  Under jamming power p_b the
  point still beats x iff that Exp(1) exceeds t * gamma_bk, with
  t = v * p_b / (sigma_e2 * d_bk^alpha) and gamma_bk ~ Exp(1); the two
  gains are integrated out into one coin of probability 1 / (1 + t).

A trial is an outage iff some kept point wins its coin; without jamming
every kept point does, and no point is drawn.  The estimator is exact in
distribution for the truncated field.

Jamming-side thinning (``empirical_sop`` only).  The coin probability is
1 / (1 + q (d_ak / d_bk)^alpha), with q = x * p_b / p_a, and since
d_bk <= d_ak + d_ab it is at most p_out = 1 / (1 + q (r_in / (r_in +
d_ab))^alpha) wherever d_ak >= r_in.  So the kept points split into two
independent fields whose hit intensities add up to the one field's
(thinning by a dominating intensity):

* the outer field covers the whole disk with the same scale c and
  positions, and a kept-count mean scaled by p_out; a point at d_ak >= r_in
  is a hit iff ``coin * p_out * (noise + v * p_b) < noise``, a point
  inside r_in tests the plain coin;
* the inner field covers the disk of radius r_in, with scale
  c_in = c * (r_in / r_cut)^alpha and kept-count mean
  lambda_e * pi * r_in^2 * 1F1(k; k+1; -c_in) * (1 - p_out), and tests the
  plain coin.

r_in is the point of the grid d_ab * 2^(j/2), j >= -4, below r_cut with
the fewest expected kept points per trial, and the split is used only
where it at least halves them (:func:`_fields`); otherwise, and in
``run_online``, the one field is drawn as before.  At strong jamming most
of the far field's points, which would lose their coin, are never drawn.

Draw contract.  Trials (domain 0) and on-line slots (domain 1) are grouped
in blocks of ``_BLOCK`` (256) consecutive indices, and block ``b`` of a run
with master seed ``s`` draws from its own substream ``default_rng((s,
domain, b))`` (:func:`sub_rng`).  A (seed, numpy version, block size) tuple
pins every result bit for bit.  Another block size draws different, equally
valid numbers.  A block draws in a fixed order: the on-line simulator first
draws the main-channel gains, then the self-interference gains, one per
slot, by inverse CDF ``-log1p(-U)``; then, for the trials or transmitting
slots in index order, the kept counts (Poisson); then the points of jammed
rows in owner order, in chunks of ``_CHUNK`` points: per chunk the truncated
Gamma(k) draws (rounds of ``Generator.gamma`` proposals where c >=
Gamma(1+k)^(1/k), rounds of area-uniform positions and acceptance uniforms
elsewhere), then the half-azimuths, then the jamming coins.  Consecutive
uniforms come from one ``Generator.random`` call (the two gain vectors of a
block; the azimuths and coins of a chunk), which fills them in stream order:
the same numbers as one call per vector.  Where ``empirical_sop`` splits the
field, each block draws the outer field's counts and points in that order,
then the inner field's.

Evaluation.  No output depends on the order in which blocks, rows or points
are evaluated, so a run can be sharded across workers as long as every
shard holds whole blocks.  The engine itself groups the work two ways, with
the same outputs as one block at a time and no option for either:

* batches: up to ``_CHUNK`` consecutive rows of whole blocks are evaluated
  together (gains, slot rule, thinning, jamming coins, outage and
  reliability tests);
* windows: the kept counts, which each block draws first, plan windows of
  points (:func:`_windows`), runs of consecutive whole blocks that keep at
  most ``_POINTS`` points in all, or one chunk of a block that keeps more;
  a window's blocks draw their points in turn, and its points are tested
  together.

``empirical_sop`` holds its powers fixed, so :func:`_fields` forms every
field's thinning scale and kept-count mean once per call, in one
:func:`_kept_mean` call, and the kernel broadcasts them and the jamming
power, evaluating a batch one field after the other; ``run_online`` passes
one value per transmitting slot through the same kernel.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .online import decide_slots, _path_gain
from .params import SwitchedSolution, SystemParams, ValidationError

__all__ = [
    "McEstimate",
    "ModeCounts",
    "SimReport",
    "sub_rng",
    "empirical_sop",
    "run_online",
]

# Trials or slots per substream.  The block size pins every Monte Carlo
# output (another size draws different, equally valid numbers) and is
# written into the artifacts, so it is part of the reproducibility contract,
# not a speed setting.  Each block pays a fixed cost (its substream, one
# Poisson call and one truncated-gamma and uniform call per field), which
# at 64 rows was most of a sparse row's time; 256 cuts it 4x, and 1,024 is
# no faster.  Peak memory does not grow with the block: windows and
# per-chunk draws bound it by the chunk.
_BLOCK = 256
# Kept eavesdroppers drawn at once within a block, and rows (trials or
# slots) evaluated at once in a batch of blocks; bounds peak memory in dense
# fields that the signal threshold barely thins.
_CHUNK = 1 << 15
# Most kept points in a window of whole blocks, so the test's scratch arrays
# stay in cache; a block that keeps more is tested a chunk at a time.
_POINTS = 1 << 12


def sub_rng(seed: int, domain: int, index: int) -> np.random.Generator:
    """Dedicated substream for one block of one experiment domain."""
    return np.random.default_rng((seed, domain, index))


def _batches(n: int, seed: int, domain: int):
    """Batches of consecutive whole blocks for ``n`` trials or slots of one
    domain, each of at most ``_CHUNK`` rows and at least one block:
    ``(rngs, starts)``, the blocks' substreams and each block's first row
    within the batch, closed by the batch's row count."""
    per = max(1, _CHUNK // _BLOCK)
    n_blocks = -(-n // _BLOCK)
    for first in range(0, n_blocks, per):
        blocks = range(first, min(first + per, n_blocks))
        rows = min(n, blocks.stop * _BLOCK) - first * _BLOCK
        yield ([sub_rng(seed, domain, b) for b in blocks],
               [*range(0, rows, _BLOCK), rows])


def _at(x, index):
    """``x[index]`` for a value per row or point; ``x`` itself when one value
    serves every row (``empirical_sop`` holds its powers fixed)."""
    return x[index] if isinstance(x, np.ndarray) else x


def _gamma_below(rng: np.random.Generator, k: float, c, n: int
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """Per entry of ``c``, the first ``Gamma(k)`` proposal ``v`` at most c,
    and its ``(v / c)^(k/2)``; each round draws one proposal per entry still
    rejected, in entry order."""
    v = rng.gamma(k, size=n)
    todo = (v > c).nonzero()[0]
    while todo.size:
        g = rng.gamma(k, size=todo.size)
        ok = g <= _at(c, todo)
        v[todo[ok]] = g[ok]
        todo = todo[~ok]
    return v, (v / c) ** (k / 2.0)


def _power_law_below(rng: np.random.Generator, k: float, c, n: int
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """Per entry of ``c``, the first area-uniform position ``v = c * U^(1/k)``
    accepted with probability exp(-v), and its ``sqrt(U)``; each round draws
    the positions, then the acceptance uniforms, of the entries still
    rejected, in entry order."""
    v = np.empty(n)
    s = np.empty(n)
    todo = np.arange(n)
    while todo.size:
        w = rng.random(todo.size)
        g = _at(c, todo) * w ** (1.0 / k)
        ok = rng.random(todo.size) < np.exp(-g)
        v[todo[ok]] = g[ok]
        s[todo[ok]] = np.sqrt(w[ok])
        todo = todo[~ok]
    return v, s


def _truncated_gamma(rng: np.random.Generator, k: float, c, n: int
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """``n`` draws of ``v ~ Gamma(k)`` truncated to ``[0, c]``, with c per
    entry or one value for all, and the point's radius over r_cut,
    ``(v / c)^(k/2)``.

    Large c: Gamma proposals, rejecting v > c (acceptance P(k, c)).  Small
    c, down to 0: the power law v = c * U^(1/k), i.e. an area-uniform
    position, accepted with probability exp(-v) (acceptance
    1F1(k; k+1; -c)).  The switch at c = Gamma(1+k)^(1/k) is where the two
    acceptances meet, so every proposal is accepted with probability at
    least 0.63 (0.79 at alpha = 4).  Mixed entries draw the large ones'
    proposals first.
    """
    small = np.less(c, math.gamma(1.0 + k) ** (1.0 / k))
    # empirical_sop's one c puts a whole call on one side
    n_small = int(np.count_nonzero(small)) if small.ndim else n * bool(small)
    if not n_small:
        return _gamma_below(rng, k, c, n)
    if n_small == n:
        return _power_law_below(rng, k, c, n)
    v = np.empty(n)
    s = np.empty(n)
    v[~small], s[~small] = _gamma_below(rng, k, c[~small], n - n_small)
    v[small], s[small] = _power_law_below(rng, k, c[small], n_small)
    return v, s


def _power(base: float, exponent: float) -> float:
    """base ** exponent, or inf past double range."""
    try:
        return base ** exponent
    except OverflowError:
        return math.inf


def _thinning_scale(rates, p_a, params: SystemParams, r_cut: float, pick=0):
    """The thinning scale ``c = sigma_e2 * x / p_a * r_cut^alpha`` of rows
    sent at power ``p_a`` with the rates ``rates[pick]`` (``p_a`` and
    ``pick`` one value each or one per row; ``rates`` holds (r_c, r_s)
    pairs), where x = 2^(r_c - r_s) - 1 is the SINR an eavesdropper must
    beat.  Each pair's sigma_e2*x is formed once and read on its own rows
    only, so a pair that no row picks cannot fail the call.
    ValidationError, naming the first faulty row's rates, where a power is
    0 (x/0 is undefined) or c is not finite, which the kernel needs (the
    kept-count mean at c = inf would read 0, not its finite limit)."""
    heads = [params.sigma_e2 * (_power(2.0, r_c - r_s) - 1.0) for r_c, r_s in rates]
    per_row = isinstance(pick, np.ndarray)
    ok = p_a > 0.0
    if np.all(ok):
        # an overflow to inf, or 0 * inf = NaN, is refused below
        with np.errstate(over="ignore", invalid="ignore"):
            c = ((np.take(heads, pick) if per_row else heads[pick]) / p_a
                 * _power(r_cut, params.alpha))
        ok = c < math.inf
        if np.all(ok):
            return c
        fault = ("rate gap r_c - r_s = {gap} bits at r_cut = {r_cut} m is too "
                 "large to simulate: sigma_e2*x/p_a*r_cut^alpha overflows")
    else:
        fault = "transmit power 0 W at rates r_c = {r_c}, r_s = {r_s}"
    r_c, r_s = rates[int(pick[np.argmin(ok)]) if per_row else pick]
    raise ValidationError(fault.format(r_c=r_c, r_s=r_s, gap=r_c - r_s, r_cut=r_cut))


# From this thinning scale on Q(k, c) <= e^-c < 2^-54 for k = 2/alpha <= 1,
# so P(k, c) = 1 - Q(k, c) rounds to 1 and the kept-count mean is the
# whole plane's, Gamma(1+k) * c^(-k); below it Kummer's series sums in
# at most ~100 terms.
_C_PLANE = 38.0
# The largest mean numpy's Poisson sampler accepts.
_POISSON_MAX = 9.223372006484771e18
# The most kept points a run draws in expectation: more than a day of
# drawing at the engine's ~1e7 points/s per core.
_DRAWN_MAX = 2.0 ** 40


def _check_drawn(drawn: float, params: SystemParams, r_cut: float,
                 count_name: str, count: int) -> None:
    """ValidationError, naming lambda_e, r_cut and the run's trial or slot
    count, where ``drawn``, the kept points of a run's jammed rows in
    expectation (``run_online``: those of its batches so far), exceeds
    ``_DRAWN_MAX``."""
    if drawn > _DRAWN_MAX:
        raise ValidationError(
            f"lambda_e = {params.lambda_e} per m^2 on a disk of radius "
            f"{r_cut} m is too dense to simulate: {count_name} = {count} would "
            f"draw {drawn:.6g} kept points in expectation, more than 2^40")


def _kummer(k: float, c: float) -> float:
    """1F1(k; k+1; -c) = e^-c * sum_n c^n / (k+1)_n (Kummer's transformation),
    a sum of positive terms, to 2^-53 of the sum; exactly 1.0 below
    c = 2^-54."""
    term = total = 1.0
    n = k
    while term >= 2.0 ** -53 * total:
        n += 1.0
        term *= c / n
        total += term
    return math.exp(-c) * total


def _kept_mean(c: np.ndarray, params: SystemParams, radius) -> np.ndarray:
    """The mean number of eavesdroppers able to beat x without jamming,
    lambda_e * pi * radius^2 * 1F1(k; k+1; -c), per thinning scale of ``c``
    on a disk of radius ``radius`` (one radius, or one per scale): Kummer's
    series below c = 38 (:func:`_kummer`), and from there on the whole
    plane's Gamma(1+k) * c^(-k), where the regularized incomplete gamma
    function P(k, c) of DLMF 8.5.1 rounds to 1.  Finite and positive at
    every finite c >= 0.  ValidationError, naming lambda_e and the largest
    radius, where a mean is beyond numpy's Poisson sampler."""
    k = 2.0 / params.alpha
    near = c < _C_PLANE
    share = np.empty(c.shape)
    share[near] = [_kummer(k, ci) for ci in c[near].tolist()]
    # an infinite mean is refused below; a subnormal one (c^-k at c ~ 1e308
    # for alpha near 2) is still a mean
    with np.errstate(over="ignore", under="ignore"):
        share[~near] = math.gamma(1.0 + k) * c[~near] ** -k
        mean = params.lambda_e * math.pi * radius * radius * share
    if not np.all(mean <= _POISSON_MAX):
        raise ValidationError(
            f"lambda_e = {params.lambda_e} per m^2 on a disk of radius "
            f"{float(np.max(radius))} m is too dense to simulate: a mean kept "
            f"count of {float(np.max(mean))} is beyond numpy's Poisson limit "
            f"{_POISSON_MAX}")
    return mean


def _fields(c: float, q: float, params: SystemParams, r_cut: float) -> list:
    """The fields ``empirical_sop`` draws, in draw order, each as ``(c,
    mean, radius, bound)``: its thinning scale, kept-count mean, disk radius
    and outer coin bound ``(r_in, p_out)`` or None, for rows of thinning
    scale ``c`` at jamming weight ``q = x * p_b / p_a``.  One
    :func:`_kept_mean` call forms the means of the whole disk and of every
    candidate inner disk, and r_in is the first candidate with the fewest
    expected points; the module docstring states the split and its rule."""
    alpha, d_ab = params.alpha, params.d_ab
    # j >= -4 while d_ab * 2^(j/2) < r_cut (r_cut / d_ab may overflow); no
    # candidate without jamming, or at x = 0 (q is NaN at p_b = inf)
    stop = 2.0 * (math.log2(r_cut) - math.log2(d_ab)) + 2.0 if q > 0.0 else -4.0
    r_in = d_ab * 2.0 ** (np.arange(-4.0, stop) / 2.0)
    r_in = r_in[r_in < r_cut]
    c_in = c * (r_in / r_cut) ** alpha
    mean = _kept_mean(np.append(c, c_in), params, np.append(r_cut, r_in))
    p_out = 1.0 / (1.0 + q * (r_in / (r_in + d_ab)) ** alpha)
    mean_in = mean[1:] * (1.0 - p_out)
    points = mean[0] * p_out + mean_in
    if points.size:
        i = np.argmin(points)
        if 0.0 < 2.0 * points[i] <= mean[0]:
            return [(c, mean[0] * p_out[i], r_cut, (r_in[i], p_out[i])),
                    (c_in[i], mean_in[i], r_in[i], None)]
    return [(c, mean[0], r_cut, None)]


def _beats_jamming(turn: np.ndarray, coin: np.ndarray, v: np.ndarray,
                   d_ak: np.ndarray, p_b, params: SystemParams) -> np.ndarray:
    """Per kept point: does its SINR still exceed x under jamming ``p_b``?
    ``turn`` and ``coin`` are the point's half-azimuth (in half turns) and
    jamming-coin uniforms, ``d_ak`` its distance to the transmitter, and
    ``d_bk2`` is its squared distance to the jammer."""
    d_ab = params.d_ab
    d_bk2 = (d_ak - d_ab) ** 2 + 4.0 * d_ab * d_ak * np.sin(math.pi * turn) ** 2
    noise = params.sigma_e2 * d_bk2 ** (params.alpha / 2.0)
    # at rate gap 0 (v = 0) under p_b = inf, v * p_b is NaN and fails the
    # test, as it should: the SINR under infinite jamming is 0
    with np.errstate(invalid="ignore"):
        return coin * (noise + v * p_b) < noise


def _windows(points):
    """Windows of the kept points of a batch whose block ``i`` owns points
    ``points[i]:points[i + 1]``: ``(first, stop, lo, hi)``, blocks
    ``first:stop`` and their points ``lo:hi``.  A window is a run of
    consecutive whole blocks that keep at most ``min(_POINTS, _CHUNK)``
    points in all, or one chunk of a block that keeps more.  So a window
    holds at most one chunk of each block, and a dense block is never copied
    into a larger window."""
    most = min(_POINTS, _CHUNK)
    first, n = 0, len(points) - 1
    while first < n:
        lo = points[first]
        if points[first + 1] - lo > most:
            end = points[first + 1]
            for start in range(lo, end, _CHUNK):
                yield first, first + 1, start, min(start + _CHUNK, end)
            first += 1
            continue
        stop = first + 1
        while stop < n and points[stop + 1] - lo <= most:
            stop += 1
        if points[stop] > lo:
            yield first, stop, lo, points[stop]
        first = stop


def _field_outages(rngs, starts, c, mean, p_b, params: SystemParams,
                   radius: float, bound=None) -> np.ndarray:
    """Secrecy outage per row of a batch of blocks, for rows with thinning
    scale ``c`` (:func:`_thinning_scale`), kept-count mean ``mean``
    (:func:`_kept_mean`) and jamming power ``p_b``, each per row or one
    value for every row, on a disk of radius ``radius``; with ``bound =
    (r_in, p_out)``, a point at d_ak >= r_in wins its coin with probability
    1 / ((1 + t) * p_out).  Block ``i`` owns rows ``starts[i]:starts[i + 1]``
    and draws from ``rngs[i]`` as the module's draw contract states.
    """
    # one mean draws the same counts as an array of it, at a third of the cost
    per_row = isinstance(mean, np.ndarray)
    counts = np.concatenate([
        rng.poisson(mean[lo:hi]) if per_row else rng.poisson(mean, hi - lo)
        for rng, lo, hi in zip(rngs, starts, starts[1:])])
    jammed = p_b > 0.0
    outage = (counts > 0) & np.logical_not(jammed)    # not ~: jammed may be a bool
    # row i owns the points edges[i]:edges[i + 1] of the batch
    edges = np.concatenate(([0], np.cumsum(np.where(jammed, counts, 0))))
    points = edges[starts].tolist()
    k = 2.0 / params.alpha
    for first, stop, lo, hi in _windows(points):
        r0, r1 = starts[first], starts[stop]
        owner = np.arange(r0, r1).repeat(np.diff(edges[r0:r1 + 1].clip(lo, hi)))
        c_at, p_b_at = _at(c, owner), _at(p_b, owner)
        v, s, turn, coin = [], [], [], []
        for i in range(first, stop):    # block i's chunk, as window offsets
            a, b = max(points[i], lo) - lo, min(points[i + 1], hi) - lo
            if a == b:
                continue
            v_i, s_i = _truncated_gamma(rngs[i], k, _at(c_at, slice(a, b)), b - a)
            u = rngs[i].random(2 * (b - a))
            v.append(v_i)
            s.append(s_i)
            turn.append(u[:b - a])
            coin.append(u[b - a:])
        # a window of one chunk is tested in its draws, without a copy
        v, s, turn, coin = (x[0] if len(x) == 1 else np.concatenate(x)
                            for x in (v, s, turn, coin))
        d_ak = radius * s
        if bound is not None:
            r_in, p_out = bound
            coin = coin * np.where(d_ak < r_in, 1.0, p_out)
        hit = _beats_jamming(turn, coin, v, d_ak, p_b_at, params)
        outage[owner[hit]] = True
    return outage


def _check_run_args(count_name: str, count: int, r_cut: float, seed: int
                    ) -> None:
    """Check a run's trial or slot count, disk radius and master seed before
    any draw; counts and seeds may be any integer type, numpy's included,
    but not a bool."""
    for name, value in ((count_name, count), ("seed", seed)):
        if not isinstance(value, numbers.Integral) or isinstance(value, bool):
            raise ValidationError(f"{name} must be an integer: {value!r}")
    if count < 1:
        raise ValidationError(f"{count_name} must be >= 1: {count}")
    if not 0.0 < r_cut < math.inf:
        raise ValidationError(f"r_cut must be finite and > 0 m: {r_cut}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0: {seed}")


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo probability estimate with its binomial standard error."""

    value: float
    stderr: float
    n_trials: int


def empirical_sop(p_a: float, p_b: float, r_c: float, r_s: float,
                  params: SystemParams, n_trials: int, r_cut: float,
                  seed: int) -> McEstimate:
    """Fraction of field realizations whose best eavesdropper SINR exceeds
    2^(r_c - r_s) - 1.

    Transmit powers are held fixed across trials (this is the oracle for the
    closed-form outage expressions, not the adaptive on-line scheme), so
    the fields, with their thinning scales and kept-count means, are planned
    once per call (:func:`_fields`) and serve every trial.  ValidationError,
    naming lambda_e, r_cut and n_trials, where under jamming the trials
    would draw more than 2^40 kept points in expectation.
    """
    _check_run_args("n_trials", n_trials, r_cut, seed)
    if r_s > r_c:
        raise ValidationError(f"require r_s <= r_c, got r_s={r_s}, r_c={r_c}")
    if not 0.0 < p_a < math.inf or not p_b >= 0.0:
        raise ValidationError(
            f"require finite p_a > 0 W and p_b >= 0 W, got p_a={p_a}, p_b={p_b}")
    c = _thinning_scale([(r_c, r_s)], p_a, params, r_cut)
    fields = _fields(c, (2.0 ** (r_c - r_s) - 1.0) * p_b / p_a, params, r_cut)
    # without jamming no point is drawn, only the counts
    if p_b > 0.0:
        _check_drawn(n_trials * sum(float(mean) for _, mean, _, _ in fields),
                     params, r_cut, "n_trials", n_trials)
    hits = 0
    for rngs, starts in _batches(n_trials, seed, 0):
        outage = np.logical_or.reduce([
            _field_outages(rngs, starts, c_f, mean_f, p_b, params, radius, bound)
            for c_f, mean_f, radius, bound in fields])
        hits += int(np.count_nonzero(outage))
    p = hits / n_trials
    return McEstimate(value=p, stderr=math.sqrt(p * (1.0 - p) / n_trials),
                      n_trials=n_trials)


@dataclass(frozen=True)
class ModeCounts:
    fd: int
    hd: int
    silent: int


@dataclass(frozen=True)
class SimReport:
    """Empirical performance of a designed link over ``n_slots`` slots.

    ``empirical_sop`` conditions on transmission; the throughput counts the
    active mode's secrecy rate on every slot that transmits with a reliable
    connection.  Standard errors are binomial for the probabilities and the
    plug-in sample formula for the throughput.
    """

    n_slots: int
    empirical_sop: float
    sop_stderr: float
    empirical_tx_prob: float
    tx_prob_stderr: float
    empirical_throughput: float
    throughput_stderr: float
    mode_counts: ModeCounts
    secrecy_outages: int
    connection_outages: int
    transmissions: int


# Reliability slack: the power rule meets the codeword rate with equality,
# so anything below r_c by more than roundoff counts as a connection outage.
_CONNECTION_RTOL = 1e-9


def run_online(solution: SwitchedSolution, params: SystemParams, n_slots: int,
               r_cut: float, seed: int) -> SimReport:
    """Simulate the per-slot decision rule end to end.

    Every slot draws fresh channel gains and applies the slot rule of
    :func:`fdjam.online.decide_slots`; every transmitting slot draws an
    eavesdropper field to test for secrecy outage against its own power and
    the active mode's rate gap.  Connection outages are counted (never
    expected: the transmit power is set to close the link budget exactly)
    rather than silently ignored.  ValidationError, naming lambda_e, r_cut
    and n_slots, before a batch whose jammed slots would take the run past
    2^40 kept points in expectation.
    """
    _check_run_args("n_slots", n_slots, r_cut, seed)

    fd, hd = solution.fd, solution.hd
    loss = _path_gain(params)

    n_fd = n_hd = reliable_fd = reliable_hd = secrecy_outages = 0
    drawn = 0.0
    for rngs, starts in _batches(n_slots, seed, 1):
        # per block one draw of uniforms: the main-channel gains', then the
        # SI gains'; exponential by inverse CDF, stable across numpy versions
        gains = [rng.random(2 * (hi - lo))
                 for rng, lo, hi in zip(rngs, starts, starts[1:])]
        gamma_ab, gamma_bb = (-np.log1p(-np.concatenate(half)) for half in (
            [u[:u.size // 2] for u in gains], [u[u.size // 2:] for u in gains]))
        is_fd, is_hd, p_a, p_b = decide_slots(gamma_ab, gamma_bb, solution, params)
        tx = is_fd | is_hd
        c = _thinning_scale(((fd.r_c, fd.r_s), (hd.r_c, hd.r_s)), p_a[tx],
                            params, r_cut, pick=is_hd[tx])
        tx_starts = np.concatenate(([0], np.cumsum(tx)))[starts].tolist()
        mean, p_b_tx = _kept_mean(c, params, r_cut), p_b[tx]
        drawn += float(np.sum(mean, where=p_b_tx > 0.0))
        _check_drawn(drawn, params, r_cut, "n_slots", n_slots)
        secrecy_outages += int(np.count_nonzero(_field_outages(
            rngs, tx_starts, c, mean, p_b_tx, params, r_cut)))

        c_b = np.log2(1.0 + p_a * gamma_ab * loss
                      / (params.sigma_b2 + params.rho * p_b * gamma_bb))
        reliable = c_b >= np.where(is_fd, fd.r_c, hd.r_c) * (1.0 - _CONNECTION_RTOL)
        n_fd += int(np.count_nonzero(is_fd))
        n_hd += int(np.count_nonzero(is_hd))
        reliable_fd += int(np.count_nonzero(is_fd & reliable))
        reliable_hd += int(np.count_nonzero(is_hd & reliable))
    return _report(solution, n_slots, n_fd, n_hd, reliable_fd, reliable_hd,
                   secrecy_outages)


def _report(solution: SwitchedSolution, n_slots: int, n_fd: int, n_hd: int,
            reliable_fd: int, reliable_hd: int, secrecy_outages: int
            ) -> SimReport:
    """The :class:`SimReport` of a run's slot counts."""
    fd, hd = solution.fd, solution.hd
    transmissions = n_fd + n_hd
    tx_prob = transmissions / n_slots
    if transmissions > 0:
        sop = secrecy_outages / transmissions
        sop_stderr = math.sqrt(sop * (1.0 - sop) / transmissions)
    else:
        sop, sop_stderr = 0.0, 0.0
    mean_tp = (reliable_fd * fd.r_s + reliable_hd * hd.r_s) / n_slots
    mean_sq = (reliable_fd * fd.r_s ** 2 + reliable_hd * hd.r_s ** 2) / n_slots
    var_tp = max(0.0, mean_sq - mean_tp * mean_tp)
    return SimReport(
        n_slots=n_slots,
        empirical_sop=sop,
        sop_stderr=sop_stderr,
        empirical_tx_prob=tx_prob,
        tx_prob_stderr=math.sqrt(tx_prob * (1.0 - tx_prob) / n_slots),
        empirical_throughput=mean_tp,
        throughput_stderr=math.sqrt(var_tp / n_slots),
        mode_counts=ModeCounts(fd=n_fd, hd=n_hd, silent=n_slots - transmissions),
        secrecy_outages=secrecy_outages,
        connection_outages=transmissions - reliable_fd - reliable_hd,
        transmissions=transmissions,
    )
