"""Monte-Carlo simulation of the controlled forward-backward system.

Forward paths are Euler-Maruyama; backward components are never regressed
but constructed exactly from the decoupling fields,

    Y = P2 X (+ spike correction),   Z = (P2 C_Th) X + P2 chi D v,

which the linear structure makes exact.  The spike correction reads each
perturbation width's coupling field P7, whose RK4 step maps the widths share.

Every entry point takes the start time of its paths as an argument (``t``
or ``times``); :class:`SimConfig` holds only what every start shares.  One
sampling of the coefficients per call serves every start time.

Randomness is keyed: normals come from independent SFC64 streams keyed by
(seed, path-block) through ``SeedSequence``, drawn in (step, path) order
inside each fixed 8192-path block.  Chunked or streamed execution
therefore reproduces the bundle API bit for bit, and every spike rung
shares its block's increments with the closed loop (common random
numbers).  A run that starts later reads the leading rows of an earlier
run's draw, so one draw per block serves every spike time of a pass
(:func:`spike_tests`).

The increments are streamed in rows, one row (the increments of all paths
of a block over one fine step) at a time; no block is ever held whole.
One worker thread per call draws each block in chunks of ``CHUNK_ROWS``
rows, in place into the slots of one buffer that the call allocates once,
and scales them to Brownian increments, up to three chunks ahead of the
kernels; since a stream is filled in (step, path) order, the chunks are the
rows of the whole block's draw, bit for bit.  Every Euler step, every cost
sum and the caller's ``np.errstate`` stay in the calling thread, which
consumes the rows as they arrive: the draw of the next rows overlaps the
kernels, and the memory a pass holds grows with neither the path count nor
the step count.  The steppers of one stream share one scratch, since they
run one after another, so each spike time of a pass adds only its own
state.  The worker is joined before the call returns, by an error too; an
error raised by the draw is raised again in the caller.

Cost quadrature is trapezoidal in time, applied interval by interval with
one-sided limits: the control (and hence Z) is frozen at its interval value,
matching both the Euler dynamics and the closed-left/open-right indicator
convention of the spike window.

One stepper takes every Euler step: it carries the closed loop and, per
spike rung, its perturbation, which is exactly linear in the direction v,
and closes each rung at the end of its own window, where the rungs that
have ended share one n x n transition per path.  It has two consumers.
The spike ladder's kernel, one for every dimension, groups the cost terms
by node and splits the cost sums into a part linear and a part quadratic
in v, so one pass yields the ladder for +v and for -v, and the closed-loop
cost estimate from the same paths; after the last close it steps the
transition alone.  The closed-loop bundle, which has no rung and never
closes, records X at the coarse nodes and builds Y and Z from it, each with
one einsum over the nodes; it keeps no increments.  The test oracles in
``tests/oracles.py`` drive the same stepper for a spiked bundle, the
perturbation moments and the backward-equation check.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .fields import OneTimeField, Strategy, interval_gain
from .problem import ProblemSpec
from .riccati import P2Field, _affine_recursion, _rk4_maps

__all__ = [
    "BLOCK_PATHS",
    "SimConfig",
    "SpikeSpec",
    "PathBundle",
    "CostEstimate",
    "SpikeRow",
    "SpikeReport",
    "simulate_closed_loop",
    "spike_test",
    "spike_tests",
]

BLOCK_PATHS = 8192  # paths per RNG block; fixed so chunking cannot reorder draws
CHUNK_ROWS = 4  # fine steps per draw of the worker thread: 256 KiB at a full block
_SLOTS = 4  # chunks of the one draw buffer of a call: read, ready or being drawn


@dataclass(frozen=True)
class SimConfig:
    """What every Monte-Carlo entry point shares; each takes its start time apart."""

    paths: int = 100_000
    seed: int = 0
    sub_steps: int = 1
    x0: float | np.ndarray = 1.0

    def __post_init__(self):
        # bool is an int subclass: True would run one path
        for name in ("paths", "sub_steps", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if name != "seed" and value < 1:
                raise ValueError(f"{name} must be a positive integer")


@dataclass(frozen=True)
class SpikeSpec:
    v: float | np.ndarray = 1.0
    epsilons: tuple = tuple(2.0 ** (-j) for j in range(3, 11))

    def __post_init__(self):
        eps = np.asarray(self.epsilons, dtype=float)
        if eps.size == 0 or not np.all(np.isfinite(eps) & (eps > 0)) or np.any(np.diff(eps) >= 0):
            raise ValueError("epsilons must be a strictly decreasing sequence of finite positive numbers")


def _as_vector(value, size: int, name: str, dimension: str) -> np.ndarray:
    """``value`` (x0 or v) as a vector of ``size`` finite entries; a scalar is broadcast."""
    x = np.asarray(value, dtype=float).reshape(-1)
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} must be finite")
    if x.size == 1 and size > 1:
        x = np.full(size, float(x[0]))
    if x.size != size:
        raise ValueError(f"{name} has {x.size} entries, {dimension} dimension is {size}")
    return x


@dataclass(frozen=True)
class PathBundle:
    """Simulated ensemble on the coarse nodes t_index .. T: what its readers read.

    ``Z[:, r]`` holds the interval value on [s_r, s_{r+1}), at the gain that
    :func:`~fbslq.fields.interval_gain` gives at s_r (the left limit at the
    terminal node).  The Brownian increments are not kept; the RNG block
    streams of :func:`_increments` give them again.
    """

    theta: Strategy
    p2: P2Field
    t_index: int
    X: np.ndarray  # (paths, range_nodes, n)
    Y: np.ndarray  # (paths, range_nodes, m)
    Z: np.ndarray  # (paths, range_nodes, m)

    @property
    def paths(self) -> int:
        return self.X.shape[0]

    @property
    def range_nodes(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class CostEstimate:
    estimate: float
    stderr: float
    paths: int


@dataclass(frozen=True)
class SpikeRow:
    eps_requested: float
    eps_used: float
    delta: float
    stderr: float
    theory_quadratic: float
    theory_first_order: float


@dataclass
class SpikeReport:
    t: float
    v: np.ndarray
    paths: int
    seed: int
    rows: list[SpikeRow] = field(default_factory=list)
    liminf_pass: bool = False
    limit_converged: bool = False
    first_order_estimate: float = float("nan")
    closed_loop: CostEstimate | None = None  # from the ladder's unperturbed paths
    opposite: SpikeReport | None = None  # the report for -v from the same pass

    def summary(self) -> dict:
        return {
            "t": self.t,
            "v": self.v.tolist(),
            "paths": self.paths,
            "seed": self.seed,
            "liminf_pass": self.liminf_pass,
            "limit_converged": self.limit_converged,
            "first_order_estimate": self.first_order_estimate,
            "rows": [
                {
                    "eps_requested": r.eps_requested,
                    "eps_used": r.eps_used,
                    "delta": r.delta,
                    "stderr": r.stderr,
                    "theory_quadratic": r.theory_quadratic,
                    "theory_first_order": r.theory_first_order,
                }
                for r in self.rows
            ],
            "opposite": None if self.opposite is None else self.opposite.summary(),
        }


def _generator(seed: int, block: int) -> np.random.Generator:
    """The stream of standard normals keyed by (seed, block): an SFC64 stream
    seeded through ``SeedSequence``, block b's the b-th child of the seed's
    (its spawn key), so that every key has a stream of its own.  The seed
    enters modulo 2**64, since ``SeedSequence`` takes no negative entropy."""
    sequence = np.random.SeedSequence(int(seed) & 0xFFFFFFFFFFFFFFFF, spawn_key=(block,))
    return np.random.Generator(np.random.SFC64(sequence))


def _blocks(paths: int):
    start = 0
    block = 0
    while start < paths:
        width = min(BLOCK_PATHS, paths - start)
        yield block, start, width
        block += 1
        start += width


@contextlib.contextmanager
def _increments(seed: int, paths: int, steps: int, hf: float):
    """Brownian increments sqrt(hf) xi of every RNG block, drawn by one worker thread.

    Yields an iterator over the blocks in order, each as (start, width,
    rows): the block's first path, its path count and an iterator over its
    ``steps`` rows, one per fine step and (width,) each, which must be read
    to the end before the next block.  The worker draws the chunks of
    ``CHUNK_ROWS`` rows of every block in turn, chunk i in place into slot
    i mod ``_SLOTS`` of a buffer allocated once per call, up to three chunks
    ahead of the reader, into the next block too.  Every consumer is done
    with a row before it asks for the next; the row iterator relies on that
    for correctness, not only for memory: once it is asked for a row of
    chunk i, it sets chunk i + 3 to be drawn over chunk i - 1.  An exception
    raised by the draw is raised again by the row iterator, and leaving the
    context, by an error too, joins the worker.
    """
    scale = np.sqrt(hf)
    size = CHUNK_ROWS * min(paths, BLOCK_PATHS)
    ring = np.empty(_SLOTS * size)

    def draw(gen, chunk):
        gen.standard_normal(out=chunk)
        return np.multiply(chunk, scale, out=chunk)

    def chunks():  # (stream, slot view) of every chunk of the call, in draw order
        slots = itertools.cycle(range(0, ring.size, size))
        for block, _, width in _blocks(paths):
            gen = _generator(seed, block)
            for lo, at in zip(range(0, steps, CHUNK_ROWS), slots):
                yield gen, ring[at : at + min(CHUNK_ROWS, steps - lo) * width].reshape(-1, width)

    with ThreadPoolExecutor(1, thread_name_prefix="fbslq-increments") as worker:
        jobs = (worker.submit(draw, gen, chunk) for gen, chunk in chunks())
        ahead = list(itertools.islice(jobs, _SLOTS - 1))

        def rows():
            for _ in range(0, steps, CHUNK_ROWS):
                ahead.extend(itertools.islice(jobs, 1))  # over the chunk the consumer is done with
                yield from ahead.pop(0).result()

        yield ((start, width, rows()) for _, start, width in _blocks(paths))


def _solve_p7(samples, h: float, eps_steps: list[int], range_nodes: int) -> np.ndarray:
    """Spike coupling field of every rung on the range nodes, (rungs, range_nodes, m):
    rung q's is nonzero only on [t, t + eps_q).

    Backward RK4 of  dP7/ds = -(Chat P7 + chi (P2 B + Bhat + Dhat P2 D)) v
    with P7(T) = 0; the source is constant per interval (the indicator is
    aligned with whole grid steps), so only the window intervals integrate.
    :func:`~fbslq.riccati._rk4_maps` builds the step maps (forcing
    [0 | source]) of the widest window once, and each rung applies its
    leading ``eps_steps[q]`` maps from 0.  ``samples`` are the widest window's
    :class:`_ClosedLoop` ``p7_stages``, the source times v.  The field is
    linear in v.
    """
    chat, source = samples
    maps = _rk4_maps(chat, np.concatenate([np.zeros(chat.shape), source[..., None]], axis=-1), h)
    out = np.zeros((len(eps_steps), range_nodes, source.shape[-1]))
    for rung, steps in zip(out, eps_steps):
        rung[: steps + 1] = _affine_recursion(maps[:steps], rung[steps])
    return out


def simulate_closed_loop(
    spec: ProblemSpec,
    theta: Strategy,
    p2: P2Field,
    cfg: SimConfig,
    t: float = 0.0,
    keep: int | None = None,
) -> PathBundle:
    """Paths of the closed-loop system from time t, with decoupled backward components.

    ``keep`` paths, all ``cfg.paths`` by default, are stepped and returned:
    the leading ones of the ``cfg.paths`` paths, bit for bit.  A path's
    increments are its column of its block's rows, so the blocks are drawn
    at their full width and the stream is left after the last block that a
    kept path lies in.
    """
    keep = cfg.paths if keep is None else keep
    if isinstance(keep, bool) or not isinstance(keep, (int, np.integer)) or not 1 <= keep <= cfg.paths:
        raise ValueError(f"keep must be an integer from 1 to paths = {cfg.paths}, got {keep!r}")
    run = _LadderRun(_ClosedLoop(spec, theta, p2, cfg.sub_steps), cfg, t, np.zeros(spec.dims.k), [])
    X = np.empty((keep, run.n_coarse + 1, run.n))
    with _increments(cfg.seed, cfg.paths, run.F, run.hf) as blocks:
        for start, width, rows in blocks:
            if start >= keep:
                break
            c = min(width, keep - start)
            for ell, _, stepper in run.walk(c, (row[:c] for row in rows)):
                if ell % run.sub == 0:
                    X[start : start + c, ell // run.sub] = stepper.y[:, 0].T

    # Decoupled backward components at the coarse nodes, one einsum each.  Z
    # reads the run's node map; at the terminal node it is the left limit of
    # the last interval.
    Y = np.einsum("rmn,prn->prm", run.p2_range, X)
    Z = np.einsum("rmn,prn->prm", np.concatenate([run.z_left, run.z_right[-1:]]), X)
    return PathBundle(theta=theta, p2=p2, t_index=run.i0, X=X, Y=Y, Z=Z)


# ---------------------------------------------------------------------------
# Streaming engines: spike ladder statistics without materializing bundles.
#
# The ladder runs in perturbation form.  Next to the closed-loop state x it
# carries, for every rung q, the perturbation d_q = X^q - x under +v, which
# starts at zero and follows
#
#     d <- d + (A_Th d + chi_q B v) h_f + (C_Th d + chi_q D v) dW.
#
# Past node e_q, the end of its window, rung q has no source, so d_q(r) =
# Psi(r) d_q(g) from any node g >= e_q on, with one n x n transition Psi per
# path, Psi(g) = I, stepped like x.  One stepper (``_Stepper``) takes every
# Euler step, one RNG block at a time, and closes the rungs at their ends:
# the closed rungs share one Psi, restarted at every close.  The cost-sum
# kernel (``_LadderRun._block``) is a coroutine sent one row of increments
# per fine step, so ``_stream`` steps the kernels of every spike time side by
# side over one stream of rows; the closed-loop bundle pulls the stepper
# along the rows (``_LadderRun.walk``).
#
# Every cost term is a quadratic form wt <W L x, L x> of a linear function of
# the state, and rung q moves its argument by a_q = L d_q + s_q, where s_q
# holds the chi v, chi D v and P7 sources.  Per path the cost difference of
# rung q is (quad_q + cross_q) / 2 under +v and (quad_q - cross_q) / 2 under
# -v, with
#
#     cross_q = sum wt <(W + W') L x, a_q>,   quad_q = sum wt <W a_q, a_q>,
#
# because a_q is exactly linear in v.  One pass therefore gives both
# directions, bit for bit what a separate -v pass gives.  The kernel groups
# the terms by node (``_LadderRun._weights``); for the closed rungs it
# accumulates the terms in Psi and contracts them with d_q(g) at the next
# close and, after the last, at the horizon.  After the last close g* the
# closed loop joins them: x(r) = Psi(r) x(g*), so its terms are
# x(g*)' (sum Psi' alpha Psi) x(g*), and x steps no more.
# ---------------------------------------------------------------------------


def _mixer(y: np.ndarray, out: np.ndarray):
    """out[j] = sum_i y[i] m[i, j] over the leading (component) axis, bound to
    ``y`` and ``out`` as a function of m, whose entries are numbers or per-path
    vectors; when both have one component, the product y[0] m[0, 0] itself,
    written straight into ``out[0]``.  ``out`` must not overlap ``y``."""
    if len(y) == 1 == len(out):
        y0, out0 = y[0], out[0]
        return lambda m: np.multiply(y0, m[0, 0], out=out0)

    def mix(m):
        for j, out_j in enumerate(out):
            np.multiply(y[0], m[0, j], out=out_j)
            for i in range(1, len(y)):
                out_j += y[i] * m[i, j]

    return mix


def _dotter(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None):
    """sum_i a[i] b[i] over the leading (component) axis, the other axes broadcast,
    bound to its arrays as a function of no arguments; at one component the
    product a[0] b[0] itself.  ``out`` may be a[0] or b[0]."""
    if len(a) == 1:
        return functools.partial(np.multiply, a[0], b[0], out=out)

    def dot():
        total = np.multiply(a[0], b[0], out=out)
        for a_i, b_i in zip(a[1:], b[1:]):
            total += a_i * b_i
        return total

    return dot


def _merge_moments(moments, samples: np.ndarray):
    """Fold one block of samples into (count, mean, M2), by the pairwise update
    of Chan, Golub & LeVeque."""
    count, mean, m2 = moments
    k = samples.size
    k_mean = float(np.mean(samples))
    k_m2 = float(np.sum((samples - k_mean) ** 2))
    total = count + k
    delta = k_mean - mean
    return total, mean + delta * k / total, m2 + k_m2 + delta**2 * count * k / total


class _PassSums:
    """The running sums of one ladder pass, folded in block by block."""

    def __init__(self, rungs: int):
        self.sum_d = np.zeros((2, rungs))
        self.sumsq_d = np.zeros_like(self.sum_d)
        self.moments = (0, 0.0, 0.0)

    def add(self, base, cross, quad, free: np.ndarray) -> None:
        """Fold in one block's sums; ``free`` is a flat scratch buffer of at
        least ``quad.size`` entries, whose contents are not kept."""
        d = free[: quad.size].reshape(quad.shape)  # one (rungs, paths) array serves both directions
        for sign, combine in enumerate((np.add, np.subtract)):
            combine(quad, cross, out=d)
            d *= 0.5
            self.sum_d[sign] += d.sum(axis=1)
            self.sumsq_d[sign] += np.square(d, out=d).sum(axis=1)
        self.moments = _merge_moments(self.moments, 0.5 * base)


def _stream(runs):
    """Stream every block through each of ``runs``, which share (seed, paths, sub_steps).

    The stream of a block is filled in (step, path) order, so the increments
    of a run that starts later are the leading rows of the draw for the
    longest run: each block is drawn once, for every run, and each row is
    sent to the kernel of every run that still steps.  Each run folds its
    blocks in block order, so its sums are bitwise those of a pass of its own.
    Returns per run the sums (sum, sumsq) over paths of the pathwise cost
    differences, each (2, rungs) with row 0 for +v and row 1 for -v, and the
    moments (paths, mean, M2) of the closed loop's pathwise cost.

    The runs also share n and the rung count, and with them one stepper
    scratch (:func:`_scratch`): the kernels run one after another in this
    thread, and each leaves the scratch free between sends.  A run that has
    ended folds its sums through the same scratch.
    """
    if not runs:
        return []
    cfg = runs[0].cfg
    scratch = _scratch(runs[0], cfg.paths)
    passes = [(run.F, run.kernel(), _PassSums(len(run.eps_steps))) for run in runs]
    with _increments(cfg.seed, cfg.paths, max(run.F for run in runs), runs[0].hf) as blocks:
        for _, width, rows in blocks:
            kernels = [(fine, start(width, scratch), sums) for fine, start, sums in passes]
            for ell, row in enumerate(rows, 1):
                for fine, kernel, sums in kernels:
                    if ell < fine:
                        kernel.send(row)
                    elif ell == fine:
                        sums.add(*kernel.send(row), scratch)
                        kernel.close()  # frees its buffers while the longer runs step on
    return [(sums.sum_d, sums.sumsq_d, sums.moments) for _, _, sums in passes]


def _primed(coroutine):
    next(coroutine)
    return coroutine


def _scratch_shapes(run, width: int):
    """Shapes of the scratch ``yt`` and ``f`` of a :class:`_Stepper` of ``run``
    on a block of ``width`` paths."""
    rungs, n = len(run.eps_steps), run.n
    return (n, rungs + max(1, n) if rungs else 1, width), (n, n, width)


def _scratch(run, paths: int) -> np.ndarray:
    """One flat buffer for the scratch of the steppers of ``run``, or of runs
    of the same n and rung count, sized for the widest block of ``paths``
    paths; each stepper views a contiguous leading part of it."""
    return np.empty(sum(map(math.prod, _scratch_shapes(run, min(paths, BLOCK_PATHS)))))


class _Stepper:
    """Euler-Maruyama of a :class:`_LadderRun` over one RNG block of ``width`` paths.

    Rung q is open up to node e_q, the end of its window; once the consumer
    has read that node it calls :meth:`close`.  The state ``y`` is
    component-major, (n, columns, width): x, the open rungs' d_q (a leading
    run of the non-increasing ladder), ``psi`` (psi[c, i] = Psi[c, i], the
    transition since the last close g) and ``group``, the closed rungs'
    d_q(g); without rungs, x alone.  A step is y <- y + y F, F = C_Th' dW +
    A_Th' h_f per path, on x, the open rungs and, once a rung has closed,
    Psi, plus the open rungs' spike drive.  A consumer that reads x no more
    after the last close g* (the ladder kernel) may freeze it there: from
    g* on x(r) = Psi(r) x(g*), so x stays at x(g*) and Psi alone steps, the
    stepped columns starting at ``first`` = 1, not 0.  It writes into
    buffers allocated once (a fresh (rungs, width) temporary per operation
    is large enough for the allocator to map and unmap it each time), so a
    consumer that keeps a state copies it.  Between steps the scratch ``yt`` and ``f`` are free;
    that is why they are views of a flat buffer that the caller hands in
    (:func:`_scratch`) and that the steppers of one stream share, run after
    run and block after block, so that each added run costs only its state.
    """

    def __init__(self, run, width: int, scratch: np.ndarray):
        rungs, n = len(run.eps_steps), run.n
        self.run = run
        self.ell = 0  # fine steps taken
        self.first = 0  # the first stepped column: 1 once x is frozen
        self.y = np.zeros((n, 1 + rungs + n if rungs else 1, width))
        self.y[:, 0] = run.x0[:, None]
        yt, f = _scratch_shapes(run, width)
        split = math.prod(yt)
        self.yt = scratch[:split].reshape(yt)
        self.f = scratch[split : split + math.prod(f)].reshape(f)
        self._bind(rungs)

    def _bind(self, k: int) -> None:
        """Step x unless it is frozen, the open rungs :k and, once a rung has closed, Psi."""
        n, first = self.run.n, self.first
        self.open, self.live = k, 1 + k + (n if k < len(self.run.eps_steps) else 0)
        self.psi, self.group = self.y[:, 1 + k : 1 + k + n], self.y[:, 1 + k + n :]
        self.mix = _mixer(self.y[:, first : self.live], self.yt[:, first : self.live])  # yt = y m

    def step(self, dw: np.ndarray) -> None:
        """Take the next fine step, on that step's Brownian increments (width,)."""
        run, ell, f, k = self.run, self.ell, self.f, self.open
        # F = c_t dW + a_h;  y <- y + y F;  open d <- d + (drive_h + drive_w dW)
        np.multiply(run.c_t[ell], dw, out=f)
        np.add(f, run.a_h[ell], out=f)
        self.mix(f)
        state = self.y[:, self.first : self.live]
        np.add(state, self.yt[:, self.first : self.live], out=state)
        if k:
            drive, d = f[:, :1], self.y[:, 1 : 1 + k]
            np.multiply(run.drive_w[ell], dw, out=drive)
            np.add(run.drive_h[ell], drive, out=drive)
            np.add(d, drive, out=d)
        self.ell = ell + 1

    def close(self, freeze: bool = False) -> None:
        """At node e, the end of some rungs: the group's d_q(g) advance to
        Psi(e) d_q(g) = d_q(e), the rungs ending at e join the group, and Psi
        restarts at I.  With ``freeze``, x stays at x(e) from here on once
        no rung is open."""
        k, n, size = self.open, self.run.n, self.group.shape[1]
        if size:  # Psi d_q(g), through the scratch
            _mixer(self.group, self.yt[:, :size])(np.swapaxes(self.psi, 0, 1))
            self.group[...] = self.yt[:, :size]
        left = sum(steps > self.ell // self.run.sub for steps in self.run.eps_steps)
        self.y[:, 1 + left + n : 1 + k + n] = self.y[:, 1 + left : 1 + k]
        self.first = int(freeze and not left)
        self._bind(left)
        self.psi[...] = np.eye(n)[:, :, None]


class _ClosedLoop:
    """The coefficients of the closed loop under ``theta`` on the whole grid,
    sampled once per Monte-Carlo call, the spike coupling's RK4 stages on
    the first read by a run with rungs; each :class:`_LadderRun` of the call
    reads their tails.  Fine step j lies at hf j from 0 (hf = h / sub): at
    one sub-step these are the grid nodes bit for bit, and a run from node
    i0 reads fine steps i0 sub on, whatever other times share its call.
    """

    def __init__(self, spec, theta, p2, sub: int):
        grid, c = spec.grid, spec.coeffs
        self.spec, self.p2, self.sub, self.hf = spec, p2, sub, grid.h / sub
        fine_t = self.hf * np.arange(grid.steps * sub)
        # Gains from interval_gain: each fine step's start, both ends of each coarse interval.
        th = interval_gain(theta.data, 0, grid.steps, [q / sub for q in range(sub)])
        self.theta_fine = th.reshape(len(fine_t), spec.dims.k, spec.dims.n)
        self.b_fine, self.d_fine = c.B(fine_t), c.D(fine_t)
        self.a_fine = c.A(fine_t) + self.b_fine @ self.theta_fine  # (F, n, n)
        self.c_fine = c.C(fine_t) + self.d_fine @ self.theta_fine
        self.a_h = np.swapaxes(self.a_fine, 1, 2)[..., None] * self.hf  # the stepper's factors, (F, n, n, 1)
        self.c_t = np.swapaxes(self.c_fine, 1, 2)[..., None]
        nodes, th = grid.nodes, interval_gain(theta.data, 0, grid.steps, (0.0, 1.0))
        self.theta_left = th[:, 0]  # (steps, k, n)
        c_nodes, self.d_nodes = c.C(nodes), c.D(nodes)
        # Z = (P2 C_Th) x + chi P2 D v at both ends of each interval: P2 C_Th here.
        self.z_left = p2.data[:-1] @ (c_nodes[:-1] + self.d_nodes[:-1] @ th[:, 0])  # (steps, m, n)
        self.z_right = p2.data[1:] @ (c_nodes[1:] + self.d_nodes[1:] @ th[:, 1])

    @functools.cached_property
    def p7_stages(self):
        """Chat and the spike coupling source before its v, P2 B + Bhat + Dhat
        P2 D, at the RK4 stages of each interval, (steps, 3, m, m) and (steps,
        3, m, k): sampled on first read, so a call without rungs samples neither."""
        grid, c, p2 = self.spec.grid, self.spec.coeffs, self.p2
        stages = np.stack([grid.nodes[1:], grid.midpoints, grid.nodes[:-1]], axis=1)  # (steps, 3)
        p2s = np.stack([p2.data[1:], p2.mids, p2.data[:-1]], axis=1)
        return c.Chat(stages), p2s @ c.B(stages) + c.Bhat(stages) + c.Dhat(stages) @ p2s @ c.D(stages)


class _LadderRun:
    """Closed loop plus the +v perturbation of every spike rung, from time
    ``t`` to the horizon, one pass per block.

    Holds every deterministic array that the stepper and its consumers
    read: the tails of a :class:`_ClosedLoop`'s and, with no kernel call,
    what depends on v or on the rungs.  Rung q applies the spike of
    ``eps_steps[q]`` coarse steps, which must not increase with q, so that
    the rungs still open at any node are a leading run; every rung shares
    each block's increments with the closed loop (common random numbers).
    """

    def __init__(self, loop, cfg, t: float, v: np.ndarray, eps_steps: list[int]):
        grid, dims = loop.spec.grid, loop.spec.dims
        self.loop, self.cfg, self.t, self.v, self.eps_steps = loop, cfg, t, v, eps_steps
        if any(wide < narrow for wide, narrow in zip(eps_steps, eps_steps[1:])):
            raise ValueError("the spike ladder's eps_steps must be non-increasing")
        self.ends = set(eps_steps)  # the nodes where rungs close
        self.i0 = i0 = grid.index_of(t)
        self.n_coarse = grid.steps - i0
        if self.n_coarse < 1:
            raise ValueError("the start time must lie strictly before the horizon")
        self.sub, self.h, self.hf, self.F = loop.sub, grid.h, loop.hf, self.n_coarse * loop.sub
        self.n, self.m, self.k = dims.n, dims.m, dims.k
        self.x0 = _as_vector(cfg.x0, self.n, "x0", "state")

        fine = slice(i0 * self.sub, None)
        self.theta_fine, self.a_fine, self.c_fine = loop.theta_fine[fine], loop.a_fine[fine], loop.c_fine[fine]
        self.a_h, self.c_t = loop.a_h[fine], loop.c_t[fine]
        self.theta_left = loop.theta_left[i0:]  # (n_coarse, k, n)
        self.p2_range = loop.p2.data[i0:]  # (range_nodes, m, n)
        self.z_left, self.z_right = loop.z_left[i0:], loop.z_right[i0:]  # (n_coarse, m, n)

        # The spike indicators per coarse interval (closed left, open right),
        # each rung's coupling field, the spike drive of an open rung and Z's
        # chi P2 D v.
        self.chi_node = (np.arange(self.n_coarse) < np.asarray(eps_steps, dtype=int).reshape(-1, 1)).astype(float)
        self.p7v = np.zeros((0, self.n_coarse + 1, self.m))
        if eps_steps:  # the widest window's stage samples
            chat, source = (stage[i0 : i0 + eps_steps[0]] for stage in loop.p7_stages)
            self.p7v = _solve_p7((chat, source @ v), self.h, eps_steps, self.n_coarse + 1)
        self.drive_h = ((loop.b_fine[fine] @ v) * self.hf)[:, :, None, None]  # (F, n, 1, 1)
        self.drive_w = (loop.d_fine[fine] @ v)[:, :, None, None]
        chi = self.chi_node[:, :, None]
        p2_dv = (self.p2_range @ (loop.d_nodes[i0:] @ v)[:, :, None])[..., 0]  # (range_nodes, m)
        self.zv_left, self.zv_right = chi * p2_dv[:-1], chi * p2_dv[1:]  # (rungs, n_coarse, m)

    def kernel(self):
        """From a block width and a :func:`_scratch` buffer to a primed coroutine
        that is sent the increments of each fine step, (width,) each, and whose
        last send returns the sums (base, cross, quad)."""
        weights = self._weights()
        return lambda width, scratch: _primed(self._block(width, weights, scratch))

    def walk(self, width: int, rows):
        """The stepper over one block of ``width`` paths, pulled along ``rows``:
        yields (ell, dW, stepper) at the start (0, None) and after each fine step
        ell, dW its increments; coarse node r is ell = r * sub_steps.  The
        stepper closes the rungs ending at node r once the consumer has read it."""
        stepper = _Stepper(self, width, _scratch(self, width))
        yield 0, None, stepper
        for ell, dw in enumerate(rows, 1):
            stepper.step(dw)
            yield ell, dw, stepper
            if ell % self.sub == 0 and ell // self.sub in self.ends:
                stepper.close()

    def _weights(self):
        """Node weights of the ladder kernel.

        Every cost term at node r reads wt <W (L x + s_q), L x + s_q> with a
        deterministic weight wt, matrices W and L, and rung source s_q.
        Summed over the terms of the node, with W symmetrised, the closed
        loop pays x' alpha_r x and rung q adds 2 x'(alpha_r d + beta_qr) to
        its cross sum and d'(alpha_r d + 2 beta_qr) + gamma_qr to its quad
        sum, where alpha = sum wt L'W L (n x n), beta = sum wt L'W s (n) and
        gamma = sum wt s'W s.  The gammas are the same on every path and are
        summed once.  Each contraction multiplies wt W by L, or by the outer
        product of L or of s, so that at m = n = k = 1 the weights are the
        plain products wt l^2, (wt l) s and wt s^2.  The weights Q, R, M, N,
        G1 and G2 of the start time are sampled here.  Returns alpha (nodes,
        n, n), beta (nodes, n, rungs, 1) and gamma (rungs,), laid out for the
        states of :class:`_Stepper`.
        """
        h, nc, p2, t = self.h, self.n_coarse, self.p2_range, self.t
        w, nodes = self.loop.spec.weights, self.loop.spec.grid.nodes[self.i0 :]
        rk, nk = w.R(nodes, t), w.N(nodes, t)
        w_state = np.full(nc + 1, h)
        w_state[0] = w_state[-1] = 0.5 * h
        eye = np.eye(self.n)[None]
        left, right, every = slice(0, nc), slice(1, nc + 1), slice(0, nc + 1)
        terms = (  # (nodes, weight, W, L, source per rung or None)
            (every, w_state, w.Q(nodes, t), eye, None),
            (slice(nc, nc + 1), 1.0, w.G1(t)[None], eye, None),
            (left, h, 0.5 * (rk[:-1] + rk[1:]), self.theta_left, self.chi_node[:, :, None] * self.v),
            (left, 0.5 * h, nk[:-1], self.z_left, self.zv_left),
            (right, 0.5 * h, nk[1:], self.z_right, self.zv_right),
            (every, w_state, w.M(nodes, t), p2, self.p7v),
            (slice(0, 1), 1.0, w.G2(t)[None], p2[:1], self.p7v[:, :1]),  # G2 Y(t) at the deterministic start
        )
        alpha = np.zeros((nc + 1, self.n, self.n))
        beta = np.zeros((nc + 1, self.n, len(self.eps_steps)))
        gamma = np.zeros(len(self.eps_steps))
        for nodes, wt, w, ell, src in terms:
            ww = np.reshape(wt, (-1, 1, 1)) * (0.5 * (w + np.swapaxes(w, 1, 2)))
            alpha[nodes] += np.einsum("rab,raibj->rij", ww, ell[:, :, :, None, None] * ell[:, None, None])
            if src is not None:
                beta[nodes] += np.einsum("rbi,qrb->riq", np.einsum("rab,rai->rbi", ww, ell), src)
                gamma += np.einsum("rab,qrab->qr", ww, src[..., :, None] * src[..., None, :]).sum(axis=1)
        return alpha, beta[..., None], gamma

    def _block(self, width, weights, scratch):
        """Node-grouped cost sums of one block, a consumer of :class:`_Stepper`.

        The open rungs add their terms at every node; the closed group sums
        A = sum Psi' alpha Psi and B = sum Psi' alpha x, which its d_q(g)
        contract into its sums at the next close, before the stepper closes,
        and after the last close at the horizon.  At the last close g* the
        stepper freezes x, since x(r) = Psi(r) x(g*) from there on: the nodes
        after g* add A alone, and at the horizon base takes x' A x and B =
        A x before the group's last fold.  The stepper's scratch
        ``yt`` holds y alpha and the contractions, ``f`` the products; both
        are views of ``scratch``, which nothing reads across a send.  The
        operations and their order are those of the comments; at n = 1 each
        contraction is a product.
        """
        alpha, beta, gamma = weights
        n, rungs = self.n, len(self.eps_steps)
        stepper = _Stepper(self, width, scratch)
        f = stepper.f
        base = np.zeros(width)
        cross = np.zeros((rungs, width))
        quad = np.zeros_like(cross)
        big_a = np.zeros((n, n, width))  # sum Psi' alpha Psi since the last close
        big_b = np.zeros((n, width))  # sum Psi' alpha x

        def bound(k):  # the node sums with the rungs :k open
            y, yt, beta_k, cross_k, quad_k = stepper.y, stepper.yt, beta[:, :, :k], cross[:k], quad[:k]
            x, xt, dx, dt = y[:, 0], yt[:, 0], y[:, 1 : 1 + k], yt[:, 1 : 1 + k]
            psi, pa = stepper.psi, yt[:, 1 + k : 1 + k + n]
            xt_x, xt_t, dx_t = _dotter(xt, x, f[0, 0]), _dotter(xt[:, None], dt, dt[0]), _dotter(dx, dt, dt[0])
            psi_xt, pa_psi = _dotter(psi, xt[:, None], f[0]), _dotter(pa[:, :, None], psi[:, None], f)
            dx_alpha = _mixer(dx, dt)

            def tail(r):  # x frozen at x(g*), no rung open:  pa = Psi' alpha;  A += pa Psi
                stepper.mix(alpha[r])
                np.add(big_a, pa_psi(), out=big_a)

            def sums(r):
                # xt, dt, pa = x alpha, dx alpha, Psi' alpha;  base += xt x;  B += Psi' xt;  A += pa Psi
                # t = dt + beta;  cross += (2 x) t;  then, t spent, dt = dx alpha again:  quad += dx (dt + beta + beta)
                stepper.mix(alpha[r])
                np.add(base, xt_x(), out=base)
                if k < rungs:
                    np.add(big_b, psi_xt(), out=big_b)
                    np.add(big_a, pa_psi(), out=big_a)
                if k:
                    np.add(dt, beta_k[r], out=dt)
                    np.multiply(x, 2.0, out=xt)
                    np.add(cross_k, xt_t(), out=cross_k)
                    dx_alpha(alpha[r])
                    np.add(dt, beta_k[r], out=dt)
                    np.add(dt, beta_k[r], out=dt)
                    np.add(quad_k, dx_t(), out=quad_k)

            return tail if stepper.first else sums

        def fold(last=False):  # the group k: takes A and B: cross += (2 d) B;  quad += (d d) A (+ gamma)
            k, d = stepper.open, stepper.group
            s = stepper.yt[:, : rungs - k]
            np.multiply(d, 2.0, out=s)
            np.add(cross[k:], _dotter(s, big_b[:, None], s[0])(), out=cross[k:])
            dd = np.multiply(d[:, None], d[None], out=s[:, None] if n == 1 else None)  # n x n wider than s at n > 1
            total = _dotter(dd.reshape(n * n, rungs - k, width), big_a.reshape(n * n, 1, width), dd[0, 0])()
            if last:
                np.add(total, gamma[:, None], out=total)
            np.add(quad[k:], total, out=quad[k:])
            big_a.fill(0.0)
            big_b.fill(0.0)

        sums = bound(rungs)
        for r in range(self.n_coarse + 1):
            if r:
                for _ in range(self.sub):
                    stepper.step((yield))
            sums(r)
            if r in self.ends:  # the group, empty before the first close, takes its sums first
                fold()
                stepper.close(freeze=True)
                sums = bound(stepper.open)
        if stepper.first:  # B = A x(g*);  base += x B
            x = stepper.y[:, 0]
            _mixer(x, big_b)(np.swapaxes(big_a, 0, 1))
            np.add(base, _dotter(x, big_b, f[0, 0])(), out=base)
        fold(last=True)
        yield base, cross, quad


def _snap_eps(grid, i0: int, epsilons) -> list[tuple[float, int]]:
    """Snap each requested eps to whole coarse steps, at least one, inside [t, T]."""
    out = []
    max_steps = grid.steps - i0
    for eps in epsilons:  # clamped before rounding: eps / h may overflow to inf
        steps = max(1, round(min(eps / grid.h, max_steps)))
        out.append((float(eps), steps))
    return out


def spike_test(
    spec: ProblemSpec,
    theta: Strategy,
    p2: P2Field,
    cfg: SimConfig,
    spike: SpikeSpec,
    t: float,
    lam: OneTimeField,
    residual: OneTimeField,
) -> SpikeReport:
    """Monte-Carlo test of the equilibrium inequality at time t: :func:`spike_tests` at one time."""
    return spike_tests(spec, theta, p2, cfg, spike, [t], lam, residual)[0]


def spike_tests(
    spec: ProblemSpec,
    theta: Strategy,
    p2: P2Field,
    cfg: SimConfig,
    spike: SpikeSpec,
    times,
    lam: OneTimeField,
    residual: OneTimeField,
) -> list[SpikeReport]:
    """Monte-Carlo tests of the equilibrium inequality at each of ``times``, one report per time.

    For every eps in the (snapped) ladder, Delta(eps) = (J(u^eps) - J(u))/eps
    is estimated with common random numbers.  The report carries the liminf
    flag (every Delta >= -3 stderr) and compares the smallest-eps estimate
    against the expansion limit 1/2 v' Lambda v + v' residual x0, from
    ``lam`` (Lambda) and ``residual`` (Gamma + Lambda Theta) of ``theta``,
    as they are handed down with ``p2``: an
    :class:`~fbslq.equilibrium.EquilibriumSolution` holds all three.  The
    same pass yields the report for -v (``opposite``) and the closed-loop
    cost estimate (``closed_loop``).  Raises ``ValueError`` when the cost sums
    are not finite, as when a huge x0 or v overflows them.

    The times share one stream: each RNG block is drawn once, for the
    earliest time, and a later time reads its leading rows.  Every report
    is bitwise the report of a call at its time alone.
    """
    grid = spec.grid
    v = _as_vector(spike.v, spec.dims.k, "v", "control")
    times = list(times)
    if not times:
        return []

    ladders, runs = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        loop = _ClosedLoop(spec, theta, p2, cfg.sub_steps)
        for t in times:
            ladders.append(_snap_eps(grid, grid.index_of(t), spike.epsilons))
            runs.append(_LadderRun(loop, cfg, t, v, [steps for _, steps in ladders[-1]]))
        totals = _stream(runs)
    for sum_d, sumsq_d, (_, mean_j, m2_j) in totals:
        if not all(np.all(np.isfinite(s)) for s in (sum_d, sumsq_d, mean_j, m2_j)):
            raise ValueError("the Monte-Carlo cost sums overflow; x0 or v is too large for this problem")

    def report(run, ladder, sums, sign: int, vv: np.ndarray, closed_loop) -> SpikeReport:
        i0, paths = run.i0, closed_loop.paths
        sum_d, sumsq_d, _ = sums
        quad_theory = 0.5 * float(vv @ lam.data[i0] @ vv)
        first_theory = float(vv @ residual.data[i0] @ run.x0)
        rep = SpikeReport(t=run.t, v=vv, paths=paths, seed=cfg.seed, closed_loop=closed_loop)
        for q, (eps_req, steps) in enumerate(ladder):
            eps_used = steps * grid.h
            mean_d = sum_d[sign, q] / paths
            var_d = max(0.0, sumsq_d[sign, q] / paths - mean_d**2)
            se_d = np.sqrt(var_d / max(1, paths - 1))
            rep.rows.append(
                SpikeRow(
                    eps_requested=eps_req,
                    eps_used=float(eps_used),
                    delta=float(mean_d / eps_used),
                    stderr=float(se_d / eps_used),
                    theory_quadratic=quad_theory,
                    theory_first_order=first_theory,
                )
            )
        rep.liminf_pass = bool(all(r.delta >= -3.0 * r.stderr for r in rep.rows))
        tail = min(rep.rows, key=lambda r: r.eps_used)
        rep.limit_converged = bool(
            abs(tail.delta - (quad_theory + first_theory)) <= 3.0 * tail.stderr
        )
        rep.first_order_estimate = float(tail.delta - quad_theory)
        return rep

    results = []
    for run, ladder, sums in zip(runs, ladders, totals):
        paths, mean_j, m2_j = sums[2]
        stderr_j = float(np.sqrt(m2_j / (paths - 1)) / np.sqrt(paths)) if paths > 1 else 0.0
        closed_loop = CostEstimate(estimate=float(mean_j), stderr=stderr_j, paths=paths)
        result = report(run, ladder, sums, 0, v, closed_loop)
        result.opposite = report(run, ladder, sums, 1, -v, closed_loop)
        results.append(result)
    return results
