"""Synthetic twin-beam, split-thermal, and split-coherent trace generation.

All processes are stationary Gaussian and synthesized in the frequency
domain: each rfft bin gets an independent complex normal deviate scaled to
the target one-sided PSD, so a given (params, spec, seed) is bit-reproducible
and the PSD is exact by construction.  Every generated record is therefore
periodic: it is the inverse rfft of its spectrum on the record's own grid.

``noise_spectrum`` draws every generated noise, here and in ``channel``.  A
``PairRecipe`` is a pair's noise model, built once and drawn per seed: its
independent noises' PSDs and each arm's weights on them; ``RECIPES`` names
the recipe of each generator (``twin``, ``split-thermal``, ``split-coherent``).
``PairRecipe.traces`` synthesizes a seed's records, one irfft per arm
(``gen_*`` return it); ``noise_spectra`` and ``arm_spectra`` give the same
records' spectra over a slice of bins from the same draws, so a caller that
filters, delays or differences generated records can do so on the spectrum
and inverse-transform each result once (``pipeline.run_pipeline`` does).

A recipe draws its noises on one thread per usable core (``_draw``), or on
one worker thread beside other work (``noise_spectra_beside``).  Each noise
draws from its own ``Generator``, so no value depends on the thread count.
The calling thread allocates every buffer a worker fills and keeps every
FFT; each thread is joined before the call returns, so none is alive when
``mi`` forks a scan's shift blocks or a pipeline's lanes, and one usable
core, or a lane's share of one, starts none.

Model structure for the twin pair:

* a shared fluctuation s(t) enters both arms identically, so the intensity
  difference cancels it exactly;
* each arm adds independent white noise with PSD 10^(-S/10) x its shot PSD
  (S the squeezing in dB), which pins the difference PSD at S dB below the
  coherent-pair reference at matched powers;
* the shared PSD amplitude is set by the per-beam excess noise (dB above
  shot, band-averaged over DESIGN_BAND, 1.5-3.5 MHz).

``twin_recipe`` works out these levels (each arm's shot PSD and the shared
PSD amplitude) once, as its noises' PSDs; ``design.InBandModel`` predicts
the filtered statistics from those same PSDs.

The shared PSD is a Gaussian of correlation scale sigma0 * sqrt(2) (so the
raw delay-MI curve tracks a Gaussian of scale sigma0) with a smooth notch at
mid-band.  The notch moves in-band correlated weight toward the band edges,
where the post-filter delay oscillation self-cancels; without it the sharp
band-pass would imprint secondary MI lobes of more than half the peak height
near 200 ns, which no measured curve shows.

Every white noise (shot here, loss and electronic in ``channel``) is
band-limited to NOISE_BANDWIDTH_HZ, the one detection bandwidth, which a
``PairRecipe`` refuses above Nyquist; truly Nyquist-wide shot noise would bury
the unfiltered delay curve of a 4-million-sample record below the estimator
bias floor.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import partial, reduce
from operator import add
from typing import Callable, NamedTuple, Optional

import numpy as np

from .dsp import rfft_freqs
from .errors import InvalidParams
from .mi import usable_cores
from .trace import DC_TOLERANCE, DigitizerSpec, SourceParams, Trace, TracePair, holds_mean

__all__ = [
    "NOISE_BANDWIDTH_HZ",
    "SHOT_RMS_LEVELS",
    "DESIGN_BAND",
    "shared_psd_shape",
    "noise_spectrum",
    "Arm",
    "PairRecipe",
    "twin_recipe",
    "split_thermal_recipe",
    "split_coherent_recipe",
    "RECIPES",
    "shot_noise_recipe",
    "shot_noise_reference",
    "gen_twin",
    "gen_split_thermal",
    "gen_split_coherent",
]

# Detection bandwidth of every synthesized white noise (Hz).
NOISE_BANDWIDTH_HZ = 300e6
# Shot-noise rms of the probe arm over the full noise bandwidth, in levels.
# Sized so fluctuation records span roughly 100 digitizer levels.
SHOT_RMS_LEVELS = 10.0
# Band anchoring the excess-noise normalization (the analysis band), and the
# grid its band averages are taken on.
DESIGN_BAND = (1.5e6, 3.5e6)
_BAND_GRID = np.linspace(DESIGN_BAND[0], DESIGN_BAND[1], 2001)
# Mid-band notch of the shared spectrum: depth, width, center.
NOTCH_DEPTH = 0.9
NOTCH_SIGMA_HZ = 0.6e6
NOTCH_CENTER_HZ = 2.5e6
# Bins that noise_spectrum draws and scales at a time: a chunk's scratch and
# temporaries stay in a core's L2 cache, and a draw thread takes the GIL back
# only a few times per chunk (at 2^13 bins, two threads drew no faster than one).
_CHUNK = 1 << 15
# Mean record level of the probe arm (8-bit mid-scale).
MEAN_LEVEL_A = 128.0
# Low-pass corner of the thermal-like split-conjugate process.
THERMAL_CORNER_HZ = 0.5e6
# In-band excess of the thermal-like process above shot noise, dB.
THERMAL_EXCESS_DB = 6.0


def shared_psd_shape(f: np.ndarray, sigma0: float) -> np.ndarray:
    """Unnormalized one-sided PSD shape of the shared twin fluctuation."""
    f = np.asarray(f, dtype=np.float64)
    gauss = np.exp(-4.0 * np.pi ** 2 * f ** 2 * sigma0 ** 2)
    notch = 1.0 - NOTCH_DEPTH * np.exp(-0.5 * ((f - NOTCH_CENTER_HZ) / NOTCH_SIGMA_HZ) ** 2)
    return gauss * notch


def _shot_psds(params: SourceParams) -> tuple[float, float]:
    """Shot PSDs (level^2/Hz) of arms a and b; arm b's scales with its power."""
    shot_a = SHOT_RMS_LEVELS ** 2 / NOISE_BANDWIDTH_HZ
    return shot_a, shot_a * params.mean_power_b / params.mean_power_a


def _mean_level_b(params: SourceParams) -> float:
    return MEAN_LEVEL_A * params.mean_power_b / params.mean_power_a


def _shared_scale(params: SourceParams, shot_a: float, shot_b: float) -> float:
    """Factor on ``shared_psd_shape`` giving each arm an excess over the mean shot PSD
    that averages ``excess_noise_db`` over DESIGN_BAND; refuses an excess at or below
    the squeezing floor, and a sigma0 whose shared spectrum underflows over the band.
    """
    x_lin, s_lin = params.excess_ratio, params.squeezing_ratio
    if x_lin <= s_lin:
        raise InvalidParams(
            "excess_noise_db too small: per-arm noise would fall below the "
            "independent (squeezing) noise floor"
        )
    shape_mean = float(shared_psd_shape(_BAND_GRID, params.sigma0).mean())
    excess = (x_lin - s_lin) * (0.5 * (shot_a + shot_b))
    if not (shape_mean > 0 and math.isfinite(excess / shape_mean)):
        raise InvalidParams(
            f"sigma0 {params.sigma0 * 1e9:g} ns is too wide: its shared spectrum "
            "underflows over the design band"
        )
    return excess / shape_mean


def noise_spectrum(rng: np.random.Generator, spec: DigitizerSpec,
                   psd: Callable[[np.ndarray], np.ndarray],
                   bins: slice = slice(None), out: Optional[np.ndarray] = None,
                   scratch: Optional[np.ndarray] = None) -> np.ndarray:
    """rfft bins ``bins`` of zero-mean Gaussian noise of one-sided PSD psd(f) on ``spec``'s record.

    Every bin's deviate is drawn whichever bins are returned, so a slice
    equals the same slice of the full spectrum and leaves ``rng`` in the same
    state.  ``bins`` is a slice with unit step.  The spectrum is written to
    ``out`` (complex, one element per returned bin) and the normals drawn
    into ``scratch`` (float64), both made here when not given; the draws and
    the PSD scaling go ``len(scratch)`` bins at a time, so ``psd`` must act
    elementwise, and no record-sized temporary is made.
    """
    n = spec.n_samples
    m = n // 2 + 1
    start, stop, _ = bins.indices(m)
    z = np.empty(len(range(start, stop)), dtype=np.complex128) if out is None else out
    scratch = np.empty(min(_CHUNK, m)) if scratch is None else scratch
    step = len(scratch)
    for part in (z.real, z.imag):
        for lo in range(0, m, step):
            x = rng.standard_normal(out=scratch[:min(step, m - lo)])
            a, b = max(lo, start), min(lo + step, stop)
            if a < b:
                part[a - start:b - start] = x[a - lo:b - lo]
    if start == 0 < stop:
        z[0] = 0.0  # zero-mean record
    if n % 2 == 0 and start < stop == m:
        z[-1] = np.sqrt(2.0) * z[-1].real
    for lo in range(start, stop, step):
        chunk = z[lo - start:min(lo + step, stop) - start]
        f = rfft_freqs(n, spec.sample_rate, slice(lo, lo + len(chunk)))
        chunk *= np.sqrt(spec.bin_scale(np.maximum(psd(f), 0.0)))
        chunk /= np.sqrt(2.0)
    return z


def _draw(spec: DigitizerSpec, draws: list[tuple], lanes: int,
          work: Optional[Callable[[], object]] = None):
    """``noise_spectrum`` on ``spec`` of each (SeedSequence, psd, bins) of ``draws``, in
    order, and what ``work()`` returned.

    The draws are dealt round robin to ``lanes`` lanes.  This thread
    allocates every spectrum and one scratch chunk per lane; a lane on
    another thread, started and joined here (``_beside``), only fills those
    buffers, so no record-sized allocation lands in a worker thread's malloc
    arena.  Without ``work`` this thread runs lane 0; with it, every lane
    runs on a thread of its own while this one runs ``work``.
    ``noise_spectrum`` is looked up at each call.
    """
    m = spec.n_samples // 2 + 1
    spectra = [np.empty(len(range(*bins.indices(m))), dtype=np.complex128)
               for _, _, bins in draws]

    def lane(i: int, scratch: np.ndarray) -> None:
        for j in range(i, len(draws), lanes):
            ss, psd, bins = draws[j]
            spectra[j] = noise_spectrum(np.random.default_rng(ss), spec, psd, bins,
                                        spectra[j], scratch)

    tasks = [partial(lane, i, np.empty(min(_CHUNK, m))) for i in range(lanes)]
    result = _beside(tasks, tasks.pop(0) if work is None else work)
    return spectra, result


def _beside(tasks: list[Callable[[], None]], main: Callable[[], object]):
    """``main()`` on this thread while each of ``tasks`` runs on a thread of its own.

    Every thread is joined before this returns or raises, so none is alive
    at a later fork (``mi``'s shift blocks and lanes); none is kept for a
    later call.  An error of ``main``, else the first task's, is raised here
    as it was raised.  With one usable core (``mi.usable_cores``, a lane's
    share inside a lane) no thread starts: ``main`` runs, then each task.
    """
    if usable_cores() == 1:
        result = main()
        for task in tasks:
            task()
        return result
    errors = []

    def run(task):
        try:
            task()
        except BaseException as exc:   # raised again in the caller
            errors.append(exc)

    threads = []
    try:
        for task in tasks:
            threads.append(threading.Thread(target=run, args=(task,)))
            threads[-1].start()
        result = main()
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    return result


def _white(level: float) -> Callable[[np.ndarray], np.ndarray]:
    return lambda f: np.where(f <= NOISE_BANDWIDTH_HZ, level, 0.0)


def _mix(weights, xs):
    """Sum of w * x over the nonzero weights (a unit weight adds x as it is)."""
    return reduce(add, [x if w == 1.0 else w * x for w, x in zip(weights, xs) if w != 0.0])


class Arm(NamedTuple):
    """Bookkeeping of one generated arm: the ``Trace`` fields besides its samples."""

    label: str
    mean_level: float
    shot_psd: float


@dataclass(frozen=True)
class PairRecipe:
    """A generated pair's noise model, drawn per seed.

    ``noises`` are the one-sided PSDs of independent Gaussian noises; a seed
    draws the i-th from child i of ``SeedSequence(seed)``.  Arm a is the sum
    of the noises weighted by ``weights[0]``, arm b by ``weights[1]``.
    ``arm_rms`` bounds each arm's rms over all frequencies (levels): the root
    of its PSD's integral, which ``traces`` checks before it draws.
    """

    spec: DigitizerSpec
    noises: tuple[Callable[[np.ndarray], np.ndarray], ...]
    weights: tuple[tuple[float, ...], tuple[float, ...]]
    arms: tuple[Arm, Arm]
    arm_rms: tuple[float, float]

    def __post_init__(self):
        if NOISE_BANDWIDTH_HZ > 0.5 * self.spec.sample_rate:
            raise InvalidParams("noise bandwidth exceeds Nyquist")

    def noise_spectra(self, seed: int, bins=slice(None)) -> list[np.ndarray]:
        """Each noise's rfft at ``seed``: every normal of the pair drawn once, on ``_draw``'s threads.

        Over ``bins``, or for a sequence of slices over ``bins[i]`` for noise i.
        """
        return _draw(self.spec, self._draws(seed, bins),
                     min(usable_cores(), len(self.noises)))[0]

    def noise_spectra_beside(self, seed: int, work: Callable[[], object]):
        """``noise_spectra(seed)`` drawn on one worker thread while ``work()`` runs on this one.

        Returns the spectra and what ``work`` returned; see ``_draw``.
        """
        return _draw(self.spec, self._draws(seed, slice(None)), 1, work)

    def _draws(self, seed: int, bins) -> list[tuple]:
        """Each noise's (SeedSequence, psd, bins), as ``_draw`` takes them."""
        per_noise = [bins] * len(self.noises) if isinstance(bins, slice) else bins
        return list(zip(np.random.SeedSequence(seed).spawn(len(self.noises)), self.noises,
                        per_noise))

    def arm_spectra(self, spectra: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """Arms a and b as spectra, from ``noise_spectra`` over any bins."""
        return _mix(self.weights[0], spectra), _mix(self.weights[1], spectra)

    def difference(self, spectra: list[np.ndarray]) -> np.ndarray:
        """The record a - b from ``noise_spectra``: one irfft, over the spectra's own memory.

        A noise both arms carry with equal weight cancels exactly, so it may
        be drawn over any bins; every other noise is drawn over all of them.
        Consumes ``spectra``: the mix is summed in place into the first noise
        it takes (the same sums, in the same order, as ``arm_spectra``), and
        the record is written over the memory of another.
        """
        wa, wb = self.weights
        terms = [(x - y, z) for x, y, z in zip(wa, wb, spectra) if x != y]
        for w, z in terms:
            if w != 1.0:
                np.multiply(w, z, out=z)
        acc, *rest = [z for _, z in terms]
        for z in rest:
            np.add(acc, z, out=acc)
        out = rest[-1].view(np.float64)[:self.spec.n_samples] if rest else None
        return np.fft.irfft(acc, self.spec.n_samples, out=out)

    def traces(self, seed: int) -> TracePair:
        """The records ``seed`` draws, one irfft per arm; see ``twin_recipe`` for the check."""
        for arm, rms in zip(self.arms, self.arm_rms):
            if not holds_mean(rms):
                raise InvalidParams(f"arm {arm.label} of full-band rms up to {rms:.3g} levels "
                                    f"cannot hold its mean within {DC_TOLERANCE:g} "
                                    "levels in float64: sigma0, excess_noise_db or the power "
                                    "ratio is too large for a full-band record")
        a, b = (Trace(samples=np.fft.irfft(x, self.spec.n_samples), spec=self.spec,
                      **arm._asdict())
                for x, arm in zip(self.arm_spectra(self.noise_spectra(seed)), self.arms))
        return TracePair(a=a, b=b)


def twin_recipe(params: SourceParams, spec: DigitizerSpec) -> PairRecipe:
    """Quantum-correlated twin pair (probe / conjugate); see ``gen_twin``.

    Refuses a source whose band-passed records float64 cannot carry on
    ``spec``'s record: an arm excess_noise_db above its shot level over
    DESIGN_BAND must hold its mean, and the shared PSD's bin scale must stay
    finite at its peak, at most ``scale``, which grows without bound with
    sigma0.  ``traces`` applies the rms bound over all frequencies, where the
    shared spectrum carries at most scale / (4 sqrt(pi) sigma0).
    """
    shot_a, shot_b = _shot_psds(params)
    scale = _shared_scale(params, shot_a, shot_b)
    rms = math.sqrt(params.excess_ratio * (DESIGN_BAND[1] - DESIGN_BAND[0]) * max(shot_a, shot_b))
    if not holds_mean(rms):
        raise InvalidParams(f"excess_noise_db {params.excess_noise_db:g} dB is too high: an arm "
                            f"of rms {rms:.3g} levels over the design band cannot hold its mean "
                            f"within {DC_TOLERANCE:g} levels in float64")
    if not math.isfinite(spec.bin_scale(scale)):
        raise InvalidParams(f"sigma0 {params.sigma0 * 1e9:g} ns is too wide for a "
                            f"{spec.n_samples}-sample record: its shared spectrum's per-bin "
                            "scale overflows float64")
    s_lin = params.squeezing_ratio
    shared_var = scale / (4.0 * math.sqrt(math.pi) * params.sigma0)
    return PairRecipe(
        spec=spec,
        noises=(lambda f: scale * shared_psd_shape(f, params.sigma0),
                _white(s_lin * shot_a), _white(s_lin * shot_b)),
        weights=((1.0, 1.0, 0.0), (1.0, 0.0, 1.0)),
        arms=(Arm("probe", MEAN_LEVEL_A, shot_a),
              Arm("conjugate", _mean_level_b(params), shot_b)),
        arm_rms=tuple(math.sqrt(shared_var + s_lin * shot * NOISE_BANDWIDTH_HZ)
                      for shot in (shot_a, shot_b)))


def split_thermal_recipe(params: SourceParams, spec: DigitizerSpec) -> PairRecipe:
    """Conjugate beam split 50/50; see ``gen_split_thermal``."""
    _, shot_full = _shot_psds(params)
    x_lin = 10.0 ** (THERMAL_EXCESS_DB / 10.0)
    lorentz = lambda f: 1.0 / (1.0 + (f / THERMAL_CORNER_HZ) ** 2)
    amp = (x_lin - 1.0) * shot_full / float(lorentz(_BAND_GRID).mean())
    shot_half = 0.5 * shot_full  # shot PSD at half the optical power
    mean_half = 0.5 * _mean_level_b(params)
    return PairRecipe(
        spec=spec,
        noises=(lambda f: amp * lorentz(f), _white(shot_half), _white(shot_half)),
        weights=((0.5, 1.0, 0.0), (0.5, 0.0, 1.0)),
        arms=(Arm("conjugate-split-1", mean_half, shot_half),
              Arm("conjugate-split-2", mean_half, shot_half)),
        arm_rms=(math.sqrt(0.25 * amp * THERMAL_CORNER_HZ * math.pi / 2.0
                           + shot_half * NOISE_BANDWIDTH_HZ),) * 2)


def split_coherent_recipe(params: SourceParams, spec: DigitizerSpec) -> PairRecipe:
    """Two independent shot-noise-limited arms; see ``gen_split_coherent``.

    A coherent pair has no shared spectrum, so any source is accepted.
    """
    shot_a, shot_b = _shot_psds(params)
    return _coherent_pair(spec, Arm("coherent-A", MEAN_LEVEL_A, shot_a),
                          Arm("coherent-B", _mean_level_b(params), shot_b))


def _coherent_pair(spec: DigitizerSpec, *arms: Arm) -> PairRecipe:
    """One independent white noise per arm, at the arm's shot PSD."""
    return PairRecipe(spec=spec, noises=tuple(_white(arm.shot_psd) for arm in arms),
                      weights=((1.0, 0.0), (0.0, 1.0)), arms=arms,
                      arm_rms=tuple(math.sqrt(arm.shot_psd * NOISE_BANDWIDTH_HZ) for arm in arms))


# Recipe of each generated pair by name, called as (params, spec).
RECIPES = {"twin": twin_recipe, "split-thermal": split_thermal_recipe,
           "split-coherent": split_coherent_recipe}


def shot_noise_recipe(spec: DigitizerSpec, shot_psds) -> PairRecipe:
    """A pair's shot-noise reference: a coherent pair at its arms' shot PSDs.

    ``split_coherent_recipe``'s two white noises at ``shot_psds``.
    """
    return _coherent_pair(spec, *(Arm("shot-noise reference", 0.0, shot) for shot in shot_psds))


def shot_noise_reference(spec: DigitizerSpec, shot_psds, seed: int) -> np.ndarray:
    """A pair's shot-noise level: the a - b record of ``shot_noise_recipe`` drawn from ``seed``."""
    ref = shot_noise_recipe(spec, shot_psds)
    return ref.difference(ref.noise_spectra(seed))


def gen_twin(params: SourceParams, spec: DigitizerSpec, seed: int) -> TracePair:
    """Quantum-correlated twin pair (probe / conjugate).

    The pair's intensity-difference PSD sits squeezing_db below the coherent
    reference at matched powers across the analysis band, each arm shows
    excess_noise_db above its shot level in band, and the delay-MI envelope
    follows a Gaussian of scale sigma0.
    """
    return twin_recipe(params, spec).traces(seed)


def gen_split_thermal(params: SourceParams, spec: DigitizerSpec, seed: int) -> TracePair:
    """Conjugate beam split 50/50: classical low-frequency correlations only.

    A low-pass (corner below the analysis band) Gaussian process models the
    thermal-like conjugate fluctuation, THERMAL_EXCESS_DB above shot noise in
    band; each split output receives half of it plus independent shot-scale
    noise at its own (halved) power.  With zero thermal excess this
    degenerates to the split-coherent case.
    """
    return split_thermal_recipe(params, spec).traces(seed)


def gen_split_coherent(params: SourceParams, spec: DigitizerSpec, seed: int) -> TracePair:
    """Two independent shot-noise-limited traces at the configured powers."""
    return split_coherent_recipe(params, spec).traces(seed)
