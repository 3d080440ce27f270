"""Analytic channel model and staged parameter recovery.

The unobstructed delay curve is modeled as a unit-peak Gaussian of scale
``sigma0``.  The scatterer + integrating-sphere channel smears it with a
two-sided exponential delay density (mean ``tau0``, spread ``sigma``) and
scales it by the forward-scattering efficiency ``eta``:

    G(t) = eta * integral g(t - x) p(x) dx

which has a closed form in terms of the complementary error function.  The
closed form is evaluated with erfcx to stay finite for any parameter ratio;
``G_numeric`` provides an independent quadrature oracle for it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FitError, InvalidParams, TwinbeamError
from .mi import _half_level_width, _interior_peak
from .trace import FitResult, MICurve

__all__ = [
    "gaussian_g",
    "exp_kernel_p",
    "G_closed",
    "G_numeric",
    "peak_value",
    "model_fwhm",
    "GaussianFit",
    "fit_gaussian",
    "fit_channel",
    "GAUSSIAN_FWHM_FACTOR",
]

# FWHM of exp(-t^2 / (2 s^2)) is this factor times s.
GAUSSIAN_FWHM_FACTOR = 2.0 * np.sqrt(2.0 * np.log(2.0))


def gaussian_g(t, sigma0: float):
    """Unit-peak Gaussian envelope exp(-t^2 / (2 sigma0^2))."""
    if not sigma0 > 0:
        raise InvalidParams("sigma0 must be > 0")
    t = np.asarray(t, dtype=np.float64)
    return np.exp(-0.5 * (t / sigma0) ** 2)


def exp_kernel_p(tau, tau0: float, sigma: float):
    """Two-sided exponential delay density, unit integral over the real line."""
    if not sigma > 0:
        raise InvalidParams("sigma must be > 0")
    tau = np.asarray(tau, dtype=np.float64)
    return np.exp(-np.abs(tau - tau0) / sigma) / (2.0 * sigma)


def _half_term(u: np.ndarray, r: float) -> np.ndarray:
    """exp(r^2/2 - u r) * erfc((r - u)/sqrt(2)), overflow- and cancellation-free.

    For (r - u) >= 0 the identity r^2/2 - u r - ((r-u)/sqrt2)^2 = -u^2/2 turns
    the product into exp(-u^2/2) * erfcx((r-u)/sqrt2); the exponent is formed
    directly from u (never as a difference of two huge numbers).  For r < u,
    erfc(x) = 2 - erfc(-x) gives a bounded remainder whose exponent
    r (r/2 - u) < 0 is formed as a single product.
    """
    from scipy.special import erfcx

    x = (r - u) / np.sqrt(2.0)
    out = np.empty_like(u)
    pos = x >= 0
    out[pos] = np.exp(-0.5 * u[pos] ** 2) * erfcx(x[pos])
    neg = ~pos
    out[neg] = (
        2.0 * np.exp(r * (0.5 * r - u[neg]))
        - np.exp(-0.5 * u[neg] ** 2) * erfcx(-x[neg])
    )
    return out


def G_closed(t, eta: float, tau0: float, sigma: float, sigma0: float):
    """Closed-form smeared envelope; finite for all finite inputs.

    With u = (t - tau0)/sigma0 and r = sigma0/sigma:

        G = eta * sqrt(2 pi) * r / 4 * [E(u) + E(-u)],
        E(u) = exp(r^2/2 - u r) * erfc((r - u)/sqrt(2))

    where each E is computed through the scaled complementary error function
    (exp(r^2/2) alone overflows for r >~ 38).
    """
    if not (sigma > 0 and sigma0 > 0):
        raise InvalidParams("sigma and sigma0 must be > 0")
    if not eta > 0:
        raise InvalidParams("eta must be > 0")
    t = np.asarray(t, dtype=np.float64)
    scalar = t.ndim == 0
    u = (np.atleast_1d(t) - tau0) / sigma0
    r = sigma0 / sigma
    pref = eta * np.sqrt(2.0 * np.pi) * r / 4.0
    val = pref * (_half_term(u, r) + _half_term(-u, r))
    return float(val[0]) if scalar else val


def peak_value(eta: float, sigma0: float, sigma: float) -> float:
    """Peak of the smeared envelope, G at t = tau0.

    Stable form of (eta sigma0 sqrt(2 pi) / 2 sigma) exp(sigma0^2/2 sigma^2)
    * erfc(sigma0 / (sqrt(2) sigma)).
    """
    from scipy.special import erfcx

    if not (sigma > 0 and sigma0 > 0):
        raise InvalidParams("sigma and sigma0 must be > 0")
    r = sigma0 / sigma
    return float(eta * np.sqrt(2.0 * np.pi) * r / 2.0 * erfcx(r / np.sqrt(2.0)))


# Gauss-Legendre node cache for the quadrature oracle, and the agreement
# between successive orders at which it stops refining.
_GL_CACHE: dict = {}
_QUAD_ABS_TOL = 1e-12

_SIGMA_EDGES = np.array([-40.0, -16.0, -8.0, -4.0, -2.0, -1.0, 0.0,
                         1.0, 2.0, 4.0, 8.0, 16.0, 40.0])
_SIGMA0_EDGES = np.array([-16.0, -8.0, -4.0, -2.0, -1.0, 0.0,
                          1.0, 2.0, 4.0, 8.0, 16.0])


def _gl_nodes(n: int):
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


def _quad_panels(t: np.ndarray, tau0: float, sigma: float, sigma0: float,
                 n_nodes: int) -> np.ndarray:
    """Panelized Gauss-Legendre of the convolution integrand, per grid point.

    The integrand g(t - x) p(x) has a kink at x = tau0 (decay scale sigma)
    and a Gaussian bump at x = t (scale sigma0), so panel edges are aligned
    to both features; edges falling outside [tau0 - 40 sigma, tau0 + 40
    sigma] are clipped onto the boundary, giving zero-width panels that
    contribute nothing.
    """
    lo, hi = tau0 - 40.0 * sigma, tau0 + 40.0 * sigma
    kink_edges = tau0 + sigma * _SIGMA_EDGES
    bump_edges = t[:, None] + sigma0 * _SIGMA0_EDGES[None, :]
    edges = np.concatenate(
        [np.broadcast_to(kink_edges, (len(t), len(kink_edges))), bump_edges], axis=1
    )
    edges = np.clip(np.sort(edges, axis=1), lo, hi)
    xi, wi = _gl_nodes(n_nodes)
    mid = 0.5 * (edges[:, 1:] + edges[:, :-1])
    half = 0.5 * (edges[:, 1:] - edges[:, :-1])
    x = mid[:, :, None] + half[:, :, None] * xi[None, None, :]
    fx = gaussian_g(t[:, None, None] - x, sigma0) * exp_kernel_p(x, tau0, sigma)
    return np.einsum("ijk,ij,k->i", fx, half, wi)


def G_numeric(t, eta: float, tau0: float, sigma: float, sigma0: float):
    """Quadrature oracle for G_closed.

    Integrates the convolution over x in [tau0 - 40 sigma, tau0 + 40 sigma]
    on feature-aligned panels, doubling the Gauss-Legendre order per point
    until successive estimates agree within _QUAD_ABS_TOL.
    """
    if not (sigma > 0 and sigma0 > 0):
        raise InvalidParams("sigma and sigma0 must be > 0")
    t_arr = np.atleast_1d(np.asarray(t, dtype=np.float64))
    prev = _quad_panels(t_arr, tau0, sigma, sigma0, 48)
    cur = _quad_panels(t_arr, tau0, sigma, sigma0, 96)
    bad = np.abs(cur - prev) >= _QUAD_ABS_TOL
    if np.any(bad):
        finer = _quad_panels(t_arr[bad], tau0, sigma, sigma0, 192)
        still_bad = np.abs(finer - cur[bad]) >= _QUAD_ABS_TOL
        if np.any(still_bad):
            raise TwinbeamError(
                f"quadrature did not reach {_QUAD_ABS_TOL:g} at "
                f"t={t_arr[bad][still_bad][0]:g}"
            )
        cur[bad] = finer
    out = eta * cur
    return float(out[0]) if np.ndim(t) == 0 else out


def model_fwhm(sigma0: float, sigma: float) -> float:
    """Full width at half maximum of G_closed (independent of eta, taken as 1).

    Strictly increasing in sigma at fixed sigma0, with the sigma -> 0 floor
    GAUSSIAN_FWHM_FACTOR * sigma0.
    """
    from scipy.optimize import brentq

    g0 = peak_value(1.0, sigma0, sigma)

    def f(T):
        return G_closed(T, 1.0, 0.0, sigma, sigma0) - 0.5 * g0

    hi = 2.0 * (GAUSSIAN_FWHM_FACTOR * sigma0 + 4.0 * sigma)
    while f(hi) > 0:
        hi *= 2.0
    half = brentq(f, 0.0, hi, xtol=1e-16 + 1e-12 * sigma0, rtol=8.9e-16)
    return 2.0 * half


@dataclass(frozen=True)
class GaussianFit:
    sigma0: float
    peak: float
    center: float
    residual_rms: float

    def to_report(self) -> dict:
        """JSON form in ns, as reports and ``twinbeam fit`` write it."""
        return {
            "sigma0_ns": self.sigma0 * 1e9,
            "peak": self.peak,
            "center_ns": self.center * 1e9,
            "residual_rms": self.residual_rms,
        }


def fit_gaussian(curve: MICurve) -> GaussianFit:
    """Least-squares fit of amplitude * g(t - center) to a delay curve."""
    from scipy.optimize import least_squares

    d, m = curve.delays, curve.mi
    i_pk = _interior_peak(m)
    # Width guess from the half-maximum crossing nearest the peak.
    above = m >= 0.5 * m[i_pk]
    width0 = max(curve.step, np.count_nonzero(above) * curve.step / GAUSSIAN_FWHM_FACTOR)

    def resid(p):
        amp, center, s0 = p
        return amp * np.exp(-0.5 * ((d - center) / s0) ** 2) - m

    scale = np.array([max(m[i_pk], 1e-30), max(width0, curve.step), max(width0, curve.step)])
    res = least_squares(
        resid,
        x0=[m[i_pk], d[i_pk], width0],
        x_scale=scale,
        gtol=1e-14, xtol=2.3e-16, ftol=1e-15,
        max_nfev=2000,
    )
    if not res.success and res.status <= 0:
        raise FitError(f"gaussian fit failed: {res.message}")
    amp, center, s0 = res.x
    if amp <= 0 or s0 <= 0:
        raise FitError("gaussian fit converged to a non-physical optimum")
    rms = float(np.sqrt(np.mean(res.fun ** 2)))
    return GaussianFit(sigma0=float(abs(s0)), peak=float(amp), center=float(center),
                       residual_rms=rms)


def _refined_peak(curve: MICurve) -> tuple[float, float]:
    """Sub-grid peak (delay, value) by quadratic interpolation through 3 points."""
    m, d = curve.mi, curve.delays
    i = _interior_peak(m)
    y0, y1, y2 = m[i - 1], m[i], m[i + 1]
    denom = y0 - 2.0 * y1 + y2
    if denom >= 0:  # flat or non-concave sample triplet
        return float(d[i]), float(y1)
    off = 0.5 * (y0 - y2) / denom
    off = float(np.clip(off, -0.5, 0.5))
    value = y1 - 0.25 * (y0 - y2) * off
    return float(d[i] + off * curve.step), float(value)


def fit_channel(curve: MICurve, sigma0: float) -> FitResult:
    """Staged recovery of (tau0, sigma, eta) from a normalized channel curve.

    Stage 1: tau0 from the sub-grid-refined peak position.
    Stage 2: sigma from matching the model FWHM to the measured FWHM
             (bracketed root find; the width grows monotonically with sigma).
             The measured FWHM is taken at half the refined peak, between
             the outermost crossings, with a warning on side structure.
    Stage 3: eta from the peak height through the closed-form peak value.

    The curve must be normalized so the unobstructed reference peaks at 1;
    one whose refined peak exceeds 1 is refused before any fitting.
    """
    from scipy.optimize import brentq

    if not sigma0 > 0:
        raise InvalidParams("sigma0 must be > 0")
    tau0_hat, peak_hat = _refined_peak(curve)
    if peak_hat > 1.0:
        raise InvalidParams(f"the curve peaks at {peak_hat:.6g}, above 1: it is not normalized to "
                            "the unobstructed peak (normalize_curve, fit's --reference-peak)")

    width = _half_level_width(curve.delays, curve.mi, 0.5 * peak_hat)
    floor = GAUSSIAN_FWHM_FACTOR * sigma0
    if width < floor * (1.0 - 1e-3):
        raise FitError(
            f"measured width {width * 1e9:.2f} ns lies below the zero-spread "
            f"floor {floor * 1e9:.2f} ns for sigma0 = {sigma0 * 1e9:.2f} ns"
        )
    if width <= floor:
        # At the floor (within interpolation error): the no-broadening limit,
        # sigma -> 0 and eta is the peak height itself.
        sigma_hat = 1e-6 * sigma0
    else:
        def width_err(sig):
            return model_fwhm(sigma0, sig) - width

        sig_lo = 1e-6 * sigma0
        sig_hi = 2.0 * sigma0
        while width_err(sig_hi) < 0:
            sig_hi *= 2.0
            if sig_hi > 1e4 * sigma0:
                raise FitError("could not bracket sigma for the measured width")
        sigma_hat = brentq(width_err, sig_lo, sig_hi,
                           xtol=1e-16 + 1e-13 * sigma0, rtol=8.9e-16)

    eta_hat = peak_hat / peak_value(1.0, sigma0, sigma_hat)

    model = G_closed(curve.delays, eta_hat, tau0_hat, sigma_hat, sigma0)
    residual_rms = float(np.sqrt(np.mean((model - curve.mi) ** 2)))
    return FitResult(
        sigma0=float(sigma0),
        tau0=float(tau0_hat),
        sigma=float(sigma_hat),
        eta=float(eta_hat),
        fwhm_unobstructed=float(GAUSSIAN_FWHM_FACTOR * sigma0),
        fwhm_channel=float(width),
        peak_ratio=float(peak_hat),
        residual_rms=residual_rms,
    )
