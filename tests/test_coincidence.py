"""Monte Carlo coincidence counting against analytic distributions."""

import dataclasses
import functools
import math
import warnings

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter1d
from scipy.special import erf as scipy_erf
from scipy.stats import chi2, norm, poisson

from biphoton import (
    PLUS_MINUS,
    PLUS_PLUS,
    PSI_PLUS,
    ConfigurationError,
    CorrelationResult,
    CrystalParams,
    DetectorParams,
    DriftProcess,
    FiberChannel,
    FrequencyGrid,
    PostSelectionWindow,
    analyzer_vector,
    backward,
    channel_visibility,
    drift_operators,
    drift_timeseries,
    estimate_visibility,
    faraday_mirror,
    g2_analytic,
    g2_numeric,
    pdc_state,
    random_unitary,
    simulate_histogram,
    simulate_histograms,
)
from biphoton import cli, coincidence
from biphoton.coincidence import _erf, _smeared_cdf
from biphoton.csvio import read_csv

TAU_F = 6.912e-10
IDEAL = DetectorParams()


def analytic_curve(which, n=2048, span=3.0):
    tau = np.linspace(-span * TAU_F, span * TAU_F, n)
    g = g2_analytic(tau, TAU_F, which=which)
    analyzer = PLUS_PLUS if which == "plus" else PLUS_MINUS
    return CorrelationResult(
        tau_grid=tau, g2=g, analyzer=analyzer, normalization="raw"
    )


def event_histogram(curve, detectors, mean_pairs, channel_width, n_channels, zero, seed):
    """Oracle: per-pair sampling of the start-stop measurement.

    Draws a Poisson pair total, then every pair's cell, its uniform offset in
    the cell and both detectors' jitter, and bins each delay; returns
    [underflow, channel counts with background..., overflow].
    """
    rng = np.random.default_rng(seed)
    tau = curve.tau_grid
    cell = tau[1] - tau[0]
    n_pairs = rng.poisson(mean_pairs)
    idx = rng.choice(len(tau), size=n_pairs, p=curve.g2 / np.sum(curve.g2))
    delay = tau[idx] + rng.uniform(-cell / 2.0, cell / 2.0, size=n_pairs)
    delay += rng.normal(0.0, detectors.jitter_sigma, size=n_pairs)
    delay -= rng.normal(0.0, detectors.jitter_sigma, size=n_pairs)
    ch = np.floor(delay / channel_width + 0.5).astype(np.int64) + zero
    bins = np.bincount(np.clip(ch + 1, 0, n_channels + 1), minlength=n_channels + 2)
    bins[1:-1] += rng.poisson(detectors.dark_background_rate, size=n_channels)
    return bins


@pytest.mark.parametrize(
    "sigma, dark_rate, n_channels",
    [
        (0.0, 0.0, None),
        (TAU_F / 20, 0.0, None),
        (TAU_F / 2, 0.0, None),
        (0.0, 30.0, 31),
        (TAU_F / 3, 30.0, 41),
    ],
)
def test_channel_law_matches_event_sampler(sigma, dark_rate, n_channels):
    # Two independent samples of the same law: given a + b, each bin's a is
    # Binomial(a + b, 1/2), so sum (a - b)^2 / (a + b) is chi-square with one
    # degree of freedom per occupied bin.
    curve = analytic_curve("plus")
    detectors = DetectorParams(jitter_sigma=sigma, dark_background_rate=dark_rate)
    h = simulate_histogram(
        curve, detectors, pair_rate=1e6, acquisition_time=1.0,
        channel_width=TAU_F / 20, seed=2024, n_channels=n_channels,
    )
    law = np.concatenate([[h.underflow], h.counts, [h.overflow]])
    events = event_histogram(
        curve, detectors, 5e5, h.channel_width, len(h.counts), h.zero_offset_channel, 4202
    )
    if n_channels is not None:
        assert min(law[0], law[-1], events[0], events[-1]) > 1000
    occupied = (law + events) > 0
    stat = np.sum((law - events)[occupied] ** 2 / (law + events)[occupied])
    dof = int(np.count_nonzero(occupied))
    assert chi2.sf(stat, dof) > 1e-3, f"chi2 {stat:.1f} on {dof} bins"


@pytest.mark.parametrize("s", [0.0, TAU_F / 20, TAU_F / 2, 4 * TAU_F])
def test_smeared_cdf_matches_quadrature(s):
    # independent route: the piecewise-linear CDF of the cell boxes, averaged
    # over the Gaussian by a dense Riemann sum (exact interpolation at s = 0)
    curve = analytic_curve("plus")
    tau = curve.tau_grid
    cell = tau[1] - tau[0]
    bounds = np.append(tau - cell / 2, tau[-1] + cell / 2)
    cdf = np.append(0.0, np.cumsum(curve.g2)) / np.sum(curve.g2)
    x = np.linspace(-10 * TAU_F, 10 * TAU_F, 41)
    if s == 0.0:
        expected = np.interp(x, bounds, cdf)
    else:
        t = np.linspace(-12 * s, 12 * s, 200001)
        w = norm.pdf(t, scale=s)
        w /= np.sum(w)
        expected = np.array([np.sum(np.interp(xi - t, bounds, cdf) * w) for xi in x])
    got = _smeared_cdf(x, tau, curve.g2, cell, s)
    np.testing.assert_allclose(got, expected, rtol=0, atol=3e-12)
    if 3 * TAU_F + 9 * s < 10 * TAU_F:
        # every cell is out of reach of the end points: exactly 0 and 1
        assert got[0] == 0.0 and got[-1] == 1.0


def test_channel_law_at_the_jitter_bound():
    # The scenario's geometry at the widest smear the law resolves: no share is
    # negative, and each is within 1e-12 of a quadrature free of cancellation
    # (8-point Gauss-Legendre of the normal CDF over every cell).
    curves = scenario_curves(512)
    tau = curves[0].tau_grid
    cell = coincidence._cell_width(tau)
    sigma = coincidence._MAX_SMEAR_CELLS * cell / math.sqrt(2.0)
    while math.sqrt(2.0) * sigma > coincidence._MAX_SMEAR_CELLS * cell:
        sigma = np.nextafter(sigma, 0.0)
    s = math.sqrt(2.0) * sigma
    edges = (np.arange(4097) - 2048 - 0.5) * (TAU_F / 20)
    nodes, weights = np.polynomial.legendre.leggauss(8)
    t = (tau - cell / 2.0)[:, None] + cell * (nodes + 1.0) / 2.0
    for curve, cdf in zip(curves, _smeared_cdf(edges, tau, np.stack([c.g2 for c in curves]),
                                               cell, s)):
        share = np.diff(cdf, prepend=0.0, append=1.0)
        assert np.all(share >= 0.0) and abs(np.sum(share) - 1.0) < 1e-12
        expected = np.array([np.sum(curve.g2[:, None] * weights * norm.cdf((x - t) / s))
                             for x in edges]) / (2.0 * np.sum(curve.g2))
        np.testing.assert_allclose(np.diff(cdf), np.diff(expected), rtol=0, atol=1e-12)
    kwargs = dict(pair_rate=1e5, acquisition_time=1.0, channel_width=TAU_F / 20,
                  n_channels=4096)
    simulate_histograms(curves, DetectorParams(jitter_sigma=sigma), seeds=[1, 2], **kwargs)
    wider = DetectorParams(jitter_sigma=sigma * (1.0 + 1e-9))
    with pytest.raises(ConfigurationError, match="jitter_sigma"):
        simulate_histograms(curves, wider, seeds=[1, 2], **kwargs)


def test_smeared_cdf_does_not_depend_on_chunk_size(monkeypatch):
    curve = analytic_curve("plus")
    tau = curve.tau_grid
    x = np.linspace(-5 * TAU_F, 5 * TAU_F, 301)
    a = _smeared_cdf(x, tau, curve.g2, tau[1] - tau[0], TAU_F / 20)
    # the band here is 311 cells wide, so a chunk of 311 terms holds one row
    monkeypatch.setattr(coincidence, "_CHUNK", 311)
    b = _smeared_cdf(x, tau, curve.g2, tau[1] - tau[0], TAU_F / 20)
    np.testing.assert_array_equal(a, b)


def erf_points():
    """Dense across both range limits of Cody's erf, out to |x| = 7, plus the extremes."""
    rng = np.random.default_rng(31)
    ulps = np.arange(-2000, 2001)
    near = [np.linspace(c - 1e-3, c + 1e-3, 20001) for c in (0.46875, 4.0)]
    near += [c + ulps * np.spacing(c) for c in (0.46875, 4.0)]
    special = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1e-17,
               1e10, 1e154, 1e200, 1.7976931348623157e308, np.inf]
    x = np.concatenate(near + [np.linspace(0.0, 7.0, 140001), rng.uniform(0.0, 7.0, 100000),
                               special])
    return np.concatenate([x, -x])


def test_erf_matches_math_and_scipy():
    x = erf_points()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = _erf(x)
    # _erf is within 4 ulp of mpmath's erf and the two oracles differ from
    # each other by up to 3 ulp; the largest difference seen here is 5 ulp,
    # just above |x| = 0.46875, where erf comes from 1 - erfc.
    for oracle in (np.array([math.erf(v) for v in x]), scipy_erf(x)):
        ulp = np.abs(got - oracle) / np.spacing(np.abs(oracle))
        assert np.max(ulp) <= 8, x[np.argmax(ulp)]
    assert np.array_equal(np.signbit(got), np.signbit(x))
    assert np.array_equal(_erf(np.array([np.inf, -np.inf, 1e300, -1e300])), [1.0, -1.0, 1.0, -1.0])


def test_erf_is_exact_in_the_tails():
    # 1 - erfc rounded once gives erf to the bit beyond |x| = 4, as both
    # oracles do: the channel law's far tails, whose exact zeros decide how
    # many uniforms the Poisson draws take, then match the math.erf route.
    x = np.linspace(4.0, 6.5, 200001)
    x = np.concatenate([x, -x])
    got = _erf(x)
    np.testing.assert_array_equal(got, [math.erf(v) for v in x])
    np.testing.assert_array_equal(got, scipy_erf(x))


def test_erf_is_elementwise():
    x = erf_points()
    whole = _erf(x).view(np.uint64)
    perm = np.random.default_rng(5).permutation(len(x))
    np.testing.assert_array_equal(_erf(x[perm]).view(np.uint64), whole[perm])
    for step, chunk in ((1, 4096), (101, 7), (997, 1)):
        sample = x[::step]
        parts = [_erf(sample[i:i + chunk]) for i in range(0, len(sample), chunk)]
        np.testing.assert_array_equal(np.concatenate(parts).view(np.uint64), whole[::step])


@functools.lru_cache(maxsize=None)
def scenario_curves(n):
    """Both arms' far-field g2 of the default state on an n-point grid."""
    crystal = CrystalParams(pump_wavelength=351e-9, gvm=2.0e-10, length=0.5e-3)
    fiber = FiberChannel(k2=3.6e-26, geometric_length=240.0, passes="go_and_return")
    state = pdc_state(crystal, FrequencyGrid(n=n, omega_max=8.0 * np.pi / crystal.tau0))
    return g2_numeric(state, fiber, PLUS_PLUS), g2_numeric(state, fiber, PLUS_MINUS)


def psi_math_erf(y, s):
    """The channel law's Psi by one math.erf call per term (the former route)."""
    out = np.maximum(y, 0.0)
    near = np.abs(y) < coincidence._REACH * s
    z = y[near] / s
    cdf = 0.5 + 0.5 * np.frompyfunc(math.erf, 1, 1)(z / math.sqrt(2.0)).astype(float)
    out[near] = y[near] * cdf + s * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    return out


@pytest.mark.parametrize("n", [512, 1 << 16])
def test_smeared_cdf_matches_math_erf_route(monkeypatch, n):
    # The histogram scenario's geometry: the far-field g2 of the default
    # state, 4,096 channels of tau_f / 20 and 1e-10 s jitter per detector.
    curve = scenario_curves(n)[0]
    tau = curve.tau_grid
    edges = (np.arange(4097) - 2048 - 0.5) * (TAU_F / 20)
    args = (edges, tau, curve.g2, tau[1] - tau[0], math.sqrt(2.0) * 1e-10)
    got = _smeared_cdf(*args)
    monkeypatch.setattr(coincidence, "_psi", psi_math_erf)
    expected = _smeared_cdf(*args)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-15)
    assert got[0] == 0.0 and got[-1] == 1.0


def smeared_cdf_one_curve(x, tau, weight, cell, s):
    """The channel law of one density alone: the route before densities were stacked."""
    reach = coincidence._REACH * s + cell / 2.0
    band = min(int(np.ceil(2.0 * reach / cell)) + 2, len(tau))
    first = np.clip(np.floor((x - reach - tau[0]) / cell) + 1.0, 0, len(tau)).astype(np.int64)
    full = np.concatenate([[0.0], np.cumsum(weight)])
    cdf = full[first]
    bounds = np.concatenate([tau - cell / 2.0, [tau[-1] + cell / 2.0], np.full(band, np.inf)])
    weight = np.concatenate([weight, np.zeros(band)])
    live = np.flatnonzero((first < len(tau)) & (x > bounds[0] - coincidence._REACH * s))
    for i in np.array_split(live, max(1, len(live) * band // coincidence._CHUNK)):
        k = first[i, None] + np.arange(band + 1)
        psi = coincidence._psi(x[i, None] - bounds[k], s)
        cdf[i] += np.sum(weight[k[:, :-1]] * (psi[:, :-1] - psi[:, 1:]), axis=1) / cell
    return cdf / full[-1]


@pytest.mark.parametrize("n, jitter, chunk", [
    (512, 1e-10, coincidence._CHUNK),
    (1 << 16, 1e-10, coincidence._CHUNK),
    (512, 1e-10, 311),
    (512, 0.0, coincidence._CHUNK),
    (1 << 16, 0.0, coincidence._CHUNK),
])
def test_stacked_channel_law_is_each_curve_alone(monkeypatch, n, jitter, chunk):
    # The histogram scenario's geometry: 4,096 channels of tau_f / 20.
    monkeypatch.setattr(coincidence, "_CHUNK", chunk)
    curves = scenario_curves(n)
    tau = curves[0].tau_grid
    edges = (np.arange(4097) - 2048 - 0.5) * (TAU_F / 20)
    args = (tau, tau[1] - tau[0], math.sqrt(2.0) * jitter)
    stacked = _smeared_cdf(edges, args[0], np.stack([c.g2 for c in curves]), *args[1:])
    assert stacked.shape == (2, len(edges))
    for row, curve in zip(stacked, curves):
        alone = smeared_cdf_one_curve(edges, args[0], curve.g2, *args[1:])
        np.testing.assert_array_equal(row.view(np.uint64), alone.view(np.uint64))
    detectors = DetectorParams(jitter_sigma=jitter, dark_background_rate=0.5)
    kwargs = dict(detectors=detectors, pair_rate=2e5, acquisition_time=100.0,
                  channel_width=TAU_F / 20, n_channels=4096, transmittance=0.9)
    both = simulate_histograms(curves, seeds=[11, 12], **kwargs)
    for hist, curve, seed in zip(both, curves, (11, 12)):
        alone = simulate_histogram(curve, seed=seed, **kwargs)
        np.testing.assert_array_equal(hist.counts, alone.counts)
        assert (hist.underflow, hist.overflow, hist.n_pairs, hist.n_background) == (
            alone.underflow, alone.overflow, alone.n_pairs, alone.n_background)


def test_simulate_histograms_needs_one_grid_and_a_seed_per_curve():
    plus, minus = analytic_curve("plus"), analytic_curve("minus", n=2047)
    kwargs = dict(detectors=IDEAL, pair_rate=1e5, acquisition_time=1.0,
                  channel_width=TAU_F / 20)
    with pytest.raises(ValueError, match="share one tau grid"):
        simulate_histograms([plus, minus], seeds=[1, 2], **kwargs)
    with pytest.raises(ValueError, match="one seed per curve"):
        simulate_histograms([plus, plus], seeds=[1], **kwargs)
    with pytest.raises(ValueError, match="one seed per curve"):
        simulate_histograms([], seeds=[], **kwargs)


def erf_nudged_in_the_tails(toward):
    """_erf moved by one ulp toward ``toward`` (times the sign of erf) where |x| > 3."""
    def nudged(x):
        out = _erf(x)
        far = np.abs(x) > 3.0
        out[far] = np.nextafter(out[far], toward * np.sign(out[far]))
        return out
    return nudged


def test_counts_do_not_follow_erf_rounding_in_the_tails(tmp_path, monkeypatch):
    # Far-tail shares that are rounding noise must not decide which bins draw
    # from the Poisson stream: at the scenario defaults, one ulp of erf in the
    # tails leaves every count of both arms as it was.
    def counts(seed):
        out = tmp_path / f"{seed}"
        assert cli.main(["histogram", f"--sim.seed={seed}", f"--sim.output_dir={out}"]) == 0
        return [read_csv(out / f"histogram_{arm}.csv")[0]["counts"] for arm in ("plus", "minus")]

    seeds = range(1, 6)
    expected = [counts(seed) for seed in seeds]
    for toward in (0.0, np.inf):
        monkeypatch.setattr(coincidence, "_erf", erf_nudged_in_the_tails(toward))
        for seed, arms in zip(seeds, expected):
            for got, want in zip(counts(seed), arms):
                np.testing.assert_array_equal(got, want)


def test_histogram_shares_within_reach_are_floored(tmp_path):
    assert cli.main(["histogram", f"--sim.output_dir={tmp_path}"]) == 0
    for arm, floored in (("plus", 13), ("minus", 16)):
        columns, meta = read_csv(tmp_path / f"histogram_{arm}.csv")
        # 4,096 channels of tau_f / 20 against a signal support plus 9 jitter
        # sigmas of about 18.7 ns; the floored channels had a share of 0.
        assert int(meta["diag.in_reach_channels"]) == 1081
        assert int(meta["diag.floored_channels"]) == floored


def test_histogram_is_deterministic():
    curve = analytic_curve("plus")
    kwargs = dict(
        detectors=IDEAL,
        pair_rate=1e5,
        acquisition_time=1.0,
        channel_width=TAU_F / 20,
        seed=42,
    )
    a = simulate_histogram(curve, **kwargs)
    b = simulate_histogram(curve, **kwargs)
    np.testing.assert_array_equal(a.counts, b.counts)
    assert a.n_pairs == b.n_pairs
    c = simulate_histogram(curve, **{**kwargs, "seed": 43})
    assert np.any(c.counts != a.counts)


def test_histogram_conserves_counts():
    curve = analytic_curve("plus")
    h = simulate_histogram(
        curve,
        detectors=DetectorParams(jitter_sigma=TAU_F, dark_background_rate=50.0),
        pair_rate=2e5,
        acquisition_time=1.0,
        channel_width=TAU_F / 20,
        seed=7,
    )
    assert int(h.counts.sum()) + h.underflow + h.overflow == h.n_pairs + h.n_background


def test_histogram_narrow_range_overflows():
    curve = analytic_curve("plus")
    h = simulate_histogram(
        curve,
        detectors=IDEAL,
        pair_rate=2e5,
        acquisition_time=1.0,
        channel_width=TAU_F / 20,
        seed=7,
        n_channels=21,
    )
    assert h.underflow + h.overflow > 0
    assert int(h.counts.sum()) + h.underflow + h.overflow == h.n_pairs


def test_histogram_efficiency_and_transmittance_scale_rate():
    curve = analytic_curve("plus")
    lossy = simulate_histogram(
        curve,
        detectors=DetectorParams(efficiency_1=0.5, efficiency_2=0.5),
        pair_rate=4e5,
        acquisition_time=1.0,
        channel_width=TAU_F / 20,
        seed=11,
        transmittance=0.5,
    )
    # mean pairs = rate * T * transmittance * eta1 * eta2 / 2 = 25000
    expected = 4e5 * 0.5 * 0.25 / 2
    assert abs(lossy.n_pairs - expected) < 6 * np.sqrt(expected)


def test_histogram_rejects_zero_curve():
    tau = np.linspace(-TAU_F, TAU_F, 64)
    flat = CorrelationResult(
        tau_grid=tau, g2=np.zeros(64), analyzer=PLUS_PLUS, normalization="raw"
    )
    with pytest.raises(ValueError, match="identically zero"):
        simulate_histogram(
            flat,
            detectors=IDEAL,
            pair_rate=1e5,
            acquisition_time=1.0,
            channel_width=TAU_F / 20,
            seed=1,
        )


def test_histogram_matches_cell_densities():
    # channel contents are independent Poisson draws around the discretized
    # arrival-time density; verify every channel sits inside exact 5-sigma
    # Poisson bands
    curve = analytic_curve("plus")
    rate = 1e6
    h = simulate_histogram(
        curve,
        detectors=IDEAL,
        pair_rate=rate,
        acquisition_time=0.2,
        channel_width=TAU_F / 20,
        seed=42,
    )
    tau = curve.tau_grid
    dtau = tau[1] - tau[0]
    density = curve.g2 / np.sum(curve.g2 * dtau)
    centers = h.tau_centers()
    mean_total = rate * 0.2 / 2

    # channel probability = integral of the piecewise-constant density
    edges = np.concatenate([centers - h.channel_width / 2, [centers[-1] + h.channel_width / 2]])
    cell_edges = np.concatenate([tau - dtau / 2, [tau[-1] + dtau / 2]])
    cdf_at = np.interp(edges, cell_edges, np.concatenate([[0.0], np.cumsum(density * dtau)]))
    probs = np.diff(cdf_at)

    mu = mean_total * probs
    q = norm.sf(5.0)
    lo = poisson.ppf(q, mu)
    hi = poisson.isf(q, mu)
    ok = (h.counts >= lo) & (h.counts <= hi)
    assert np.all(ok), f"{np.sum(~ok)} channels outside 5-sigma bands"


def test_jitter_smears_like_gaussian_convolution():
    # timing jitter on each detector adds in quadrature on the difference
    curve = analytic_curve("plus")
    sigma = TAU_F / 2
    h = simulate_histogram(
        curve,
        detectors=DetectorParams(jitter_sigma=sigma),
        pair_rate=2e6,
        acquisition_time=0.5,
        channel_width=TAU_F / 20,
        seed=99,
    )
    tau = curve.tau_grid
    dtau = tau[1] - tau[0]
    density = curve.g2 / np.sum(curve.g2 * dtau)
    smeared = gaussian_filter1d(
        density, sigma * np.sqrt(2) / dtau, mode="constant"
    )
    centers = h.tau_centers()
    expected = np.interp(centers, tau, smeared)
    expected = expected / np.sum(expected)
    observed = h.counts / h.counts.sum()
    assert np.max(np.abs(observed - expected)) < 0.02 * np.max(expected) + 1e-4


def test_visibility_estimate_recovers_contrast():
    plus = analytic_curve("plus")
    minus = analytic_curve("minus")
    window = PostSelectionWindow(center=0.0, half_width=TAU_F / 4)
    hp = simulate_histogram(
        plus, IDEAL, pair_rate=2e6, acquisition_time=0.5,
        channel_width=TAU_F / 20, seed=5,
    )
    hm = simulate_histogram(
        minus, IDEAL, pair_rate=2e6, acquisition_time=0.5,
        channel_width=TAU_F / 20, seed=6,
    )
    est = estimate_visibility(hp, hm, window)
    # the anticorrelated arm keeps a little weight inside a finite window,
    # so the expected contrast is slightly below unity
    assert est.value > 0.9
    assert est.value < 1.0 + 3 * est.sigma
    assert est.sigma < 0.01


def test_visibility_estimate_is_symmetric_zero():
    curve = analytic_curve("plus")
    h = simulate_histogram(
        curve, IDEAL, pair_rate=1e6, acquisition_time=0.2,
        channel_width=TAU_F / 20, seed=12,
    )
    est = estimate_visibility(h, h, PostSelectionWindow(0.0, TAU_F / 4))
    assert est.value == 0.0


def test_visibility_estimate_subtracts_background():
    # both arms carry the same accidental floor; the estimate must remove it.
    # the histogram range has to extend past 3x the signal support so that
    # off-signal channels are available for the floor estimate
    plus = analytic_curve("plus")
    minus = analytic_curve("minus")
    noisy = DetectorParams(dark_background_rate=2000.0)
    w = PostSelectionWindow(0.0, TAU_F / 4)
    kwargs = dict(
        pair_rate=2e6, acquisition_time=0.5, channel_width=TAU_F / 20,
        n_channels=1024,
    )
    hp = simulate_histogram(plus, noisy, seed=21, **kwargs)
    hm = simulate_histogram(minus, noisy, seed=22, **kwargs)
    assert hp.n_background > 0
    est = estimate_visibility(hp, hm, w)
    assert est.background_channels > 0

    clean_p = simulate_histogram(plus, IDEAL, seed=21, **kwargs)
    clean_m = simulate_histogram(minus, IDEAL, seed=22, **kwargs)
    ref = estimate_visibility(clean_p, clean_m, w)
    # an unsubtracted floor of ~1000 counts/channel would bias the contrast
    # down by roughly 0.1, two orders of magnitude beyond this tolerance
    assert abs(est.value - ref.value) < 4 * np.hypot(est.sigma, ref.sigma)


def test_visibility_estimate_scale_invariance():
    # doubling every count leaves the contrast unchanged
    plus = analytic_curve("plus")
    minus = analytic_curve("minus")
    hp = simulate_histogram(
        plus, IDEAL, pair_rate=1e6, acquisition_time=0.2,
        channel_width=TAU_F / 20, seed=31,
    )
    hm = simulate_histogram(
        minus, IDEAL, pair_rate=1e6, acquisition_time=0.2,
        channel_width=TAU_F / 20, seed=32,
    )
    w = PostSelectionWindow(0.0, TAU_F / 4)
    base = estimate_visibility(hp, hm, w)
    hp2 = dataclasses.replace(hp, counts=hp.counts * 2)
    hm2 = dataclasses.replace(hm, counts=hm.counts * 2)
    doubled = estimate_visibility(hp2, hm2, w)
    assert doubled.value == pytest.approx(base.value, abs=1e-12)


def test_visibility_estimate_empty_histograms_are_marked():
    tau = np.linspace(-TAU_F, TAU_F, 64)
    g = g2_analytic(tau, TAU_F, which="plus")
    curve = CorrelationResult(
        tau_grid=tau, g2=g, analyzer=PLUS_PLUS, normalization="raw"
    )
    h = simulate_histogram(
        curve, IDEAL, pair_rate=1e-9, acquisition_time=1e-9,
        channel_width=TAU_F / 20, seed=3,
    )
    assert h.n_pairs == 0
    est = estimate_visibility(h, h, PostSelectionWindow(0.0, TAU_F / 4))
    assert np.isnan(est.value)


def test_visibility_estimate_requires_matching_geometry():
    plus = analytic_curve("plus")
    hp = simulate_histogram(
        plus, IDEAL, pair_rate=1e5, acquisition_time=0.1,
        channel_width=TAU_F / 20, seed=41,
    )
    hm = simulate_histogram(
        plus, IDEAL, pair_rate=1e5, acquisition_time=0.1,
        channel_width=TAU_F / 10, seed=42,
    )
    with pytest.raises(ValueError):
        estimate_visibility(hp, hm, PostSelectionWindow(0.0, TAU_F / 4))


def test_visibility_estimate_window_must_cover_channels():
    plus = analytic_curve("plus")
    hp = simulate_histogram(
        plus, IDEAL, pair_rate=1e5, acquisition_time=0.1,
        channel_width=TAU_F / 20, seed=51,
    )
    with pytest.raises(ConfigurationError, match="no histogram channels"):
        estimate_visibility(
            hp, hp, PostSelectionWindow(center=1e3 * TAU_F, half_width=TAU_F / 50)
        )


def test_drift_series_shapes_and_limits():
    drift = DriftProcess(correlation_time=360.0, seed=8)
    times = np.arange(0.0, 1800.0, 60.0)
    single = drift_timeseries("single", drift, times)
    both = drift_timeseries("go_and_return", drift, times)
    assert single.shape == (len(times), 2)
    # at t=0 the channel is the identity: perfect contrast in both layouts
    assert single[0, 1] == pytest.approx(1.0, abs=1e-12)
    # the mirrored channel holds that contrast for every sample
    np.testing.assert_allclose(both[:, 1], 1.0, atol=1e-12)
    # the one-way channel loses it as the compensation-free drift accumulates
    assert np.min(single[:, 1]) < 0.999


def test_drift_series_matches_per_time_channel_operators():
    drift = DriftProcess(correlation_time=360.0, seed=8)
    times = np.arange(0.0, 1800.0, 45.0)
    e_p = analyzer_vector(np.pi / 4.0).conj()
    e_m = analyzer_vector(-np.pi / 4.0).conj()
    # the go-and-return oracle is the matrix product, not round_trip itself
    for passes, channel in (("single", lambda u: u),
                            ("go_and_return", lambda u: backward(u) @ faraday_mirror() @ u)):
        expected = []
        for t in times:
            u = channel(drift_operators(drift, [t])[0])
            s = u @ PSI_PLUS @ u.T
            g_plus = abs(e_p @ s @ e_p) ** 2
            g_minus = abs(e_p @ s @ e_m) ** 2
            expected.append((g_plus - g_minus) / (g_plus + g_minus))
        series = drift_timeseries(passes, drift, times)
        np.testing.assert_array_equal(series[:, 0], times)
        np.testing.assert_allclose(series[:, 1], expected, rtol=0, atol=1e-12)


def test_channel_visibility_of_known_operators():
    # identity: full contrast; a half-wave plate at 22.5 degrees on both photons
    # takes HV + VH to DA + AD, which the +45/+45 analyzers never pass together
    hwp = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    np.testing.assert_allclose(channel_visibility(np.stack([np.eye(2), hwp])), [1.0, -1.0],
                               atol=1e-15)


def test_channel_visibility_matches_kron_route(rng):
    # the entry arithmetic against |<e_+ e_y| kron(U, U) psi+>|^2 on the
    # four-component vectors, one Haar U at a time
    ops = np.stack([random_unitary(rng) for _ in range(200)])
    psi = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0)
    bras = [np.kron(analyzer_vector(np.pi / 4.0), analyzer_vector(theta)).conj()
            for theta in (np.pi / 4.0, -np.pi / 4.0)]
    expected = []
    for u in ops:
        g_plus, g_minus = (abs(bra @ np.kron(u, u) @ psi) ** 2 for bra in bras)
        expected.append((g_plus - g_minus) / (g_plus + g_minus))
    np.testing.assert_allclose(channel_visibility(ops), expected, rtol=0, atol=1e-14)


def test_drift_series_is_deterministic():
    drift = DriftProcess(correlation_time=360.0, seed=8)
    times = np.arange(0.0, 600.0, 60.0)
    a = drift_timeseries("single", drift, times)
    b = drift_timeseries("single", drift, times)
    np.testing.assert_array_equal(a, b)


def test_drift_series_rejects_unknown_scenario():
    with pytest.raises(ValueError):
        drift_timeseries("diagonal", DriftProcess(seed=1), [0.0])
    # drift_operators takes no layout, so the check is drift_timeseries' own
    with pytest.raises(ValueError, match="unknown scenario 'sideways'"):
        drift_timeseries("sideways", DriftProcess(seed=1), [0.0])
