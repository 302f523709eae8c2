"""The benchmark's workloads: a set of generated surveys and one driver
config each.

Every survey is a strip of overlapping fields, rendered by the program's own
synthetic-sky renderer.  Unlike :func:`repro.survey.generate_survey_fields`,
the truth catalog is drawn with its size and its work-setting attributes
fixed (:func:`make_survey`): with a Poisson source count and free draws, the
work of a run varied by 15-35% from seed to seed in trials, which is wider
than any speed change worth detecting.

A workload cycles through ``n_surveys`` distinct, small surveys per
execution rather than running one large survey: on a shared 2-core machine
one run's time varies by 8-15% from run to run, so a median over many short
runs is far steadier than one long run.  Surveys that run more than once
in an execution are checked to publish the same catalog each time.  Repeats
of a survey give identical catalogs, so only distinct surveys add sources to
the quality metrics.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from scipy.special import ndtr, ndtri

from repro.constants import GALAXY, STAR
from repro.core import JointConfig, OptimizeConfig, default_priors
from repro.core.catalog import Catalog, CatalogEntry
from repro.driver import DriverConfig
from repro.parallel import ParallelRegionConfig
from repro.survey import SyntheticSkyConfig, generate_field_images, save_field

#: Per-field spread of seeing, sky and calibration.  Lower than the
#: renderer's default (0.12): seeing sets every patch's size, so on a survey
#: of a few fields it would make the work of one survey differ widely from
#: the next.
CONDITION_JITTER = 0.04


@dataclass(frozen=True)
class SurveySpec:
    n_fields: int
    shape_hw: tuple
    n_sources: int
    min_separation: float
    flux_floor: float
    bands: tuple
    #: Share of galaxies; ``None`` takes the prior's.
    galaxy_fraction: float | None = None
    overlap: float = 8.0
    edge_margin: float = 6.0


@dataclass(frozen=True)
class Workload:
    name: str
    survey: SurveySpec
    #: A one-field survey of the same kind, run once per set-up so the lazy
    #: caches of a first run are paid in ``setup_s``, not in ``catalog_s``.
    warmup: SurveySpec
    n_surveys: int
    executor: str
    n_nodes: int
    target_weight: float
    max_iter: int
    grad_tol: float
    #: Pass fields as ``.npz`` paths (prefetcher on) and checkpoint every
    #: run to a fresh path (stage checkpoints and the task journal on).
    on_disk: bool = False
    transport: str | None = None
    #: Sanity floors of the output check, far below what a healthy run
    #: scores: they catch a broken catalog, not a slightly worse one.
    min_completeness: float = 0.8
    min_flux_ok_frac: float = 0.5

    def config(self, checkpoint_path: str | None = None) -> DriverConfig:
        return DriverConfig(
            n_nodes=self.n_nodes,
            executor=self.executor,
            pgas_transport=self.transport,
            target_weight=self.target_weight,
            checkpoint_path=checkpoint_path,
            parallel=ParallelRegionConfig(
                n_threads=1,
                n_passes=1,
                joint=JointConfig(
                    n_passes=1,
                    single=OptimizeConfig(max_iter=self.max_iter,
                                          grad_tol=self.grad_tol),
                ),
            ),
        )


WORKLOADS = {
    w.name: w for w in (
        # A dense star field (a crowded Galactic field): neighbours sit
        # inside each other's patches, so every task renders a halo and
        # Cyclades rounds hold few sources.  Galaxies are left out because
        # their fits among close neighbours fail or not from seed to seed,
        # which swung the quality metrics by 40-80% in trials; every source
        # still evaluates both type branches of the ELBO.
        Workload(
            name="crowded_1w",
            survey=SurveySpec(n_fields=1, shape_hw=(48, 48), n_sources=15,
                              min_separation=8.0, flux_floor=20.0,
                              bands=(1, 2, 3), galaxy_fraction=0.0),
            warmup=SurveySpec(n_fields=1, shape_hw=(48, 48), n_sources=6,
                              min_separation=8.0, flux_floor=20.0,
                              bands=(1, 2, 3), galaxy_fraction=0.0),
            n_surveys=6, executor="thread", n_nodes=1, target_weight=40.0,
            max_iter=6, grad_tol=1e-3,
        ),
        # The fig-5 scaling survey's kind and optimizer settings: a long,
        # sparse single-band strip of small file-backed fields.
        Workload(
            name="strip_2p",
            survey=SurveySpec(n_fields=4, shape_hw=(32, 32), n_sources=13,
                              min_separation=8.0, flux_floor=20.0,
                              bands=(2,)),
            warmup=SurveySpec(n_fields=2, shape_hw=(32, 32), n_sources=6,
                              min_separation=8.0, flux_floor=20.0,
                              bands=(2,)),
            n_surveys=8, executor="process", n_nodes=2, transport="socket",
            target_weight=30.0, max_iter=8, grad_tol=2e-3, on_disk=True,
        ),
    )
}


def make_survey(spec: SurveySpec, seed: int, index: int = 0):
    """``(truth, fields)`` of survey ``index`` of ``spec`` under ``seed``.

    Sources sit one per cell of a grid, jittered within the cell as far as
    ``min_separation`` allows.  Types come in a fixed proportion, and
    fluxes and galaxy radii at the midpoints of equal-probability strata of
    their priors.  The
    survey's layout (source positions, types, fluxes, galaxy shapes and each
    field's observing conditions) depends on ``index`` alone; the seed draws
    colours and pixel noise.  The layout sets the partition into tasks and
    every patch's size, so it sets the work: drawn from the seed, positions
    and fluxes made the task count of one ``strip_2p`` survey range over
    15-23, and seeing made the pixel visits of one 96x96 two-band survey
    vary by 11%, so the median run time of an execution varied by 10-24%
    from seed to seed, wider than any speed change worth detecting.
    """
    layout = np.random.default_rng([index])
    rng = np.random.default_rng([seed, index])
    priors = default_priors()
    h, w = spec.shape_hw
    step = w - spec.overlap
    x_max = (spec.n_fields - 1) * step + w
    positions = _jittered_grid(
        layout, spec.n_sources,
        (spec.edge_margin, x_max - spec.edge_margin),
        (spec.edge_margin, h - spec.edge_margin), spec.min_separation)
    share = (priors.prob_galaxy if spec.galaxy_fraction is None
             else spec.galaxy_fraction)
    n_gal = int(round(share * spec.n_sources))
    is_gal = layout.permutation(
        [True] * n_gal + [False] * (spec.n_sources - n_gal))
    flux = np.empty(spec.n_sources)
    for ty, members in ((GALAXY, is_gal), (STAR, ~is_gal)):
        loc, sd = priors.r_loc[ty], np.sqrt(priors.r_var[ty])
        floor_q = ndtr((np.log(spec.flux_floor) - loc) / sd)
        u = _strata(layout, int(members.sum()))
        flux[members] = np.exp(loc + sd * ndtri(floor_q + (1 - floor_q) * u))
    radius = np.exp(0.6 + 0.4 * ndtri(_strata(layout, spec.n_sources)))
    frac_dev = layout.beta(1.2, 1.2, size=spec.n_sources)
    axis_ratio = layout.uniform(0.25, 0.95, size=spec.n_sources)
    angle = layout.uniform(0.0, np.pi, size=spec.n_sources)

    entries = []
    for i, pos in enumerate(positions):
        ty = GALAXY if is_gal[i] else STAR
        comp = rng.choice(len(priors.k_weights), p=priors.k_weights[:, ty])
        entries.append(CatalogEntry(
            position=pos,
            is_galaxy=bool(is_gal[i]),
            flux_r=float(flux[i]),
            colors=rng.normal(priors.c_mean[:, comp, ty],
                              np.sqrt(priors.c_var[:, comp, ty])),
            gal_frac_dev=float(frac_dev[i]),
            gal_axis_ratio=float(axis_ratio[i]),
            gal_angle=float(angle[i]),
            gal_radius_px=float(radius[i]),
        ))
    truth = Catalog(entries)
    sky = SyntheticSkyConfig(condition_jitter=0.0, priors=priors)
    fields = []
    for f in range(spec.n_fields):
        seeing, level, calibration = np.exp(
            layout.normal(0.0, CONDITION_JITTER, size=3))
        conditions = replace(sky, psf_fwhm=sky.psf_fwhm * seeing,
                             sky_level=sky.sky_level * level,
                             calibration=sky.calibration * calibration)
        fields.append(generate_field_images(
            truth, origin=(f * step, 0.0), shape_hw=spec.shape_hw,
            config=conditions, rng=rng, field_id=(1, 1, f),
            bands=spec.bands))
    return truth, fields


def _strata(layout, n: int) -> np.ndarray:
    """The midpoints of ``n`` equal strata of (0, 1), in an order drawn
    from ``layout``."""
    return (layout.permutation(n) + 0.5) / max(n, 1)


def _jittered_grid(rng, n: int, x_range: tuple, y_range: tuple,
                   min_separation: float) -> list:
    width = x_range[1] - x_range[0]
    height = y_range[1] - y_range[0]
    rows = max(1, int(round(np.sqrt(n * height / width))))
    cols = -(-n // rows)
    cw, ch = width / cols, height / rows
    if min(cw, ch) < min_separation:
        raise ValueError("%d sources do not fit %.1f px apart"
                         % (n, min_separation))
    cells = sorted(rng.choice(rows * cols, size=n, replace=False))
    jx, jy = (cw - min_separation) / 2, (ch - min_separation) / 2
    return [
        np.array([
            x_range[0] + (c % cols + 0.5) * cw + rng.uniform(-jx, jx),
            y_range[0] + (c // cols + 0.5) * ch + rng.uniform(-jy, jy),
        ])
        for c in cells
    ]


def survey_inputs(workload: Workload, fields: list, directory: str,
                  tag: str) -> list:
    """What ``run_pipeline`` receives: the fields themselves, or for an
    on-disk workload the paths of ``.npz`` field files written here."""
    if not workload.on_disk:
        return fields
    paths = []
    for f, images in enumerate(fields):
        path = os.path.join(directory, "%s-field%d.npz" % (tag, f))
        save_field(path, images)
        paths.append(path)
    return paths
