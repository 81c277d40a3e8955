"""The benchmark's workloads: each is a list of named convergence studies.

A workload is what a user of the laboratory waits for: one or more whole
convergence tables.  The benchmark seed drives only the perturbed-mesh
RNG; studies on uniform meshes do not depend on it.
"""

from __future__ import annotations

from dataclasses import replace

from uwdg.flux import ALTERNATING, CENTRAL, FluxConfig
from uwdg.harness import MAIN_METRICS, ZETA_METRICS, StudyConfig

DEFAULT_SEED = 42


def studies(workload: str, seed: int) -> list[tuple[str, StudyConfig]]:
    """(study name, config) pairs of one pass over the workload."""
    if workload == "perturbed_march":
        return [("table2_k3_perturbed",
                 StudyConfig(k=3, Ns=(20, 40, 80, 160), flux=ALTERNATING,
                             mesh_kind="perturbed", fraction=0.1, seed=seed,
                             metrics=("ef", "ep")))]
    if workload == "uniform_tables":
        return [
            ("table5_k2", StudyConfig(k=2, Ns=(40, 80, 160, 320, 640),
                                      flux=CENTRAL,
                                      metrics=tuple(MAIN_METRICS))),
            ("table5_k3", StudyConfig(k=3, Ns=(20, 40, 80, 160),
                                      flux=CENTRAL,
                                      metrics=tuple(MAIN_METRICS)
                                      + tuple(ZETA_METRICS))),
            ("table6_zeta", StudyConfig(k=3, Ns=(20, 40, 80), flux=CENTRAL,
                                        metrics=tuple(ZETA_METRICS))),
            ("table7_a3", StudyConfig(k=3, Ns=(20, 40, 80, 160),
                                      flux=FluxConfig(0.25, 5, 0),
                                      metrics=("l2", "ef"))),
        ]
    if workload == "siac_post":
        return [
            ("table8_k2", StudyConfig(k=2, Ns=(20, 40, 80, 160), flux=CENTRAL,
                                      init="l2", metrics=("estar",))),
            ("table8_k3", StudyConfig(k=3, Ns=(20, 40, 80, 160), flux=CENTRAL,
                                      init="l2", metrics=("estar",))),
        ]
    if workload == "perturbed_short":
        return [("short_k2_perturbed",
                 StudyConfig(k=2, Ns=(80, 160, 320, 640), flux=ALTERNATING,
                             mesh_kind="perturbed", fraction=0.1, seed=seed,
                             t_end=0.01, metrics=("l2", "ef", "ep")))]
    raise KeyError(workload)


def smallest_cases(workload: str, seed: int) -> list[tuple[str, StudyConfig]]:
    """Each study of the workload cut down to its smallest N.  The first
    is the set-up case; together they warm every cache a pass uses."""
    return [(name, replace(cfg, Ns=(min(cfg.Ns),)))
            for name, cfg in studies(workload, seed)]
