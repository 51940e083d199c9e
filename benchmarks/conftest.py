"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper's evaluation
section (see DESIGN.md for the experiment index).  The reproduced data is
written as plain text into ``benchmarks/results/`` so that it can be
inspected after a ``pytest benchmarks/ --benchmark-only`` run and compared
against the paper values recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

import ctypes
import os
import pathlib

import numpy as np
import pytest

from repro.core.config import default_parameters
from repro.core.pipeline import build_pipeline
from repro.datasets.attlike import load_default_dataset
from repro.datasets.features import FeatureExtractor, build_templates, templates_to_matrix

#: Directory where every benchmark stores its reproduced table/figure data.
RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    """Directory for the regenerated tables/figures."""
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def write_result(results_dir):
    """Callable that persists one reproduced artefact as text."""

    def _write(name: str, text: str) -> None:
        (results_dir / f"{name}.txt").write_text(text + "\n")

    return _write


@pytest.fixture(scope="session")
def host_facts() -> dict:
    """Core count, BLAS build and its effective thread count, for the record.

    Recorded next to every throughput figure: the batched engine is BLAS
    bound, so a number without its host is not comparable.  The thread
    count is read from the loaded OpenBLAS itself (``None`` when numpy
    links another BLAS).
    """
    facts = {"nproc": os.cpu_count(), "blas": "unknown", "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
    except OSError:
        paths = []
    for path in paths:
        library = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                facts["blas_threads"] = int(getter())
                return facts
    return facts


@pytest.fixture(scope="session")
def reference_parameters():
    """The paper's reference design point (Table 2)."""
    return default_parameters()


@pytest.fixture(scope="session")
def full_dataset():
    """The 40-subject x 10-image synthetic corpus (AT&T stand-in)."""
    return load_default_dataset(seed=2013)


@pytest.fixture(scope="session")
def reference_templates(full_dataset, reference_parameters):
    """The 128x40 template matrix and its class labels."""
    extractor = FeatureExtractor(
        feature_shape=reference_parameters.template_shape,
        bits=reference_parameters.template_bits,
    )
    templates = build_templates(full_dataset.images, full_dataset.labels, extractor)
    matrix, labels = templates_to_matrix(templates)
    return matrix, labels


@pytest.fixture(scope="session")
def full_pipeline(full_dataset, reference_parameters):
    """The programmed 128x40 spin-CMOS face-recognition pipeline."""
    return build_pipeline(full_dataset, parameters=reference_parameters, seed=2013)


@pytest.fixture(scope="session")
def margin_parameters(reference_parameters):
    """A reduced module (64 features, 10 templates) for the margin sweeps.

    The Fig. 9 sweeps rebuild and re-solve the crossbar for every sweep
    point; a 64x10 module preserves the physics (wire drops per cell,
    DAC loading) at a fraction of the 128x40 solve time.
    """
    from repro.core.config import DesignParameters

    return DesignParameters(
        template_shape=(8, 8),
        num_templates=10,
        memristor_r_min_ohm=reference_parameters.memristor_r_min_ohm,
        memristor_r_max_ohm=reference_parameters.memristor_r_max_ohm,
    )


@pytest.fixture(scope="session")
def margin_templates(full_dataset, margin_parameters):
    """Template matrix for the reduced margin-analysis module."""
    extractor = FeatureExtractor(
        feature_shape=margin_parameters.template_shape,
        bits=margin_parameters.template_bits,
    )
    subset = full_dataset.subset(margin_parameters.num_templates)
    templates = build_templates(subset.images, subset.labels, extractor)
    matrix, _ = templates_to_matrix(templates)
    return matrix
