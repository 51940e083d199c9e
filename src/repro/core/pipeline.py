"""End-to-end face-recognition pipeline.

Ties together the dataset, the Fig. 2 feature-reduction flow and the
associative memory module:

1. build one template per individual by averaging that individual's
   reduced images;
2. program the templates into the crossbar and calibrate the input DACs;
3. classify images by extracting their features and performing an
   associative recall.

:func:`build_pipeline` is the one-stop constructor used by the examples
and the system-accuracy benchmark; :func:`build_default_amm` is a
convenience wrapper that returns only the programmed
:class:`~repro.core.amm.AssociativeMemoryModule`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.core.amm import (
    AssociativeMemoryModule,
    BatchRecognitionResult,
    RecognitionResult,
    concatenate_batch_results,
)
from repro.core.config import DesignParameters, default_parameters
from repro.datasets.attlike import FaceDataset
from repro.datasets.features import FeatureExtractor, build_templates, templates_to_matrix
from repro.utils.rng import RandomState
from repro.utils.validation import check_integer


@dataclass(frozen=True)
class PipelineEvaluation:
    """Aggregate classification statistics over a dataset.

    Attributes
    ----------
    accuracy:
        Fraction of images whose winning template matches the true class.
    acceptance_rate:
        Fraction of images whose DOM cleared the acceptance threshold.
    tie_rate:
        Fraction of images for which the WTA reported a tie.
    mean_static_power:
        Average static power (W) of the evaluations.
    per_class_accuracy:
        Accuracy per class label.
    count:
        Number of images evaluated.
    """

    accuracy: float
    acceptance_rate: float
    tie_rate: float
    mean_static_power: float
    per_class_accuracy: Dict[int, float]
    count: int


class FaceRecognitionPipeline:
    """Feature extraction + associative recall, bound to one template set.

    Parameters
    ----------
    amm:
        A programmed associative memory module whose column labels map to
        dataset class labels.
    extractor:
        The feature extractor used both for template construction and for
        run-time inputs (they must match).
    """

    def __init__(self, amm: AssociativeMemoryModule, extractor: FeatureExtractor) -> None:
        if extractor.feature_length != amm.crossbar.rows:
            raise ValueError(
                f"extractor produces {extractor.feature_length}-element vectors but the "
                f"crossbar has {amm.crossbar.rows} rows"
            )
        self.amm = amm
        self.extractor = extractor

    # ------------------------------------------------------------------ #
    # Single-image interface
    # ------------------------------------------------------------------ #
    def classify_image(self, image: np.ndarray) -> RecognitionResult:
        """Extract features from a raw image and perform associative recall."""
        codes = self.extractor.extract_codes(image)
        return self.amm.recognise(codes)

    def classify_codes(self, codes: np.ndarray) -> RecognitionResult:
        """Recall directly from a pre-extracted feature-code vector."""
        return self.amm.recognise(codes)

    # ------------------------------------------------------------------ #
    # Batched interface
    # ------------------------------------------------------------------ #
    def classify_images(
        self, images: np.ndarray, batch_size: Optional[int] = None
    ) -> BatchRecognitionResult:
        """Extract features from a stack of images and recall them batched.

        Parameters
        ----------
        images:
            Raw images, shape ``(B, height, width)``.
        batch_size:
            Optional chunking of the recall (``None`` solves everything in
            one batched pass).
        """
        codes = self.extractor.extract_many(images)
        return self.classify_codes_batch(codes, batch_size=batch_size)

    def classify_codes_batch(
        self, codes: np.ndarray, batch_size: Optional[int] = None
    ) -> BatchRecognitionResult:
        """Batched recall from pre-extracted feature-code vectors."""
        if batch_size is not None:
            check_integer("batch_size", batch_size, minimum=1)
        codes = np.asarray(codes)
        if batch_size is None or batch_size >= codes.shape[0]:
            return self.amm.recognise_batch(codes)
        return concatenate_batch_results(
            self.amm.recognise_batch(codes[start : start + batch_size])
            for start in range(0, codes.shape[0], batch_size)
        )

    # ------------------------------------------------------------------ #
    # Dataset evaluation
    # ------------------------------------------------------------------ #
    def evaluate(
        self,
        dataset: FaceDataset,
        limit: Optional[int] = None,
        batch_size: Optional[int] = None,
        backend=None,
        workers: int = 1,
        base_seed: int = 0,
    ) -> PipelineEvaluation:
        """Classify (a subset of) a dataset and report aggregate statistics.

        Parameters
        ----------
        dataset:
            Corpus to classify.
        limit:
            Optional cap on the number of images (taken evenly across the
            corpus) to keep run times manageable in tests.
        batch_size:
            Recall granularity.  ``None`` (default) solves all images in
            one batched pass through the amortised crossbar engine;
            intermediate values chunk the batch.  ``batch_size=1`` runs
            the legacy per-sample :meth:`classify_image` loop — the
            reference path the batched engine is benchmarked against.
            Both paths share the same feature extraction and aggregation
            code, so on the ideal (no-parasitics) solve path their
            :class:`PipelineEvaluation` values are bit-identical.
        backend, workers, base_seed:
            Optional execution backend for the recalls — a
            :mod:`repro.backends` registry name (``"serial"``,
            ``"fleet"``) resolved with ``workers``
            execution units, or a prepared
            :class:`~repro.backends.base.RecallBackend`.  Backend recalls
            run the seeded path (sample ``i`` uses substream
            ``base_seed + i``), so the evaluation is invariant across
            backend choice and worker count.
        """
        if batch_size is not None:
            check_integer("batch_size", batch_size, minimum=1)
        images = dataset.test_images
        labels = dataset.test_labels
        if limit is not None and limit < len(images):
            indices = np.linspace(0, len(images) - 1, limit).round().astype(int)
            images = images[indices]
            labels = labels[indices]
        codes = self.extractor.extract_many(images)
        winners, accepted, ties, static_power = self.amm.recall_arrays(
            codes, batch_size, backend=backend, workers=workers, base_seed=base_seed
        )
        labels = np.asarray(labels, dtype=np.int64)
        count = len(images)
        correct = winners == labels
        per_class_accuracy: Dict[int, float] = {}
        for label in np.unique(labels):
            mask = labels == label
            per_class_accuracy[int(label)] = float(
                np.count_nonzero(correct & mask)
            ) / int(np.count_nonzero(mask))
        return PipelineEvaluation(
            accuracy=float(np.count_nonzero(correct)) / count,
            acceptance_rate=float(np.count_nonzero(accepted)) / count,
            tie_rate=float(np.count_nonzero(ties)) / count,
            mean_static_power=float(np.sum(static_power)) / count,
            per_class_accuracy=per_class_accuracy,
            count=count,
        )


def default_extractor(parameters: Optional[DesignParameters] = None) -> FeatureExtractor:
    """The feature extractor matching a design's template geometry.

    The single definition of the pipeline's extractor configuration,
    shared by :func:`build_pipeline` and by clients that generate request
    codes for a remotely served pipeline (``repro loadtest --url``) — the
    two must stay in lockstep or served inputs stop matching the stored
    templates.
    """
    parameters = parameters or default_parameters()
    return FeatureExtractor(
        feature_shape=parameters.template_shape, bits=parameters.template_bits
    )


def build_pipeline(
    dataset: FaceDataset,
    parameters: Optional[DesignParameters] = None,
    extractor: Optional[FeatureExtractor] = None,
    include_parasitics: bool = True,
    input_variation: float = 0.0,
    dac_mismatch_sigma: float = 0.0,
    stochastic_dwn: bool = False,
    seed: RandomState = None,
) -> FaceRecognitionPipeline:
    """Build templates from ``dataset`` and assemble the full pipeline.

    The design parameters' template geometry is adapted to the dataset
    (number of classes) when they differ, so the same function serves the
    reference 40-class configuration and the reduced configurations used
    in fast tests.
    """
    parameters = parameters or default_parameters()
    extractor = extractor or default_extractor(parameters)
    templates = build_templates(dataset.images, dataset.labels, extractor)
    matrix, labels = templates_to_matrix(templates)
    amm = AssociativeMemoryModule.from_templates(
        template_codes=matrix,
        parameters=parameters,
        column_labels=labels,
        include_parasitics=include_parasitics,
        input_variation=input_variation,
        dac_mismatch_sigma=dac_mismatch_sigma,
        stochastic_dwn=stochastic_dwn,
        seed=seed,
    )
    return FaceRecognitionPipeline(amm=amm, extractor=extractor)


def build_default_amm(
    dataset: FaceDataset,
    parameters: Optional[DesignParameters] = None,
    seed: RandomState = None,
) -> AssociativeMemoryModule:
    """Convenience constructor returning only the programmed AMM."""
    return build_pipeline(dataset, parameters=parameters, seed=seed).amm
