"""Reproduction of "Ultra Low Power Associative Computing with Spin Neurons and
Resistive Crossbar Memory" (Sharad, Fan and Roy, DAC 2013).

The package is organised around the systems described in the paper:

``repro.devices``
    Behavioural device models: Ag-Si multi-level memristors, domain-wall
    magnets (DWM), domain-wall neurons (DWN, the "spin neuron"), magnetic
    tunnel junctions, dynamic CMOS sense latches, 45 nm transistors and the
    binary-weighted deep-triode current-source (DTCS) DAC.

``repro.crossbar``
    The resistive crossbar memory (RCM) substrate: array programming,
    ideal and parasitic-aware (modified nodal analysis) current-mode
    dot-product evaluation.

``repro.core``
    The paper's primary contribution: the spin-CMOS hybrid associative
    memory module (AMM) built from the RCM, DTCS DACs and the DWN-based
    SAR winner-take-all, plus its power model and the end-to-end face
    recognition pipeline.

``repro.cmos``
    Mixed-signal CMOS and digital CMOS baselines used in the paper's
    evaluation (binary-tree WTA, current-conveyor WTA, asynchronous
    Min/Max WTA, 45 nm digital MAC correlator).

``repro.datasets``
    A synthetic stand-in for the AT&T face database and the paper's
    feature-reduction flow (Fig. 2).

``repro.analysis``
    Accuracy, detection-margin, power/energy and process-variation
    analyses that regenerate every table and figure of the evaluation.

``repro.backends``
    Pluggable execution backends for batched recall, selected by name
    through one registry: ``serial`` (one pre-factorised engine, the
    equivalence reference and the default) and ``fleet`` (worker agents
    — spawned locally with ``workers=N`` or adopted with
    ``worker_addresses`` — each rebuilding its own engine from an ``EngineSpec`` sent over a
    pickle-free TCP protocol).  Results are seed-pure and therefore
    identical for every backend choice.

``repro.serving``
    The online-traffic layer: a micro-batching recognition service over
    any registered execution backend, a stdlib JSON HTTP API
    (``POST /recognise`` with optional ``timeout_ms`` deadlines,
    ``GET /healthz``, ``GET /stats``) and an offered-load generator —
    ``python -m repro serve`` / ``loadtest`` (``--backend``).
    Per-request seeds name private random substreams, so served results
    are independent of arrival order, micro-batch composition, worker
    count and backend.

Quickstart
----------

>>> from repro import build_default_amm, load_default_dataset
>>> dataset = load_default_dataset(seed=7)
>>> amm = build_default_amm(dataset, seed=7)
>>> result = amm.recognise(dataset.test_images[0])
>>> result.winner == dataset.test_labels[0]
True

Performance
-----------

Recall is batched end to end.  ``AssociativeMemoryModule.recognise_batch``
(and ``FaceRecognitionPipeline.evaluate(..., batch_size=...)``) push a
whole ``(B, features)`` code batch through a vectorised DAC conversion,
an amortised crossbar solve and a vectorised SAR winner-take-all.  On the
parasitic path the per-sample MNA matrices differ only in the DAC source
conductances, so the static network is factorised once and each sample
reduces to a ``rows x rows`` Woodbury update, iterated batch-wide — orders of
magnitude cheaper than re-assembling and re-factorising the 10 240-node
reference network per image (see ``benchmarks/test_throughput.py`` and
``BENCH_throughput.json`` for measured images/second).  The ``batch_size``
knob selects the recall granularity everywhere it appears; ``batch_size=1``
is the per-sample loop of ``recognise``, which solves each image with the
direct sparse solver and is kept as the benchmark and equivalence
reference.  Every unseeded recall draws one request seed per image from
the module generator and converts it on the seeded path
(``recognise_batch_seeded``), so the loop and any batching draw the same
seeds: bit-identical on the ideal solve path, identical discrete outputs
and solver-precision analog outputs on the parasitic path, and the
generator left in the same state (``tests/core/test_batched_equivalence.py``).
"""

from repro.core.amm import (
    AssociativeMemoryModule,
    BatchRecognitionResult,
    RecognitionResult,
)
from repro.core.config import DesignParameters, default_parameters
from repro.core.pipeline import (
    FaceRecognitionPipeline,
    build_default_amm,
    build_pipeline,
)
from repro.crossbar.array import ResistiveCrossbar
from repro.datasets.attlike import FaceDataset, load_default_dataset
from repro.devices.dwn import DomainWallNeuron
from repro.devices.memristor import MemristorModel

__version__ = "1.0.0"

__all__ = [
    "AssociativeMemoryModule",
    "BatchRecognitionResult",
    "RecognitionResult",
    "DesignParameters",
    "default_parameters",
    "FaceRecognitionPipeline",
    "build_default_amm",
    "build_pipeline",
    "ResistiveCrossbar",
    "FaceDataset",
    "load_default_dataset",
    "DomainWallNeuron",
    "MemristorModel",
    "__version__",
]
