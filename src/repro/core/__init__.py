"""The paper's primary contribution: the spin-CMOS associative memory module.

The module composes the RCM substrate (:mod:`repro.crossbar`), the
DTCS-DAC input conversion (:mod:`repro.devices.dac`) and the domain-wall
neuron (:mod:`repro.devices.dwn`) into the associative memory of Section 4:

* :mod:`repro.core.config` — the Table-2 design parameters;
* :mod:`repro.core.sar` — successive-approximation register logic;
* :mod:`repro.core.wta` — the spin-CMOS SAR winner-take-all (Figs. 10-12);
* :mod:`repro.core.amm` — the complete associative memory module;
* :mod:`repro.core.pipeline` — the end-to-end face-recognition pipeline;
* :mod:`repro.core.power` — the static/dynamic power model (Fig. 13a,
  Table 1).
"""

from repro.core.amm import (
    AssociativeMemoryModule,
    BatchRecognitionResult,
    RecognitionResult,
)
from repro.core.config import DesignParameters, default_parameters
from repro.core.pipeline import FaceRecognitionPipeline, build_default_amm, build_pipeline
from repro.core.power import PowerBreakdown, SpinAmmPowerModel
from repro.core.sar import SuccessiveApproximationRegister
from repro.core.wta import EVENT_KEYS, BatchWtaResult, SpinCmosWta, WtaResult

__all__ = [
    "AssociativeMemoryModule",
    "BatchRecognitionResult",
    "BatchWtaResult",
    "EVENT_KEYS",
    "RecognitionResult",
    "DesignParameters",
    "default_parameters",
    "FaceRecognitionPipeline",
    "build_default_amm",
    "build_pipeline",
    "PowerBreakdown",
    "SpinAmmPowerModel",
    "SuccessiveApproximationRegister",
    "SpinCmosWta",
    "WtaResult",
]
