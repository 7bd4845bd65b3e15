"""SliceNStitch: continuous CP decomposition of sparse tensor streams.

A from-scratch reproduction of Kwon et al., "SliceNStitch: Continuous CP
Decomposition of Sparse Tensor Streams" (ICDE 2021).

Quickstart
----------
>>> import numpy as np
>>> from repro import (
...     SNSConfig, WindowConfig, ContinuousStreamProcessor,
...     create_algorithm, decompose,
... )
>>> from repro.data import generate_synthetic_stream
>>> stream = generate_synthetic_stream(
...     mode_sizes=(20, 20), rank=3, n_records=2000, period=60.0, seed=0)
>>> config = WindowConfig(mode_sizes=(20, 20), window_length=5, period=60.0)
>>> processor = ContinuousStreamProcessor(stream, config)
>>> start = decompose(processor.window.tensor, rank=5, n_iterations=10)
>>> model = create_algorithm("sns_rnd_plus", SNSConfig(rank=5))
>>> model.initialize(processor.window, start.decomposition)
>>> for event, delta in processor.events(max_events=500):
...     model.update(delta)
>>> round(model.fitness(), 3)  # doctest: +SKIP
0.9
"""

from repro._lazy import lazy_exports
from repro.version import __version__

#: Every export but ``__version__``, and the module it is imported from on
#: first access: ``import repro`` loads no numpy until a name is used.
_EXPORTS = {
    # exceptions
    "ReproError": "repro.exceptions",
    "ShapeError": "repro.exceptions",
    "IndexOutOfBoundsError": "repro.exceptions",
    "RankError": "repro.exceptions",
    "StreamOrderError": "repro.exceptions",
    "ConfigurationError": "repro.exceptions",
    "NotFittedError": "repro.exceptions",
    "UnknownAlgorithmError": "repro.exceptions",
    "DataGenerationError": "repro.exceptions",
    # tensors
    "SparseTensor": "repro.tensor",
    "KruskalTensor": "repro.tensor",
    # streams
    "MultiAspectStream": "repro.stream",
    "StreamRecord": "repro.stream",
    "EventKind": "repro.stream",
    "Delta": "repro.stream",
    "TensorWindow": "repro.stream",
    "WindowConfig": "repro.stream",
    "ContinuousStreamProcessor": "repro.stream",
    # batch ALS
    "ALS": "repro.als",
    "ALSConfig": "repro.als",
    "ALSResult": "repro.als",
    "decompose": "repro.als",
    # SliceNStitch
    "ContinuousCPD": "repro.core",
    "SNSConfig": "repro.core",
    "SNSMat": "repro.core",
    "SNSVec": "repro.core",
    "SNSRnd": "repro.core",
    "SNSVecPlus": "repro.core",
    "SNSRndPlus": "repro.core",
    "ALGORITHMS": "repro.core",
    "available_algorithms": "repro.core",
    "create_algorithm": "repro.core",
}

__all__ = ["__version__", *_EXPORTS]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
