"""The original per-entry representation JSON converters, kept verbatim as
test oracles.

``_matrix_to_pairs`` formats one entry at a time and ``_pairs_to_matrix``
checks and converts one pair at a time. The library converts each matrix as
one array; the property tests in ``test_rep_json_oracle.py`` require the
same ``json.dumps`` bytes, the same matrix bits and the same error messages.
"""

from __future__ import annotations

import numpy as np

from branchrep.alignment import RepresentationError


def _matrix_to_pairs(m: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in m.reshape(-1)]


def _pairs_to_matrix(entries: object, dim: int, where: str) -> np.ndarray:
    if not isinstance(entries, list) or len(entries) != dim * dim:
        raise RepresentationError(
            f"{where} must be a flat row-major list of {dim * dim} [re, im] pairs"
        )
    flat = np.empty(dim * dim, dtype=complex)
    for i, pair in enumerate(entries):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in pair)
        ):
            raise RepresentationError(f"{where}[{i}] must be an [re, im] pair of numbers")
        flat[i] = complex(pair[0], pair[1])
    return flat.reshape(dim, dim)
