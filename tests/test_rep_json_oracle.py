"""The whole-array representation JSON converters against the per-entry originals.

``rep_json_oracle`` holds the original ``_matrix_to_pairs`` and
``_pairs_to_matrix`` verbatim. The library's writer must give the same
``json.dumps`` bytes for every dtype and memory layout, and its reader the
same matrix bits or the same ``RepresentationError`` message on valid and
mutated documents. The one allowed difference: where the original dies in
``OverflowError`` on an integer too large for a float, the library names
the pair.
"""

import json
from enum import IntEnum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rep_json_oracle as oracle
from branchrep import ConcreteRepresentation, RepresentationError, rep_from_json, rep_to_json
from branchrep.alignment import _matrix_to_pairs, _pairs_to_matrix
from conftest import oracle_examples

# -0.0, the smallest subnormal, the largest magnitudes, the infinities, NaN
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, np.inf, -np.inf, np.nan, 1.0, -2.5]

DTYPES = [np.complex128, np.complex64, np.float64, np.float32, np.int64, np.int32, np.bool_]
LAYOUTS = ["c", "fortran", "transpose", "flipped", "strided"]


def _laid_out(m: np.ndarray, layout: str) -> np.ndarray:
    if layout == "fortran":
        return np.asfortranarray(m)
    if layout == "transpose":
        return m.T
    if layout == "flipped":
        return m[::-1, ::-1]
    if layout == "strided":
        big = np.zeros((2 * m.shape[0], 2 * m.shape[1]), dtype=m.dtype)
        big[::2, ::2] = m
        return big[::2, ::2]
    return m


def _as_dtype(values: list, dtype) -> np.ndarray:
    # float32 and complex64 overflow ±1e308 to ±inf, as a file would hold them
    with np.errstate(over="ignore", invalid="ignore"):
        return np.array(values, dtype=dtype)


def _same_json_bytes(m: np.ndarray) -> None:
    assert json.dumps(_matrix_to_pairs(m)) == json.dumps(oracle._matrix_to_pairs(m))


# -- writer ---------------------------------------------------------------------


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
def test_writer_bytes_match_the_original_on_special_values(dtype, layout):
    values = [complex(re, im) for re in SPECIAL for im in SPECIAL[:4]] + [0j] * 5
    if np.issubdtype(dtype, np.complexfloating):
        m = _as_dtype(values, dtype)
    elif np.issubdtype(dtype, np.floating):
        m = _as_dtype([z.real for z in values], dtype)
    else:
        m = np.array([i * 7919 - 2**40 for i in range(len(values))]).astype(dtype)
    _same_json_bytes(_laid_out(m.reshape(7, 7), layout))


def _matrices():
    floats = st.one_of(st.sampled_from(SPECIAL), st.floats(), st.floats(width=32))
    ints = st.integers(-(2**63), 2**63 - 1)
    return st.integers(1, 5).flatmap(
        lambda n: st.tuples(
            st.sampled_from(DTYPES),
            st.lists(st.tuples(floats, floats), min_size=n * n, max_size=n * n),
            st.lists(ints, min_size=n * n, max_size=n * n),
            st.lists(st.booleans(), min_size=n * n, max_size=n * n),
            st.sampled_from(LAYOUTS),
            st.just(n),
        )
    )


@given(_matrices())
@settings(max_examples=oracle_examples(200), deadline=None)
def test_writer_bytes_match_the_original(case):
    dtype, pairs, ints, bools, layout, n = case
    if np.issubdtype(dtype, np.complexfloating):
        m = _as_dtype([complex(re, im) for re, im in pairs], dtype)
    elif np.issubdtype(dtype, np.floating):
        m = _as_dtype([re for re, _ in pairs], dtype)
    elif dtype is np.bool_:
        m = np.array(bools, dtype=dtype)
    else:
        m = np.array(ints, dtype=np.int64).astype(dtype)
    _same_json_bytes(_laid_out(m.reshape(n, n), layout))


def test_rep_to_json_dumps_as_the_original():
    rng = np.random.default_rng(5)
    mats = {k: rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for k in "ab"}
    rep = ConcreteRepresentation(dim=3, complement_dim=0, edge_matrices={}, vertex_matrices=mats)
    doc = rep_to_json(rep)
    expected = {k: oracle._matrix_to_pairs(m) for k, m in mats.items()}
    assert json.dumps(doc["vertices"]) == json.dumps(expected)


# -- reader ---------------------------------------------------------------------


class Level(IntEnum):
    HIGH = 7


FLOAT_MAX_INT = 2**1024 - 2**971  # the largest finite double, as an integer
HUGE_INTS = [10**400, -(10**400), 2**1024, FLOAT_MAX_INT + 2**970]

# elements a pair may hold; the huge integers are the one allowed divergence
GOOD_ELEMENTS = [np.float64(2.5), np.float64(-0.0), Level.HIGH, FLOAT_MAX_INT, -FLOAT_MAX_INT]
BAD_ELEMENTS = [True, False, "1.0", None, {}, {"re": 1.0}, [1.0], [], (1.0,), np.int64(3), np.bool_(True)]

WHERE = f"edges[{'e'!r}]"


def _pair_mutations(re, im) -> list:
    return [
        (re, im),
        [re],
        [re, im, 0.0],
        [],
        [[re, im]],
        "ab",
        None,
        {},
        {"re": re, "im": im},
        1.5,
        True,
    ]


@st.composite
def documents(draw):
    """A flat list of dim² [re, im] pairs, valid or mutated: up to three odd
    or bad elements or bad pairs, then perhaps a wrong length, then perhaps
    a non-list in place of the list."""
    dim = draw(st.integers(1, 4))
    number = st.one_of(st.floats(), st.integers(-(2**70), 2**70), st.sampled_from(SPECIAL))
    entries = draw(
        st.lists(st.lists(number, min_size=2, max_size=2), min_size=dim * dim, max_size=dim * dim)
    )
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, dim * dim - 1))
        kind = draw(st.sampled_from(["good", "bad", "huge", "pair"]))
        if not (isinstance(entries[i], list) and len(entries[i]) == 2):
            continue  # already mutated
        if kind == "pair":
            entries[i] = draw(st.sampled_from(_pair_mutations(*entries[i])))
        else:
            pool = {"good": GOOD_ELEMENTS, "bad": BAD_ELEMENTS, "huge": HUGE_INTS}[kind]
            entries[i][draw(st.integers(0, 1))] = draw(st.sampled_from(pool))
    if draw(st.integers(0, 4)) == 0:
        entries = entries + [[0.0, 0.0]] if draw(st.booleans()) else entries[:-1]
    if draw(st.integers(0, 4)) == 0:
        entries = draw(st.sampled_from([tuple(entries), {"0": entries}, None, "[]"]))
    return entries, dim


def _outcome(convert, entries, dim):
    try:
        return "matrix", convert(entries, dim, WHERE).tobytes()
    except RepresentationError as err:
        return "error", str(err)


def _first_overflowing_pair(entries) -> int:
    for i, pair in enumerate(entries):
        for x in pair:
            try:
                float(x)
            except OverflowError:
                return i
    raise AssertionError("no integer too large for a float")


@given(documents())
@settings(max_examples=oracle_examples(400), deadline=None)
def test_reader_matches_the_original(case):
    entries, dim = case
    try:
        expected = _outcome(oracle._pairs_to_matrix, entries, dim)
    except OverflowError:
        i = _first_overflowing_pair(entries)
        expected = "error", f"{WHERE}[{i}] has an entry too large for a float"
    assert _outcome(_pairs_to_matrix, entries, dim) == expected


@pytest.mark.parametrize("huge", HUGE_INTS)
def test_huge_integer_names_its_pair(huge):
    doc = {
        "dim": 2,
        "complementDim": 0,
        "edges": {},
        "vertices": {"v": [[1.0, 0.0], [0, 0], [0, huge], [1, 0]]},
    }
    with pytest.raises(RepresentationError) as exc:
        rep_from_json(doc)
    assert str(exc.value) == f"vertices[{'v'!r}][2] has an entry too large for a float"


def test_largest_finite_integer_reads_as_the_largest_float():
    m = _pairs_to_matrix([[FLOAT_MAX_INT, -FLOAT_MAX_INT]], 1, WHERE)
    assert m[0, 0] == complex(np.finfo(float).max, -np.finfo(float).max)
