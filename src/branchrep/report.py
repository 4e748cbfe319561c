"""Report-valued check results shared by the verifier operations."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterable, Iterator


PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "n/a"


@dataclass(frozen=True)
class Tolerances:
    """Every tolerance a check decides by; ``--tol NAME=VALUE`` sets one field.

    The README's Tolerances table says what each field bounds.
    """

    ck: float = 1e-12
    rep: float = 1e-10
    rank: float = 1e-10
    b2b: float = 1e-9
    residual: float = 1e-8

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(
                    f"tolerance '{f.name}' must be finite and nonnegative, got {value}"
                )


@dataclass(frozen=True)
class CheckItem:
    item: str
    status: str
    witness: object = None

    def to_json(self) -> dict:
        return {"item": self.item, "status": self.status, "witness": self.witness}


@dataclass(frozen=True)
class Report:
    items: tuple[CheckItem, ...]

    @property
    def passed(self) -> bool:
        return all(i.status != FAIL for i in self.items)

    def failures(self) -> tuple[CheckItem, ...]:
        return tuple(i for i in self.items if i.status == FAIL)

    def item(self, name: str) -> CheckItem:
        for i in self.items:
            if i.item == name:
                return i
        raise KeyError(name)

    def to_json(self) -> list[dict]:
        return [i.to_json() for i in self.items]


def first_witness(name: str, witnesses: Iterable[object]) -> CheckItem:
    """FAIL with the first witness ``witnesses`` yields, PASS if it yields none.

    Checkers pass a lazy generator, so the scan stops at the first witness.
    """
    for witness in witnesses:
        return CheckItem(name, FAIL, witness)
    return CheckItem(name, PASS)


def shared_indices(label: str, groups: Iterable[tuple[str, Iterable[int]]]) -> Iterator[dict]:
    """Witnesses of an index claimed by two groups, in scan order.

    Groups are scanned in the given order and each group's indices in
    ascending order; a witness names the earlier owner, the current group
    and the index.
    """
    owner: dict[int, str] = {}
    for key, indices in groups:
        for x in sorted(indices):
            if x in owner:
                yield {label: [owner[x], key], "index": x}
            owner.setdefault(x, key)
