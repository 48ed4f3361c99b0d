"""Bound certificates: the value of a bound together with how it was obtained.

A certificate records enough to reproduce and audit the bound: the side
(upper or lower), the target quantity (at-least-r or exactly-r), the
moment order used, and per index tuple the coefficient vector applied to
the moments, the dual index set it solves, and the chosen window position
m when the formula family has one.  Raw and clamped values are both kept:
the raw value is what the formula yields, the clamped value is the bound
actually asserted for a probability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Optional, Sequence

from .core import IndexTuple
from .numerics import (
    Number,
    clamp01,
    encode_number,
    to_number,
    zero,
)

SIDE_UPPER = "upper"
SIDE_LOWER = "lower"
SIDES = (SIDE_UPPER, SIDE_LOWER)

TARGET_AT_LEAST = "at-least"
TARGET_EXACTLY = "exactly"
TARGETS = (TARGET_AT_LEAST, TARGET_EXACTLY)


@dataclass(frozen=True, slots=True)
class BoundTerm:
    """One index tuple's contribution to a bound.

    ``value`` is the scalar product of ``coefficients`` with the moment
    vector of ``j``.  ``index_set`` gives the positions (1-based, within
    1..n-d+1) at which the coefficient vector solves the dual system, and
    ``formula_id`` names the family that produced it, which matters when a
    combined bound picks different families for different tuples.
    """

    j: IndexTuple
    coefficients: tuple[Number, ...]
    index_set: tuple[int, ...]
    value: Number
    formula_id: str
    m: Optional[int] = None

    def __post_init__(self) -> None:
        if type(self.coefficients) is not tuple:
            object.__setattr__(self, "coefficients", tuple(self.coefficients))
        if type(self.index_set) is not tuple:
            object.__setattr__(self, "index_set", tuple(self.index_set))

    def to_payload(self) -> dict:
        payload = {
            "j": list(self.j.indices),
            "coefficients": [encode_number(c) for c in self.coefficients],
            "index_set": list(self.index_set),
            "value": encode_number(self.value),
            "formula": self.formula_id,
        }
        if self.m is not None:
            payload["m"] = self.m
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "BoundTerm":
        return cls(
            j=IndexTuple.coerce(payload["j"]),
            coefficients=tuple(to_number(c) for c in payload["coefficients"]),
            index_set=tuple(payload["index_set"]),
            value=to_number(payload["value"]),
            formula_id=payload["formula"],
            m=payload.get("m"),
        )


@dataclass(frozen=True)
class BoundCertificate:
    """A computed bound and its provenance.

    ``value`` is the raw formula output, ``clamped`` its restriction to
    [0, 1].  When the coefficient vector, index set, or window position is
    the same for every index tuple, they are also exposed at the top level;
    otherwise the per-tuple detail lives in ``terms``.
    """

    value: Number
    clamped: Number
    side: str
    target: str
    r: int
    d: int
    ell: int
    formula_id: str
    coefficients: Optional[tuple[Number, ...]] = None
    index_set: Optional[tuple[int, ...]] = None
    m: Optional[int] = None
    terms: tuple[BoundTerm, ...] = ()
    witness: Any = None

    def __post_init__(self) -> None:
        if self.side not in SIDES:
            raise ValueError(f"side must be one of {SIDES}, got {self.side!r}")
        if self.target not in TARGETS:
            raise ValueError(f"target must be one of {TARGETS}, got {self.target!r}")
        if self.coefficients is not None:
            object.__setattr__(self, "coefficients", tuple(self.coefficients))
        if self.index_set is not None:
            object.__setattr__(self, "index_set", tuple(self.index_set))
        object.__setattr__(self, "terms", tuple(self.terms))
        bad = (float(self.clamped) < -1e-12) or (float(self.clamped) > 1 + 1e-12)
        if bad:
            raise ValueError(f"clamped value {self.clamped} outside [0, 1]")

    @property
    def exact(self) -> bool:
        return not isinstance(self.value, float)

    def to_payload(self) -> dict:
        payload = {
            "value": encode_number(self.value),
            "clamped": encode_number(self.clamped),
            "side": self.side,
            "target": self.target,
            "r": self.r,
            "d": self.d,
            "ell": self.ell,
            "formula": self.formula_id,
        }
        if self.coefficients is not None:
            payload["coefficients"] = [encode_number(c) for c in self.coefficients]
        if self.index_set is not None:
            payload["index_set"] = list(self.index_set)
        if self.m is not None:
            payload["m"] = self.m
        if self.terms:
            payload["terms"] = [term.to_payload() for term in self.terms]
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "BoundCertificate":
        coefficients = payload.get("coefficients")
        if coefficients is not None:
            coefficients = tuple(to_number(c) for c in coefficients)
        index_set = payload.get("index_set")
        if index_set is not None:
            index_set = tuple(index_set)
        return cls(
            value=to_number(payload["value"]),
            clamped=to_number(payload["clamped"]),
            side=payload["side"],
            target=payload["target"],
            r=payload["r"],
            d=payload["d"],
            ell=payload["ell"],
            formula_id=payload["formula"],
            coefficients=coefficients,
            index_set=index_set,
            m=payload.get("m"),
            terms=tuple(BoundTerm.from_payload(t) for t in payload.get("terms", ())),
        )


def certificate_from_terms(
    side: str,
    target: str,
    r: int,
    d: int,
    ell: int,
    formula_id: str,
    terms: Sequence[BoundTerm],
    witness: Any = None,
    value: Optional[Number] = None,
) -> BoundCertificate:
    """Assemble a certificate by summing per-tuple contributions.

    Top-level coefficients, index set and m are filled in when they agree
    across all terms.  A caller that has already summed the term values
    passes the sum as ``value``.
    """
    terms = tuple(terms)
    if not terms:
        raise ValueError("a certificate needs at least one term")
    if value is None:
        exact = not any(isinstance(t.value, float) for t in terms)
        value = zero(exact)
        for term in terms:
            value = value + term.value if exact else value + float(term.value)
    shared_coeffs = terms[0].coefficients if all(
        t.coefficients == terms[0].coefficients for t in terms
    ) else None
    shared_index = terms[0].index_set if all(
        t.index_set == terms[0].index_set for t in terms
    ) else None
    shared_m = terms[0].m if all(t.m == terms[0].m for t in terms) else None
    return BoundCertificate(
        value=value,
        clamped=clamp01(value),
        side=side,
        target=target,
        r=r,
        d=d,
        ell=ell,
        formula_id=formula_id,
        coefficients=shared_coeffs,
        index_set=shared_index,
        m=shared_m,
        terms=terms,
        witness=witness,
    )


@dataclass(frozen=True)
class BoundRequest:
    """A fully specified bound query, as the CLI and conditional layer see it.

    ``formula`` selects a specific family ("u1".."l2", "ub1".."lb3"), the
    generic dual search ("search"), the full-order exact evaluation
    ("jordan"), or the best applicable closed form when omitted.
    """

    r: int
    d: int
    ell: int
    side: str = SIDE_UPPER
    target: str = TARGET_AT_LEAST
    m: Optional[int] = None
    formula: Optional[str] = None

    def __post_init__(self) -> None:
        if self.side not in SIDES:
            raise ValueError(f"side must be one of {SIDES}, got {self.side!r}")
        if self.target not in TARGETS:
            raise ValueError(f"target must be one of {TARGETS}, got {self.target!r}")
        for name, value in (("r", self.r), ("d", self.d), ("ell", self.ell)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.d < 0 or self.r < 0:
            raise ValueError(f"r and d must be nonnegative, got r={self.r}, d={self.d}")
        if self.ell < 2:
            raise ValueError(f"ell must be at least 2, got {self.ell}")
        if self.m is not None and (not isinstance(self.m, int) or self.m < 1):
            raise ValueError(f"m must be a positive integer, got {self.m!r}")
