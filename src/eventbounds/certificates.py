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
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import NotApplicableError
from .numerics import (
    DEFAULT_TOLERANCE,
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


class TermTuple(tuple):
    """A term's index tuple: a plain tuple of ints whose attribute
    ``indices`` is the same tuple, which the search-moments check of
    ``perfbench/worker.py`` reads.  Terms built by the evaluator share their
    moment vector's (:attr:`eventbounds.moments.MomentVector.term_j`)."""

    __slots__ = ()
    indices = property(tuple)


@dataclass(frozen=True, slots=True)
class BoundTerm:
    """One index tuple's contribution to a bound.

    ``value`` is the scalar product of ``coefficients`` with the moment
    vector of ``j``.  ``index_set`` gives the positions (1-based, within
    1..n-d+1) at which the coefficient vector solves the dual system, and
    ``formula_id`` names the family that produced it, which matters when a
    combined bound picks different families for different tuples.
    """

    j: tuple[int, ...]
    coefficients: tuple[Number, ...]
    index_set: tuple[int, ...]
    value: Number
    formula_id: str
    m: Optional[int] = None

    def to_payload(self, encoded: Optional[dict] = None) -> dict:
        """``encoded`` maps id(coefficients) to their strings across one payload."""
        key, encoded = id(self.coefficients), {} if encoded is None else encoded
        if key not in encoded:
            encoded[key] = [encode_number(c) for c in self.coefficients]
        payload = {
            "j": list(self.j),
            "coefficients": encoded[key].copy(),
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
            j=TermTuple(payload["j"]),
            coefficients=tuple(to_number(c) for c in payload["coefficients"]),
            index_set=tuple(payload["index_set"]),
            value=to_number(payload["value"]),
            formula_id=payload["formula"],
            m=payload.get("m"),
        )


class Terms(Sequence):
    """Read-only view of a certificate's terms, built on first read.

    ``rows`` holds each index tuple's row, which is all
    :func:`certificate_from_terms` reads to find the shared fields, and
    ``len`` is its length; ``build()`` returns the :class:`BoundTerm` of
    each index tuple, and runs once, on the first iteration or index.  The
    view compares equal to, and hashes like, the tuple of its terms.
    """

    __slots__ = ("_rows", "_build", "_terms")

    def __init__(self, rows: Sequence, build: Callable[[], Iterable[BoundTerm]]) -> None:
        self._rows = rows
        self._build = build
        self._terms: Optional[tuple[BoundTerm, ...]] = None

    def _built(self) -> tuple[BoundTerm, ...]:
        if self._terms is None:
            self._terms = tuple(self._build())
            self._build = None
        return self._terms

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index):
        return self._built()[index]

    def __iter__(self) -> Iterator[BoundTerm]:
        return iter(self._built())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Terms):
            other = other._built()
        return self._built() == other if isinstance(other, tuple) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._built())

    def __repr__(self) -> str:
        return repr(self._built())


def header_payload(bound) -> dict:
    """The header fields of a certificate or an aggregated bound, in payload order."""
    return {
        "value": encode_number(bound.value),
        "clamped": encode_number(bound.clamped),
        "side": bound.side,
        "target": bound.target,
        "r": bound.r,
        "d": bound.d,
        "ell": bound.ell,
        "formula": bound.formula_id,
    }


def _check_fields(side: str, target: str, r: object, d: object, ell: object) -> None:
    """Reject, in order, a side or target outside its choices, then an r, d
    or ell that is not an integer (a bool is not one)."""
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}, got {side!r}")
    if target not in TARGETS:
        raise ValueError(f"target must be one of {TARGETS}, got {target!r}")
    if not type(r) is type(d) is type(ell) is int:  # the common case in one test
        for name, value in (("r", r), ("d", d), ("ell", ell)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True, slots=True)
class BoundCertificate:
    """A computed bound and its provenance: a plain record that nothing
    checks on construction.  The package builds it through
    :func:`certificate_from_terms`, and a payload from outside is checked
    where it is read (:meth:`from_payload`).

    ``value`` is the raw formula output, ``clamped`` its restriction to
    [0, 1].  When the coefficient vector, index set, or window position is
    the same for every index tuple, they are also exposed at the top level;
    otherwise the per-tuple detail lives in ``terms``, a tuple or a
    :class:`Terms` view.
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
    terms: Sequence[BoundTerm] = ()

    @property
    def exact(self) -> bool:
        return not isinstance(self.value, float)

    def to_payload(self) -> dict:
        payload = header_payload(self)
        if self.coefficients is not None:
            payload["coefficients"] = [encode_number(c) for c in self.coefficients]
        if self.index_set is not None:
            payload["index_set"] = list(self.index_set)
        if self.m is not None:
            payload["m"] = self.m
        if self.terms:
            encoded: dict = {}  # the terms on one row share its tuple: encode it once
            payload["terms"] = [term.to_payload(encoded) for term in self.terms]
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "BoundCertificate":
        """Read a certificate payload, then check in order its side, target,
        r, d and ell (:func:`_check_fields`), and that ``clamped`` lies in
        [0, 1], exactly or within DEFAULT_TOLERANCE for floats."""
        coefficients, index_set = payload.get("coefficients"), payload.get("index_set")
        if coefficients is not None:
            coefficients = tuple(map(to_number, coefficients))
        value, clamped = to_number(payload["value"]), to_number(payload["clamped"])
        side, target, r, d, ell = (payload[name] for name in ("side", "target", "r", "d", "ell"))
        certificate = cls(
            value, clamped, side, target, r, d, ell, payload["formula"], coefficients,
            index_set=None if index_set is None else tuple(index_set),
            m=payload.get("m"),
            terms=tuple(BoundTerm.from_payload(t) for t in payload.get("terms", ())),
        )
        _check_fields(side, target, r, d, ell)
        if isinstance(clamped, float):
            outside = clamped < -DEFAULT_TOLERANCE or clamped > 1 + DEFAULT_TOLERANCE
        else:  # exactly: p/q with q > 0 lies in [0, 1] iff 0 <= p <= q
            outside = not 0 <= clamped.numerator <= clamped.denominator
        if outside:
            raise ValueError(f"clamped value {clamped} outside [0, 1]")
        return certificate


def certificate_from_terms(
    side: str,
    target: str,
    r: int,
    d: int,
    ell: int,
    formula_id: str,
    terms: Sequence[BoundTerm],
    value: Optional[Number] = None,
) -> BoundCertificate:
    """Assemble a certificate by summing per-tuple contributions.

    Top-level coefficients, index set and m are filled in when they agree
    across all terms, found in one pass over the distinct rows; a
    :class:`Terms` view is kept as it is, and its rows stand in for the
    terms there.  A caller that has already summed the term values passes
    the sum as ``value``.
    """
    if isinstance(terms, Terms):
        rows = dict.fromkeys(terms._rows)
    else:
        rows = terms = tuple(terms)
    if not len(terms):
        raise ValueError("a certificate needs at least one term")
    if value is None:
        exact = not any(isinstance(t.value, float) for t in terms)
        value = zero(exact)
        for term in terms:
            value = value + term.value if exact else value + float(term.value)
    rows = iter(rows)
    first = next(rows)
    coefficients, index_set, m = first.coefficients, first.index_set, first.m
    for row in rows:  # a field that differs once is not shared
        if coefficients is not None and row.coefficients != coefficients:
            coefficients = None
        if index_set is not None and row.index_set != index_set:
            index_set = None
        if row.m != m:
            m = None
    return BoundCertificate(
        value, clamp01(value), side, target, r, d, ell, formula_id, coefficients, index_set, m, terms
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
    formula: Optional[str] = None

    def __post_init__(self) -> None:
        _check_fields(self.side, self.target, self.r, self.d, self.ell)
        if self.d < 0 or self.r < 0:
            raise ValueError(f"r and d must be nonnegative, got r={self.r}, d={self.d}")
        if self.ell < 2:
            raise ValueError(f"ell must be at least 2, got {self.ell}")

    def check(self, n: int) -> None:
        """Reject, in order, d > n (ValueError), more moment orders than the
        n-d+1 positions (NotApplicableError) and r outside d..n (ValueError)."""
        d, ell = self.d, self.ell
        if d > n:
            raise ValueError(f"need 0 <= d <= n, got n={n}, d={d}")
        if ell > n - d + 1:
            raise NotApplicableError(
                f"ell={ell} exceeds the {n - d + 1} moment positions at n={n}, d={d}"
            )
        if not (d <= self.r <= n):
            raise ValueError(f"need 0 <= d <= r <= n, got d={d}, r={self.r}, n={n}")
