"""Finitely supported coefficient vectors.

CoeffVec is the package-wide sparse vector type: a list of (index, value)
entries with strictly increasing 1-based indices.  Exact zeros are dropped
at construction, so the zero vector is the empty entry list and the stored
support is the true support.

RunVec is a run-length encoded variant used for vectors that are constant
on long disjoint index ranges.  The block construction produces vectors
whose support can reach a few 1e8 coordinates; those are representable (and
their rearrangement-invariant norms computable) only in run form.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ParseError
from .jsonio import load_json

__all__ = ["CoeffVec", "RunVec", "add_coeffvecs", "json_index", "json_real", "parse_vector_json"]

# Densification guard for RunVec.to_coeffvec and run-based norm paths.
DENSIFY_CAP = 1 << 21
_INT64 = np.iinfo(np.int64)


def _as_index(i) -> int:
    """An index entry as an int; booleans, fractions and non-int64 values are rejected."""
    if isinstance(i, (bool, np.bool_)):
        raise DomainError(f"index {i!r} is a boolean, not an integer")
    try:
        n = int(i)
    except (OverflowError, ValueError):  # infinities and NaN
        raise DomainError(f"index {i!r} is not an integer") from None
    if n != i:
        raise DomainError(f"index {i!r} is not an integer")
    if not (_INT64.min <= n <= _INT64.max):
        raise DomainError(f"index {i!r} is outside the 64-bit integer range")
    return n


def json_index(x, what: str) -> int:
    """An integer field of a JSON payload, by the rules of ``_as_index``.

    Booleans, fractions, strings and anything else that is not an integer
    are a ParseError naming ``what``; nothing is truncated.
    """
    try:
        return _as_index(x)
    except (DomainError, TypeError):
        raise ParseError(f"{what} must be an integer, got {x!r}") from None


def json_real(x, what: str) -> float:
    """A real field of a JSON payload: a finite number that is not a boolean.

    Strings, booleans, infinities, NaN and integers beyond the float range
    are a ParseError naming ``what``; nothing is converted from text.
    """
    if isinstance(x, numbers.Real) and not isinstance(x, (bool, np.bool_)):
        try:
            r = float(x)
        except OverflowError:
            r = math.inf
        if math.isfinite(r):
            return r
    raise ParseError(f"{what} must be a finite number, got {x!r}")


@dataclass(frozen=True)
class CoeffVec:
    """Sparse vector with strictly increasing 1-based indices."""

    indices: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    values: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.float64))

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        val = np.asarray(self.values, dtype=np.float64)
        if idx.shape != val.shape or idx.ndim != 1:
            raise DomainError("indices and values must be 1-d arrays of equal length")
        if idx.size:
            if idx[0] < 1:
                raise DomainError("indices must be >= 1")
            if (idx[1:] <= idx[:-1]).any():
                raise DomainError("indices must be strictly increasing")
        if not np.isfinite(val).all():
            raise DomainError("values must be finite")
        keep = val != 0.0
        if not keep.all():
            idx = idx[keep]
            val = val[keep]
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", val)

    @classmethod
    def _trusted(cls, indices: np.ndarray, values: np.ndarray) -> "CoeffVec":
        """A vector from arrays already known to hold its invariants, unchecked.

        For data the package derives from validated vectors: int64 indices,
        strictly increasing from 1, finite nonzero float64 values.  Callers
        drop zeros themselves wherever a derived value can be zero.
        """
        v = object.__new__(cls)
        object.__setattr__(v, "indices", indices)
        object.__setattr__(v, "values", values)
        return v

    @staticmethod
    def from_pairs(pairs) -> "CoeffVec":
        pairs = sorted(pairs, key=lambda iv: iv[0])
        if not pairs:
            return CoeffVec()
        idx = np.array([_as_index(i) for i, _ in pairs], dtype=np.int64)
        val = np.array([float(v) for _, v in pairs], dtype=np.float64)
        return CoeffVec(idx, val)

    @staticmethod
    def from_dense(values) -> "CoeffVec":
        val = np.asarray(list(values), dtype=np.float64)
        return CoeffVec(np.arange(1, val.size + 1, dtype=np.int64), val)

    @staticmethod
    def basis(k: int, value: float = 1.0) -> "CoeffVec":
        if k < 1:
            raise DomainError("basis index must be >= 1")
        return CoeffVec(np.array([k], dtype=np.int64), np.array([value]))

    def __len__(self) -> int:
        return int(self.indices.size)

    def __iter__(self):
        return zip(self.indices.tolist(), self.values.tolist())

    @property
    def support_max(self) -> int:
        return int(self.indices[-1]) if self.indices.size else 0

    def is_zero(self) -> bool:
        return self.indices.size == 0

    def scale(self, c: float) -> "CoeffVec":
        return CoeffVec(self.indices, c * self.values)

    def dense(self) -> np.ndarray:
        n = self.support_max
        if n > DENSIFY_CAP:
            raise DomainError(f"refusing to densify beyond {DENSIFY_CAP} coordinates")
        out = np.zeros(n, dtype=np.float64)
        if self.indices.size:
            out[self.indices - 1] = self.values
        return out

    def to_json_obj(self):
        """Dense list when the support is small, sparse object otherwise."""
        if self.support_max <= 64:
            return self.dense().tolist()
        return {"indices": self.indices.tolist(), "values": self.values.tolist()}

    def __repr__(self) -> str:
        return f"CoeffVec({list(zip(self.indices.tolist(), self.values.tolist()))!r})"


def add_coeffvecs(parts: list[tuple[float, CoeffVec]]) -> CoeffVec:
    """Linear combination sum c_j * v_j, combining duplicate indices exactly.

    Duplicate-index contributions are accumulated with fsum so the result
    does not depend on the order of the parts.
    """
    if not parts:
        return CoeffVec()
    idx = np.concatenate([v.indices for _, v in parts])
    val = np.concatenate([c * v.values for c, v in parts])
    if idx.size == 0:
        return CoeffVec()
    order = np.argsort(idx, kind="stable")
    idx = idx[order]
    val = val[order]
    first = np.flatnonzero(np.concatenate(([True], idx[1:] != idx[:-1])))
    if first.size < idx.size:
        ends = [*first[1:].tolist(), idx.size]
        terms = val.tolist()
        val = np.array([math.fsum(terms[j:k]) for j, k in zip(first.tolist(), ends)])
        idx = idx[first]
    if not np.isfinite(val).all():  # the caller's coefficients can overflow
        raise DomainError("values must be finite")
    # The indices of valid parts, sorted and deduplicated; drop the zeros
    # that zero coefficients and cancellation leave.
    keep = val != 0.0
    return CoeffVec._trusted(idx[keep], val[keep])


@dataclass(frozen=True)
class RunVec:
    """Vector equal to values[r] on [starts[r], starts[r]+lengths[r]) per run.

    Runs are disjoint and sorted by start.  Entries outside all runs are 0.
    """

    starts: np.ndarray
    lengths: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        st = np.asarray(self.starts, dtype=np.int64)
        ln = np.asarray(self.lengths, dtype=np.int64)
        vl = np.asarray(self.values, dtype=np.float64)
        if not (st.shape == ln.shape == vl.shape) or st.ndim != 1:
            raise DomainError("starts, lengths, values must be 1-d arrays of equal length")
        if st.size:
            if st[0] < 1 or np.any(ln < 1):
                raise DomainError("runs need start >= 1 and length >= 1")
            ends = st + ln
            if np.any(st[1:] < ends[:-1]):
                raise DomainError("runs must be disjoint and sorted by start")
        if not np.all(np.isfinite(vl)):
            raise DomainError("run values must be finite")
        keep = vl != 0.0
        if not np.all(keep):
            st, ln, vl = st[keep], ln[keep], vl[keep]
        object.__setattr__(self, "starts", st)
        object.__setattr__(self, "lengths", ln)
        object.__setattr__(self, "values", vl)

    @property
    def support_size(self) -> int:
        return int(self.lengths.sum()) if self.lengths.size else 0

    @property
    def support_max(self) -> int:
        if not self.starts.size:
            return 0
        return int(self.starts[-1] + self.lengths[-1] - 1)

    def is_zero(self) -> bool:
        return self.starts.size == 0

    def to_coeffvec(self) -> CoeffVec:
        ends = self.lengths.cumsum()
        total = int(ends[-1]) if ends.size else 0
        if total > DENSIFY_CAP:
            raise DomainError(f"run vector has {total} entries, above the cap {DENSIFY_CAP}")
        # Entry j of run r sits at position ends_r - lengths_r + j and index starts_r + j.
        shift = self.starts - (ends - self.lengths)
        idx = np.arange(total, dtype=np.int64) + shift.repeat(self.lengths)
        val = self.values.repeat(self.lengths)
        # Valid runs are disjoint, sorted, start at >= 1 and hold finite nonzero values.
        return CoeffVec._trusted(idx, val)

    def to_json_obj(self):
        """The CoeffVec form up to the densification cap, the runs beyond it."""
        if self.support_max <= DENSIFY_CAP:
            return self.to_coeffvec().to_json_obj()
        return {
            "starts": self.starts.tolist(),
            "lengths": self.lengths.tolist(),
            "values": self.values.tolist(),
        }


def parse_vector_json(text_or_obj) -> CoeffVec:
    """Parse the vector JSON forms: dense [..] or {"indices":[..],"values":[..]}."""
    obj = text_or_obj
    if isinstance(obj, (str, bytes)):
        obj = load_json(obj, "vector JSON")
    if isinstance(obj, list):
        try:
            return CoeffVec.from_dense([float(x) for x in obj])
        except (TypeError, ValueError, OverflowError):
            raise ParseError("dense vector must be a list of numbers") from None
    if isinstance(obj, dict):
        if set(obj) != {"indices", "values"}:
            raise ParseError('sparse vector must have exactly the keys "indices" and "values"')
        idx, val = obj["indices"], obj["values"]
        if not isinstance(idx, list) or not isinstance(val, list) or len(idx) != len(val):
            raise ParseError("indices and values must be lists of equal length")
        try:
            return CoeffVec.from_pairs(zip(idx, val))
        except DomainError as e:
            raise ParseError(str(e)) from None
        except (TypeError, ValueError, OverflowError):
            raise ParseError("sparse vector entries must be numbers") from None
    raise ParseError("vector JSON must be a list or an object")
