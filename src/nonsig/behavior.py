"""Probability tables and correlator views for the 2-input/2-outcome bipartite scenario.

A behavior is the table of 16 conditional probabilities p(ab|xy).  Outcomes are
the physical values +1/-1; table index 0 maps to outcome +1 and index 1 to -1,
everywhere in this package.  Behaviors are stored as probabilities (positivity
is primitive there); correlators are derived views.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

INTERNAL_TOL = 1e-12  # behaviors built by this package
EXTERNAL_TOL = 1e-9   # behaviors arriving from files, CLIs or optimizers

OUTCOME_VALUES = np.array([1.0, -1.0])
OUTCOME_VALUES.flags.writeable = False

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def _slot_sign_matrices() -> np.ndarray:
    # Slot k < 4 is the CHSH expression sum(C) - 2*C[x,y] for (x,y) in the
    # order below; slots 4..7 are the negated ones.  Slot 0 is the canonical
    # labeling C00 + C01 + C10 - C11.
    mats = []
    for x, y in [(1, 1), (1, 0), (0, 1), (0, 0)]:
        m = np.ones((2, 2))
        m[x, y] = -1.0
        mats.append(m)
    mats.extend(-m for m in list(mats))
    out = np.array(mats)
    out.flags.writeable = False
    return out


#: Sign matrices of the 8 signed CHSH expressions, shape (8, 2, 2).
CHSH_SLOT_SIGNS = _slot_sign_matrices()


def _flip_patterns() -> list[tuple[np.ndarray, np.ndarray]]:
    # Output-flip pairs (eps, delta) such that relabeling with pattern k moves
    # signed CHSH expression k into the canonical slot 0.  eps[x] = -1 flips
    # Alice's outcomes for input x, delta[y] likewise for Bob.
    pats = []
    for k in range(8):
        m = CHSH_SLOT_SIGNS[0] * CHSH_SLOT_SIGNS[k]
        eps = np.array([1.0, m[1, 0] * m[0, 0]])
        delta = np.array([m[0, 0], m[0, 1]])
        pats.append((eps, delta))
    return pats


_FLIP_PATTERNS = _flip_patterns()


class BehaviorError(ValueError):
    """Raised on malformed behaviors or out-of-domain arguments."""


@dataclass(frozen=True)
class Violation:
    """One violated behavior constraint with its (positive) residual."""

    constraint: str
    residual: float

    def __str__(self) -> str:
        return f"{self.constraint}: residual {self.residual:.3g}"


class ValidationError(BehaviorError):
    """Behavior invariants violated; carries the full violation list."""

    def __init__(self, violations: list[Violation]):
        self.violations = violations
        super().__init__("; ".join(str(v) for v in violations))


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=float)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Correlators:
    """The 8 mean values (<A_x>, <B_y>, <A_x B_y>) parametrizing the non-signaling set."""

    a: np.ndarray   # (2,)
    b: np.ndarray   # (2,)
    ab: np.ndarray  # (2, 2), indexed [x, y]

    def __post_init__(self):
        object.__setattr__(self, "a", _freeze(self.a))
        object.__setattr__(self, "b", _freeze(self.b))
        object.__setattr__(self, "ab", _freeze(self.ab))
        if self.a.shape != (2,) or self.b.shape != (2,) or self.ab.shape != (2, 2):
            raise BehaviorError("correlators must have shapes (2,), (2,), (2,2)")

    def vector(self) -> np.ndarray:
        """Flat view [a0, a1, b0, b1, c00, c01, c10, c11]."""
        return np.concatenate([self.a, self.b, self.ab.ravel()])

    @classmethod
    def from_vector(cls, v) -> "Correlators":
        v = np.asarray(v, dtype=float)
        if v.shape != (8,):
            raise BehaviorError("correlator vector must have 8 components")
        return cls(a=v[:2], b=v[2:4], ab=v[4:].reshape(2, 2))

    def allclose(self, other: "Correlators", tol: float = 1e-12) -> bool:
        return bool(np.max(np.abs(self.vector() - other.vector())) <= tol)


@dataclass(frozen=True)
class Behavior:
    """Conditional probability table p(ab|xy), shape (2,2,2,2) indexed [x, y, a, b].

    Construction only checks the shape; run ``validate`` on untrusted input.
    Instances are immutable and safe to share between workers.
    """

    table: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "table", _freeze(self.table))
        if self.table.shape != (2, 2, 2, 2):
            raise BehaviorError("behavior table must have shape (2,2,2,2)")

    def correlators(self) -> Correlators:
        a, b, ab = _correlators_from_tables(self.table)
        return Correlators(a=a, b=b, ab=ab)

    def allclose(self, other: "Behavior", tol: float = 1e-12) -> bool:
        return bool(np.max(np.abs(self.table - other.table)) <= tol)


class BehaviorTag(Enum):
    """The named reference behaviors."""

    PR = "pr"
    SC = "sc"
    SC_TILDE = "sc_tilde"
    LD_ALLONES = "ld_allones"
    BELL = "bell"
    NOISE = "noise"
    P0 = "p0"


@dataclass(frozen=True)
class NamedBehavior:
    tag: BehaviorTag
    behavior: Behavior


# ---------------------------------------------------------------------------
# conversions


def _tables_from_correlators(a: np.ndarray, b: np.ndarray, ab: np.ndarray) -> np.ndarray:
    """Raw probability tables from correlators, batched over leading axes.

    a: (..., 2), b: (..., 2), ab: (..., 2, 2) -> (..., 2, 2, 2, 2).
    Pure algebra; positivity of the result is NOT checked here.
    """
    av = OUTCOME_VALUES
    sign_ab = np.outer(av, av)
    term_a = a[..., :, None, None, None] * av[None, :, None]
    term_b = b[..., None, :, None, None] * av[None, None, :]
    term_ab = ab[..., :, :, None, None] * sign_ab
    return 0.25 * (1.0 + term_a + term_b + term_ab)


def _correlators_from_tables(tables: np.ndarray):
    """Inverse of ``_tables_from_correlators``; batched. Returns (a, b, ab)."""
    av = OUTCOME_VALUES
    a = 0.5 * np.einsum("...xyab,a->...x", tables, av)
    b = 0.5 * np.einsum("...xyab,b->...y", tables, av)
    ab = np.einsum("...xyab,a,b->...xy", tables, av, av)
    return a, b, ab


def correlator_table(c: Correlators) -> np.ndarray:
    """The 16 probabilities induced by the correlators, without positivity checks."""
    return _tables_from_correlators(c.a, c.b, c.ab)


def correlators_to_behavior(c: Correlators) -> Behavior:
    """Build the behavior with the given mean values.

    Raises ``BehaviorError`` when a component leaves [-1, 1] and
    ``ValidationError`` when the induced table is not positive (the mean
    values are then outside the non-signaling polytope).
    """
    vec = c.vector()
    if np.any(np.abs(vec) > 1.0 + 1e-12):
        raise BehaviorError(f"correlator components must lie in [-1, 1], got {vec}")
    return validate(correlator_table(c), tol=INTERNAL_TOL)


# ---------------------------------------------------------------------------
# validation


def violations(table, tol: float = EXTERNAL_TOL) -> list[Violation]:
    """All violated behavior constraints of a raw 16-entry table, worst first.

    Checks that every entry is finite, then normalization, positivity and
    the non-signaling marginals.  An empty list means the table is a valid
    behavior at this tolerance.
    """
    t = np.asarray(table, dtype=float)
    if t.shape != (2, 2, 2, 2):
        raise BehaviorError(f"expected table shape (2,2,2,2), got {t.shape}")
    out: list[Violation] = []
    for idx in np.argwhere(~np.isfinite(t)):
        x, y, a, b = idx
        out.append(Violation(f"finite[x={x},y={y},a={a},b={b}]", np.inf))
    norms = t.sum(axis=(2, 3))
    for x in range(2):
        for y in range(2):
            r = abs(norms[x, y] - 1.0)
            if r > tol:
                out.append(Violation(f"normalization[x={x},y={y}]", r))
    for idx in np.argwhere(t < -tol):
        x, y, a, b = idx
        out.append(Violation(f"positivity[x={x},y={y},a={a},b={b}]", float(-t[x, y, a, b])))
    pa = t.sum(axis=3)  # (x, y, a)
    pb = t.sum(axis=2)  # (x, y, b)
    for x in range(2):
        for a in range(2):
            r = abs(pa[x, 0, a] - pa[x, 1, a])
            if r > tol:
                out.append(Violation(f"marginal_a[x={x},a={a}]", r))
    for y in range(2):
        for b in range(2):
            r = abs(pb[0, y, b] - pb[1, y, b])
            if r > tol:
                out.append(Violation(f"marginal_b[y={y},b={b}]", r))
    out.sort(key=lambda v: -v.residual)
    return out


def validate(table, tol: float = EXTERNAL_TOL) -> Behavior:
    """Return a typed ``Behavior`` or raise ``ValidationError`` listing every violation."""
    found = violations(table, tol=tol)
    if found:
        raise ValidationError(found)
    return Behavior(np.clip(np.asarray(table, dtype=float), 0.0, None))


def is_valid(table, tol: float = EXTERNAL_TOL) -> bool:
    return not violations(table, tol=tol)


def is_symmetric(p: Behavior, tol: float = 1e-9) -> bool:
    """True when the behavior is invariant under exchanging the two devices."""
    c = p.correlators()
    return bool(
        abs(c.a[0] - c.b[0]) <= tol
        and abs(c.a[1] - c.b[1]) <= tol
        and abs(c.ab[0, 1] - c.ab[1, 0]) <= tol
    )


# ---------------------------------------------------------------------------
# named behaviors

_NAMED_CORRELATORS = {
    BehaviorTag.PR: ([0.0, 0.0], [0.0, 0.0], [[1.0, 1.0], [1.0, -1.0]]),
    BehaviorTag.SC: ([0.0, 0.0], [0.0, 0.0], [[1.0, 1.0], [1.0, 1.0]]),
    BehaviorTag.SC_TILDE: ([0.0, 0.0], [0.0, 0.0], [[-1.0, 1.0], [1.0, -1.0]]),
    BehaviorTag.LD_ALLONES: ([1.0, 1.0], [1.0, 1.0], [[1.0, 1.0], [1.0, 1.0]]),
    BehaviorTag.BELL: (
        [0.0, 0.0],
        [0.0, 0.0],
        [[INV_SQRT2, INV_SQRT2], [INV_SQRT2, -INV_SQRT2]],
    ),
    BehaviorTag.NOISE: ([0.0, 0.0], [0.0, 0.0], [[0.0, 0.0], [0.0, 0.0]]),
    BehaviorTag.P0: ([-0.5, 0.5], [-0.5, 0.5], [[0.0, 0.0], [0.0, 0.0]]),
}


def named(tag: BehaviorTag | str) -> NamedBehavior:
    """One of the canonical reference behaviors (PR box, shared coin, Bell point, ...)."""
    if isinstance(tag, str):
        tag = BehaviorTag(tag.lower())
    return NamedBehavior(tag=tag, behavior=correlators_to_behavior(named_correlators(tag)))


def named_correlators(tag: BehaviorTag | str) -> Correlators:
    if isinstance(tag, str):
        tag = BehaviorTag(tag.lower())
    a, b, ab = _NAMED_CORRELATORS[tag]
    return Correlators(a=np.array(a), b=np.array(b), ab=np.array(ab))


# ---------------------------------------------------------------------------
# convex structure and relabelings


def mix(p: Behavior, q: Behavior, lam: float) -> Behavior:
    """Convex combination along the path from p (lam=0) to q (lam=1)."""
    if not 0.0 <= lam <= 1.0:
        raise BehaviorError(f"mixing weight must lie in [0, 1], got {lam}")
    return Behavior((1.0 - lam) * p.table + lam * q.table)


def _relabel_table(table: np.ndarray, eps: np.ndarray, delta: np.ndarray) -> np.ndarray:
    t = table.copy()
    for x in range(2):
        if eps[x] < 0:
            t[x] = t[x, :, ::-1, :]
    for y in range(2):
        if delta[y] < 0:
            t[:, y] = t[:, y, :, ::-1]
    return t


def relabelings(p: Behavior) -> list[Behavior]:
    """The orbit of p under the 8 output relabelings that permute the signed CHSH expressions.

    Element k carries signed expression k of p into the canonical slot 0, so
    element 0 is p itself.  The functional S is constant on the orbit.
    """
    return [Behavior(_relabel_table(p.table, eps, delta)) for eps, delta in _FLIP_PATTERNS]


def sym_orbit(c: Correlators) -> list[Correlators]:
    """The 8 relabelings of a symmetric behavior that stay symmetric.

    Same-output flips on both sides (4 sign choices) combined with the
    simultaneous input swap on both sides.
    """
    out = []
    for swap in (False, True):
        a = c.a[::-1] if swap else c.a
        b = c.b[::-1] if swap else c.b
        ab = c.ab[::-1, ::-1] if swap else c.ab
        for eps in ([1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]):
            e = np.array(eps)
            out.append(Correlators(a=e * a, b=e * b, ab=np.outer(e, e) * ab))
    return out


# ---------------------------------------------------------------------------
# random behaviors


def random_correlator_vectors(n: int, rng: np.random.Generator) -> np.ndarray:
    """n uniformly drawn valid correlator vectors, shape (n, 8).

    Rejection-samples the cube [-1, 1]^8 against the 16 positivity facets.
    """
    chunks = []
    have = 0
    while have < n:
        m = max(4 * (n - have), 1024)
        v = rng.uniform(-1.0, 1.0, size=(m, 8))
        tables = _tables_from_correlators(v[:, :2], v[:, 2:4], v[:, 4:].reshape(-1, 2, 2))
        ok = tables.reshape(m, 16).min(axis=1) >= 0.0
        kept = v[ok]
        chunks.append(kept)
        have += len(kept)
    return np.concatenate(chunks)[:n]


def random_behavior(rng: np.random.Generator) -> Behavior:
    """One uniformly drawn valid behavior."""
    vec = random_correlator_vectors(1, rng)[0]
    return correlators_to_behavior(Correlators.from_vector(vec))


# ---------------------------------------------------------------------------
# wire formats


def behavior_to_json_dict(p: Behavior) -> dict:
    """Correlator-form JSON document for a behavior."""
    c = p.correlators()
    return {
        "marginals_a": [float(v) for v in c.a],
        "marginals_b": [float(v) for v in c.b],
        "correlations": [[float(v) for v in row] for row in c.ab],
    }


def behavior_from_json_dict(doc: dict, tol: float = EXTERNAL_TOL) -> Behavior:
    """Parse the correlator-form JSON document and validate the induced table."""
    try:
        c = Correlators(
            a=np.asarray(doc["marginals_a"], dtype=float),
            b=np.asarray(doc["marginals_b"], dtype=float),
            ab=np.asarray(doc["correlations"], dtype=float),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise BehaviorError(f"malformed behavior document: {exc}") from exc
    if np.any(np.abs(c.vector()) > 1.0 + tol):
        raise BehaviorError("correlator components must lie in [-1, 1]")
    return validate(correlator_table(c), tol=tol)


def correlators_to_csv_row(c: Correlators) -> list[float]:
    """Row form [a0, a1, b0, b1, c00, c01, c10, c11]."""
    return [float(v) for v in c.vector()]


def correlators_from_csv_row(row) -> Correlators:
    vals = [float(v) for v in row]
    if len(vals) != 8:
        raise BehaviorError(f"behavior CSV row needs 8 fields, got {len(vals)}")
    return Correlators.from_vector(np.array(vals))
