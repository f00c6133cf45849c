"""Small, dependency-free learners.

Four model families cover every data-driven feature in the reference
applications: least-squares regression (normal equations), a Gini-split
decision tree, a bigram text generator, and exact nearest-rank quantiles.
Feature dimensionality is tiny everywhere (d <= 6), so pure-Python linear
algebra is exact and fast enough; no numerical library is worth the
dependency here.

All models are immutable once fitted. The linear and tree models, the
ones trained offline, serialize to plain documents (`to_doc`) for the
offline-to-online handoff; a bigram is fitted online and never stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

START = "<s>"
END = "</s>"


# ----------------------------------------------------------------------
# Linear regression
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class LinearModel:
    coefficients: tuple[float, ...]
    intercept: float

    def to_doc(self) -> dict:
        return {
            "coefficients": list(self.coefficients),
            "intercept": self.intercept,
            "kind": "linear",
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "LinearModel":
        return cls(tuple(float(c) for c in doc["coefficients"]), float(doc["intercept"]))


def _solve(matrix: list[list[float]], rhs: list[float]) -> list[float] | None:
    """Gaussian elimination with partial pivoting; None if near-singular."""
    n = len(matrix)
    aug = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    scale = max((abs(v) for row in matrix for v in row), default=0.0)
    tol = 1e-12 * max(1.0, scale)
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(aug[r][col]))
        if abs(aug[piv][col]) <= tol:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        for r in range(n):
            if r == col:
                continue
            factor = aug[r][col] / aug[col][col]
            if factor:
                for c in range(col, n + 1):
                    aug[r][c] -= factor * aug[col][c]
    return [aug[i][n] / aug[i][i] for i in range(n)]


def fit_linear(rows: list[tuple[tuple[float, ...], float]]) -> LinearModel:
    """Least squares via the normal equations.

    A rank-deficient design matrix falls back to a ridge penalty of 1e-8
    on the diagonal, which keeps the solve well-posed without visibly
    biasing the tiny problems this package fits.
    """
    if not rows:
        raise ValueError("fit_linear() needs at least one row")
    d = len(rows[0][0])
    for features, _ in rows:
        if len(features) != d:
            raise ValueError("inconsistent feature dimensions")
    n = d + 1  # intercept column first

    xtx = [[0.0] * n for _ in range(n)]
    xty = [0.0] * n
    for features, label in rows:
        x = (1.0,) + tuple(float(v) for v in features)
        y = float(label)
        for i in range(n):
            xty[i] += x[i] * y
            for j in range(n):
                xtx[i][j] += x[i] * x[j]

    theta = _solve(xtx, xty)
    if theta is None:
        ridged = [row[:] for row in xtx]
        for i in range(n):
            ridged[i][i] += 1e-8
        theta = _solve(ridged, xty)
        if theta is None:
            raise ValueError("normal equations unsolvable even with ridge fallback")
    return LinearModel(coefficients=tuple(theta[1:]), intercept=theta[0])


def predict_linear(model: LinearModel, features) -> float:
    if len(features) != len(model.coefficients):
        raise ValueError("feature dimension does not match the model")
    total = model.intercept
    for c, x in zip(model.coefficients, features):
        total += c * float(x)
    return total


# ----------------------------------------------------------------------
# Decision tree (Gini splits)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TreeLeaf:
    label: object


@dataclass(frozen=True)
class TreeSplit:
    feature: int
    threshold: float
    left: "TreeLeaf | TreeSplit"
    right: "TreeLeaf | TreeSplit"


@dataclass(frozen=True)
class TreeModel:
    root: TreeLeaf | TreeSplit
    max_depth: int

    def to_doc(self) -> dict:
        def node_doc(node):
            if isinstance(node, TreeLeaf):
                return {"label": node.label}
            return {
                "feature": node.feature,
                "threshold": node.threshold,
                "left": node_doc(node.left),
                "right": node_doc(node.right),
            }

        return {"kind": "tree", "max_depth": self.max_depth, "root": node_doc(self.root)}

    @classmethod
    def from_doc(cls, doc: dict) -> "TreeModel":
        def parse(nd):
            if "label" in nd:
                return TreeLeaf(nd["label"])
            return TreeSplit(nd["feature"], nd["threshold"], parse(nd["left"]), parse(nd["right"]))

        return cls(parse(doc["root"]), doc["max_depth"])

    def depth(self) -> int:
        def walk(node):
            if isinstance(node, TreeLeaf):
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(self.root)


def _gini(labels: list) -> float:
    total = len(labels)
    counts: dict = {}
    for y in labels:
        counts[y] = counts.get(y, 0) + 1
    return 1.0 - sum((c / total) ** 2 for c in counts.values())


def _majority(labels: list):
    counts: dict = {}
    for y in labels:
        counts[y] = counts.get(y, 0) + 1
    best_count = max(counts.values())
    return min(y for y, c in counts.items() if c == best_count)


def fit_tree(rows: list[tuple[tuple[float, ...], object]], max_depth: int) -> TreeModel:
    """Greedy top-down Gini splitting.

    Candidate thresholds are midpoints between consecutive distinct values
    of each feature; ties between equally good splits go to the lowest
    feature index, then the lowest threshold. Leaves take the majority
    class (lexicographic on ties). Growth stops at purity, at max_depth,
    or when no split improves impurity.
    """
    if not rows:
        raise ValueError("fit_tree() needs at least one row")
    d = len(rows[0][0])
    for features, _ in rows:
        if len(features) != d:
            raise ValueError("inconsistent feature dimensions")

    def build(indices: list[int], depth: int):
        labels = [rows[i][1] for i in indices]
        if depth >= max_depth or len(set(labels)) == 1:
            return TreeLeaf(_majority(labels))
        parent = _gini(labels)
        total = len(indices)
        best = None  # (gain, feature, threshold, left, right)
        for f in range(d):
            values = sorted({rows[i][0][f] for i in indices})
            for a, b in zip(values, values[1:]):
                thr = (a + b) / 2.0
                left = [i for i in indices if rows[i][0][f] < thr]
                right = [i for i in indices if rows[i][0][f] >= thr]
                weighted = (
                    len(left) / total * _gini([rows[i][1] for i in left])
                    + len(right) / total * _gini([rows[i][1] for i in right])
                )
                gain = parent - weighted
                if best is None or gain > best[0] + 1e-15:
                    best = (gain, f, thr, left, right)
        if best is None or best[0] <= 1e-15:
            return TreeLeaf(_majority(labels))
        _, f, thr, left, right = best
        return TreeSplit(f, thr, build(left, depth + 1), build(right, depth + 1))

    return TreeModel(build(list(range(len(rows))), 0), max_depth)


def predict_tree(model: TreeModel, features):
    node = model.root
    while isinstance(node, TreeSplit):
        node = node.left if features[node.feature] < node.threshold else node.right
    return node.label


# ----------------------------------------------------------------------
# Bigram text generation
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BigramModel:
    counts: dict


def fit_bigram(documents: list[list[str]]) -> BigramModel:
    """Count adjacent pairs, with sentinel transitions at both ends."""
    counts: dict = {}
    for doc in documents:
        chain = [START, *doc, END]
        for cur, nxt in zip(chain, chain[1:]):
            slot = counts.setdefault(cur, {})
            slot[nxt] = slot.get(nxt, 0) + 1
    return BigramModel(counts)


def generate(model: BigramModel, rng, max_len: int) -> list[str]:
    """Walk the chain from START, sampling proportionally to counts.

    The caller supplies the generator, so the same seed always yields the
    same text. Stops at END or after max_len tokens.
    """
    tokens: list[str] = []
    current = START
    while len(tokens) < max_len:
        successors = model.counts.get(current)
        if not successors:
            break
        total = sum(successors.values())
        x = rng.random() * total
        picked = None
        for token in sorted(successors):
            x -= successors[token]
            if x < 0:
                picked = token
                break
        if picked is None:  # float edge: fall back to the last token
            picked = sorted(successors)[-1]
        if picked == END:
            break
        tokens.append(picked)
        current = picked
    return tokens


# ----------------------------------------------------------------------
# Quantiles
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class QuantileSketch:
    """Exact sketch: just the sorted values."""

    values: tuple[float, ...]

    @classmethod
    def from_values(cls, values) -> "QuantileSketch":
        return cls(tuple(sorted(float(v) for v in values)))


def quantile(sketch: QuantileSketch, q: float) -> float:
    """Nearest-rank quantile: the value at 1-based index ceil(q*n)."""
    if not sketch.values:
        raise ValueError("quantile() of an empty sketch")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be within [0, 1]")
    n = len(sketch.values)
    idx = max(1, math.ceil(q * n))
    return sketch.values[idx - 1]
