"""Small, dependency-free learners.

Four model families cover every data-driven feature in the reference
applications: least-squares regression (normal equations), a Gini-split
decision tree, a bigram text generator whose counts grow one document
at a time, and nearest-rank quantiles over values kept sorted as they
arrive.
Feature dimensionality is tiny everywhere (d <= 6), so pure-Python linear
algebra is exact and fast enough; no numerical library is worth the
dependency here.

The tree is fitted on grouped rows (equal rows count once) and is the
tree a row-by-row search gives, floats included; `fit_tree` states the
rules that keep it so. Both fitters refuse a non-finite value, naming
its row.

All models are immutable once fitted, so a fitted model is handed to
its serving node or stored in its serving service as is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

START = "<s>"
END = "</s>"


# ----------------------------------------------------------------------
# Linear regression
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class LinearModel:
    coefficients: tuple[float, ...]
    intercept: float


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


def _check_finite(row: int, features, fitter: str) -> None:
    if not all(map(math.isfinite, features)):
        raise ValueError(f"{fitter}() row {row} has a non-finite feature: {tuple(features)!r}")


def fit_linear(rows: list[tuple[tuple[float, ...], float]]) -> LinearModel:
    """Least squares via the normal equations.

    A rank-deficient design matrix falls back to a ridge penalty of 1e-8
    on the diagonal, which keeps the solve well-posed without visibly
    biasing the tiny problems this package fits. Every feature value and
    label must be finite.
    """
    if not rows:
        raise ValueError("fit_linear() needs at least one row")
    d = len(rows[0][0])
    for i, (features, label) in enumerate(rows):
        if len(features) != d:
            raise ValueError("inconsistent feature dimensions")
        _check_finite(i, features, "fit_linear")
        if not math.isfinite(label):
            raise ValueError(f"fit_linear() row {i} has a non-finite label: {label!r}")
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


def _class_counts(node: list) -> dict:
    """Rows per label, the labels in the order of their first row.

    Groups come in first-row order, and a group's first row is the first
    row of its label among the rows of the groups that hold it, so the
    counts add up as they would row by row.
    """
    counts: dict = {}
    for _, label, count in node:
        counts[label] = counts.get(label, 0) + count
    return counts


def _weighted_gini(side: list, total: int) -> float:
    """A side's share of the node's rows times its Gini impurity; an empty
    side scores 1.0 and weighs 0."""
    counts = _class_counts(side)
    n = sum(counts.values())
    return n / total * (1.0 - sum((c / n) ** 2 for c in counts.values()))


def _leaf(counts: dict) -> TreeLeaf:
    """The majority label; the smallest label wins a tie."""
    best_count = max(counts.values())
    return TreeLeaf(min(y for y, c in counts.items() if c == best_count))


def fit_tree(rows: list[tuple[tuple[float, ...], object]], max_depth: int) -> TreeModel:
    """Greedy top-down Gini splitting.

    Candidate thresholds are midpoints `(a + b) / 2.0` between consecutive
    distinct values of each feature, and a row goes left when its value is
    below the threshold. Ties between equally good splits (gains within
    1e-15) go to the lowest feature index, then the lowest threshold.
    Leaves take the majority class (lexicographic on ties). Growth stops at
    purity, at max_depth, or when no split improves impurity.

    Equal rows are fitted once. The rows are grouped into distinct
    (features, label) pairs, each with its count, in first-row order; keys
    merge by Python equality (-0.0 and 0.0, or 1 and 1.0, are one value)
    and the first row's value stands for them. The split search partitions
    the groups at each threshold as it would the rows, and sums each side's
    class counts in group order, which is the order of each class's first
    row on that side. So the tree is the one that splitting the rows one by
    one gives, floats and signs of zero included, for a cost that grows
    with the distinct rows rather than with all of them.

    `max_depth` must be a non-negative int, and every feature value finite.
    """
    if isinstance(max_depth, bool) or not isinstance(max_depth, int) or max_depth < 0:
        raise ValueError(f"max_depth must be a non-negative int, got {max_depth!r}")
    if not rows:
        raise ValueError("fit_tree() needs at least one row")
    d = len(rows[0][0])
    groups: dict = {}  # (features, label) -> [count, first row index]
    for i, (features, label) in enumerate(rows):
        if len(features) != d:
            raise ValueError("inconsistent feature dimensions")
        key = (tuple(features), label)
        group = groups.get(key)
        if group is None:
            groups[key] = [1, i]
        else:
            group[0] += 1
    # A group's first row is the first row of its key, so the first
    # non-finite group names the first non-finite row.
    root = []  # (features, label, count), in first-row order
    for (features, label), (count, first) in groups.items():
        _check_finite(first, features, "fit_tree")
        root.append((features, label, count))
    return TreeModel(_grow(root, max_depth), max_depth)


def _grow(node: list, depth_left: int):
    """`fit_tree`'s subtree; not nested, as a recursive closure is a cycle."""
    counts = _class_counts(node)
    if depth_left <= 0 or len(counts) == 1:
        return _leaf(counts)
    total = sum(counts.values())
    parent = 1.0 - sum((c / total) ** 2 for c in counts.values())
    best = None  # (gain, feature, threshold, left, right)
    for f in range(len(node[0][0])):
        values = sorted({g[0][f] for g in node})
        for a, b in zip(values, values[1:]):
            thr = (a + b) / 2.0
            left = [g for g in node if g[0][f] < thr]
            right = [g for g in node if g[0][f] >= thr]
            gain = parent - (_weighted_gini(left, total) + _weighted_gini(right, total))
            if best is None or gain > best[0] + 1e-15:
                best = (gain, f, thr, left, right)
    if best is None or best[0] <= 1e-15:
        return _leaf(counts)
    _, f, thr, left, right = best
    return TreeSplit(f, thr, _grow(left, depth_left - 1), _grow(right, depth_left - 1))


def predict_tree(model: TreeModel, features):
    node = model.root
    while isinstance(node, TreeSplit):
        node = node.left if features[node.feature] < node.threshold else node.right
    return node.label


# ----------------------------------------------------------------------
# Bigram text generation
# ----------------------------------------------------------------------


class BigramModel(NamedTuple):
    counts: dict


def add_bigrams(counts: dict, doc: list[str]) -> None:
    """Add one document's adjacent pairs, sentinels at both ends, to `counts`."""
    chain = [START, *doc, END]
    for cur, nxt in zip(chain, chain[1:]):
        slot = counts.setdefault(cur, {})
        slot[nxt] = slot.get(nxt, 0) + 1


def fit_bigram(documents: list[list[str]]) -> BigramModel:
    """Count adjacent pairs over all documents (`add_bigrams`)."""
    counts: dict = {}
    for doc in documents:
        add_bigrams(counts, doc)
    return BigramModel(counts)


def generate(model: BigramModel, rng, max_len: int) -> list[str]:
    """Walk the chain from START, sampling proportionally to counts.

    The caller supplies the generator, so the same seed always yields the
    same text. Stops at END or after max_len tokens.
    """
    tokens: list[str] = []
    current, counts = START, model.counts
    while len(tokens) < max_len:
        successors = counts.get(current)
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


def nearest_rank(sorted_values, q: float) -> float:
    """Nearest-rank quantile of ascending values, the value at 1-based index
    ceil(q*n); values kept sorted as they arrive (`bisect.insort`) need no sort."""
    if not sorted_values:
        raise ValueError("nearest_rank() of no values")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be within [0, 1]")
    return sorted_values[max(1, math.ceil(q * len(sorted_values))) - 1]
