"""Information-theoretic tools: min-entropy, average min-entropy,
statistical distance, and leftover-hash-lemma parameters.

The paper's security argument rests on two information-theoretic facts:

* Pi_ss (section 4.1) and the HPSKE residual-entropy property
  (Definition 5.1, part 2) are justified by the *leftover hash lemma*:
  if the key retains average min-entropy ``k`` given the leakage, then a
  pairwise-independent hash extracts ``k - 2 log(1/eps)`` bits that are
  ``eps``-close to uniform.
* Definition 3.1 requires the refreshed key shares to be *identically
  distributed* to fresh ones (statistical distance zero).

These functions make those quantities computable on toy-sized
distributions so the tests and benchmarks can check them exactly.
Distributions are mappings from hashable outcomes to probabilities, or
empirical samples.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from collections.abc import Iterable, Mapping

from repro.errors import ParameterError

Distribution = Mapping[object, float]


def empirical_distribution(samples: Iterable[object]) -> dict[object, float]:
    """Return the empirical distribution of an iterable of samples."""
    counts = Counter(samples)
    total = sum(counts.values())
    if total == 0:
        raise ParameterError("no samples given")
    return {outcome: count / total for outcome, count in counts.items()}


def min_entropy(dist: Distribution) -> float:
    """Return ``H_inf(X) = -log2 max_x Pr[X = x]``."""
    top = max(dist.values())
    if top <= 0:
        raise ParameterError("distribution has no mass")
    return -math.log2(top)


def shannon_entropy(dist: Distribution) -> float:
    """Return the Shannon entropy in bits (mostly for diagnostics)."""
    return -sum(p * math.log2(p) for p in dist.values() if p > 0)


def statistical_distance(dist_x: Distribution, dist_y: Distribution) -> float:
    """Return ``SD(X, Y) = 1/2 sum_v |Pr[X=v] - Pr[Y=v]|``."""
    support = set(dist_x) | set(dist_y)
    return 0.5 * sum(abs(dist_x.get(v, 0.0) - dist_y.get(v, 0.0)) for v in support)


def average_min_entropy(joint: Mapping[tuple[object, object], float]) -> float:
    """Return the Dodis-Reyzin-Smith average min-entropy ``H~_inf(X | Y)``.

    ``joint`` maps ``(x, y)`` pairs to probabilities.  The definition is
    ``-log2 E_{y <- Y}[ 2^{-H_inf(X | Y=y)} ]
      = -log2 sum_y max_x Pr[X=x, Y=y]``.
    """
    best_by_y: dict[object, float] = {}
    for (x, y), probability in joint.items():
        if probability < 0:
            raise ParameterError("negative probability")
        if probability > best_by_y.get(y, 0.0):
            best_by_y[y] = probability
    total = sum(best_by_y.values())
    if total <= 0:
        raise ParameterError("joint distribution has no mass")
    return -math.log2(total)


def lhl_extractable_bits(source_min_entropy: float, epsilon: float) -> float:
    """Return how many eps-close-to-uniform bits the LHL extracts.

    Leftover hash lemma (paper section 2): a pairwise-independent family
    ``h : D -> R`` with ``log|R| <= k - 2 log(1/eps)`` gives
    ``SD((h, h(x)), (h, uniform)) <= eps``.
    """
    if not 0 < epsilon < 1:
        raise ParameterError("epsilon must be in (0, 1)")
    return source_min_entropy - 2 * math.log2(1 / epsilon)


def lhl_required_entropy(output_bits: float, epsilon: float) -> float:
    """Inverse view of the LHL: entropy needed to extract ``output_bits``."""
    if not 0 < epsilon < 1:
        raise ParameterError("epsilon must be in (0, 1)")
    return output_bits + 2 * math.log2(1 / epsilon)


class PairwiseIndependentHash:
    """The affine family ``h_{a,b}(x) = a*x + b mod p``, ``h : Z_p -> Z_p``.

    This is the textbook pairwise-independent family used to instantiate
    the leftover hash lemma in tests: for fixed ``x != y`` and targets
    ``(u, v)``, exactly one ``(a, b)`` pair maps ``x -> u`` and ``y -> v``.
    """

    def __init__(self, p: int, rng: random.Random | None = None) -> None:
        rng = rng or random
        self.p = p
        self.a = rng.randrange(p)
        self.b = rng.randrange(p)

    def __call__(self, x: int) -> int:
        return (self.a * x + self.b) % self.p

    def truncated(self, x: int, output_bits: int) -> int:
        """Evaluate then keep the low ``output_bits`` bits (still close to
        uniform when ``2^output_bits`` divides into ``p`` nearly evenly)."""
        return self(x) & ((1 << output_bits) - 1)
