"""Node/edge probability inputs for the decoder.

Three producers live here: training-label edge masks exported for
external trainers (masked cells serialized as -100), noisy oracle
potentials used to exercise the decoder, and a small lexical edge scorer
trained by logistic regression on surface features of sentence pairs.

Labels and potentials are the JSON lists they are written as: integer
rows of labels, and float lists of node and edge probabilities that
``Potentials.from_record`` checks and the decoder reads as they are.
numpy is used, and imported, only where it fixes output bytes: the
oracle's noise draws and arithmetic above noise 0, and the scorer. Each
function that uses it imports it, so the stages that draw nothing never
load it.

Sentence index layout is fixed everywhere: facts in id order, then rules
in id order, then one trailing slot for the NAF node (``theory.layout_ids``).
Which cells of that layout may carry an edge is decided once, by
``allowed_pairs``: the edge mask, the training pairs, the scorer's
potentials and the decoder all take their cells from it.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from itertools import chain
from typing import TYPE_CHECKING, NamedTuple

from .proofgraph import NAF, ProofGraph, is_connected, node_kind
from .theory import Question, Theory, layout_ids

if TYPE_CHECKING:
    import numpy as np

MASKED = -100

# The exact JSON types of a probability and of a row of them.
_NUMBER, _LIST = frozenset({int, float}), frozenset({list})


@dataclass(frozen=True)
class Potentials:
    """Per-node presence probabilities and an edge probability matrix.

    ``num_facts`` records where the fact block ends so edge typing is
    decidable from the potentials alone; the last index is always NAF.
    """

    node_prob: list[float]
    edge_prob: list[list[float]]
    num_facts: int

    @property
    def size(self) -> int:
        return len(self.node_prob)

    def to_record(self, theory_id: str, question_id: str) -> dict:
        """One line of the potentials JSONL format."""
        return {
            "theory_id": theory_id,
            "question_id": question_id,
            "node_prob": self.node_prob,
            "edge_prob": self.edge_prob,
        }

    @classmethod
    def from_record(cls, record: dict, t: Theory) -> "Potentials":
        """Read a ``to_record`` line for theory ``t``.

        Raises ValueError unless every value is a JSON number (not a
        string or a boolean), ``node_prob`` has k+1 entries and
        ``edge_prob`` is (k+1) x (k+1), k being the theory's sentence
        count, and every value lies in [0, 1] (NaN, infinities and
        integers beyond the float range do not).
        """
        size = t.num_sentences + 1
        node_prob, edge_prob = record["node_prob"], record["edge_prob"]
        if not (type(node_prob) is list and _NUMBER.issuperset(map(type, node_prob))):
            raise ValueError("node_prob must be a list of JSON numbers")
        if not (type(edge_prob) is list and _LIST.issuperset(map(type, edge_prob))
                and _NUMBER.issuperset(map(type, chain.from_iterable(edge_prob)))):
            raise ValueError("edge_prob must be a list of lists of JSON numbers")
        if len(node_prob) != size:
            raise ValueError(f"node_prob has {len(node_prob)} entries, "
                             f"theory {t.id} needs {size}")
        if len(edge_prob) != size or any(len(row) != size for row in edge_prob):
            raise ValueError(f"edge_prob is not {size} x {size}, as theory {t.id} needs")
        for name, values in (("node_prob", node_prob),
                             ("edge_prob", chain.from_iterable(edge_prob))):
            if not all(0.0 <= v <= 1.0 for v in values):
                raise ValueError(f"{name} has a value outside [0, 1]")
        return cls(node_prob, edge_prob, len(t.facts))


def allowed_pairs(selected: list[int], num_facts: int, size: int) -> list[tuple[int, int]]:
    """The cells that may carry an edge among the ``selected`` indices of a
    layout of ``size`` slots: both ends selected and distinct, the target a
    rule. Ordered by target, then by source in ``selected`` order."""
    rules = [n for n in selected if num_facts <= n < size - 1]
    return [(m, n) for n in rules for m in selected if m != n]


def _gold_indices(t: Theory, gold: ProofGraph) -> tuple[set[int], set[tuple[int, int]]]:
    nodes = {t.sentence_index(n) for n in gold.nodes}
    edges = {(t.sentence_index(s), t.sentence_index(d)) for s, d in gold.edges}
    return nodes, edges


def build_edge_mask(t: Theory, gold: ProofGraph) -> list[list[int]]:
    """(k+1) x (k+1) labels for one gold proof: 0/1 on the ``allowed_pairs``
    of the gold nodes, MASKED elsewhere (self-loops, absent nodes, edges
    into facts or into NAF).
    """
    size = t.num_sentences + 1
    gold_nodes, gold_edges = _gold_indices(t, gold)
    label = [[MASKED] * size for _ in range(size)]
    for m, n in allowed_pairs(sorted(gold_nodes), len(t.facts), size):
        label[m][n] = int((m, n) in gold_edges)
    return label


def node_labels(t: Theory, gold: ProofGraph) -> list[int]:
    """1 at the index of each gold node, 0 elsewhere."""
    labels = [0] * (t.num_sentences + 1)
    for node in gold.nodes:
        labels[t.sentence_index(node)] = 1
    return labels


def oracle_potentials(t: Theory, gold: ProofGraph, noise: float, seed) -> Potentials:
    """Indicator potentials perturbed away from the gold proof.

    ``noise`` is the mean perturbation: each entry moves from its 0/1
    indicator by a uniform draw from [0, 2*noise), so probabilities stay
    in [0, 1] for noise < 0.5 and noise = 0 reproduces the indicators
    exactly. The unit draws depend only on the seed, which makes decoding
    accuracy monotone in the noise level for a fixed seed. At noise 0
    nothing is drawn, the seed is unused and numpy is not imported.
    """
    if not 0.0 <= noise < 0.5:
        raise ValueError(f"noise must be in [0, 0.5), got {noise}")
    size = t.num_sentences + 1
    gold_nodes, gold_edges = _gold_indices(t, gold)
    node_prob = [0.0] * size
    edge_prob = [[0.0] * size for _ in range(size)]
    for n in gold_nodes:
        node_prob[n] = 1.0
    for m, n in gold_edges:
        edge_prob[m][n] = 1.0
    if noise:  # at noise 0, |x - 0.0 * u| == x: the indicators as they are
        import numpy as np
        rng = np.random.default_rng(seed)
        node_unit = rng.random(size)
        edge_unit = rng.random((size, size))
        node_prob = np.abs(np.array(node_prob) - 2.0 * noise * node_unit).tolist()
        edge_prob = np.abs(np.array(edge_prob) - 2.0 * noise * edge_unit).tolist()
    return Potentials(node_prob, edge_prob, len(t.facts))


ADVERSARIAL_EDGE_PROB = 0.4  # below the decoder's 0.5 edge threshold


def adversarial_potentials(t: Theory, gold: ProofGraph) -> Potentials:
    """Exact potentials with one bridging gold edge pushed below threshold.

    The first gold edge (canonical order) whose removal disconnects the
    proof gets probability ``ADVERSARIAL_EDGE_PROB``; thresholding alone
    then yields a disconnected graph while the connectivity-aware decoder
    can restore the edge at a cost below any alternative repair. Proofs
    without such an edge are returned unperturbed.
    """
    p = oracle_potentials(t, gold, 0.0, seed=0)
    for s, d in gold.canonical_edges():
        remaining = gold.edges - {(s, d)}
        if not is_connected(gold.nodes, remaining):
            p.edge_prob[t.sentence_index(s)][t.sentence_index(d)] = ADVERSARIAL_EDGE_PROB
            break
    return p


# ---------------------------------------------------------------------------
# Lexical edge features and the logistic scorer
# ---------------------------------------------------------------------------

class FeatureVector(NamedTuple):
    """One candidate edge's features; the tuple is the scorer's input row."""
    unigram_jaccard: float
    bigram_jaccard: float
    normalized_length_difference: float
    source_has_negation: bool
    target_has_negation: bool
    fact_to_rule: bool
    rule_to_rule: bool
    naf_to_rule: bool


FEATURE_NAMES = FeatureVector._fields


def _tokens(text: str) -> list[str]:
    cleaned = "".join(ch if ch.isalnum() else " " for ch in text.lower())
    return cleaned.split()


def _jaccard(a: set, b: set) -> float:
    union = a | b
    if not union:
        return 0.0
    return len(a & b) / len(union)


def _bigrams(tokens: list[str]) -> set[tuple[str, str]]:
    return set(zip(tokens, tokens[1:]))


def sentence_tokens(t: Theory) -> dict[str, list[str]]:
    """Each sentence's tokens by id, and an empty token list for NAF."""
    tokens = {item.id: _tokens(item.text) for item in (*t.facts, *t.rules)}
    tokens[NAF] = []
    return tokens


def lexical_edge_features(tokens: dict[str, list[str]], src: str, dst: str) -> FeatureVector:
    """Surface-overlap features for a candidate edge src -> dst, from the
    theory's ``sentence_tokens``.

    The target must be a rule; the source is a sentence id or "NAF",
    which contributes an empty token list and its own type flag.
    """
    if node_kind(dst) != "rule":
        raise ValueError(f"feature target must be a rule, got {dst!r}")
    src_kind = node_kind(src)

    src_tokens, dst_tokens = tokens[src], tokens[dst]
    longest = max(len(src_tokens), len(dst_tokens), 1)
    return FeatureVector(
        unigram_jaccard=_jaccard(set(src_tokens), set(dst_tokens)),
        bigram_jaccard=_jaccard(_bigrams(src_tokens), _bigrams(dst_tokens)),
        normalized_length_difference=abs(len(src_tokens) - len(dst_tokens)) / longest,
        source_has_negation="not" in src_tokens,
        target_has_negation="not" in dst_tokens,
        fact_to_rule=src_kind == "fact",
        rule_to_rule=src_kind == "rule",
        naf_to_rule=src_kind == "naf",
    )


def _sigmoid(z: np.ndarray) -> np.ndarray:
    import numpy as np
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def logistic_loss_and_grad(weights: np.ndarray, X: np.ndarray, y: np.ndarray):
    """Mean logistic loss and its gradient; the last weight is the bias."""
    import numpy as np
    z = X @ weights[:-1] + weights[-1]
    p = _sigmoid(z)
    eps = 1e-12
    loss = -np.mean(y * np.log(p + eps) + (1.0 - y) * np.log(1.0 - p + eps))
    residual = (p - y) / len(y)
    grad = np.concatenate([X.T @ residual, [residual.sum()]])
    return loss, grad


class ScorerError(ValueError):
    """A scorer file, or a training set, that cannot make a scorer."""


@dataclass(frozen=True)
class ScorerConfig:
    learning_rate: float = 0.5
    epochs: int = 300
    seed: int = 0


@dataclass(frozen=True)
class LinearScorer:
    """Logistic model over FEATURE_NAMES plus a trailing bias weight."""

    weights: np.ndarray
    config: ScorerConfig = field(default_factory=ScorerConfig)

    @classmethod
    def untrained(cls, config: ScorerConfig = ScorerConfig()) -> "LinearScorer":
        import numpy as np
        return cls(np.zeros(len(FEATURE_NAMES) + 1), config)

    def score(self, features: FeatureVector) -> float:
        import numpy as np
        x = np.array(features, dtype=float)
        return float(_sigmoid(np.array([x @ self.weights[:-1] + self.weights[-1]]))[0])

    def to_dict(self) -> dict:
        return {
            "features": list(FEATURE_NAMES),
            "weights": [float(w) for w in self.weights],
            "learning_rate": self.config.learning_rate,
            "epochs": self.config.epochs,
            "seed": self.config.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LinearScorer":
        """Read a ``to_dict`` record; raises ScorerError naming a bad field."""
        if not isinstance(d, dict):
            raise ScorerError(f"scorer must be a JSON object, got {type(d).__name__}")
        if d.get("features") != list(FEATURE_NAMES):
            raise ScorerError(f"features must be {list(FEATURE_NAMES)}")
        weights, rate, epochs, seed = (d.get(key) for key in
                                       ("weights", "learning_rate", "epochs", "seed"))
        if not (isinstance(weights, list) and len(weights) == len(FEATURE_NAMES) + 1
                and all(_is_finite(w) for w in weights)):
            raise ScorerError(f"weights must be {len(FEATURE_NAMES) + 1} finite numbers")
        if not (_is_finite(rate) and rate > 0):
            raise ScorerError(f"learning_rate must be positive and finite, got {rate!r}")
        if not (type(epochs) is int and epochs >= 1):
            raise ScorerError(f"epochs must be an integer >= 1, got {epochs!r}")
        if type(seed) is not int:
            raise ScorerError(f"seed must be an integer, got {seed!r}")
        import numpy as np
        return cls(np.asarray(weights, dtype=float), ScorerConfig(rate, epochs, seed))


def _is_finite(value) -> bool:
    """A JSON number whose float value is finite; NaN compares false."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def fit_linear_scorer(train: list[tuple[FeatureVector, int]],
                      config: ScorerConfig = ScorerConfig()) -> LinearScorer:
    """Full-batch gradient descent on the logistic loss; deterministic."""
    if not train:
        raise ScorerError("empty training set")
    import numpy as np
    X = np.array([fv for fv, _ in train], dtype=float)
    y = np.array([label for _, label in train], dtype=float)
    if not np.isfinite(X).all():
        raise ScorerError("non-finite feature value in training set")
    weights = np.zeros(X.shape[1] + 1)
    for _ in range(config.epochs):
        _, grad = logistic_loss_and_grad(weights, X, y)
        weights = weights - config.learning_rate * grad
    return LinearScorer(weights, config)


def edge_training_pairs(t: Theory, q: Question):
    """(src_id, dst_id, label) for every unmasked cell of the first gold
    proof, in row-major order."""
    if not q.gold_proofs:
        return []
    size = t.num_sentences + 1
    gold_nodes, gold_edges = _gold_indices(t, q.gold_proofs[0])
    ids = layout_ids(len(t.facts), size)
    return [(ids[m], ids[n], int((m, n) in gold_edges))
            for m, n in sorted(allowed_pairs(sorted(gold_nodes), len(t.facts), size))]


def make_edge_training_set(theories: list[Theory]) -> list[tuple[FeatureVector, int]]:
    train = []
    for t in theories:
        tokens = sentence_tokens(t)
        for q in t.questions:
            for src, dst, label in edge_training_pairs(t, q):
                train.append((lexical_edge_features(tokens, src, dst), label))
    return train


def naf_prior(t: Theory) -> float:
    """Share of negative antecedents among all antecedents in the theory.

    A declared heuristic for the NAF node probability in the lexical
    pipeline, which has no learned node representation.
    """
    total = sum(len(r.antecedents) for r in t.rules)
    if total == 0:
        return 0.0
    negative = sum(1 for r in t.rules for a in r.antecedents if not a.positive)
    return negative / total


def scorer_potentials(t: Theory, scorer: LinearScorer) -> Potentials:
    """Runnable potentials from the lexical scorer alone.

    Fact/rule node probabilities default to 0.5 (every sentence a
    candidate), the NAF slot uses ``naf_prior``, and edge probabilities
    come from the scorer on the ``allowed_pairs`` of every sentence.
    """
    size = t.num_sentences + 1
    node_prob = [0.5] * (size - 1) + [naf_prior(t)]
    edge_prob = [[0.0] * size for _ in range(size)]
    ids = layout_ids(len(t.facts), size)
    tokens = sentence_tokens(t)
    for m, n in allowed_pairs(list(range(size)), len(t.facts), size):
        edge_prob[m][n] = scorer.score(lexical_edge_features(tokens, ids[m], ids[n]))
    return Potentials(node_prob, edge_prob, len(t.facts))
