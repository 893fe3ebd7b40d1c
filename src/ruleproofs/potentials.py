"""Node/edge probability inputs for the decoder.

Three producers live here: training-label edge masks exported for
external trainers (masked cells serialized as -100), noisy oracle
potentials used to exercise the decoder, and a small lexical edge scorer
trained by logistic regression on surface features of sentence pairs.

Sentence index layout is fixed everywhere: facts in id order, then rules
in id order, then one trailing slot for the NAF node.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .proofgraph import NAF, ProofGraph, node_kind
from .theory import Question, Theory

MASKED = -100


@dataclass(frozen=True)
class EdgeMask:
    """(k+1) x (k+1) training labels over {0, 1, MASKED}."""

    size: int
    label: np.ndarray

    def unmasked_cells(self) -> list[tuple[int, int]]:
        rows, cols = np.nonzero(self.label != MASKED)
        return list(zip(rows.tolist(), cols.tolist()))


@dataclass(frozen=True)
class Potentials:
    """Per-node presence probabilities and an edge probability matrix.

    ``num_facts`` records where the fact block ends so edge typing is
    decidable from the potentials alone; the last index is always NAF.
    """

    node_prob: np.ndarray
    edge_prob: np.ndarray
    num_facts: int

    @property
    def size(self) -> int:
        return len(self.node_prob)

    def to_record(self, theory_id: str, question_id: str) -> dict:
        """One line of the potentials JSONL format."""
        return {
            "theory_id": theory_id,
            "question_id": question_id,
            "node_prob": [float(x) for x in self.node_prob],
            "edge_prob": [[float(x) for x in row] for row in self.edge_prob],
        }

    @classmethod
    def from_record(cls, record: dict, t: Theory) -> "Potentials":
        """Read a ``to_record`` line for theory ``t``.

        Raises ValueError unless ``node_prob`` has k+1 entries and
        ``edge_prob`` is (k+1) x (k+1), k being the theory's sentence
        count, and every value lies in [0, 1] (NaN does not).
        """
        size = t.num_sentences + 1
        node_prob = np.asarray(record["node_prob"], dtype=float)
        edge_prob = np.asarray(record["edge_prob"], dtype=float)
        if node_prob.shape != (size,):
            raise ValueError(f"node_prob has shape {node_prob.shape}, "
                             f"theory {t.id} needs ({size},)")
        if edge_prob.shape != (size, size):
            raise ValueError(f"edge_prob has shape {edge_prob.shape}, "
                             f"theory {t.id} needs ({size}, {size})")
        for name, values in (("node_prob", node_prob), ("edge_prob", edge_prob)):
            # min and max propagate NaN, which then fails both comparisons
            if not (0.0 <= values.min() and values.max() <= 1.0):
                raise ValueError(f"{name} has a value outside [0, 1]")
        return cls(node_prob, edge_prob, len(t.facts))


def _gold_indices(t: Theory, gold: ProofGraph) -> tuple[set[int], set[tuple[int, int]]]:
    nodes = {t.sentence_index(n) for n in gold.nodes}
    edges = {(t.sentence_index(s), t.sentence_index(d)) for s, d in gold.edges}
    return nodes, edges


def build_edge_mask(t: Theory, gold: ProofGraph) -> EdgeMask:
    """Labels for one gold proof: 0/1 on consistent cells, MASKED elsewhere.

    A cell (m, n) stays unmasked exactly when both endpoints are gold
    nodes, m != n, and n is a rule; everything else (self-loops, absent
    nodes, edges into facts or into NAF) is masked.
    """
    size = t.num_sentences + 1
    gold_nodes, gold_edges = _gold_indices(t, gold)
    label = np.full((size, size), MASKED, dtype=np.int64)
    for m in gold_nodes:
        for n in gold_nodes:
            if m == n or t.id_for_index(n)[0] != "R":
                continue
            label[m, n] = 1 if (m, n) in gold_edges else 0
    return EdgeMask(size, label)


def node_labels(t: Theory, gold: ProofGraph) -> np.ndarray:
    size = t.num_sentences + 1
    labels = np.zeros(size, dtype=np.int64)
    for node in gold.nodes:
        labels[t.sentence_index(node)] = 1
    return labels


def oracle_potentials(t: Theory, gold: ProofGraph, noise: float, seed) -> Potentials:
    """Indicator potentials perturbed away from the gold proof.

    ``noise`` is the mean perturbation: each entry moves from its 0/1
    indicator by a uniform draw from [0, 2*noise), so probabilities stay
    in [0, 1] for noise < 0.5 and noise = 0 reproduces the indicators
    exactly. The unit draws depend only on the seed, which makes decoding
    accuracy monotone in the noise level for a fixed seed.
    """
    if not 0.0 <= noise < 0.5:
        raise ValueError(f"noise must be in [0, 0.5), got {noise}")
    size = t.num_sentences + 1
    rng = np.random.default_rng(seed)
    node_unit = rng.random(size)
    edge_unit = rng.random((size, size))

    gold_nodes, gold_edges = _gold_indices(t, gold)
    node_indicator = np.zeros(size)
    node_indicator[sorted(gold_nodes)] = 1.0
    edge_indicator = np.zeros((size, size))
    for m, n in gold_edges:
        edge_indicator[m, n] = 1.0

    node_prob = np.abs(node_indicator - 2.0 * noise * node_unit)
    edge_prob = np.abs(edge_indicator - 2.0 * noise * edge_unit)
    return Potentials(node_prob, edge_prob, len(t.facts))


def adversarial_potentials(t: Theory, gold: ProofGraph, drop_to: float = 0.4) -> Potentials:
    """Exact potentials with one bridging gold edge pushed below threshold.

    The first gold edge (canonical order) whose removal disconnects the
    proof gets probability ``drop_to``; thresholding alone then yields a
    disconnected graph while the connectivity-aware decoder can restore
    the edge at a cost below any alternative repair. Proofs without such
    an edge are returned unperturbed.
    """
    p = oracle_potentials(t, gold, 0.0, seed=0)
    from .proofgraph import is_connected

    for s, d in gold.canonical_edges():
        remaining = gold.edges - {(s, d)}
        if not is_connected(gold.nodes, remaining):
            p.edge_prob[t.sentence_index(s), t.sentence_index(d)] = drop_to
            break
    return p


# ---------------------------------------------------------------------------
# Lexical edge features and the logistic scorer
# ---------------------------------------------------------------------------

FEATURE_NAMES = (
    "unigram_jaccard",
    "bigram_jaccard",
    "normalized_length_difference",
    "source_has_negation",
    "target_has_negation",
    "fact_to_rule",
    "rule_to_rule",
    "naf_to_rule",
)


@dataclass(frozen=True)
class FeatureVector:
    unigram_jaccard: float
    bigram_jaccard: float
    normalized_length_difference: float
    source_has_negation: bool
    target_has_negation: bool
    fact_to_rule: bool
    rule_to_rule: bool
    naf_to_rule: bool

    def to_array(self) -> np.ndarray:
        return np.array(
            [
                self.unigram_jaccard,
                self.bigram_jaccard,
                self.normalized_length_difference,
                float(self.source_has_negation),
                float(self.target_has_negation),
                float(self.fact_to_rule),
                float(self.rule_to_rule),
                float(self.naf_to_rule),
            ]
        )


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


def lexical_edge_features(t: Theory, src: str, dst: str) -> FeatureVector:
    """Surface-overlap features for a candidate edge src -> dst.

    The target must be a rule; the source is a sentence id or "NAF",
    which contributes an empty token list and its own type flag.
    """
    if node_kind(dst) != "rule":
        raise ValueError(f"feature target must be a rule, got {dst!r}")
    src_kind = node_kind(src)

    dst_tokens = _tokens(t.sentence_text(dst))
    src_tokens = [] if src == NAF else _tokens(t.sentence_text(src))
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
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def logistic_loss_and_grad(weights: np.ndarray, X: np.ndarray, y: np.ndarray):
    """Mean logistic loss and its gradient; the last weight is the bias."""
    z = X @ weights[:-1] + weights[-1]
    p = _sigmoid(z)
    eps = 1e-12
    loss = -np.mean(y * np.log(p + eps) + (1.0 - y) * np.log(1.0 - p + eps))
    residual = (p - y) / len(y)
    grad = np.concatenate([X.T @ residual, [residual.sum()]])
    return loss, grad


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
        return cls(np.zeros(len(FEATURE_NAMES) + 1), config)

    def score(self, features: FeatureVector) -> float:
        x = features.to_array()
        return float(_sigmoid(np.array([x @ self.weights[:-1] + self.weights[-1]]))[0])

    def score_matrix(self, X: np.ndarray) -> np.ndarray:
        return _sigmoid(X @ self.weights[:-1] + self.weights[-1])

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
        config = ScorerConfig(d["learning_rate"], d["epochs"], d["seed"])
        return cls(np.asarray(d["weights"], dtype=float), config)


def fit_linear_scorer(train: list[tuple[FeatureVector, int]],
                      config: ScorerConfig = ScorerConfig()) -> LinearScorer:
    """Full-batch gradient descent on the logistic loss; deterministic."""
    if not train:
        raise ValueError("empty training set")
    X = np.stack([fv.to_array() for fv, _ in train])
    y = np.array([label for _, label in train], dtype=float)
    if not np.isfinite(X).all():
        raise ValueError("non-finite feature value in training set")
    weights = np.zeros(X.shape[1] + 1)
    for _ in range(config.epochs):
        _, grad = logistic_loss_and_grad(weights, X, y)
        weights = weights - config.learning_rate * grad
    return LinearScorer(weights, config)


def edge_training_pairs(t: Theory, q: Question):
    """(src_id, dst_id, label) for every unmasked cell of the first gold proof."""
    if not q.gold_proofs:
        return []
    gold = q.gold_proofs[0]
    mask = build_edge_mask(t, gold)
    pairs = []
    for m, n in mask.unmasked_cells():
        pairs.append((t.id_for_index(m), t.id_for_index(n), int(mask.label[m, n])))
    return pairs


def make_edge_training_set(theories: list[Theory]) -> list[tuple[FeatureVector, int]]:
    train = []
    for t in theories:
        for q in t.questions:
            for src, dst, label in edge_training_pairs(t, q):
                train.append((lexical_edge_features(t, src, dst), label))
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
    come from the scorer on all typed pairs.
    """
    size = t.num_sentences + 1
    node_prob = np.full(size, 0.5)
    node_prob[size - 1] = naf_prior(t)
    edge_prob = np.zeros((size, size))
    for n in range(len(t.facts), size - 1):
        dst = t.id_for_index(n)
        for m in range(size):
            if m == n:
                continue
            src = t.id_for_index(m)
            edge_prob[m, n] = scorer.score(lexical_edge_features(t, src, dst))
    return Potentials(node_prob, edge_prob, len(t.facts))
