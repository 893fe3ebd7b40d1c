"""Training labels, oracle potentials, and the lexical edge baseline.

The edge mask keeps one cell per structurally possible edge among the
gold proof's nodes and marks everything else -100, so external trainers
can consume the files directly. Oracle potentials perturb the gold
indicators by a controlled amount, and a small logistic scorer over
surface features shows how far word overlap alone goes.
"""

from ruleproofs.datagen import GenConfig, generate_dataset
from ruleproofs.potentials import (
    MASKED,
    LinearScorer,
    build_edge_mask,
    fit_linear_scorer,
    lexical_edge_features,
    make_edge_training_set,
    oracle_potentials,
    sentence_tokens,
)

bundle = generate_dataset(GenConfig(seed=11, num_theories=60, max_depth=3))
theory = bundle.train[0]
question = next(q for q in theory.questions if q.gold_depth and q.gold_depth >= 1)
gold = question.gold_proofs[0]

print(f"Gold proof for {question.text!r}: {gold.to_dict()}")
label = build_edge_mask(theory, gold)  # the rows that mask-export writes
print("Edge label matrix (-100 = masked):")
for row in label:
    print(" ".join(f"{cell:>4}" for cell in row))
print("Unmasked cells:", sum(cell != MASKED for row in label for cell in row))

pot = oracle_potentials(theory, gold, noise=0.2, seed=3)
print("\nNode probabilities at noise 0.2:", [round(p, 3) for p in pot.node_prob])

tokens = sentence_tokens(theory)  # each sentence tokenized once per theory
fv = lexical_edge_features(tokens, "F1", "R1")
print("\nLexical features F1 -> R1:", fv)

train = make_edge_training_set(bundle.train)
dev = make_edge_training_set(bundle.dev)
scorer = fit_linear_scorer(train)  # EPOCHS steps of LEARNING_RATE, both fixed


def accuracy(model, pairs):
    """Share of pairs whose score, cut at 0.5, matches the edge label."""
    return sum((model.score(f) >= 0.5) == label for f, label in pairs) / len(pairs)


for name, model in (("untrained", LinearScorer.untrained()), ("trained", scorer)):
    print(f"{name} scorer edge-label accuracy on dev: {accuracy(model, dev):.3f}")
names = scorer.to_dict()["features"] + ["bias"]
print("\nLearned weights:", {n: round(float(w), 2) for n, w in zip(names, scorer.weights)})

# zero-shot domain transfer: the scorer never saw circuit vocabulary
shifted = generate_dataset(GenConfig(seed=13, num_theories=30, max_depth=3,
                                     profile="circuits"))
acc = accuracy(scorer, make_edge_training_set(shifted.test))
print(f"\nSame scorer on an unseen circuits vocabulary: {acc:.3f} "
      f"(overlap features transfer; the words themselves never mattered)")
