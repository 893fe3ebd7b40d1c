"""Decode proofs from potentials and score them with exact-match metrics.

The decoder fixes nodes by thresholding, keeps every edge whose
probability clears 0.5, and, if the result falls apart, reconnects the
components with the provably cheapest repair edges. A feasible flow on
the augmented graph certifies connectivity. The harness then reports
answer, node, edge, proof, and full exact-match accuracy by depth.
"""

from ruleproofs.datagen import GenConfig, generate_dataset
from ruleproofs.decoder import decode_proof, decode_with_fallback, flow_certificate, verify_flow
from ruleproofs.evalharness import PredictionRecord, aggregate_report
from ruleproofs.potentials import Potentials, adversarial_potentials, oracle_potentials

# a hand-made instance where thresholding alone is disconnected
node_prob = [0.9, 0.9, 0.9, 0.1]                    # F1, R1, R2 selected
edge_prob = [[0.0, 0.9, 0.2, 0.0],                   # F1 -> R1 preferred, weak F1 -> R2
             [0.0, 0.0, 0.15, 0.0],
             [0.0, 0.1, 0.0, 0.0],
             [0.0, 0.0, 0.0, 0.0]]
instance = Potentials(node_prob, edge_prob, num_facts=1)

ablated = decode_proof(instance, connectivity=False)
print("Thresholding only:", ablated.proof.to_dict(), "objective", ablated.objective)
repaired = decode_proof(instance)
print("With connectivity:", repaired.proof.to_dict(), "objective", repaired.objective)
flow = flow_certificate(repaired.proof)
print("Flow certificate valid:", verify_flow(repaired.proof, flow))
print("Flow out of the source:", flow[("source", repaired.proof.canonical_nodes()[0])])

# an end-to-end sweep over a generated dataset
bundle = generate_dataset(GenConfig(seed=5, num_theories=40, max_depth=3))
theories = bundle.test
for eps in (0.0, 0.2, 0.4):
    predictions = []
    for i, t in enumerate(theories):
        for j, q in enumerate(t.questions):
            pot = oracle_potentials(t, q.gold_proofs[0], eps, seed=[i, j])
            result = decode_with_fallback(pot)
            predictions.append(PredictionRecord(
                t.id, q.id, q.gold_answer, result.proof, result.connectivity_relaxed))
    print(f"\nNoise {eps}:")
    print(aggregate_report(theories, predictions, f"oracle eps={eps}").to_text())

# the connectivity constraint earns its keep on adversarial potentials
for connectivity in (True, False):
    predictions = []
    for t in theories:
        for q in t.questions:
            pot = adversarial_potentials(t, q.gold_proofs[0])
            result = decode_with_fallback(pot, connectivity=connectivity)
            predictions.append(PredictionRecord(
                t.id, q.id, q.gold_answer, result.proof, result.connectivity_relaxed))
    label = "with connectivity" if connectivity else "no connectivity"
    row = aggregate_report(theories, predictions, label).all_row
    print(f"{label}: PA = {row.pa:.3f}")
