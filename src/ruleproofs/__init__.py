"""Rule-base QA with gold proof graphs: generate, decode, evaluate.

The package splits into small layers: ``theory`` (data model and
grammar), ``reasoner`` (answers, proofs, proof checking, critical
sentences), ``proofgraph`` (structure, depth, matching), ``potentials``
(label masks, oracle potentials, lexical scorer), ``decoder`` (exact
constrained edge decoding), ``datagen`` (synthetic corpora),
``evalharness`` (exact-match metrics), and ``cli`` (JSONL pipelines).
"""

from .theory import (
    Fact,
    Literal,
    Question,
    Rule,
    Theory,
    TheoryParseError,
    validate_theory,
)
from .proofgraph import ProofGraph, match_proofs, proof_depth, validate_structure
from .reasoner import (
    GroundProgram,
    NonStratifiedTheory,
    answer_question,
    check_proof,
    closure,
    critical_sentences,
    prove,
)
from .potentials import (
    FeatureVector,
    LinearScorer,
    MASKED,
    Potentials,
    build_edge_mask,
    fit_linear_scorer,
    lexical_edge_features,
    oracle_potentials,
    sentence_tokens,
)
from .decoder import (
    ConnectivityInfeasible,
    DecodeResult,
    decode_proof,
    decode_unconstrained,
    decode_with_fallback,
    flow_certificate,
    select_nodes,
    verify_flow,
)
from .datagen import GenConfig, generate_dataset, generate_theory
from .evalharness import PredictionRecord, Report, aggregate_report, score_example

__version__ = "0.1.0"

__all__ = [
    "ConnectivityInfeasible",
    "DecodeResult",
    "Fact",
    "FeatureVector",
    "GenConfig",
    "GroundProgram",
    "LinearScorer",
    "Literal",
    "MASKED",
    "NonStratifiedTheory",
    "Potentials",
    "PredictionRecord",
    "ProofGraph",
    "Question",
    "Report",
    "Rule",
    "Theory",
    "TheoryParseError",
    "aggregate_report",
    "answer_question",
    "build_edge_mask",
    "check_proof",
    "closure",
    "critical_sentences",
    "decode_proof",
    "decode_unconstrained",
    "decode_with_fallback",
    "fit_linear_scorer",
    "flow_certificate",
    "generate_dataset",
    "generate_theory",
    "lexical_edge_features",
    "match_proofs",
    "oracle_potentials",
    "proof_depth",
    "prove",
    "score_example",
    "select_nodes",
    "sentence_tokens",
    "validate_structure",
    "validate_theory",
    "verify_flow",
]
