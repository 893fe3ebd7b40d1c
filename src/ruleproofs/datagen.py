"""Synthetic theory generator with depth-controlled questions.

Each theory is built backward from a derivation chain: an anchor fact
feeds a cascade of rules, one per depth level, optionally widened with
supporting facts, relation steps, and negative antecedents. Distractor
sentences that never touch the chain pad the theory out, and questions
are drawn from a candidate pool so that every depth from 0 to the
configured maximum is covered and answers stay balanced. Answers, proofs
and depths come from the reasoner, run on the assembled theory.

A ``GenConfig`` checks its settings once, when it is built, so a config
that exists is well-typed and in range, and nothing checks it again.
Drafts are valid by construction. Negative antecedents and negative facts
use only attributes that no rule concludes, so every theory is stratified
and no negative fact contradicts a derivation; fact and rule counts stay
within the config's ranges, whose sum the config caps at the context
limit. A draft is redrafted only when it has too few facts or rules or
its questions cannot cover every depth at the answer balance. The
finished theory is validated once, and a violation is an internal error.
"""

from __future__ import annotations

import itertools
from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import Optional

from . import reasoner
from .proofgraph import proof_depth
from .theory import (
    Literal,
    MAX_CONTEXT_SENTENCES,
    Theory,
    TheoryParseError,
    make_fact,
    make_question,
    make_rule,
    validate_theory,
)


@dataclass(frozen=True)
class VocabularyProfile:
    entities: tuple[str, ...]
    attributes: tuple[str, ...]
    relations: tuple[str, ...]
    variable: str  # "someone" or "something"


PROFILES = {
    "people": VocabularyProfile(
        ("alan", "bob", "carol", "dave", "erin", "fiona", "gary", "hanna"),
        ("blue", "rough", "young", "kind", "smart", "quiet", "green", "happy",
         "cold", "nice", "red", "big", "calm", "proud", "tall", "busy",
         "brave", "tidy"),
        ("like", "chase", "see", "need", "visit", "help"),
        "someone",
    ),
    "animals": VocabularyProfile(
        ("cat", "dog", "mouse", "lion", "tiger", "bear", "rabbit", "wolf"),
        ("big", "furry", "fierce", "hungry", "tired", "fast", "gentle", "wild",
         "strong", "sleepy", "small", "loud", "quick", "clever", "heavy",
         "soft", "calm", "bold"),
        ("chase", "see", "fear", "eat", "follow", "trust"),
        "something",
    ),
    "circuits": VocabularyProfile(
        ("wire", "bulb", "switch", "battery", "motor", "bell", "relay", "fuse"),
        ("conducting", "powered", "live", "broken", "warm", "bright", "charged",
         "active", "grounded", "humming", "glowing", "stable", "rusty", "loose",
         "sealed", "noisy", "cool", "dusty"),
        ("power", "connect", "feed", "drive", "link", "control"),
        "something",
    ),
}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# What a GenConfig field must hold, and its check, keyed by the field's
# annotation text.
_FIELD_KINDS = {
    "int": ("an integer", _is_int),
    "float": ("a number", lambda v: _is_int(v) or isinstance(v, float)),
    "str": ("a string", lambda v: isinstance(v, str)),
    "tuple[int, int]": ("a pair of integers", lambda v: isinstance(v, tuple)
                        and len(v) == 2 and all(map(_is_int, v))),
}


class ConfigError(ValueError):
    """A generator config with an unknown, missing, mistyped or out-of-range
    setting."""


@dataclass(frozen=True)
class GenConfig:
    seed: int
    num_theories: int
    facts_per_theory: tuple[int, int] = (3, 7)
    rules_per_theory: tuple[int, int] = (3, 7)
    max_depth: int = 3
    negation_rate: float = 0.3
    questions_per_theory: int = 6
    profile: str = "people"
    answer_balance: float = 0.5

    def __post_init__(self) -> None:
        """One ``ConfigError`` naming every mistyped field or, when all are
        well-typed, every setting out of range."""
        problems = [f"{f.name} must be {_FIELD_KINDS[f.type][0]}, got {getattr(self, f.name)!r}"
                    for f in fields(self) if not _FIELD_KINDS[f.type][1](getattr(self, f.name))]
        if problems:  # the range checks below assume the types
            raise ConfigError("invalid generator config: " + "; ".join(problems))
        if self.seed < 0:
            problems.append("seed must be non-negative")
        if self.num_theories < 1:
            problems.append("num_theories must be positive")
        if not 0 <= self.max_depth <= 5:
            problems.append("max_depth must be in 0..5")
        for name, (lo, hi) in (("facts_per_theory", self.facts_per_theory),
                               ("rules_per_theory", self.rules_per_theory)):
            if lo < 0 or hi < lo:
                problems.append(f"{name} range {lo}..{hi} is malformed")
        if self.facts_per_theory[0] < 1:
            problems.append("facts_per_theory must allow at least one fact")
        if self.facts_per_theory[1] + self.rules_per_theory[1] > MAX_CONTEXT_SENTENCES:
            problems.append(
                f"facts+rules may reach "
                f"{self.facts_per_theory[1] + self.rules_per_theory[1]} sentences, "
                f"limit is {MAX_CONTEXT_SENTENCES}")
        if self.rules_per_theory[1] < self.max_depth:
            problems.append("rules_per_theory upper bound below max_depth")
        if not 0.0 <= self.negation_rate <= 1.0:
            problems.append("negation_rate must be in [0, 1]")
        if self.questions_per_theory < self.max_depth + 1:
            problems.append("questions_per_theory must be at least max_depth + 1")
        if not 0.3 <= self.answer_balance <= 0.7:
            problems.append("answer_balance must be in [0.3, 0.7]")
        if self.profile not in PROFILES:
            problems.append(f"unknown vocabulary profile {self.profile!r}")
        if problems:
            raise ConfigError("invalid generator config: " + "; ".join(problems))

    def to_dict(self) -> dict:
        return {key: list(value) if isinstance(value, tuple) else value
                for key, value in asdict(self).items()}

    @classmethod
    def from_dict(cls, d, seed: Optional[int] = None) -> "GenConfig":
        """The config of a JSON object, with ``seed`` (if given) replacing
        its seed. Unknown or missing keys are errors here; the config
        checks its values when it is built."""
        if not isinstance(d, dict):
            raise ConfigError(f"generator config must be a JSON object, not {type(d).__name__}")
        if seed is not None:
            d = {**d, "seed": seed}
        names = {f.name for f in fields(cls)}
        problems = [f"unknown key {key!r}" for key in d if key not in names]
        problems += [f"missing key {f.name!r}" for f in fields(cls)
                     if f.default is MISSING and f.name not in d]
        if problems:
            raise ConfigError("invalid generator config: " + "; ".join(problems))
        return cls(**{key: tuple(v) if isinstance(v, list) else v for key, v in d.items()})


class GenerationError(RuntimeError):
    """Every draft was too small or admitted no question set covering each
    depth at the answer balance; the configuration is likely infeasible."""


_MAX_ATTEMPTS = 60


@dataclass
class _Draft:
    facts: list[Literal] = field(default_factory=list)
    rules: list[tuple[tuple[Literal, ...], Literal]] = field(default_factory=list)

    def add_fact(self, lit: Literal) -> bool:
        if lit in self.facts or lit.negated() in self.facts:
            return False
        self.facts.append(lit)
        return True


def _chain_atoms(rng, cfg: GenConfig, entities, chain_attrs, relations):
    """Ground chain literals for depths 0..D; level 0 is always an attribute."""
    e0 = entities[0]
    atoms = [Literal(e0, chain_attrs[0])]
    relation_iter = iter(relations)
    for level in range(1, cfg.max_depth + 1):
        if rng.random() < 0.25:
            rel = next(relation_iter, None)
            if rel is not None:
                obj = entities[1 + int(rng.integers(len(entities) - 1))]
                atoms.append(Literal(e0, rel, obj))
                continue
        atoms.append(Literal(e0, chain_attrs[level]))
    return atoms


def _as_rule_literal(lit: Literal, variable: Optional[str]) -> Literal:
    return Literal(variable, lit.predicate, lit.obj, lit.positive) if variable else lit


def _build_draft(rng, cfg: GenConfig, profile: VocabularyProfile):
    entities = list(profile.entities[: 3 + int(rng.integers(3))])
    rng.shuffle(entities)
    e0 = entities[0]
    attrs = list(profile.attributes)
    rng.shuffle(attrs)
    depth = cfg.max_depth

    chain_attrs = attrs[: depth + 1]
    support_attrs = attrs[depth + 1: 2 * depth + 1]
    spare = attrs[2 * depth + 1:]
    third = len(spare) // 3
    spare_neg = spare[:third]
    spare_unknown = spare[third: 2 * third]
    spare_misc = spare[2 * third:]

    relations = list(profile.relations)
    rng.shuffle(relations)
    chain_relations = relations[:2]
    other_relations = relations[2:]

    n_facts = int(rng.integers(cfg.facts_per_theory[0], cfg.facts_per_theory[1] + 1))
    n_rules = int(rng.integers(max(cfg.rules_per_theory[0], depth),
                               cfg.rules_per_theory[1] + 1))

    draft = _Draft()
    chain = _chain_atoms(rng, cfg, entities, chain_attrs, chain_relations)
    draft.add_fact(chain[0])

    support_budget = n_facts - 1
    for level in range(1, depth + 1):
        ground = rng.random() < 0.3
        variable = None if ground else profile.variable
        antecedents = [_as_rule_literal(chain[level - 1], variable)]
        if support_budget > 0 and rng.random() < 0.45:
            kind = rng.random()
            if kind < cfg.negation_rate:
                neg_attr = spare_neg[int(rng.integers(len(spare_neg)))]
                antecedents.append(Literal(variable or e0, neg_attr, positive=False))
                if rng.random() < 0.3:
                    # occasionally back the negation with a stated negative fact
                    if draft.add_fact(Literal(e0, neg_attr, positive=False)):
                        support_budget -= 1
            elif kind < 0.7:
                support = support_attrs[level - 1]
                if draft.add_fact(Literal(e0, support)):
                    support_budget -= 1
                    antecedents.append(Literal(variable or e0, support))
            else:
                rel = other_relations[int(rng.integers(len(other_relations)))]
                obj = entities[1 + int(rng.integers(len(entities) - 1))]
                if draft.add_fact(Literal(e0, rel, obj)):
                    support_budget -= 1
                    antecedents.append(Literal(variable or e0, rel, obj))
        draft.rules.append(
            (tuple(antecedents), _as_rule_literal(chain[level], variable)))

    # a second, shorter derivation of one chain atom makes questions at
    # that level and above carry multiple gold proofs
    if depth >= 1 and len(draft.rules) < cfg.rules_per_theory[1] \
            and support_budget > 0 and rng.random() < 0.4:
        twin_attr = spare_misc[-1]
        level = int(rng.integers(1, depth + 1))
        if draft.add_fact(Literal(e0, twin_attr)):
            support_budget -= 1
            variable = None if rng.random() < 0.3 else profile.variable
            draft.rules.append(
                ((_as_rule_literal(Literal(e0, twin_attr), variable),),
                 _as_rule_literal(chain[level], variable)))

    extra_types = ["failed", "dormant", "side"]
    heads = itertools.cycle(spare_misc)
    attempts = 4 * max(0, n_rules - len(draft.rules))
    extra_index = 0
    while len(draft.rules) < n_rules and attempts > 0:
        attempts -= 1
        target = next(heads)
        kind = extra_types[extra_index % len(extra_types)]
        extra_index += 1
        if kind == "failed" and depth < 1:
            kind = "dormant"
        if kind == "failed":
            j = int(rng.integers(depth))
            missing = spare_neg[int(rng.integers(len(spare_neg)))]
            rule = ((chain[j], Literal(e0, missing)), Literal(e0, target))
        elif kind == "dormant":
            trigger = spare_neg[extra_index % len(spare_neg)]
            rule = ((Literal(profile.variable, trigger),),
                    Literal(profile.variable, target))
        else:
            rule = ((Literal(profile.variable, chain_attrs[0]),),
                    Literal(profile.variable, target))
        if rule not in draft.rules:
            draft.rules.append(rule)

    distractor_pool = [chain_attrs[0]] + support_attrs[:2] + spare_misc[:1]
    guard = 0
    while len(draft.facts) < n_facts and guard < 60:
        guard += 1
        entity = entities[int(rng.integers(len(entities)))]
        if cfg.negation_rate > 0 and rng.random() < cfg.negation_rate * 0.5:
            attr = spare_neg[int(rng.integers(len(spare_neg)))]
            draft.add_fact(Literal(entity, attr, positive=False))
            continue
        if entity == e0:
            continue
        if rng.random() < 0.25:
            rel = other_relations[int(rng.integers(len(other_relations)))]
            obj = entities[int(rng.integers(len(entities)))]
            if obj != entity:
                draft.add_fact(Literal(entity, rel, obj))
            continue
        attr = distractor_pool[int(rng.integers(len(distractor_pool)))]
        draft.add_fact(Literal(entity, attr))

    context = {
        "e0": e0,
        "entities": entities,
        "chain": chain,
        "spare_unknown": spare_unknown,
        "chain_relations": chain_relations,
    }
    return draft, context


def _assemble(rng, draft: _Draft, theory_id: str) -> Theory:
    facts = list(draft.facts)
    rules = list(draft.rules)
    rng.shuffle(facts)
    rng.shuffle(rules)
    return Theory(
        theory_id,
        tuple(make_fact(f"F{i + 1}", lit) for i, lit in enumerate(facts)),
        tuple(make_rule(f"R{i + 1}", ants, cons) for i, (ants, cons) in enumerate(rules)),
        (),
    )


def _candidate_literals(t: Theory, context: dict, negation: bool) -> list[Literal]:
    e0 = context["e0"]
    chain = context["chain"]
    candidates = list(chain)
    if negation:
        candidates.extend(lit.negated() for lit in chain)
    for fact in t.facts:
        candidates.append(fact.literal)
    for entity in context["entities"][:3]:
        for attr in context["spare_unknown"]:
            candidates.append(Literal(entity, attr))
            if negation:
                candidates.append(Literal(entity, attr, positive=False))
    for rule in t.rules:
        head = rule.consequent
        if head.is_variable():
            candidates.append(head.bind(e0))
        else:
            candidates.append(head)
    other = context["entities"][-1]  # never e0, which is entities[0]
    for rel in context["chain_relations"]:
        candidates.append(Literal(e0, rel, other))
    return list(dict.fromkeys(candidates))


def _pick_questions(rng, cfg: GenConfig, index: int, pool: dict) -> Optional[list]:
    """Cover depths 0..D and steer answers to the balance target.

    Returns None (caller redrafts) when coverage is impossible or the
    realized answer counts end up more than one off the target.
    """
    total = cfg.questions_per_theory
    target_true = int(total * cfg.answer_balance)
    if (total * cfg.answer_balance) % 1 and index % 2 == 0:
        target_true += 1

    by_key = {key: list(items) for key, items in pool.items() if items}
    chosen: list = []
    n_true = 0

    def take(depth: int, answer: bool) -> bool:
        nonlocal n_true
        items = by_key.get((depth, answer))
        if not items:
            return False
        pick = items.pop(int(rng.integers(len(items))))
        if not items:
            del by_key[(depth, answer)]
        chosen.append(pick)
        n_true += int(answer)
        return True

    def prefer_true() -> bool:
        deficit_true = target_true - n_true
        deficit_false = (total - target_true) - (len(chosen) - n_true)
        return deficit_true >= deficit_false

    for depth in range(cfg.max_depth, -1, -1):
        first = prefer_true()
        if not (take(depth, first) or take(depth, not first)):
            return None

    while len(chosen) < total:
        first = prefer_true()
        keys = sorted(k for k in by_key if k[1] == first) \
            or sorted(k for k in by_key if k[1] != first)
        if not keys:
            return None
        depth, answer = keys[int(rng.integers(len(keys)))]
        take(depth, answer)

    if abs(n_true - target_true) > 1:
        return None
    return chosen


def generate_theory(cfg: GenConfig, index: int) -> Theory:
    """One deterministic theory with fully annotated questions.

    Attempt ``a`` drafts from its own rng, seeded ``[seed, index, a]``, so
    a rejected draft changes no other attempt. When every attempt is
    rejected, the ``GenerationError`` counts the rejections by cause.
    """
    import numpy as np
    profile = PROFILES[cfg.profile]
    too_small = no_questions = most_facts = most_rules = 0
    try:  # a sentence the grammar cannot state is a generator fault, not a data error
        for attempt in range(_MAX_ATTEMPTS):
            rng = np.random.default_rng([cfg.seed, index, attempt])
            draft, context = _build_draft(rng, cfg, profile)
            most_facts = max(most_facts, len(draft.facts))
            most_rules = max(most_rules, len(draft.rules))
            if len(draft.facts) < cfg.facts_per_theory[0] \
                    or len(draft.rules) < cfg.rules_per_theory[0]:
                too_small += 1
                continue
            theory = _assemble(rng, draft, f"T{index:05d}")
            program = reasoner.closure(theory)
            pool: dict[tuple[int, bool], list] = {}
            for lit in _candidate_literals(theory, context, cfg.negation_rate > 0):
                answer = program.holds(lit)
                proofs = reasoner.prove_literal(program, lit)
                depth = max(map(proof_depth, proofs))
                if depth > cfg.max_depth:
                    continue
                pool.setdefault((depth, answer), []).append((lit, answer, proofs, depth))

            chosen = _pick_questions(rng, cfg, index, pool)
            if chosen is None:
                no_questions += 1
                continue
            rng.shuffle(chosen)
            questions = tuple(
                make_question(
                    f"Q{i + 1}", lit,
                    gold_answer=answer, gold_proofs=tuple(proofs), gold_depth=depth,
                )
                for i, (lit, answer, proofs, depth) in enumerate(chosen)
            )
            theory = Theory(theory.id, theory.facts, theory.rules, questions)
            violations = validate_theory(theory)
            if violations:  # an explicit raise, so python -O keeps the check
                raise AssertionError(
                    f"generated theory {theory.id} is invalid: " + "; ".join(violations))
            return theory
    except TheoryParseError as exc:
        raise AssertionError(f"generated theory T{index:05d} is invalid: {exc}") from None
    raise GenerationError(
        f"could not generate theory {index} after {_MAX_ATTEMPTS} attempts: "
        f"{too_small} drafts had too few facts or rules (at most {most_facts} facts "
        f"and {most_rules} rules, against a minimum of {cfg.facts_per_theory[0]} facts "
        f"and {cfg.rules_per_theory[0]} rules), and {no_questions} admitted no question "
        f"set covering depths 0..{cfg.max_depth} at answer balance {cfg.answer_balance}")


@dataclass(frozen=True)
class DatasetBundle:
    train: list[Theory]
    dev: list[Theory]
    test: list[Theory]
    manifest: dict

    def split(self, name: str) -> list[Theory]:
        return {"train": self.train, "dev": self.dev, "test": self.test}[name]


def _split_stats(theories: list[Theory]) -> dict:
    histogram: dict[str, int] = {}
    true_count = 0
    total = 0
    for t in theories:
        for q in t.questions:
            histogram[str(q.gold_depth)] = histogram.get(str(q.gold_depth), 0) + 1
            true_count += int(bool(q.gold_answer))
            total += 1
    return {
        "theories": len(theories),
        "questions": total,
        "depth_histogram": {k: histogram[k] for k in sorted(histogram)},
        "answer_balance": round(true_count / total, 4) if total else 0.0,
    }


def generate_dataset(cfg: GenConfig) -> DatasetBundle:
    """All theories plus a deterministic 70/10/20 split by theory."""
    import numpy as np
    theories = [generate_theory(cfg, i) for i in range(cfg.num_theories)]
    order = np.random.default_rng([cfg.seed, 7, 1, 0]).permutation(cfg.num_theories)
    n_train = int(cfg.num_theories * 0.7)
    n_dev = int(cfg.num_theories * 0.1)
    train = [theories[i] for i in sorted(order[:n_train])]
    dev = [theories[i] for i in sorted(order[n_train:n_train + n_dev])]
    test = [theories[i] for i in sorted(order[n_train + n_dev:])]
    manifest = {
        "config": cfg.to_dict(),
        "vocabulary": cfg.profile,
        "splits": {
            "train": _split_stats(train),
            "dev": _split_stats(dev),
            "test": _split_stats(test),
        },
    }
    return DatasetBundle(train, dev, test, manifest)
