"""Data model and sentence grammar for rule-base theories.

A theory bundles named facts, if-then rules, and questions. Every item
carries both a structured literal form and a rendered English-like
sentence from a fixed synthetic grammar, and the two round-trip exactly:
``parse(render(x)) == x`` and rendering is byte-deterministic.

Grammar sketch:

    fact/question   "Alan is blue."  "Alan is not kind."
                    "Alan likes Bob."  "Alan does not like Bob."
    variable rule   "If someone is blue and rough then they are young."
                    "If something likes Bob then it is happy."
    ground rule     "If Alan is blue and Bob sees Carol then Bob is cold."

Variables are written "someone" (pronoun "they") or "something" (pronoun
"it") and may only appear as the subject; rules use a single variable or
are fully ground. Relation verbs are stored in base form and rendered
with a trailing "s" for third-person subjects.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import IO, Iterable, Iterator, Optional, Union

from .proofgraph import ProofGraph, proof_depth

MAX_CONTEXT_SENTENCES = 25

VARIABLE_PRONOUNS = {"someone": "they", "something": "it"}

RESERVED_TOKENS = frozenset(
    {"if", "then", "and", "is", "are", "not", "does", "do",
     "someone", "something", "they", "it"}
)

Atom = tuple[str, str, Optional[str]]


def atom_sort_key(atom: Atom) -> tuple[str, str, str]:
    return (atom[0], atom[1], atom[2] or "")


def literal_sort_key(lit: "Literal") -> tuple[str, str, str, bool]:
    return (lit.subject, lit.predicate, lit.obj or "", lit.positive)


class TheoryParseError(ValueError):
    """Raised on malformed input; carries a line/column when known."""

    def __init__(self, message: str, line: Optional[int] = None, column: Optional[int] = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)


@dataclass(frozen=True, order=True)
class Literal:
    """One statement: an attribute of a subject or a relation to an object.

    ``obj`` is present exactly when the predicate is a binary relation.
    A subject of "someone"/"something" marks a rule variable.
    """

    subject: str
    predicate: str
    obj: Optional[str] = None
    positive: bool = True

    def is_relation(self) -> bool:
        return self.obj is not None

    def is_variable(self) -> bool:
        return self.subject in VARIABLE_PRONOUNS

    def is_ground(self) -> bool:
        return not self.is_variable()

    def atom(self) -> Atom:
        return (self.subject, self.predicate, self.obj)

    def entities(self) -> tuple[str, ...]:
        """Ground entity tokens this literal mentions."""
        subject = () if self.is_variable() else (self.subject,)
        return subject + (() if self.obj is None else (self.obj,))

    def negated(self) -> "Literal":
        return replace(self, positive=not self.positive)

    def bind(self, entity: str) -> "Literal":
        if not self.is_variable():
            return self
        return Literal(entity, self.predicate, self.obj, self.positive)

    def to_dict(self) -> dict:
        return {"subject": self.subject, "predicate": self.predicate,
                "object": self.obj, "positive": self.positive}

    @classmethod
    def from_dict(cls, d: dict) -> "Literal":
        return cls(d["subject"], d["predicate"], d.get("object"), bool(d.get("positive", True)))


@dataclass(frozen=True)
class Fact:
    id: str
    literal: Literal
    text: str


@dataclass(frozen=True)
class Rule:
    id: str
    antecedents: tuple[Literal, ...]
    consequent: Literal
    text: str

    def is_variable_rule(self) -> bool:
        return self.consequent.is_variable() or any(a.is_variable() for a in self.antecedents)

    def variable(self) -> Optional[str]:
        for lit in (*self.antecedents, self.consequent):
            if lit.is_variable():
                return lit.subject
        return None


@dataclass(frozen=True)
class Question:
    id: str
    literal: Literal
    text: str
    gold_answer: Optional[bool] = None
    gold_proofs: Optional[tuple[ProofGraph, ...]] = None
    gold_depth: Optional[int] = None


@dataclass(frozen=True)
class Theory:
    id: str
    facts: tuple[Fact, ...]
    rules: tuple[Rule, ...]
    questions: tuple[Question, ...]

    @property
    def num_sentences(self) -> int:
        return len(self.facts) + len(self.rules)

    def sentence_ids(self) -> list[str]:
        return [f.id for f in self.facts] + [r.id for r in self.rules]

    def sentence_index(self, sentence_id: str) -> int:
        """Position in the fixed fact-then-rule ordering; NAF sits at the end."""
        if sentence_id == "NAF":
            return self.num_sentences
        kind, idx = sentence_id[0], int(sentence_id[1:])
        if kind == "F" and 1 <= idx <= len(self.facts):
            return idx - 1
        if kind == "R" and 1 <= idx <= len(self.rules):
            return len(self.facts) + idx - 1
        raise KeyError(sentence_id)

    def id_for_index(self, index: int) -> str:
        if 0 <= index < len(self.facts):
            return f"F{index + 1}"
        if index < self.num_sentences:
            return f"R{index - len(self.facts) + 1}"
        if index == self.num_sentences:
            return "NAF"
        raise IndexError(index)

    def fact_map(self) -> dict[str, Fact]:
        return {f.id: f for f in self.facts}

    def rule_map(self) -> dict[str, Rule]:
        return {r.id: r for r in self.rules}

    def sentence_text(self, sentence_id: str) -> str:
        kind = sentence_id[0]
        items = self.facts if kind == "F" else self.rules
        for item in items:
            if item.id == sentence_id:
                return item.text
        raise KeyError(sentence_id)

    def entities(self) -> list[str]:
        """Ground entity tokens appearing anywhere, in sorted order."""
        return sorted({e for lit in self._all_literals() for e in lit.entities()})

    def _all_literals(self) -> Iterator[Literal]:
        for f in self.facts:
            yield f.literal
        for r in self.rules:
            yield from r.antecedents
            yield r.consequent
        for q in self.questions:
            yield q.literal


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _entity_text(token: str) -> str:
    return token[:1].upper() + token[1:]


def _third_person(verb: str) -> str:
    return verb + "s"


def _ground_clause(lit: Literal) -> str:
    subject = _entity_text(lit.subject)
    if not lit.is_relation():
        negation = "" if lit.positive else "not "
        return f"{subject} is {negation}{lit.predicate}"
    obj = _entity_text(lit.obj)
    if lit.positive:
        return f"{subject} {_third_person(lit.predicate)} {obj}"
    return f"{subject} does not {lit.predicate} {obj}"


def _variable_antecedent(lit: Literal, first: bool, prev_attribute: bool) -> tuple[str, bool]:
    if not lit.is_relation():
        core = lit.predicate if lit.positive else f"not {lit.predicate}"
        if first:
            return f"{lit.subject} is {core}", True
        if prev_attribute:
            return core, True
        return f"is {core}", True
    obj = _entity_text(lit.obj)
    phrase = f"{_third_person(lit.predicate)} {obj}" if lit.positive else f"does not {lit.predicate} {obj}"
    if first:
        phrase = f"{lit.subject} {phrase}"
    return phrase, False


def _variable_consequent(lit: Literal) -> str:
    pronoun = VARIABLE_PRONOUNS[lit.subject]
    plural = pronoun == "they"
    if not lit.is_relation():
        copula = "are" if plural else "is"
        core = lit.predicate if lit.positive else f"not {lit.predicate}"
        return f"{pronoun} {copula} {core}"
    obj = _entity_text(lit.obj)
    if plural:
        return f"{pronoun} {lit.predicate} {obj}" if lit.positive else f"{pronoun} do not {lit.predicate} {obj}"
    return f"{pronoun} {_third_person(lit.predicate)} {obj}" if lit.positive else f"{pronoun} does not {lit.predicate} {obj}"


def render_literal(lit: Literal) -> str:
    """Sentence for one ground literal, used for facts and questions."""
    return _ground_clause(lit) + "."


def render_rule(antecedents: Iterable[Literal], consequent: Literal) -> str:
    antecedents = tuple(antecedents)
    if consequent.is_variable():
        parts = []
        prev_attribute = False
        for i, ant in enumerate(antecedents):
            phrase, prev_attribute = _variable_antecedent(ant, i == 0, prev_attribute)
            parts.append(phrase)
        return f"If {' and '.join(parts)} then {_variable_consequent(consequent)}."
    condition = " and ".join(_ground_clause(a) for a in antecedents)
    return f"If {condition} then {_ground_clause(consequent)}."


def render_sentence(item: Union[Fact, Rule, Question]) -> str:
    """Deterministic sentence for a fact, rule, or question structure."""
    if isinstance(item, Rule):
        return render_rule(item.antecedents, item.consequent)
    return render_literal(item.literal)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def _check_token(token: str, role: str, line: Optional[int], column: Optional[int]) -> str:
    lowered = token.lower()
    if not token.isalpha():
        raise TheoryParseError(f"{role} token {token!r} is not alphabetic", line, column)
    if lowered in RESERVED_TOKENS:
        raise TheoryParseError(f"{role} token {token!r} is a reserved word", line, column)
    return lowered


def _entity_token(token: str, line: Optional[int], column: Optional[int]) -> str:
    if not token[:1].isupper():
        raise TheoryParseError(f"entity token {token!r} must be capitalized", line, column)
    return _check_token(token, "entity", line, column)


def _predicate_token(token: str, line: Optional[int], column: Optional[int]) -> str:
    if not token[:1].islower():
        raise TheoryParseError(f"predicate token {token!r} must be lower-case", line, column)
    return _check_token(token, "predicate", line, column)


def _verb_token(token: str, line: Optional[int], column: Optional[int]) -> str:
    verb = _predicate_token(token, line, column)
    if verb.endswith("s"):
        raise TheoryParseError(f"relation verb {token!r} must be in base form", line, column)
    return verb


def _base_verb(token: str, line: Optional[int], column: Optional[int]) -> str:
    if not token.endswith("s") or len(token) < 2:
        raise TheoryParseError(f"expected a third-person verb, got {token!r}", line, column)
    return _verb_token(token[:-1], line, column)


def _parse_ground_clause(tokens: list[str], line=None, column=None) -> Literal:
    if len(tokens) == 3 and tokens[1] == "is":
        return Literal(_entity_token(tokens[0], line, column),
                       _predicate_token(tokens[2], line, column))
    if len(tokens) == 4 and tokens[1] == "is" and tokens[2] == "not":
        return Literal(_entity_token(tokens[0], line, column),
                       _predicate_token(tokens[3], line, column), positive=False)
    if len(tokens) == 3:
        return Literal(_entity_token(tokens[0], line, column),
                       _base_verb(tokens[1], line, column),
                       _entity_token(tokens[2], line, column))
    if len(tokens) == 5 and tokens[1] == "does" and tokens[2] == "not":
        return Literal(_entity_token(tokens[0], line, column),
                       _verb_token(tokens[3], line, column),
                       _entity_token(tokens[4], line, column), positive=False)
    raise TheoryParseError(f"cannot parse clause {' '.join(tokens)!r}", line, column)


def _parse_variable_antecedent(tokens: list[str], variable: str, line=None, column=None) -> Literal:
    if tokens[:1] == ["is"]:
        if len(tokens) == 2:
            return Literal(variable, _predicate_token(tokens[1], line, column))
        if len(tokens) == 3 and tokens[1] == "not":
            return Literal(variable, _predicate_token(tokens[2], line, column), positive=False)
    if len(tokens) == 1:
        return Literal(variable, _predicate_token(tokens[0], line, column))
    if len(tokens) == 2 and tokens[0] == "not":
        return Literal(variable, _predicate_token(tokens[1], line, column), positive=False)
    if len(tokens) == 2:
        return Literal(variable, _base_verb(tokens[0], line, column),
                       _entity_token(tokens[1], line, column))
    if len(tokens) == 4 and tokens[0] == "does" and tokens[1] == "not":
        return Literal(variable, _verb_token(tokens[2], line, column),
                       _entity_token(tokens[3], line, column), positive=False)
    raise TheoryParseError(f"cannot parse condition {' '.join(tokens)!r}", line, column)


def _parse_variable_consequent(tokens: list[str], variable: str, line=None, column=None) -> Literal:
    pronoun = VARIABLE_PRONOUNS[variable]
    if not tokens or tokens[0] != pronoun:
        raise TheoryParseError(
            f"consequent must start with {pronoun!r} for variable {variable!r}", line, column)
    rest = tokens[1:]
    copula = "are" if pronoun == "they" else "is"
    if rest[:1] == [copula]:
        if len(rest) == 2:
            return Literal(variable, _predicate_token(rest[1], line, column))
        if len(rest) == 3 and rest[1] == "not":
            return Literal(variable, _predicate_token(rest[2], line, column), positive=False)
    negator = "do" if pronoun == "they" else "does"
    if len(rest) == 4 and rest[0] == negator and rest[1] == "not":
        return Literal(variable, _verb_token(rest[2], line, column),
                       _entity_token(rest[3], line, column), positive=False)
    if len(rest) == 2:
        if pronoun == "they":
            return Literal(variable, _verb_token(rest[0], line, column),
                           _entity_token(rest[1], line, column))
        return Literal(variable, _base_verb(rest[0], line, column),
                       _entity_token(rest[1], line, column))
    raise TheoryParseError(f"cannot parse consequent {' '.join(tokens)!r}", line, column)


def _strip_period(text: str, line=None) -> str:
    stripped = text.strip()
    if not stripped.endswith("."):
        raise TheoryParseError(f"sentence must end with a period: {text!r}", line)
    body = stripped[:-1].strip()
    if not body or "." in body:
        raise TheoryParseError(f"sentence has a stray period: {text!r}", line)
    return body


def parse_rule_sentence(text: str, line: Optional[int] = None) -> tuple[tuple[Literal, ...], Literal]:
    """Parse an "If ... then ...." sentence into antecedents and consequent."""
    body = _strip_period(text, line)
    if not body.startswith("If "):
        raise TheoryParseError(f"rule sentence must start with 'If': {text!r}", line)
    body = body[3:]
    if body.count(" then ") != 1:
        raise TheoryParseError("rule sentence needs exactly one 'then'", line)
    condition, consequent_text = body.split(" then ")
    first_word = condition.split(" ", 1)[0]
    if first_word in VARIABLE_PRONOUNS:
        variable = first_word
        condition = condition[len(variable) + 1:]
        antecedents = tuple(
            _parse_variable_antecedent(chunk.split(), variable, line)
            for chunk in condition.split(" and ")
        )
        consequent = _parse_variable_consequent(consequent_text.split(), variable, line)
        return antecedents, consequent
    antecedents = tuple(
        _parse_ground_clause(chunk.split(), line) for chunk in condition.split(" and ")
    )
    consequent = _parse_ground_clause(consequent_text.split(), line)
    return antecedents, consequent


def parse_fact_sentence(text: str, line: Optional[int] = None) -> Literal:
    """Parse a declarative sentence (fact or question) into its literal."""
    body = _strip_period(text, line)
    if body.startswith("If "):
        raise TheoryParseError("expected a declarative sentence, got a rule", line)
    return _parse_ground_clause(body.split(), line)


def parse_sentence(text: str, line: Optional[int] = None):
    """Dispatch on shape: returns a Literal or (antecedents, consequent)."""
    if text.strip().startswith("If "):
        return parse_rule_sentence(text, line)
    return parse_fact_sentence(text, line)


# ---------------------------------------------------------------------------
# Theory-level validation
# ---------------------------------------------------------------------------

def _check_ids(items, prefix: str, violations: list[str]) -> None:
    for i, item in enumerate(items):
        expected = f"{prefix}{i + 1}"
        if item.id != expected:
            violations.append(f"id {item.id}: expected {expected} (ids must be contiguous)")


def validate_theory(t: Theory) -> list[str]:
    """Return a list of invariant violations; empty means the theory is valid."""
    violations: list[str] = []
    if t.num_sentences > MAX_CONTEXT_SENTENCES:
        violations.append(
            f"context size {t.num_sentences} exceeds {MAX_CONTEXT_SENTENCES} sentences")
    _check_ids(t.facts, "F", violations)
    _check_ids(t.rules, "R", violations)
    _check_ids(t.questions, "Q", violations)

    seen_ids = set()
    for item in (*t.facts, *t.rules, *t.questions):
        if item.id in seen_ids:
            violations.append(f"duplicate id {item.id}")
        seen_ids.add(item.id)

    attribute_preds, relation_preds = set(), set()
    for lit in t._all_literals():
        (relation_preds if lit.is_relation() else attribute_preds).add(lit.predicate)
    for pred in sorted(attribute_preds & relation_preds):
        violations.append(f"predicate {pred!r} used both with and without an object")

    seen_literals = {}
    for f in t.facts:
        if not f.literal.is_ground():
            violations.append(f"{f.id}: fact literal must be ground")
        if f.literal in seen_literals:
            violations.append(f"{f.id}: duplicate of {seen_literals[f.literal]}")
        seen_literals.setdefault(f.literal, f.id)

    seen_rules = {}
    for r in t.rules:
        if not r.antecedents:
            violations.append(f"{r.id}: rule has no antecedents")
        if not r.consequent.positive:
            violations.append(f"{r.id}: rule consequent must be positive")
        variable = r.variable()
        if variable is not None:
            for lit in (*r.antecedents, r.consequent):
                if lit.subject != variable:
                    violations.append(f"{r.id}: all subjects must be the variable {variable!r}")
                if lit.obj is not None and lit.obj in VARIABLE_PRONOUNS:
                    violations.append(f"{r.id}: variables may only appear as subjects")
            if not any(a.positive for a in r.antecedents):
                violations.append(f"{r.id}: variable rule needs a positive antecedent")
        body = (tuple(sorted(r.antecedents, key=literal_sort_key)), r.consequent)
        if body in seen_rules:
            violations.append(f"{r.id}: duplicate of {seen_rules[body]}")
        seen_rules.setdefault(body, r.id)

    for q in t.questions:
        if not q.literal.is_ground():
            violations.append(f"{q.id}: question literal must be ground")
        if q.gold_proofs is not None and q.gold_depth is not None:
            depth = max(proof_depth(p) for p in q.gold_proofs) if q.gold_proofs else 0
            if depth != q.gold_depth:
                violations.append(
                    f"{q.id}: gold depth {q.gold_depth} != max proof depth {depth}")

    for item in (*t.facts, *t.rules, *t.questions):
        try:
            expected = render_sentence(item)
        except Exception:
            violations.append(f"{item.id}: structure cannot be rendered")
            continue
        if item.text != expected:
            violations.append(f"{item.id}: text does not round-trip through the grammar")
    return violations


# ---------------------------------------------------------------------------
# Serialization: JSON records and sentence-text blocks
# ---------------------------------------------------------------------------

def theory_to_record(t: Theory) -> dict:
    """JSON-ready dict with a fixed field order for byte-stable output."""
    record = {
        "id": t.id,
        "facts": [
            {"id": f.id, "text": f.text, "literal": f.literal.to_dict()} for f in t.facts
        ],
        "rules": [
            {
                "id": r.id,
                "text": r.text,
                "antecedents": [a.to_dict() for a in r.antecedents],
                "consequent": r.consequent.to_dict(),
            }
            for r in t.rules
        ],
        "questions": [],
    }
    for q in t.questions:
        entry = {"id": q.id, "text": q.text, "literal": q.literal.to_dict()}
        if q.gold_answer is not None:
            entry["answer"] = q.gold_answer
        if q.gold_depth is not None:
            entry["depth"] = q.gold_depth
        if q.gold_proofs is not None:
            entry["proofs"] = [p.to_dict() for p in q.gold_proofs]
        record["questions"].append(entry)
    return record


def record_to_theory(record: dict, line: Optional[int] = None) -> Theory:
    if not isinstance(record, dict):
        raise TheoryParseError(
            f"theory record must be a JSON object, got {type(record).__name__}", line)
    try:
        facts = tuple(
            Fact(f["id"], Literal.from_dict(f["literal"]), f["text"])
            for f in record.get("facts", ())
        )
        rules = tuple(
            Rule(
                r["id"],
                tuple(Literal.from_dict(a) for a in r["antecedents"]),
                Literal.from_dict(r["consequent"]),
                r["text"],
            )
            for r in record.get("rules", ())
        )
        questions = tuple(
            Question(
                q["id"],
                Literal.from_dict(q["literal"]),
                q["text"],
                gold_answer=q.get("answer"),
                gold_proofs=tuple(ProofGraph.from_dict(p) for p in q["proofs"])
                if "proofs" in q
                else None,
                gold_depth=q.get("depth"),
            )
            for q in record.get("questions", ())
        )
        return Theory(record["id"], facts, rules, questions)
    except (KeyError, TypeError, AttributeError) as exc:
        raise TheoryParseError(f"malformed theory record: {exc}", line) from exc


def theory_to_text(t: Theory) -> str:
    """Sentence-text block: ids and sentences only (no gold annotations)."""
    lines = [f"theory: {t.id}"]
    for item in (*t.facts, *t.rules, *t.questions):
        lines.append(f"{item.id}: {item.text}")
    return "\n".join(lines) + "\n"


def _theory_from_text(text: str, first_line: int = 1) -> Theory:
    theory_id = None
    facts, rules, questions = [], [], []
    for offset, raw in enumerate(text.splitlines()):
        line_no = first_line + offset
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("theory:"):
            theory_id = line.split(":", 1)[1].strip()
            continue
        if ":" not in line:
            raise TheoryParseError(f"expected '<id>: <sentence>', got {line!r}", line_no)
        item_id, sentence = (part.strip() for part in line.split(":", 1))
        if not item_id or item_id[0] not in "FRQ" or not item_id[1:].isdigit():
            raise TheoryParseError(f"bad sentence id {item_id!r}", line_no)
        if item_id[0] == "R":
            antecedents, consequent = parse_rule_sentence(sentence, line_no)
            rules.append(Rule(item_id, antecedents, consequent, render_rule(antecedents, consequent)))
        else:
            literal = parse_fact_sentence(sentence, line_no)
            if item_id[0] == "F":
                facts.append(Fact(item_id, literal, render_literal(literal)))
            else:
                questions.append(Question(item_id, literal, render_literal(literal)))
    if theory_id is None:
        raise TheoryParseError("missing 'theory: <id>' header", first_line)
    return Theory(theory_id, tuple(facts), tuple(rules), tuple(questions))


def parse_theory(data: Union[bytes, str], format: str = "structured-json") -> Theory:
    """Parse one theory from raw bytes/text in the given format and validate it."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    if format == "structured-json":
        try:
            record = json.loads(data)
        except json.JSONDecodeError as exc:
            raise TheoryParseError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno) from exc
        t = record_to_theory(record)
    elif format == "sentence-text":
        t = _theory_from_text(data)
    else:
        raise ValueError(f"unknown format {format!r}")
    violations = validate_theory(t)
    if violations:
        raise TheoryParseError(f"invalid theory {t.id!r}: " + "; ".join(violations))
    return t


def write_theories(fp: IO[str], theories: Iterable[Theory]) -> None:
    for t in theories:
        fp.write(json.dumps(theory_to_record(t)) + "\n")


def read_theories(fp: IO[str]) -> Iterator[Theory]:
    for line_no, line in enumerate(fp, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TheoryParseError(f"invalid JSON: {exc.msg}", line_no, exc.colno) from exc
        yield record_to_theory(record, line_no)


def make_fact(fact_id: str, literal: Literal) -> Fact:
    return Fact(fact_id, literal, render_literal(literal))


def make_rule(rule_id: str, antecedents: Iterable[Literal], consequent: Literal) -> Rule:
    antecedents = tuple(antecedents)
    return Rule(rule_id, antecedents, consequent, render_rule(antecedents, consequent))


def make_question(question_id: str, literal: Literal, **gold) -> Question:
    return Question(question_id, literal, render_literal(literal), **gold)
