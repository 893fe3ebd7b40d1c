"""Data model and sentence grammar for rule-base theories.

A theory bundles named facts, if-then rules, and questions. Each item
is its English-like sentence from a fixed synthetic grammar, in memory
as on disk: building an item parses its literal (or antecedents and
consequent) from its text, so a text the grammar cannot state raises
``TheoryParseError`` naming the item, and an item's structure always
agrees with its text. ``make_fact``, ``make_rule`` and ``make_question``
render a structure to build an item, and raise when the text reads as
another structure: ``parse(render(x)) == x``, and rendering is
byte-deterministic. The parser is a function of the text
alone, so it keeps each sentence's and each clause's parse in bounded
memos: a sentence parsed again in the same process, as a corpus read by
several stages is, costs a lookup.
``read_records`` is the one reader of the package's JSONL records
(theories, potentials, predictions); its errors name the line.

The grammar is one clause table, the words after a subject (``_phrase``
renders it, ``_parse_phrase`` inverts it):

                  singular subject       plural subject
    attribute     is [not] blue          are [not] blue
    relation      likes Bob              like Bob
                  does not like Bob      do not like Bob

Every sentence is made of such clauses:

    fact/question   "Alan is blue."  "Alan does not like Bob."
    ground rule     "If Alan is blue and Bob sees Carol then Bob is cold."
    variable rule   "If someone is blue and rough then they are young."
                    "If something likes Bob then it is happy."

Entities and the variables "someone" and "something" are singular; a
variable rule's consequent takes the variable's pronoun, plural "they"
or singular "it". A rule's consequent is positive. Variables may only
appear as the subject; rules use a single variable or are fully ground.
Only a variable rule's first antecedent names its subject, and an
attribute antecedent right after an attribute drops its "is". The parser
accepts any attribute antecedent of a variable rule with or without
"is", so ``render(parse(s)) == s`` holds for rendered sentences only.
Relation verbs are stored in base form.

One check says what a theory must satisfy: every read applies
``_read_violations``, and ``validate_theory`` adds the generator's
policies and each stored depth against ``proof_depth``. Since a record
holds each item's text, every theory reads back as itself.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cache, cached_property, lru_cache
from itertools import chain
from typing import IO, Callable, Iterable, Iterator, Optional

from .proofgraph import NAF, ProofGraph, proof_depth

MAX_CONTEXT_SENTENCES = 25

VARIABLE_PRONOUNS = {"someone": "they", "something": "it"}

RESERVED_TOKENS = frozenset(
    {"if", "then", "and", "is", "are", "not", "does", "do",
     "someone", "something", "they", "it"}
)

Atom = tuple[str, str, Optional[str]]
_OBJECT = frozenset({dict})  # the exact JSON type of an object


def literal_sort_key(lit: "Literal") -> tuple[str, str, str, bool]:
    return (lit.subject, lit.predicate, lit.obj or "", lit.positive)


class TheoryParseError(ValueError):
    """Raised on malformed input; ``line`` is the input line, when known."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        super().__init__(message)


@dataclass(frozen=True)
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

    def atom(self) -> Atom:
        return (self.subject, self.predicate, self.obj)

    def entities(self) -> tuple[str, ...]:
        """Ground entity tokens this literal mentions."""
        if self.subject in VARIABLE_PRONOUNS:
            return () if self.obj is None else (self.obj,)
        return (self.subject,) if self.obj is None else (self.subject, self.obj)

    def negated(self) -> "Literal":
        return Literal(self.subject, self.predicate, self.obj, not self.positive)

    def bind(self, entity: str) -> "Literal":
        if not self.is_variable():
            return self
        return Literal(entity, self.predicate, self.obj, self.positive)


def layout_ids(num_facts: int, size: int) -> list[str]:
    """The sentence id at each index of the (k+1) layout shared by labels,
    potentials and decoding: facts in id order, then rules, then NAF."""
    return ([f"F{i}" for i in range(1, num_facts + 1)]
            + [f"R{i}" for i in range(1, size - num_facts)] + [NAF])


@cache
def _layout_positions(num_facts: int, size: int) -> dict[str, int]:
    """Each id of ``layout_ids`` to its index: one dict per layout shape,
    shared by every theory of that shape and never changed."""
    return {sentence_id: index for index, sentence_id in enumerate(layout_ids(num_facts, size))}


def _parsed(item_id: str, text: str, parse):
    """``parse`` of an item's text; a text that does not parse is an error
    naming the item. The id and the text must be strings."""
    string_field(item_id, "id")
    try:
        return parse(string_field(text, "text"))
    except TheoryParseError as exc:
        raise TheoryParseError(f"{item_id}: {exc}") from None


@dataclass(frozen=True)
class Fact:
    id: str
    text: str
    literal: Literal = field(init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "literal", _parsed(self.id, self.text, parse_fact_sentence))


@dataclass(frozen=True)
class Rule:
    id: str
    text: str
    antecedents: tuple[Literal, ...] = field(init=False, compare=False)
    consequent: Literal = field(init=False, compare=False)

    def __post_init__(self):
        antecedents, consequent = _parsed(self.id, self.text, parse_rule_sentence)
        object.__setattr__(self, "antecedents", antecedents)
        object.__setattr__(self, "consequent", consequent)

    def variable(self) -> Optional[str]:
        for lit in (*self.antecedents, self.consequent):
            if lit.is_variable():
                return lit.subject
        return None


@dataclass(frozen=True)
class Question:
    id: str
    text: str
    gold_answer: Optional[bool] = None
    gold_proofs: Optional[tuple[ProofGraph, ...]] = None
    gold_depth: Optional[int] = None
    literal: Literal = field(init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "literal", _parsed(self.id, self.text, parse_fact_sentence))


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

    @cached_property
    def _layout_index(self) -> dict[str, int]:
        return _layout_positions(len(self.facts), self.num_sentences + 1)

    def sentence_index(self, sentence_id: str) -> int:
        """Position in the fixed fact-then-rule ordering; NAF sits at the end.
        Raises KeyError for every other id, including "F0", "F01" and "Fx"."""
        return self._layout_index[sentence_id]

    def unknown_ids(self, ids: Iterable[str]) -> list[str]:
        """The ``ids`` that name no slot of the layout (no sentence of this
        theory and not NAF), sorted."""
        return sorted(set(ids).difference(self._layout_index))

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


def _phrase(lit: Literal, plural: bool) -> str:
    """The words after the subject: the grammar's one clause table."""
    if not lit.is_relation():
        return f"{'are' if plural else 'is'} {'' if lit.positive else 'not '}{lit.predicate}"
    obj = _entity_text(lit.obj)
    if lit.positive:
        return f"{lit.predicate}{'' if plural else 's'} {obj}"
    return f"{'do' if plural else 'does'} not {lit.predicate} {obj}"


def render_literal(lit: Literal) -> str:
    """Sentence for one ground literal, used for facts and questions."""
    return f"{_entity_text(lit.subject)} {_phrase(lit, False)}."


def render_rule(antecedents: Iterable[Literal], consequent: Literal) -> str:
    if not consequent.is_variable():
        clauses = [render_literal(lit)[:-1] for lit in (*antecedents, consequent)]  # no period
        return f"If {' and '.join(clauses[:-1])} then {clauses[-1]}."
    parts, after_attribute = [], False
    for i, lit in enumerate(antecedents):
        phrase = _phrase(lit, False)
        if i == 0:
            phrase = f"{lit.subject} {phrase}"
        elif after_attribute and not lit.is_relation():
            phrase = phrase[len("is "):]  # "someone is blue and rough"
        after_attribute = not lit.is_relation()
        parts.append(phrase)
    pronoun = VARIABLE_PRONOUNS[consequent.subject]
    return f"If {' and '.join(parts)} then {pronoun} {_phrase(consequent, pronoun == 'they')}."


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def _check_token(token: str, role: str) -> str:
    lowered = token.lower()
    if not token.isalpha():
        raise TheoryParseError(f"{role} token {token!r} is not alphabetic")
    if lowered in RESERVED_TOKENS:
        raise TheoryParseError(f"{role} token {token!r} is a reserved word")
    return lowered


def _entity_token(token: str) -> str:
    if not token[:1].isupper():
        raise TheoryParseError(f"entity token {token!r} must be capitalized")
    return _check_token(token, "entity")


def _predicate_token(token: str) -> str:
    if not token[:1].islower():
        raise TheoryParseError(f"predicate token {token!r} must be lower-case")
    return _check_token(token, "predicate")


def _verb_token(token: str) -> str:
    verb = _predicate_token(token)
    if verb.endswith("s"):
        raise TheoryParseError(f"relation verb {token!r} must be in base form")
    if verb + "s" in RESERVED_TOKENS:  # its positive form ("does", "is") would not read
        raise TheoryParseError(f"relation verb {token!r} has a reserved word as its third person")
    return verb


def _base_verb(token: str) -> str:
    if not token.endswith("s") or len(token) < 2:
        raise TheoryParseError(f"expected a third-person verb, got {token!r}")
    # a reserved word ("does") is rejected before its "s" is stripped
    return _verb_token(_predicate_token(token)[:-1])


def _parse_phrase(subject: str, words: list[str], plural: bool) -> Literal:
    """Invert ``_phrase``: the literal whose words after ``subject`` are ``words``."""
    copula, negator = ("are", "do") if plural else ("is", "does")
    if words[:1] == [copula] and (len(words) == 2 or len(words) == 3 and words[1] == "not"):
        return Literal(subject, _predicate_token(words[-1]), positive=len(words) == 2)
    if len(words) == 2:
        verb = _verb_token(words[0]) if plural else _base_verb(words[0])
        return Literal(subject, verb, _entity_token(words[1]))
    if len(words) == 4 and words[:2] == [negator, "not"]:
        return Literal(subject, _verb_token(words[2]), _entity_token(words[3]), positive=False)
    raise TheoryParseError(f"cannot parse clause {' '.join([subject, *words])!r}")


# Corpora reuse a few hundred clauses across thousands of sentences, and
# a process may read one corpus many times, so the parser keeps each
# clause's and each sentence's parse in memos of this many entries each;
# the bound caps what one process keeps. A clause or sentence that raises
# is not kept, so it raises on every call.
_CLAUSE_CACHE_SIZE = 4096


@lru_cache(maxsize=_CLAUSE_CACHE_SIZE)
def _entity_clause(text: str) -> Literal:
    """The literal of a clause led by an entity."""
    subject, *words = text.split() or [""]
    return _parse_phrase(_entity_token(subject), words, False)


@lru_cache(maxsize=_CLAUSE_CACHE_SIZE)
def _variable_clause(variable: str, pronoun: Optional[str], text: str) -> Literal:
    """The literal of a variable rule's clause: ``text`` follows the
    consequent's ``pronoun``, or is an antecedent (no pronoun), whose
    attribute may carry or drop its "is"."""
    words = text.split()
    if pronoun is None and (len(words) == 1 or words[:1] == ["not"]):
        words = ["is", *words]
    return _parse_phrase(variable, words, pronoun == "they")


def _strip_period(text: str) -> str:
    stripped = text.strip()
    if not stripped.endswith("."):
        raise TheoryParseError(f"sentence must end with a period: {text!r}")
    body = stripped[:-1].strip()
    if not body or "." in body:
        raise TheoryParseError(f"sentence has a stray period: {text!r}")
    return body


@lru_cache(maxsize=_CLAUSE_CACHE_SIZE)
def parse_rule_sentence(text: str) -> tuple[tuple[Literal, ...], Literal]:
    """Parse an "If ... then ...." sentence into antecedents and consequent.
    A variable rule's attribute antecedent may carry or drop its "is"
    wherever it stands; the renderer drops it only after an attribute."""
    body = _strip_period(text)
    if not body.startswith("If "):
        raise TheoryParseError(f"rule sentence must start with 'If': {text!r}")
    body = body[3:]
    if body.count(" then ") != 1:
        raise TheoryParseError("rule sentence needs exactly one 'then'")
    condition, consequent_text = body.split(" then ")
    variable = condition.split(" ", 1)[0]
    if variable not in VARIABLE_PRONOUNS:
        *antecedents, consequent = map(_entity_clause,
                                       (*condition.split(" and "), consequent_text))
        antecedents = tuple(antecedents)
    else:
        antecedents = tuple([_variable_clause(variable, None, chunk)
                             for chunk in condition[len(variable) + 1:].split(" and ")])
        pronoun, *rest = consequent_text.split(None, 1) or [""]
        if pronoun != VARIABLE_PRONOUNS[variable]:
            raise TheoryParseError(f"consequent must start with {VARIABLE_PRONOUNS[variable]!r} "
                                   f"for variable {variable!r}")
        consequent = _variable_clause(variable, pronoun, "".join(rest))
    if not consequent.positive:
        raise TheoryParseError("rule consequent must be positive")
    return antecedents, consequent


@lru_cache(maxsize=_CLAUSE_CACHE_SIZE)
def parse_fact_sentence(text: str) -> Literal:
    """Parse a declarative sentence (fact or question) into its literal."""
    body = _strip_period(text)
    if body.startswith("If "):
        raise TheoryParseError("expected a declarative sentence, got a rule")
    return _entity_clause(body)


# ---------------------------------------------------------------------------
# Theory-level validation
# ---------------------------------------------------------------------------

def _check_ids(items, prefix: str, violations: list[str]) -> None:
    for i, item in enumerate(items):
        expected = f"{prefix}{i + 1}"
        if item.id != expected:
            violations.append(f"id {item.id}: expected {expected} (ids must be contiguous)")


def _check_duplicate_facts(facts, violations: list[str]) -> None:
    first: dict[Literal, str] = {}
    for f in facts:
        if f.literal in first:
            violations.append(f"{f.id}: duplicate of {first[f.literal]}")
        else:
            first[f.literal] = f.id


def _check_duplicate_rules(rules, violations: list[str]) -> None:
    """A rule that states another's antecedents, in any order, and its
    consequent."""
    # Most theories have no two rules with one consequent, and then no
    # duplicate; the sorted body keys would cost a read about 7%.
    if len({r.consequent for r in rules}) == len(rules):
        return
    first: dict[tuple, str] = {}
    for r in rules:
        body = (tuple(sorted(r.antecedents, key=literal_sort_key)), r.consequent)
        if body in first:
            violations.append(f"{r.id}: duplicate of {first[body]}")
        else:
            first[body] = r.id


def _read_violations(t: Theory) -> list[str]:
    """What every reader holds a theory to: ids F1..Fn, R1..Rm, Q1..Qk in
    order, no fact or rule stated twice, and gold proofs that are graphs
    over their own nodes, which are the theory's sentences and NAF only:
    the layout that labels, potentials and evaluation index by. The parser
    already gives ground facts and questions, and rules with antecedents
    and a positive consequent, which the reasoner assumes."""
    violations: list[str] = []
    _check_ids(t.facts, "F", violations)
    _check_ids(t.rules, "R", violations)
    _check_ids(t.questions, "Q", violations)
    _check_duplicate_facts(t.facts, violations)
    _check_duplicate_rules(t.rules, violations)
    if not violations:
        named: set[str] = set()
        for q in t.questions:
            for proof in q.gold_proofs or ():
                ends = set(chain.from_iterable(proof.edges))
                if not proof.nodes:
                    violations.append(f"{q.id}: a gold proof has no nodes")
                elif not ends <= proof.nodes:
                    violations.append(f"{q.id}: a gold proof's edges name "
                                      f"{sorted(ends - proof.nodes)} outside its nodes")
                named.update(proof.nodes)
        violations += [f"a gold proof names unknown node {node!r}"
                       for node in t.unknown_ids(named)]
    return violations


def validate_theory(t: Theory) -> list[str]:
    """Return a list of invariant violations; empty means the theory is valid.

    A valid theory passes the read check (``_read_violations``), fits the
    context, and meets two generator policies: no predicate is both an
    attribute and a relation, and a variable rule has a positive
    antecedent. What the grammar cannot state (bad tokens, variable
    facts, negative consequents, mixed subjects) cannot be built as an
    item, so it never reaches this check. A stored depth must be
    ``proof_depth``'s largest over the question's own proofs; proofs are
    measured only when the read check passes.
    """
    violations: list[str] = []
    if t.num_sentences > MAX_CONTEXT_SENTENCES:
        violations.append(
            f"context size {t.num_sentences} exceeds {MAX_CONTEXT_SENTENCES} sentences")
    read = _read_violations(t)
    violations += read

    attribute_preds, relation_preds = set(), set()
    for lit in t._all_literals():
        (relation_preds if lit.is_relation() else attribute_preds).add(lit.predicate)
    for pred in sorted(attribute_preds & relation_preds):
        violations.append(f"predicate {pred!r} used both with and without an object")
    for r in t.rules:
        if r.variable() is not None and not any(a.positive for a in r.antecedents):
            violations.append(f"{r.id}: variable rule needs a positive antecedent")

    for q in t.questions if not read else ():  # a malformed proof has no depth
        if q.gold_proofs is not None and q.gold_depth is not None:
            measured = max(map(proof_depth, q.gold_proofs), default=0)
            if measured != q.gold_depth:
                violations.append(
                    f"{q.id}: gold depth {q.gold_depth} != max proof depth {measured}")
    return violations


# ---------------------------------------------------------------------------
# Serialization: JSON records, one text per sentence
# ---------------------------------------------------------------------------

def theory_to_record(t: Theory) -> dict:
    """JSON-ready dict with a fixed field order for byte-stable output."""
    record = {
        "id": t.id,
        "facts": [{"id": f.id, "text": f.text} for f in t.facts],
        "rules": [{"id": r.id, "text": r.text} for r in t.rules],
        "questions": [],
    }
    for q in t.questions:
        entry = {"id": q.id, "text": q.text}
        if q.gold_answer is not None:
            entry["answer"] = q.gold_answer
        if q.gold_depth is not None:
            entry["depth"] = q.gold_depth
        if q.gold_proofs is not None:
            entry["proofs"] = [p.to_dict() for p in q.gold_proofs]
        record["questions"].append(entry)
    return record


def string_field(value, field: str) -> str:
    if type(value) is not str:
        raise TypeError(f"{field} must be a string, got {value!r}")
    return value


def _objects(value, field: str) -> list:
    if not (type(value) is list and _OBJECT.issuperset(map(type, value))):
        raise TypeError(f"{field} must be a list of JSON objects")
    return value


def _question_from_dict(q: dict) -> Question:
    answer, depth = q.get("answer"), q.get("depth")
    if not (answer is None or type(answer) is bool):
        raise TypeError(f"answer must be a JSON boolean, got {answer!r}")
    if not (depth is None or type(depth) is int):
        raise TypeError(f"depth must be an integer, got {depth!r}")
    proofs = (tuple(map(ProofGraph.from_dict, _objects(q["proofs"], "proofs")))
              if "proofs" in q else None)
    return Question(q["id"], q["text"], answer, proofs, depth)


def record_to_theory(record: dict) -> Theory:
    """Read a ``theory_to_record`` dict, parsing each literal from its
    text. ``id``, ``facts``, ``rules`` and ``questions`` are required.
    Raises KeyError for a missing key, TypeError for a value of the wrong
    JSON type, and TheoryParseError for a text that does not parse or a
    theory that ``_read_violations`` rejects; ``read_records`` adds the line."""
    facts = tuple(Fact(f["id"], f["text"]) for f in _objects(record["facts"], "facts"))
    rules = tuple(Rule(r["id"], r["text"]) for r in _objects(record["rules"], "rules"))
    questions = tuple(map(_question_from_dict, _objects(record["questions"], "questions")))
    t = Theory(string_field(record["id"], "theory id"), facts, rules, questions)
    violations = _read_violations(t)
    if violations:
        raise TheoryParseError(f"theory {t.id!r}: " + "; ".join(violations))
    return t


def write_theories(fp: IO[str], theories: Iterable[Theory]) -> None:
    for t in theories:
        fp.write(json.dumps(theory_to_record(t)) + "\n")


def read_records(fp: IO[str], kind: str, build: Callable[[dict], object],
                 key: Callable[[object], str]) -> Iterator:
    """``build(record)`` of each JSON object line of ``fp``, skipping blank
    lines; ``key(item)`` names an item, which is read once per file. Every
    ``KeyError``, ``TypeError``, ``ValueError`` or ``RecursionError`` (a
    line nested too deeply) from a line is raised as a ``TheoryParseError``
    with ``line`` set: "bad <kind> record on line N: <detail>"; a name
    read again names the line that first held it."""
    lines: dict[str, int] = {}
    for line_no, line in enumerate(fp, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            if type(record) is not dict:
                raise TypeError(f"record must be a JSON object, got {type(record).__name__}")
            item = build(record)
            name = key(item)
            if name in lines:
                raise ValueError(f"{name} already read on line {lines[name]}")
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            detail = (f"invalid JSON: {exc.msg} (column {exc.colno})"
                      if isinstance(exc, json.JSONDecodeError)
                      else f"missing key {exc}" if isinstance(exc, KeyError)  # prints only the key
                      else "nested too deeply to read" if isinstance(exc, RecursionError)
                      else exc)
            raise TheoryParseError(f"bad {kind} record on line {line_no}: {detail}",
                                   line_no) from exc
        lines[name] = line_no
        yield item


def read_theories(fp: IO[str]) -> Iterator[Theory]:
    """One theory per JSONL line; a theory id is read once per file."""
    return read_records(fp, "theory", record_to_theory, lambda t: f"theory id {t.id!r}")


def _as_given(item, given):
    """``item``, built from the rendering of ``given``; a text that reads as
    another structure is an error naming the item."""
    built = (item.antecedents, item.consequent) if isinstance(item, Rule) else item.literal
    if built != given:
        raise TheoryParseError(f"{item.id}: text {item.text!r} reads as another structure")
    return item


def make_fact(fact_id: str, literal: Literal) -> Fact:
    return _as_given(Fact(fact_id, render_literal(literal)), literal)


def make_rule(rule_id: str, antecedents: Iterable[Literal], consequent: Literal) -> Rule:
    antecedents = tuple(antecedents)
    rule = Rule(rule_id, render_rule(antecedents, consequent))
    return _as_given(rule, (antecedents, consequent))


def make_question(question_id: str, literal: Literal, **gold) -> Question:
    return _as_given(Question(question_id, render_literal(literal), **gold), literal)
