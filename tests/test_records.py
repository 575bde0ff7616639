"""The contract every record class of cpl keeps: fields named by its
`__init__`, construction, equality, hashing, frozenness, fresh mutable
defaults, and `replace` running the class's checks."""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import pytest

from cpl.conjecture import ConjecturePhaseReport
from cpl.core import (
    ConjectureList,
    FrozenRecord,
    Library,
    LibraryEntry,
    ParseWarning,
    ProofScript,
    Record,
    TheoremStatement,
    replace,
)
from cpl.evalharness import NLGrade, ReproveReport
from cpl.events import RunEvent
from cpl.gateway import ChatRequest, ChatResponse, Exchange
from cpl.orchestrator import RunConfig, _OpenRun
from cpl.prover import ProofAttempt, ProofOutcome
from cpl.verifier import CheckResult, Diagnostic, _Remembered

STATEMENT = TheoremStatement("t", "1 = 1", "theorem t : 1 = 1 := sorry")
PROOF = ProofScript("rfl")
ENTRY = LibraryEntry(STATEMENT, PROOF, 0, "cpl", "1970-01-01T00:00:00+00:00")
REQUEST = ChatRequest("prover", "system", "user", 0.5, 100)
RESPONSE = ChatResponse("by simp", "fake", 0.25, 2, True)
DIAGNOSTIC = Diagnostic("error", 1, 2, "unsolved goals")
FAILED_CHECK = CheckResult("failed", (DIAGNOSTIC,), None, 0.5, None)
ATTEMPT = ProofAttempt("by simp", FAILED_CHECK)
CONFIG_FIELDS = (
    "mode seed_path loops conjecture_iterations max_trials context_budget output_dir resume "
    "prompt_variant endpoint api_key_env models temperature max_output retry_cap "
    "rate_limit_rps replay_dir verifier_backend verifier_fixtures lean_command lean_cwd "
    "command_timeout novelty_timeout clock"
)
_CONFIG = RunConfig(mode="simple_loop", loops=3, lean_command=["lake", "env"], clock="fixed")

# (class, its field names in order, a value for each, frozen)
RECORDS = [
    (ParseWarning, "kind detail", ["skipped_declaration", "no name"], True),
    (TheoremStatement, "name body source_text", ["t", "1 = 1", "theorem t : 1 = 1 := sorry"], True),
    (ProofScript, "text", ["rfl"], True),
    (
        LibraryEntry,
        "statement proof sequence_index provenance created_at",
        [STATEMENT, PROOF, 0, "cpl", "1970-01-01T00:00:00+00:00"],
        True,
    ),
    (Library, "seed_source entries", ["import Mathlib\n", (ENTRY,)], True),
    (
        ChatRequest,
        "role_id system_prompt user_content temperature max_output",
        ["prover", "system", "user", 0.5, 100],
        True,
    ),
    (ChatResponse, "text provider latency attempt reused", ["by simp", "fake", 0.25, 2, True], True),
    (Exchange, "request response error attempts", [REQUEST, None, "timed out", 3], True),
    (Diagnostic, "severity line column message", ["error", 1, 2, "unsolved goals"], True),
    (
        CheckResult,
        "verdict diagnostics closing_term elapsed fault",
        ["known", (), "exact foo", 0.5, None],
        True,
    ),
    (ProofAttempt, "proof_text result", ["by simp", FAILED_CHECK], True),
    (
        ProofOutcome,
        "status attempts final_proof final_statement",
        ["verified", (ATTEMPT,), PROOF, STATEMENT],
        True,
    ),
    (NLGrade, "response_id category grader note", ["r1", "gap", "me", "step 2"], True),
    (RunEvent, "sequence timestamp kind payload", [0, "t", "phase_start", ("loop", 1)], True),
    (RunConfig, CONFIG_FIELDS, [getattr(_CONFIG, name) for name in CONFIG_FIELDS.split()], False),
    (
        _OpenRun,
        "config clock gateway session events library_path provenance",
        [_CONFIG, "clock", "gateway", "session", "events", Path("library.lean"), "cpl"],
        False,
    ),
    (
        ConjecturePhaseReport,
        "iterations_run raw_candidates rejected_parse rejected_duplicate rejected_invalid "
        "rejected_known accepted",
        [3, 5, 1, 1, 1, 1, ConjectureList()],
        False,
    ),
    (
        ReproveReport,
        "mode per_theorem success_count total success_rate breakdown transport_flagged",
        ["with_context", [(0, "verified")], 1, 1, Fraction(1), {"verified": 1}, [0]],
        False,
    ),
    (_Remembered, "tail prefixes checks newlines", ["theorem a", [(9, 1, True)], {}, {9: 0}], False),
]

# (class, the arguments it needs, the fields whose default is a fresh container)
MUTABLE_DEFAULTS = [
    (RunConfig, [], ["models", "lean_command"]),
    (ConjecturePhaseReport, [], ["accepted"]),
    (ReproveReport, ["without_context", [], 0, 0, Fraction(0)], ["breakdown", "transport_flagged"]),
    (_Remembered, [""], ["prefixes", "checks", "newlines"]),
]


@pytest.mark.parametrize(
    "cls, names, values, frozen", RECORDS, ids=[record[0].__name__ for record in RECORDS]
)
def test_a_record_keeps_the_record_contract(cls, names, values, frozen):
    names = names.split()
    assert cls._fields == tuple(names)
    positional = cls(*values)
    keyword = cls(**dict(zip(names, values)))
    assert positional.as_dict() == dict(zip(names, values))
    assert list(positional.as_dict()) == names
    assert [getattr(positional, name) for name in names] == values
    assert [getattr(keyword, name) for name in names] == values
    assert repr(positional).startswith(f"{cls.__name__}(")
    assert all(f"{name}=" in repr(positional) for name in names)

    other_class = type("Other", (cls,), {})(*values)
    assert positional != other_class and other_class != positional
    if cls is _Remembered:
        # A verifier session tells its remembered contexts apart by identity.
        assert positional != keyword and positional == positional
        assert hash(positional) != hash(keyword)
    else:
        assert positional == keyword
        assert replace(positional) == positional
        assert replace(positional) is not positional
    if frozen:
        assert hash(positional) == hash(keyword)
        for name in names:
            with pytest.raises(AttributeError):
                setattr(positional, name, values[0])
            with pytest.raises(AttributeError):
                delattr(positional, name)
        assert [getattr(positional, name) for name in names] == values
    elif cls is not _Remembered:
        with pytest.raises(TypeError):
            hash(positional)
        setattr(keyword, names[0], "changed")
        assert keyword != positional


@pytest.mark.parametrize(
    "cls, arguments, fields", MUTABLE_DEFAULTS, ids=[record[0].__name__ for record in MUTABLE_DEFAULTS]
)
def test_two_records_share_no_mutable_default(cls, arguments, fields):
    first, second = cls(*arguments), cls(*arguments)
    for name in fields:
        assert getattr(first, name) is not getattr(second, name)
    if cls is RunConfig:
        assert first.models == second.models and first.models


def test_a_records_fields_are_the_parameters_of_its_own_init():
    class Point(FrozenRecord):
        def __init__(self, x, y=0, *, label=""):
            scale = 2  # a local, not a field
            self.__dict__.update(x=x * scale // 2, y=y, label=label)

    class Tally(Record):
        def __init__(self, name, *counts, total=0, **notes):
            self.name, self.total = name, total + sum(counts)

    class LabelledPoint(Point):
        def label_first(self):
            return (self.label, self.x, self.y)

    assert Point._fields == LabelledPoint._fields == ("x", "y", "label")
    assert Tally._fields == ("name", "total")
    point = LabelledPoint(1, 2, label="a")
    assert point.as_dict() == {"x": 1, "y": 2, "label": "a"}
    assert list(point.as_dict()) == ["x", "y", "label"]
    assert point.as_dict() is not point.as_dict()
    assert point == LabelledPoint(1, 2, label="a") and point != Point(1, 2, label="a")
    assert hash(point) == hash(LabelledPoint(1, 2, label="a"))
    assert repr(point).endswith("LabelledPoint(x=1, y=2, label='a')")
    tally = Tally("t", 1, 2, total=3, source="test")
    assert list(tally.as_dict().items()) == [("name", "t"), ("total", 6)]
    assert replace(tally, total=0).as_dict() == {"name": "t", "total": 0}
    assert replace(point, y=5) == LabelledPoint(1, 5, label="a")


def test_replace_runs_the_checks_of_the_records_class():
    with pytest.raises(ValueError, match="max_trials"):
        replace(RunConfig(), max_trials=0)
    with pytest.raises(ValueError, match="unknown verdict"):
        replace(FAILED_CHECK, verdict="maybe")
    with pytest.raises(TypeError):
        replace(PROOF, txt="rfl")
    assert replace(FAILED_CHECK, elapsed=2.0) == CheckResult("failed", (DIAGNOSTIC,), None, 2.0)
    renamed = replace(ENTRY, sequence_index=1)
    with pytest.raises(ValueError, match="sequence_index"):
        Library("", (renamed,))
