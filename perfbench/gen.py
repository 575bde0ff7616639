"""Seeded generator for the benchmark's workloads.

`generate(workload, seed, seed_source)` returns a plan and a set of input
files. The plan holds everything the fakes answer from (per-role
response queues, transport-failure schedule, verdict table) and every
output the run must produce (library bytes, gateway call counts, the
conjecture and proof verdicts of each loop and campaign). The library
bytes are rendered here from the expected entries, never by cpl.

The seed picks statement and proof texts and the order of outcomes;
the number of outcomes of each kind is fixed by the workload's shape,
so runs with different seeds do the same amount of work.
"""

from __future__ import annotations

import json
import random

FIXED_INSTANT = "1970-01-01T00:00:00+00:00"
CONTEXT_BUDGET = 400_000

PREDICATES = ("SemiOpen", "AlphaOpen", "PreOpen", "IsOpen", "IsClosed", "Dense")
TACTICS = (
    "intro x hx",
    "exact subset_closure (hA hx)",
    "simpa using hB hx",
    "exact interior_mono subset_closure (hA hx)",
    "rcases hx with ⟨hxA, hxB⟩",
    "simp only [Set.subset_def] at *",
    "exact ⟨hA hx.1, hB hx.2⟩",
    "apply closure_mono interior_subset",
    "refine ⟨?_, ?_⟩ <;> simp_all",
    "exact (interior_maximal subset_closure isOpen_interior) hx",
    "aesop",
    "exact closure_mono (interior_mono Set.inter_subset_left) hx",
)
CONJECTURE_LEADS = ("", "Here are some new conjectures.\n\n", "```lean\n")
EMPTY_CONJECTURER = "I have no further conjectures for this library."
UNPARSEABLE_SIMPLE = "Next I would study closures of interiors of alpha-open sets."

# One loop of each cpl workload: conjecture candidates by verdict, and
# the campaign outcomes of the accepted ones, as (status, trials).
SHAPES = {
    "cpl-latency": {
        "iterations": 16,
        "items": {"novel": 5, "known": 3, "invalid": 3, "duplicate": 2, "parse": 2},
        "campaigns": [
            ("verified", 1), ("verified", 3), ("verified", 6),
            ("surrender", 2), ("failed", 16),
        ],
    },
    "cpl-host": {
        "iterations": 4,
        "items": {"novel": 3, "known": 1, "invalid": 1, "duplicate": 1, "parse": 1},
        "campaigns": [("verified", 2), ("failed", 16), ("surrender", 1)],
    },
}
# Reprove campaign outcomes, repeated in shuffled blocks of eight.
EVAL_PATTERNS = {
    "with_context": [
        ("verified", 1), ("verified", 1), ("verified", 2), ("verified", 4),
        ("verified", 7), ("surrender", 3), ("failed", 16), ("verified", 2),
    ],
    "definitions_only": [
        ("verified", 2), ("verified", 5), ("failed", 16), ("surrender", 2),
        ("verified", 1), ("failed", 16), ("verified", 9), ("surrender", 4),
    ],
    "focused": [
        ("verified", 3), ("failed", 16), ("surrender", 1), ("surrender", 2),
        ("verified", 6), ("failed", 16), ("surrender", 1), ("verified", 1),
    ],
}
# Simple-loop iterations of the eight-iteration run, around the killed one.
SIMPLE_BEFORE_KILL = [("verified", 1), ("verified", 2), ("verified", 2), ("failed", 16)]
SIMPLE_KILLED = ("verified", 3)
SIMPLE_AFTER_KILL = [("verified", 1), ("verified", 2), ("verified", 2)]

# Workload sizes; `tiny` is for the benchmark's own tests.
SIZES = {
    "cpl-latency": {
        "full": {"loops": 8, "kill_loop": 5},
        "tiny": {"loops": 2, "kill_loop": 2},
    },
    "cpl-host": {
        "full": {"history": 1650, "loops": 2, "budget": CONTEXT_BUDGET},
        "tiny": {"history": 12, "loops": 1, "budget": 3_000},
    },
    "eval-latency": {
        "full": {"entries": 32, "focused": 16, "simple_loops": 8},
        "tiny": {"entries": 8, "focused": 8, "simple_loops": 2},
    },
}
WORKLOADS = tuple(SIZES)
MAX_TRIALS = 16
STATUS = {"verified": "verified", "failed": "failed_exhausted", "surrender": "declared_unprovable"}


def _wrap(expr: str) -> str:
    return expr if " " not in expr else f"({expr})"


class _Texts:
    """Unique statement bodies, names and proof texts from one RNG."""

    def __init__(self, rng: random.Random, tag: str):
        self.rng = rng
        self.tag = tag
        self.bodies: set[str] = set()
        self.count = 0

    def _set_expr(self, depth: int) -> str:
        rng = self.rng
        if depth == 0:
            return rng.choice("AB")
        inner = self._set_expr(depth - 1)
        kind = rng.randrange(6)
        if kind == 0:
            return f"interior {_wrap(inner)}"
        if kind == 1:
            return f"closure {_wrap(inner)}"
        if kind == 2:
            return f"{_wrap(inner)}ᶜ"
        other = self._set_expr(rng.randrange(depth))
        op = ("∩", "∪", "\\")[kind - 3]
        return f"{_wrap(inner)} {op} {_wrap(other)}"

    def statement(self, prefix: str) -> tuple[str, str]:
        while True:
            rng = self.rng
            body = (
                f"{{A B : Set X}} (hA : {rng.choice(PREDICATES)} A) "
                f"(hB : {rng.choice(PREDICATES)} B) : "
                f"{self._set_expr(2)} ⊆ {self._set_expr(2)}"
            )
            if body not in self.bodies:
                self.bodies.add(body)
                break
        self.count += 1
        return f"{prefix}_{self.tag}_{self.count}", body

    def proof(self, tactics: int) -> str:
        self.count += 1
        steps = ["intro x hx", f"have h{self.count} := hA hx"]
        steps += self.rng.sample(TACTICS[1:], tactics)
        return "by\n" + "\n".join("  " + step for step in steps)


def decl(name: str, body: str, proof: str) -> str:
    return f"theorem {name} {body} := {proof}"


def render_library(seed_source: str, entries: list[dict]) -> str:
    """The bytes `library.lean` must hold, rendered from expected entries."""
    blocks = [seed_source.rstrip("\n")]
    for index, entry in enumerate(entries):
        marker = f"-- [cpl:entry {index} {entry['provenance']} {FIXED_INSTANT}]"
        blocks.append(marker + "\n" + decl(entry["name"], entry["body"], entry["proof"]))
    return "\n\n".join(blocks) + "\n"


class _Plan:
    def __init__(self, workload: str, seed: int, seed_source: str, size: str):
        self.rng = random.Random(f"{workload}:{seed}")
        self.texts = _Texts(self.rng, f"s{seed}")
        self.data: dict = {
            "workload": workload,
            "seed": seed,
            "size": size,
            "seed_source": seed_source,
            "responses": {"conjecturer": [], "prover": [], "simple_loop": []},
            "failures": [],
            "start_calls": {},
            "table": {"validity": {}, "novelty": {}, "proofs": []},
            "expect": {},
        }
        self.responses = self.data["responses"]
        self.table = self.data["table"]

    def campaign(self, name: str, status: str, trials: int, final_proof=None) -> list[list]:
        """Queue one prover campaign; returns its expected attempts."""
        attempts = []
        for trial in range(1, trials + 1):
            last = trial == trials
            if last and status == "surrender":
                self.responses["prover"].append(self.rng.choice(("", "\n")))
                attempts.append([trial, None, True])
                continue
            verified = last and status == "verified"
            proof = final_proof if verified and final_proof else self.texts.proof(2)
            self.table["proofs"].append([name, proof, verified])
            fenced = self.rng.random() < 0.3
            self.responses["prover"].append(f"```lean\n{proof}\n```" if fenced else proof)
            attempts.append([trial, "verified" if verified else "failed", False])
        return attempts

    def conjecture_loop(self, shape: dict, prefix: str) -> dict:
        """One conjecture phase plus its prover campaigns."""
        rng = self.rng
        kinds = [k for k, n in shape["items"].items() if k != "duplicate" for _ in range(n)]
        rng.shuffle(kinds)
        first_novel = kinds.index("novel")
        for _ in range(shape["items"]["duplicate"]):
            kinds.insert(rng.randint(first_novel + 1, len(kinds)), "duplicate")
        slots = sorted(rng.randrange(shape["iterations"]) for _ in kinds)
        outcomes = list(shape["campaigns"])
        rng.shuffle(outcomes)

        per_iteration: list[list[tuple[str, str, str]]] = [[] for _ in range(shape["iterations"])]
        novel_bodies: list[str] = []
        for kind, slot in zip(kinds, slots):
            name, body = self.texts.statement(prefix)
            if kind == "duplicate":
                body = rng.choice(novel_bodies).replace(" : ", "  :\n    ", 1)
            elif kind == "novel":
                novel_bodies.append(body)
            per_iteration[slot].append((kind, name, body))

        expected: list[list] = []
        accepted: list[tuple[str, str]] = []
        for items in per_iteration:
            decls = []
            for kind, name, body in items:
                if kind == "parse":
                    decls.append(decl(name, body, "by\n  simp"))
                else:
                    decls.append(decl(name, body, "sorry"))
                if kind in ("novel", "known"):
                    self.table["validity"][name] = True
                    term = None if kind == "novel" else "fun x hx => (hA hx).1"
                    self.table["novelty"][name] = term
                elif kind == "invalid":
                    self.table["validity"][name] = False
            if not decls:
                self.responses["conjecturer"].append(EMPTY_CONJECTURER)
            else:
                lead = rng.choice(CONJECTURE_LEADS)
                text = lead + "\n\n".join(decls) + ("\n```" if lead.startswith("```") else "")
                self.responses["conjecturer"].append(text)
            expected += [["conjecture_rejected", "parse", None] for k, _, _ in items if k == "parse"]
            for kind, name, body in items:
                if kind == "novel":
                    expected.append(["conjecture_accepted", None, name])
                    accepted.append((name, body))
                elif kind != "parse":
                    expected.append(["conjecture_rejected", kind, name])

        attempts, added = [], []
        for (name, body), (status, trials) in zip(accepted, outcomes):
            for trial, verdict, empty in self.campaign(name, status, trials):
                attempts.append([name, trial, verdict, empty])
            if status == "verified":
                proof = next(p for n, p, ok in reversed(self.table["proofs"]) if n == name and ok)
                added.append({"name": name, "body": body, "proof": proof, "provenance": "cpl"})
        return {"conjecture": expected, "attempts": attempts, "added": added}

    def schedule_failures(self, share: float) -> None:
        """Fail the first attempt of a fixed share of conjecturer and
        prover calls. Simple-loop calls never fail, so the few samples
        that set the simple loop's median stay put."""
        calls = [(role, i) for role in ("conjecturer", "prover")
                 for i in range(len(self.responses[role]))]
        start = self.data["start_calls"]
        calls = [(role, i + start.get(role, 0)) for role, i in calls]
        count = round(share * len(calls))
        self.data["failures"] = sorted(self.rng.sample(calls, count))


def _cpl_latency(plan: _Plan, sizes: dict, share: float) -> None:
    shape = SHAPES["cpl-latency"]
    loops, entries = {}, []
    for loop in range(1, sizes["loops"] + 1):
        loops[str(loop)] = plan.conjecture_loop(shape, "cj")
        entries += loops[str(loop)]["added"]
    plan.schedule_failures(share)
    seed = plan.data["seed_source"]
    plan.data["config"] = {
        "mode": "cpl",
        "loops": sizes["loops"],
        "conjecture_iterations": shape["iterations"],
        "max_trials": MAX_TRIALS,
        "context_budget": CONTEXT_BUDGET,
    }
    # Killed after the loop's last proof attempt, before it commits, so
    # the resumed run redoes one whole loop whatever the seed.
    kill_loop = sizes["kill_loop"]
    plan.data["kill"] = {"loop": kill_loop, "kind": "proof_attempt",
                         "count": len(loops[str(kill_loop)]["attempts"])}
    plan.data["expect"] = {
        "library": render_library(seed, entries),
        "loops": loops,
        "theorems": len(entries),
        "gateway_calls": {
            "conjecturer": len(plan.responses["conjecturer"]),
            "prover": len(plan.responses["prover"]),
        },
    }


def _event(sequence: int, kind: str, **payload) -> str:
    data = {"sequence": sequence, "timestamp": FIXED_INSTANT, "kind": kind, "payload": payload}
    return json.dumps(data, ensure_ascii=False)


def _cpl_host(plan: _Plan, sizes: dict) -> dict[str, str]:
    """A run directory as a kill in the middle of loop K+1 leaves it: K
    committed loops, then two appends of loop K+1 and no loop_complete."""
    texts = plan.texts
    seed = plan.data["seed_source"]
    history, events = [], []
    calls = {"conjecturer": 0, "prover": 0, "simple_loop": 0, "nl_prover": 0}

    def emit(kind: str, **payload) -> None:
        events.append(_event(len(events), kind, **payload))

    def past_loop(loop: int, killed_after: int = 0) -> None:
        """Four accepted conjectures; the first three verify."""
        emit("phase_start", loop=loop, phase="conjecture", library_size=len(history),
             gateway_calls=dict(calls))
        accepted = [texts.statement("hist") for _ in range(4)]
        for iteration, (name, body) in enumerate(accepted, 1):
            emit("conjecture_accepted", iteration=iteration, name=name,
                 statement=f"theorem {name} {body} := sorry", loop=loop)
        calls["conjecturer"] += 4
        report = {"iterations_run": 4, "raw_candidates": 4, "rejected_parse": 0,
                  "rejected_duplicate": 0, "rejected_invalid": 0, "rejected_known": 0,
                  "accepted": [name for name, _ in accepted]}
        emit("phase_start", loop=loop, phase="prove", report=report)
        appended = 0
        for position, (name, body) in enumerate(accepted):
            trials = 1 + position % 2
            for trial in range(1, trials + 1):
                proof = texts.proof(5)
                verified = trial == trials and position < 3
                emit("proof_attempt", loop=loop, conjecture=name, trial=trial, proof=proof,
                     verdict="verified" if verified else "failed",
                     diagnostics=[] if verified else ["2:2 error unsolved goals"],
                     empty_response=False)
                calls["prover"] += 1
            if verified:
                history.append({"name": name, "body": body, "proof": proof, "provenance": "cpl"})
                emit("theorem_added", loop=loop, sequence_index=len(history) - 1,
                     name=name, body=body, statement=f"theorem {name} {body} := sorry",
                     proof=proof, provenance="cpl", created_at=FIXED_INSTANT)
                appended += 1
                if appended == killed_after:
                    return
        emit("loop_complete", loop=loop, library_size=len(history), gateway_calls=dict(calls))

    committed_loops = sizes["history"] // 3
    for loop in range(1, committed_loops):
        past_loop(loop)
    before = dict(calls)
    past_loop(committed_loops)
    committed = dict(calls)
    past_loop(committed_loops + 1, killed_after=2)
    # The killed process started at loop K, so its transcript sequence
    # numbers start at 0; a resume starts them at 0 again.
    roles = [role for role in ("conjecturer", "prover") for _ in range(calls[role] - before[role])]
    transcript = [
        json.dumps({
            "sequence": sequence, "timestamp": None, "role_id": role,
            "request": {"system_prompt": "", "user_content": f"<context {sequence}>",
                        "temperature": 1.0, "max_output": 16384},
            "response": {"text": "", "provider": "fake", "latency": 0.0, "attempt": 1},
            "error": None,
        })
        for sequence, role in enumerate(roles)
    ]

    shape = SHAPES["cpl-host"]
    plan.data["start_calls"] = {role: n for role, n in committed.items() if n}
    loops, entries = {}, list(history[: sizes["history"]])
    for loop in range(committed_loops + 1, committed_loops + sizes["loops"] + 1):
        loops[str(loop)] = plan.conjecture_loop(shape, "cj")
        entries += loops[str(loop)]["added"]
    plan.data["config"] = {
        "mode": "cpl",
        "loops": committed_loops + sizes["loops"],
        "conjecture_iterations": shape["iterations"],
        "max_trials": MAX_TRIALS,
        "context_budget": sizes["budget"],
        "resume": True,
    }
    plan.data["expect"] = {
        "library": render_library(seed, entries),
        "loops": loops,
        "theorems": len(entries) - sizes["history"],
        "gateway_calls": {
            "conjecturer": committed["conjecturer"] + len(plan.responses["conjecturer"]),
            "prover": committed["prover"] + len(plan.responses["prover"]),
        },
    }
    return {
        "run/library.lean": render_library(seed, history),
        "run/events.jsonl": "\n".join(events) + "\n",
        "run/transcript.jsonl": "\n".join(transcript) + "\n",
    }


def _eval_latency(plan: _Plan, sizes: dict, share: float) -> dict[str, str]:
    rng, texts = plan.rng, plan.texts
    seed = plan.data["seed_source"]
    library = []
    for _ in range(sizes["entries"]):
        name, body = texts.statement("lib")
        library.append({"name": name, "body": body, "proof": texts.proof(3),
                        "provenance": "cpl"})

    def outcomes(pattern: str, count: int) -> list[tuple[str, int]]:
        found: list[tuple[str, int]] = []
        while len(found) < count:
            block = list(EVAL_PATTERNS[pattern])
            rng.shuffle(block)
            found += block
        return found[:count]

    expect: dict = {"campaigns": {}, "attempts": []}
    theorems = 0
    for mode in ("with_context", "definitions_only"):
        statuses = []
        for entry, (status, trials) in zip(library, outcomes(mode, len(library))):
            attempts = plan.campaign(entry["name"], status, trials, final_proof=entry["proof"])
            expect["attempts"] += attempts
            statuses.append(STATUS[status])
            theorems += status == "verified"
        expect["campaigns"][mode] = statuses
    focus_name, focus_body = texts.statement("focused")
    focus_proof = texts.proof(3)
    statuses = []
    for status, trials in outcomes("focused", sizes["focused"]):
        expect["attempts"] += plan.campaign(focus_name, status, trials, final_proof=focus_proof)
        statuses.append(STATUS[status])
        theorems += status == "verified"
    expect["campaigns"]["focused"] = statuses

    # The run is killed at the append of its middle iteration, which
    # always takes three trials; the seed shuffles the iterations before
    # and after it separately, so every seed resumes the same log.
    kill_loop = sizes["simple_loops"] // 2 + 1
    before, after = list(SIMPLE_BEFORE_KILL), list(SIMPLE_AFTER_KILL)
    rng.shuffle(before)
    rng.shuffle(after)
    simple_outcomes = (before[: kill_loop - 1] + [SIMPLE_KILLED]
                       + after[: sizes["simple_loops"] - kill_loop])
    simple_entries, simple_loops = [], {}
    for iteration, (status, trials) in enumerate(simple_outcomes, 1):
        attempts = []
        for trial in range(1, trials + 1):
            verified = status == "verified" and trial == trials
            if not verified and trial % 3 == 1:
                plan.responses["simple_loop"].append(UNPARSEABLE_SIMPLE)
                attempts.append([None, trial, "failed", False])
                continue
            name, body = texts.statement("sl")
            proof = texts.proof(2)
            plan.table["proofs"].append([name, proof, verified])
            text = decl(name, body, proof)
            plan.responses["simple_loop"].append(
                f"```lean\n{text}\n```" if rng.random() < 0.3 else text)
            attempts.append([name, trial, "verified" if verified else "failed", False])
            if verified:
                simple_entries.append({"name": name, "body": body, "proof": proof,
                                       "provenance": "simple_loop"})
        simple_loops[str(iteration)] = {"attempts": attempts}
    theorems += len(simple_entries)
    plan.schedule_failures(share)

    plan.data["kill"] = {"loop": kill_loop, "kind": "theorem_added", "count": 1}
    plan.data["config"] = {
        "mode": "simple_loop",
        "loops": sizes["simple_loops"],
        "max_trials": MAX_TRIALS,
        "context_budget": CONTEXT_BUDGET,
    }
    plan.data["focused_prefix"] = sizes["entries"] // 2
    plan.data["focused_statement"] = f"theorem {focus_name} {focus_body} := sorry"
    expect.update(
        library=render_library(seed, simple_entries),
        simple_loops=simple_loops,
        theorems=theorems,
        gateway_calls={"prover": len(plan.responses["prover"]),
                       "simple_loop": len(plan.responses["simple_loop"])},
    )
    plan.data["expect"] = expect
    return {"library.lean": render_library(seed, library)}


def generate(workload: str, seed: int, seed_source: str, size: str = "full",
             failure_share: float = 0.0) -> tuple[dict, dict[str, str]]:
    """Return (plan, files) for one workload and seed.

    `files` maps paths relative to the input directory to their text.
    """
    if workload not in SIZES:
        raise ValueError(f"unknown workload {workload!r}")
    plan = _Plan(workload, seed, seed_source, size)
    sizes = SIZES[workload][size]
    files: dict[str, str] = {"seed.lean": seed_source}
    if workload == "cpl-latency":
        _cpl_latency(plan, sizes, failure_share)
    elif workload == "cpl-host":
        files.update(_cpl_host(plan, sizes))
    else:
        files.update(_eval_latency(plan, sizes, failure_share))
    return plan.data, files
