"""A fake Lean REPL for tests: the JSON protocol of
github.com/leanprover-community/repl, answered with Lean's environment
rules.

`Repl.run(payload, timeout)` answers in process, so
`LeanVerifier(client=Repl())` runs over it; as a script, the fake serves
one `Repl` over stdio.

A command on environment `e` continues `e`'s text, and the reply names a
new environment holding that text, a blank line and the command. A
command without `env` makes a base environment that holds none of its
text (a session sends its seed once). In each block of a command (a
block starts at a blank line before `theorem`):

* a theorem name declared before is an error, `'<name>' has already been
  declared`;
* `BAD` is an error, `unknown identifier 'BAD'`;
* a `:= sorry` stub warns, `declaration uses 'sorry'`, and adds a
  `sorries` entry;
* `by exact?` fails unless `answers` says otherwise;
* `answers[block]` adds (severity, line in the block, text) messages.

An id the REPL does not hold gets `{"message": "Unknown environment."}`.
Empty `messages` and `sorries` are left out. Nothing is elaborated: no
type is checked and no `exact?` term is found.

Over stdio a request is one JSON line and a blank line, and a reply is
pretty-printed JSON and a blank line. Words in a `cmd` change how its
reply travels: `SLEEP` hangs 30 s first; `CRLF` puts blank lines before
it and `\\r\\n` line ends in it; `HALF` writes half of it and exits;
`MALFORMED` is not JSON; `LATIN1` is not UTF-8.

Run it as `python fake_repl.py [--launcher] [--bytewise] [--pid-file
PATH]`. `--pid-file` writes the REPL's pid to PATH before reading,
`--bytewise` writes each reply one byte at a time, and `--launcher` runs
the REPL as a child and waits for it, as `lake env repl` does.
"""
import json
import os
import re
import subprocess
import sys
import time

_BLOCK_SPLIT = re.compile(r"\n\n(?=theorem\s)")
_NAME = re.compile(r"theorem\s+(\S+)")


def names(text: str) -> list[str]:
    """The theorem names `text` declares, in order."""
    return _NAME.findall(text)


def _message(severity: str, line: int, data: str) -> dict:
    return {"severity": severity, "pos": {"line": line, "column": 2}, "data": data}


class Repl:
    """One REPL's environments: `held` maps each id to its text.

    `sent` lists (env, cmd, reply env or None) for each command sent on
    an environment; `raise_next` makes the next such command raise
    instead of replying."""

    def __init__(self, answers: dict | None = None):
        self.answers = answers or {}
        self.held: dict[int, str] = {}
        self.made = 0
        self.sent: list[tuple[int, str, int | None]] = []
        self.raise_next: Exception | None = None

    def restart(self) -> None:
        """Lose every environment but the first, as a REPL restarted on
        the seed would."""
        self.held = {env: text for env, text in self.held.items() if env == 0}

    def run(self, payload: dict, timeout: float | None = None) -> dict:
        cmd, env = payload["cmd"], payload.get("env")
        if env is not None:
            if self.raise_next is not None:
                exc, self.raise_next = self.raise_next, None
                self.sent.append((env, cmd, None))
                raise exc
            if env not in self.held:
                self.sent.append((env, cmd, None))
                return {"message": "Unknown environment."}
        base = self.held.get(env, "")
        declared = set(names(base))
        messages, sorries = [], []
        line = 1
        for block in _BLOCK_SPLIT.split(cmd):
            name = _NAME.match(block)
            if name and name[1] in declared:
                messages.append(_message("error", line, f"'{name[1]}' has already been declared"))
            if name:
                declared.add(name[1])
            if "BAD" in block:
                messages.append(_message("error", line, "unknown identifier 'BAD'"))
            if block.endswith(":= sorry"):
                messages.append(_message("warning", line, "declaration uses 'sorry'"))
                sorries.append({"pos": {"line": line, "column": 0}, "goal": "⊢ True"})
            extra = self.answers.get(block)
            if extra is None and block.endswith("by exact?"):
                extra = [("error", 1, "`exact?` could not close the goal")]
            for severity, at, data in extra or []:
                messages.append(_message(severity, line + at - 1, data))
            line += block.count("\n") + 2
        reply, self.made = self.made, self.made + 1
        if env is None:
            self.held[reply] = ""
        else:
            self.held[reply] = base + "\n\n" + cmd if base else cmd
            self.sent.append((env, cmd, reply))
        response: dict = {"env": reply}
        if messages:
            response["messages"] = messages
        if sorries:
            response["sorries"] = sorries
        return response

    def close(self) -> None:
        pass


def encode(response: dict, cmd: str) -> bytes:
    """The bytes the REPL writes for `response`, as `cmd`'s words ask."""
    if "SLEEP" in cmd:
        time.sleep(30)
    if "MALFORMED" in cmd:
        return b"{not json\n\n"
    if "LATIN1" in cmd:
        text = json.dumps({"env": 0, "data": "\xe9"}, ensure_ascii=False)
        return text.encode("latin-1") + b"\n\n"
    text = json.dumps(response, indent=2) + "\n\n"
    if "CRLF" in cmd:
        text = "\n \n" + text.replace("\n", "\r\n")
    if "HALF" in cmd:
        text = text[: len(text) // 2]
    return text.encode("utf-8")


def serve(bytewise: bool) -> None:
    repl, out = Repl(), sys.stdout.buffer
    for line in sys.stdin.buffer:
        if not line.strip():
            continue
        request = json.loads(line)
        data = encode(repl.run(request), request["cmd"])
        step = 1 if bytewise else len(data)
        for at in range(0, len(data), step):
            out.write(data[at : at + step])
            out.flush()
            if bytewise:
                time.sleep(0.001)
        if "HALF" in request["cmd"]:
            return


def main(args: list[str]) -> int:
    if "--launcher" in args:
        rest = [arg for arg in args if arg != "--launcher"]
        return subprocess.call([sys.executable, __file__, *rest])
    if "--pid-file" in args:
        with open(args[args.index("--pid-file") + 1], "w") as handle:
            handle.write(str(os.getpid()))
    serve("--bytewise" in args)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
