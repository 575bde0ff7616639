"""A stand-in for the Lean REPL's JSON protocol over stdio, for tests.

Each request is one JSON line followed by a blank line. The reply is the
request's `env` plus one (0 without one), no messages and an `extra`
field, pretty-printed and followed by a blank line. Words in a `cmd` ask
for something else:

* `SLEEP`: hang for 30 s before replying;
* `BAD`: the reply carries an error message;
* `CRLF`: blank lines before the reply, and `\\r\\n` line ends;
* `HALF`: write half a reply, then exit;
* `MALFORMED`: a reply that is not JSON;
* `LATIN1`: a reply that is not UTF-8.

Options:

* `--pid-file PATH`: write the REPL's pid to PATH before reading;
* `--bytewise`: write each reply one byte at a time;
* `--launcher`: run the REPL as a child and wait for it, as `lake env
  repl` does.

Run it as `python fake_repl.py [--launcher] [--bytewise] [--pid-file PATH]`.
"""

import json
import os
import subprocess
import sys
import time


def reply(request: dict) -> bytes:
    cmd = request.get("cmd", "")
    if "SLEEP" in cmd:
        time.sleep(30)
    if "MALFORMED" in cmd:
        return b"{not json\n\n"
    if "LATIN1" in cmd:
        text = json.dumps({"env": 0, "data": "\xe9"}, ensure_ascii=False)
        return text.encode("latin-1") + b"\n\n"
    response = {"env": request.get("env", -1) + 1, "messages": [], "extra": 1}
    if "BAD" in cmd:
        response["messages"] = [
            {
                "severity": "error",
                "pos": {"line": 1, "column": 0},
                "data": "boom",
                "endPos": None,
            }
        ]
    text = json.dumps(response, indent=2) + "\n\n"
    if "CRLF" in cmd:
        text = "\n \n" + text.replace("\n", "\r\n")
    if "HALF" in cmd:
        text = text[: len(text) // 2]
    return text.encode("utf-8")


def serve(bytewise: bool) -> None:
    out = sys.stdout.buffer
    for line in sys.stdin.buffer:
        if not line.strip():
            continue
        request = json.loads(line)
        data = reply(request)
        step = 1 if bytewise else len(data)
        for at in range(0, len(data), step):
            out.write(data[at : at + step])
            out.flush()
            if bytewise:
                time.sleep(0.001)
        if "HALF" in request.get("cmd", ""):
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
