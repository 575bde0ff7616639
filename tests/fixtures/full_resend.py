"""The full-resend reference for environment reuse: a `LeanVerifier`
whose every check sends its whole tail on the base environment, so no
environment is remembered. Tests compare the real session with it, each
over its own fake REPL."""
import time

from cpl.verifier import LeanVerifier, _parse_messages, _rebase


class FullResend(LeanVerifier):
    """The reference: every check sends its whole tail on the base
    environment, and no environment is remembered."""

    def _submit(self, context, decl_text, timeout, proof=False):
        if context.startswith(self.seed_source):
            tail = context[len(self.seed_source) :].strip("\n")
        else:
            tail = context.strip("\n")
        if tail:
            snippet, offset = tail + "\n\n" + decl_text, tail.count("\n") + 2
        else:
            snippet, offset = decl_text, 0
        started = time.monotonic()
        response = self._client.run(
            {"cmd": snippet, "env": self.base_environment}, timeout=timeout
        )
        diags = _rebase(_parse_messages(response), offset)
        sorries = len(response.get("sorries") or [])
        return diags, sorries, time.monotonic() - started, None
