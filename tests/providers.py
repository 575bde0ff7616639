"""Providers the tests build gateways on."""

from __future__ import annotations


class CallableProvider:
    """Adapter turning a function of the request into a provider."""

    name = "callable"

    def __init__(self, fn):
        self._fn = fn

    def complete(self, request):
        return self._fn(request)
