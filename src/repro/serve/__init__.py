"""``repro serve``: the hot analysis daemon (see ``docs/serving.md``).

The engine is constructed once per tenant and kept resident — PDG,
sparse views, template caches and the persistent artifact store all
stay warm across requests, so re-analysing an
unchanged program dispatches zero SMT queries and an edited program
re-decides only the verdicts the edit invalidated.
"""

from repro.serve.admission import AdmissionQueue
from repro.serve.app import ServeApp, ServeConfig, run_http, run_stdio
from repro.serve.journal import (JOURNAL_SCHEMA, JournalState,
                                 SessionJournal)
from repro.serve.protocol import (COMPILE_ERROR, INTERNAL_ERROR,
                                  INVALID_PARAMS, INVALID_REQUEST,
                                  METHOD_NOT_FOUND, OVERLOADED,
                                  PARSE_ERROR, SHUTTING_DOWN,
                                  UNKNOWN_TENANT, ServeError,
                                  parse_request, result_envelope)
from repro.serve.tenancy import (TenantRegistry, TenantSession,
                                 splice_function)

__all__ = [
    "AdmissionQueue",
    "ServeApp", "ServeConfig", "run_http", "run_stdio",
    "ServeError", "parse_request", "result_envelope",
    "PARSE_ERROR", "INVALID_REQUEST", "METHOD_NOT_FOUND",
    "INVALID_PARAMS", "INTERNAL_ERROR", "UNKNOWN_TENANT",
    "COMPILE_ERROR", "OVERLOADED", "SHUTTING_DOWN",
    "TenantRegistry", "TenantSession", "splice_function",
    "SessionJournal", "JournalState", "JOURNAL_SCHEMA",
]
