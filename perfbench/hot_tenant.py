"""``hot-tenant``: a ``repro serve --port`` daemon holding two tenants,
each driven by one closed-loop client thread (2 clients = nproc).

Each client repeats an IDE-style round: one *edit* — a single-function
``update`` splice that toggles a seeded function between two variants,
then ``analyze`` with ``delta: true`` — followed by a run of ``query``
RPCs over the tenant's sink lines; the two clients edit together and
then query together.  A *pass* is a fixed script of
:data:`ROUNDS` rounds per client, so one pass yields enough samples for
query p99 and edit p75 (ten beyond each).

Oracles, all computed before the timed region:

* the base program's findings equal the generator's injected-bug labels;
* every program version's findings (base and edited) come from a
  one-shot ``repro analyze --json`` process on the same text; the
  daemon's full analyses must be byte-identical to them, and its delta
  analyses must be entries of them;
* each query verdict equals that version's findings in the sink's
  function.

Not registered in ``BENCHMARK.json``: at this commit the analyzer fails
the query oracle after an edit (README.md, "Known defect"), so a run
prints ``"correct": false`` and exits 1.
"""

from __future__ import annotations

import http.client
import itertools
import json
import random
import re
import shutil
import socket
import subprocess
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import harness
import layers
import oracles
from harness import OUT, ROOT, BenchmarkError, Tally, say

TENANTS = ("alpha", "beta")
#: Generator seeds of the two tenants.  Fixed for every ``--seed`` (the
#: seed picks the edited function and the query script): generated
#: subjects of one size differ twofold in analysis cost (a full
#: null-deref analyze of these two takes 0.25 s and 0.52 s), which would
#: swamp a change.
TENANT_SEEDS = (11, 12)
CHECKERS = ("null-deref", "cwe-23", "cwe-402")
#: Rounds per client per pass: 2 x 20 = 40 edits and 1000 queries.  An
#: edit recompiles the whole ~2.1k-line tenant (~0.45 s of daemon time),
#: so the 100 edits an edit p90 needs would make a pass over a minute.
ROUNDS = 20
QUERIES_PER_ROUND = 25
#: Distinct sinks one round queries (the rest of its queries repeat
#: them, as an editor re-asks about the lines in view).
FOCUS_SINKS = 4
#: Daemon bring-ups per run; ``setup_s`` is their median.
BRINGUPS = 3
RPC_TIMEOUT = 60.0
READY_TIMEOUT = 60.0
ORACLE_TIMEOUT = 150.0
#: The line an edit inserts into the seeded function (a new local the
#: return value does not read, so the injected-bug labels still hold).
EDIT_LINE = "  edit_mark = a + 1;"
_FILLER = re.compile(r"^fun (fn_l\d+_\d+)\(", re.MULTILINE)


def tenant_spec(name: str, seed: int):
    """A ~2.1k-line subject with null-deref and both taint bug kinds."""
    from repro.bench.generator import SubjectSpec

    return SubjectSpec(f"tenant-{name}", seed=seed, num_functions=80,
                       layers=4, avg_stmts=8, call_fanout=2,
                       null_bugs=(3, 3, 3), taint23_bugs=(2, 1, 1),
                       taint402_bugs=(2, 1, 1))


@dataclass
class Tenant:
    name: str
    #: The two program versions: 0 = generated, 1 = edited.
    sources: tuple[str, str]
    #: The edited function's text in each version.
    texts: tuple[str, str]
    function: str
    truth: dict[str, set[str]]
    #: version -> checker -> [(line, function)], by text scan.
    sinks: tuple[dict, dict]
    #: version -> checker -> one-shot findings.
    oracle: tuple[dict, dict] = field(default_factory=lambda: ({}, {}))


def make_tenant(name: str, tenant_seed: int, seed: int) -> Tenant:
    from repro.bench.generator import generate_subject

    subject = generate_subject(tenant_spec(name, tenant_seed))
    base = subject.source
    function = random.Random(f"{seed}:{name}:edit").choice(
        _FILLER.findall(base))
    text = oracles.function_text(base, function)
    header, _, body = text.partition("\n")
    edited_text = f"{header}\n{EDIT_LINE}\n{body}"
    edited = base.replace(text, edited_text)
    truth = {c: {b.source_function for b in subject.truth_for(c)
                 if b.path_feasible} for c in CHECKERS}
    return Tenant(name, (base, edited), (text, edited_text), function,
                  truth, (oracles.scan_sinks(base), oracles.scan_sinks(edited)))


def check_sites(tenant: Tenant) -> None:
    """Every scanned sink line of the generated source resolves to a
    sink site (once, here)."""
    from repro.engine import CHECKER_FACTORIES
    from repro.fusion import prepare_pdg
    from repro.lang import compile_source
    from repro.lang.lexer import tokenize
    from repro.query.sites import resolve_sink_sites

    source = tenant.sources[0]
    pdg = prepare_pdg(compile_source(source))
    tokens = tokenize(source)
    for checker, sinks in tenant.sinks[0].items():
        if not sinks:
            raise BenchmarkError(f"{tenant.name}: no {checker} sinks")
        for line, _ in sinks:
            if not resolve_sink_sites(pdg, source,
                                      CHECKER_FACTORIES[checker](), line,
                                      tokens=tokens):
                raise BenchmarkError(f"{tenant.name}: line {line} is no "
                                     f"{checker} sink")


def compute_oracles(tenants: list[Tenant], tally: Tally) -> None:
    """One-shot ``repro analyze --json`` per (tenant, version, checker),
    two processes at a time."""
    jobs = []
    for tenant in tenants:
        for version, source in enumerate(tenant.sources):
            path = OUT / f"tenant-{tenant.name}-v{version}.fl"
            path.write_text(source)
            for checker in CHECKERS:
                jobs.append((tenant, version, checker, path))

    def one(job):
        tenant, version, checker, path = job
        argv = harness.repro_argv(["analyze", "--subject", str(path),
                                   "--checker", checker, "--json"])
        log = OUT / f"oracle-{tenant.name}-v{version}-{checker}"
        return job, harness.run_process(argv, ORACLE_TIMEOUT, log)

    with ThreadPoolExecutor(max_workers=2) as pool:
        for (tenant, version, checker, _), result in pool.map(one, jobs):
            label = f"oracle {tenant.name} v{version} {checker}"
            payload = harness.load_json(result.stdout) \
                if result.code == 0 else None
            if not isinstance(payload, dict):
                tally.record(False, f"{label}: exit {result.code}")
                continue
            findings = payload["findings"]
            # Edits add an unread local, so the labels hold in both.
            reason = oracles.check_ground_truth(findings,
                                                tenant.truth[checker])
            tally.record(not reason, f"{label}: {reason}")
            tenant.oracle[version][checker] = findings


# ---------------------------------------------------------------------------
# the daemon

def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class Daemon:
    """One ``repro serve`` child on a fresh port and cache root."""

    def __init__(self, index: int, spans: Optional[Path] = None) -> None:
        self.port = free_port()
        self.cache = OUT / f"serve-{index}"
        shutil.rmtree(self.cache, ignore_errors=True)
        args = ["serve", "--port", str(self.port), "--cache-root",
                str(self.cache)]
        argv = harness.launcher_argv(spans, args) if spans \
            else harness.repro_argv(args)
        self.log = open(OUT / f"serve-{index}.log", "wb")
        self.proc = subprocess.Popen(argv, stdout=self.log,
                                     stderr=subprocess.STDOUT, cwd=ROOT,
                                     env=harness.child_env())
        self._ids = itertools.count(1)

    def wait_ready(self) -> None:
        deadline = time.monotonic() + READY_TIMEOUT
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise BenchmarkError(f"daemon exited with {self.proc.returncode}"
                                     f" before /readyz (see {self.log.name})")
            try:
                status, _ = self._http("GET", "/readyz", None, 1.0)
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.005)
        raise BenchmarkError("daemon not ready within "
                             f"{READY_TIMEOUT:.0f} s")

    def _http(self, method: str, path: str, body: Optional[bytes],
              timeout: float) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=timeout)
        try:
            conn.request(method, path, body,
                         {"Content-Type": "application/json"})
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def rpc(self, method: str, params: dict) -> tuple[Optional[dict], str]:
        """(result, "") or (None, why it failed).  Error envelopes,
        non-200 statuses (429 included) and timeouts are failures."""
        body = json.dumps({"jsonrpc": "2.0", "id": next(self._ids),
                           "method": method, "params": params}).encode()
        try:
            status, data = self._http("POST", "/rpc", body, RPC_TIMEOUT)
        except OSError as error:
            return None, f"{method}: {type(error).__name__}: {error}"
        envelope = harness.load_json(data)
        if status != 200 or not isinstance(envelope, dict) \
                or "result" not in envelope:
            error = envelope.get("error") if isinstance(envelope, dict) \
                else data[:200]
            return None, f"{method}: HTTP {status}: {error}"
        return envelope["result"], ""

    def vm_hwm_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        match = re.search(r"^VmHWM:\s+(\d+) kB", status, re.MULTILINE)
        return int(match.group(1)) / 1024.0

    def stop(self) -> None:
        """``shutdown`` (drains; a traced daemon writes its spans), then
        wait for the process; kill it if it hangs."""
        try:
            if self.proc.poll() is None:
                self.rpc("shutdown", {})
                try:
                    self.proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
        finally:
            self.log.close()
            shutil.rmtree(self.cache, ignore_errors=True)


def bring_up(index: int, tenants: list[Tenant], tally: Tally,
             spans: Optional[Path] = None) -> tuple[Daemon, float]:
    """Spawn until ``/readyz``, ``initialize`` each tenant and its
    first full ``analyze``; returns the daemon and that wall time."""
    start = time.perf_counter()
    daemon = Daemon(index, spans)
    try:
        daemon.wait_ready()
        for tenant in tenants:
            _, why = daemon.rpc("initialize", {"tenant": tenant.name,
                                               "source": tenant.sources[0]})
            if why:
                raise BenchmarkError(f"initialize {tenant.name}: {why}")
        first = [daemon.rpc("analyze", {"tenant": t.name}) for t in tenants]
        seconds = time.perf_counter() - start
    except BaseException:
        daemon.stop()
        raise
    for tenant, (result, why) in zip(tenants, first):
        check_full(tenant, 0, CHECKERS[0], result, why, tally)
    return daemon, seconds


def check_full(tenant: Tenant, version: int, checker: str,
               result: Optional[dict], why: str, tally: Tally) -> None:
    label = f"{tenant.name} v{version} full {checker}"
    if result is None:
        tally.record(False, f"{label}: {why}")
        return
    same = json.dumps(result["findings"]) == json.dumps(
        tenant.oracle[version][checker])
    tally.record(same, f"{label}: findings differ from one-shot analyze")


def verify_full(daemon: Daemon, tenants: list[Tenant], versions: dict,
                tally: Tally, checkers=CHECKERS) -> None:
    """Full (non-delta) analyses against the one-shot oracle, untimed."""
    for tenant in tenants:
        for checker in checkers:
            result, why = daemon.rpc("analyze", {"tenant": tenant.name,
                                                 "checker": checker})
            check_full(tenant, versions[tenant.name], checker, result, why,
                       tally)


# ---------------------------------------------------------------------------
# the client script

@dataclass(frozen=True)
class Round:
    checker: str                            # of the delta analyze
    queries: tuple[tuple[str, int], ...]    # (checker, sink index)


def client_script(tenant: Tenant, seed: int, rounds: int) -> list[Round]:
    rng = random.Random(f"{seed}:{tenant.name}:script")
    sinks = [(checker, index) for checker in CHECKERS
             for index in range(len(tenant.sinks[0][checker]))]
    script = []
    for _ in range(rounds):
        focus = rng.sample(sinks, FOCUS_SINKS)
        queries = tuple(rng.choice(focus) for _ in range(QUERIES_PER_ROUND))
        script.append(Round(focus[0][0], queries))
    return script


@dataclass
class Samples:
    """Shared by the client threads (``list.append`` is atomic)."""

    query_s: list[float] = field(default_factory=list)
    edit_s: list[float] = field(default_factory=list)
    #: (client, method, start, end) of every RPC, for the trace file.
    rpcs: list[tuple] = field(default_factory=list)


def run_client(daemon: Daemon, tenant: Tenant, script: list[Round],
               versions: dict, client: int, tally: Tally,
               samples: Samples, phase: threading.Barrier) -> None:
    def call(method: str, params: dict):
        start = time.perf_counter()
        result, why = daemon.rpc(method, dict(params, tenant=tenant.name))
        end = time.perf_counter()
        samples.rpcs.append((client, method, start, end))
        return result, why, end - start

    try:
        for round_ in script:
            version = 1 - versions[tenant.name]
            versions[tenant.name] = version
            updated, why, update_s = call("update", {
                "function": tenant.function, "text": tenant.texts[version]})
            delta, why2, analyze_s = call("analyze", {
                "checker": round_.checker, "delta": True}) if updated \
                else (None, why, 0.0)
            samples.edit_s.append(update_s + analyze_s)
            label = f"{tenant.name} edit to v{version} ({round_.checker})"
            if delta is None:
                tally.record(False, f"{label}: {why or why2}")
            else:
                reason = oracles.check_delta(
                    delta["findings"],
                    tenant.oracle[version][round_.checker])
                tally.record(not reason, f"{label}: {reason}")
            phase.wait()
            for checker, index in round_.queries:
                line, function = tenant.sinks[version][checker][index]
                verdict, why, seconds = call("query", {"checker": checker,
                                                       "sink": line})
                samples.query_s.append(seconds)
                label = f"{tenant.name} v{version} query {checker}@{line}"
                if verdict is None:
                    tally.record(False, f"{label}: {why}")
                    continue
                reason = oracles.check_query(
                    verdict, tenant.oracle[version][checker], function)
                tally.record(not reason, f"{label}: {reason}")
            phase.wait()
    except BaseException:
        phase.abort()
        raise


def run_pass(daemon: Daemon, tenants: list[Tenant], scripts: list,
             versions: dict, tally: Tally) -> tuple[float, Samples]:
    """Both clients at once, each on its own tenant; the pass's wall
    time and its samples.

    The clients keep in step: both edit, then both query.  Left free,
    a query lands inside the other tenant's edit about half the time
    and waits for the interpreter lock, so the query median would sit
    between two clusters and jump from run to run."""
    samples = Samples()
    phase = threading.Barrier(len(tenants))
    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=len(tenants)) as pool:
        futures = [pool.submit(run_client, daemon, tenant, script, versions,
                               client, tally, samples, phase)
                   for client, (tenant, script)
                   in enumerate(zip(tenants, scripts))]
        for future in futures:
            future.result()
    return time.perf_counter() - start, samples


# ---------------------------------------------------------------------------

def prepare(seed: int, tally: Tally) -> list[Tenant]:
    tenants = [make_tenant(name, tenant_seed, seed)
               for name, tenant_seed in zip(TENANTS, TENANT_SEEDS)]
    for tenant in tenants:
        check_sites(tenant)
    compute_oracles(tenants, tally)
    if tally.failed:
        raise BenchmarkError(f"oracle set-up failed: {tally.reasons}")
    return tenants


def run(seed: int, seconds: float, trace: bool) -> int:
    tally = Tally()
    tenants = prepare(seed, tally)
    scripts = [client_script(tenant, seed, ROUNDS) for tenant in tenants]
    say(f"hot-tenant: seed {seed}, tenants "
        + ", ".join(f"{t.name} ({t.sources[0].count(chr(10))} lines, "
                    f"edits {t.function})" for t in tenants))

    setups = []
    daemon = None
    for index in range(1 if trace else BRINGUPS):
        if daemon is not None:
            daemon.stop()
        daemon, setup_s = bring_up(index, tenants, tally)
        setups.append(setup_s)
    versions = {t.name: 0 for t in tenants}
    try:
        verify_full(daemon, tenants, versions, tally, CHECKERS[1:])
        passes = []
        budget_start = time.perf_counter()
        while True:
            passes.append(run_pass(daemon, tenants, scripts, versions,
                                   tally))
            elapsed = time.perf_counter() - budget_start
            if trace or elapsed + passes[-1][0] > seconds:
                break
        verify_full(daemon, tenants, versions, tally)
        peak_rss = daemon.vm_hwm_mb()
    finally:
        daemon.stop()

    if trace:
        return run_traced(seed, tenants, scripts, passes[0][0], tally)
    queries = [s for _, samples in passes for s in samples.query_s]
    edits = [s for _, samples in passes for s in samples.edit_s]
    total = sum(seconds for seconds, _ in passes)
    metrics = {
        "setup_s": (harness.median(setups), "s"),
        "sweep_s": (harness.median([s for s, _ in passes]), "s"),
        "ops_per_s": ((len(queries) + len(edits)) / total, "1/s"),
        "query_p50_ms": (harness.median(queries) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    say(f"hot-tenant: {len(passes)} pass(es); {len(queries)} queries, "
        f"{len(edits)} edits")
    say(f"  query_p99_ms = {tail(queries, 0.99)} ({len(queries)} samples)")
    say(f"  edit_p50_ms = {harness.median(edits) * 1e3:.3f} ms, "
        f"edit_p75_ms = {tail(edits, 0.75)} ({len(edits)} samples)")
    for name, (value, unit) in metrics.items():
        say(f"  {name} = {value:.4f} {unit}")
    return harness.emit(tally, metrics)


def tail(seconds: list[float], p: float) -> str:
    try:
        return f"{harness.percentile(seconds, p) * 1e3:.3f} ms"
    except ValueError as error:
        return f"n/a ({error})"


def run_traced(seed: int, tenants: list[Tenant], scripts: list,
               plain_seconds: float, tally: Tally) -> int:
    """The same pass once more against a traced daemon."""
    spans = OUT / f"spans-hot-tenant-{seed}.json"
    spans.unlink(missing_ok=True)
    daemon, _ = bring_up(BRINGUPS, tenants, tally, spans)
    versions = {t.name: 0 for t in tenants}
    try:
        verify_full(daemon, tenants, versions, tally, CHECKERS[1:])
        traced_seconds, samples = run_pass(daemon, tenants, scripts,
                                           versions, tally)
        verify_full(daemon, tenants, versions, tally)
    finally:
        daemon.stop()
    if not spans.exists():
        raise BenchmarkError("traced daemon wrote no spans")
    process = json.loads(spans.read_text())
    spans.unlink()
    start = min(rpc[2] for rpc in samples.rpcs)
    end = max(rpc[3] for rpc in samples.rpcs)
    handled = sum(s[5] - s[4] for s in process["spans"]
                  if s[2] == "serve.dispatch" and start <= s[4] <= end)
    transport = sum(rpc[3] - rpc[2] for rpc in samples.rpcs) - handled
    origin = min([start] + [s[4] for s in process["spans"]])
    client_events = [{"name": f"client.{method}", "cat": "client",
                      "ph": "X", "ts": round((t0 - origin) * 1e6, 3),
                      "dur": round((t1 - t0) * 1e6, 3), "pid": 0,
                      "tid": client + 1}
                     for client, method, t0, t1 in samples.rpcs]
    overhead = traced_seconds - plain_seconds
    say(f"hot-tenant: untraced pass {plain_seconds:.3f} s, traced pass "
        f"{traced_seconds:.3f} s, tracing overhead {overhead:+.3f} s")
    report = layers.aggregate("hot-tenant", [process], origin,
                              transport_s=transport,
                              extra_events=client_events)
    report.write(OUT / f"hot-tenant-seed{seed}", overhead)
    return harness.emit(tally, report.metrics(overhead), extra_ok=report.ok)
