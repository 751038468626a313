"""The ``query-mix`` workload: a closed-loop client against ``repro serve``.

One client connection sends the next query only after the previous
answer arrived; a second connection is used only for pipelined bursts.
The mix is a seeded sequence of *cycles* (:func:`build_mix`); each cycle
holds, in seeded order:

* :data:`HITS_PER_CYCLE` memo hits — expected-``uber`` queries asked
  earlier in the run, answered from the results cache (the memory tier,
  or its disk tier once the memory LRU has evicted them);
* :data:`MISSES_PER_CYCLE` cold expected-``uber`` queries at a new
  pitch, pattern, ECC and seed — each computes coupling kernels, builds
  a controller and evaluates the expectation;
* one cold sampled ``uber`` query on the default bernoulli sampler at
  64 x 64 (:data:`SAMPLED_TRANSACTIONS` transactions);
* one cold ``sweep`` (3 pitch ratios x 3 patterns x 2 ECCs);
* one burst of :data:`BURST` identical cold sampled queries pipelined
  on the second connection — the server must run them once;
* one ``repro query uber`` CLI subprocess answered from memo.

Cold queries never repeat (each carries a fresh seed), so a miss is
always a miss and a hit is always a hit, whatever the seed.
"""

from __future__ import annotations

import json
import random
import socket
import subprocess
import sys
import time

#: Per-cycle composition of the mix.
HITS_PER_CYCLE = 60
MISSES_PER_CYCLE = 10
BURST = 4
SAMPLED_TRANSACTIONS = 20_000

#: Cycles a timed run always completes: enough samples for every
#: reported percentile (p50 of the once-per-cycle kinds needs 20, the
#: miss p95 needs 200 misses, the hit p99 1000 hits).
MIN_CYCLES = 20

PATTERNS = ("random", "checkerboard", "solid0", "solid1")
ECCS = ("secded", "none")
SWEEP_RATIOS = (3.0, 2.75, 2.5, 2.25, 2.0, 1.75, 1.5)
SWEEP_PATTERNS = ("random", "checkerboard", "solid0")
SWEEP_ECCS = ("none", "secded")


def _cold_uber(rng, **extra):
    return {"op": "uber", "pitch_nm": round(rng.uniform(55.0, 120.0), 3),
            "pattern": rng.choice(PATTERNS), "ecc": rng.choice(ECCS),
            "seed": rng.randrange(1 << 31), **extra}


def build_mix(seed, cycles):
    """The seeded operation sequence: a list of cycles of op dicts.

    Each op is ``{"kind", "request"}`` (plus ``"ref"``, the index of the
    miss a hit or CLI query repeats, and ``"copies"`` for a burst).
    Requests carry no ``id``; the client adds one per send.
    """
    rng = random.Random(f"query-mix:{int(seed)}")
    misses = []
    out = []
    for cycle in range(cycles):
        kinds = (["miss"] * MISSES_PER_CYCLE + ["hit"] * HITS_PER_CYCLE
                 + ["sampled", "sweep", "burst", "cli"])
        rng.shuffle(kinds)
        if cycle == 0:
            # Hits repeat earlier misses: the run opens with misses.
            kinds.sort(key=lambda kind: kind != "miss")
        ops = []
        for kind in kinds:
            if kind == "miss":
                request = _cold_uber(rng)
                ops.append({"kind": kind, "request": request,
                            "ref": len(misses)})
                misses.append(request)
            elif kind in ("hit", "cli"):
                ref = rng.randrange(len(misses))
                ops.append({"kind": kind, "request": misses[ref],
                            "ref": ref})
            elif kind == "sampled":
                ops.append({"kind": kind, "request": _cold_uber(
                    rng, mode="sampled",
                    transactions=SAMPLED_TRANSACTIONS)})
            elif kind == "burst":
                ops.append({"kind": kind, "copies": BURST,
                            "request": _cold_uber(
                                rng, mode="sampled",
                                transactions=SAMPLED_TRANSACTIONS)})
            else:
                ratios = sorted(rng.sample(SWEEP_RATIOS, 3), reverse=True)
                ops.append({"kind": kind, "request": {
                    "op": "sweep", "pitch_ratios": ratios,
                    "patterns": list(SWEEP_PATTERNS),
                    "eccs": list(SWEEP_ECCS),
                    "seed": rng.randrange(1 << 31)}})
        out.append(ops)
    return out


def _passed(value):
    # The service's JSON coercion renders numpy booleans as strings.
    return value is True or value == "True"


class Burster:
    """The second connection: pipelines identical requests at once."""

    def __init__(self, path, timeout=120.0):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout)
        self.sock.connect(path)
        self.file = self.sock.makefile("rb")

    def send(self, requests):
        """Send every request in one write; return the terminal events
        by request id once all have arrived."""
        blob = b"".join(json.dumps(r, separators=(",", ":")).encode()
                        + b"\n" for r in requests)
        self.sock.sendall(blob)
        answers = {}
        while len(answers) < len(requests):
            line = self.file.readline()
            if not line:
                raise ConnectionError("service closed the burst link")
            event = json.loads(line)
            if event.get("event") != "progress":
                answers[event.get("id")] = event
        return answers

    def close(self):
        for closer in (self.file.close, self.sock.close):
            try:
                closer()
            except OSError:
                pass


class MixClient:
    """Runs mix cycles against one server and checks every answer.

    ``latencies[kind]`` collects seconds per op (a burst's time runs
    until its last answer); ``sampled_rates`` simulated transactions per
    client-observed second of the sampled queries. ``failures`` names
    every failed or wrong answer; ``attempted`` counts queries sent.
    ``tracer`` (optional) records one client span per op whose trace id
    is the request id the server sees.
    """

    def __init__(self, sock_path, env, tracer=None):
        from repro.service.client import ServiceClient
        self.sock_path = sock_path
        self.env = env
        self.tracer = tracer
        self.client = ServiceClient(path=sock_path, timeout=120.0)
        self.burster = Burster(sock_path)
        self.latencies = {k: [] for k in ("hit", "miss", "sampled",
                                          "sweep", "burst", "cli")}
        self.sampled_rates = []
        self.sweep_rates = []
        self.backends = set()  # engine backends sampled answers report
        self.answers = {}      # miss index -> result payload
        self.cold = []         # (kind, request, result) for cross-checks
        self.failures = []
        self.attempted = 0
        self._ids = 0

    def close(self):
        self.client.close()
        self.burster.close()

    def _id(self, kind):
        self._ids += 1
        return f"{kind}-{self._ids}"

    def _fail(self, op, why):
        self.failures.append(f"{op['kind']}: {why}")

    def run_cycle(self, ops, with_cli=True):
        for op in ops:
            if op["kind"] == "cli" and not with_cli:
                continue
            self.run_op(op)

    def run_op(self, op):
        kind = op["kind"]
        if kind == "burst":
            return self._burst(op)
        if kind == "cli":
            return self._cli(op)
        req_id = self._id(kind)
        request = {**op["request"], "id": req_id}
        self.attempted += 1
        span = (self.tracer.span(f"client.{kind}", trace=req_id)
                if self.tracer is not None else None)
        t0 = time.perf_counter()
        if span is not None:
            with span:
                event = self.client.request(request)
        else:
            event = self.client.request(request)
        dt = time.perf_counter() - t0
        if not event.get("ok"):
            return self._fail(op, event.get("error", "error event"))
        result = event["result"]
        if kind == "hit":
            if not event.get("cached"):
                return self._fail(op, "answer was not served from memo")
            if result != self.answers.get(op["ref"]):
                return self._fail(op, "memo answer differs from the "
                                      "first answer")
        elif event.get("cached"):
            return self._fail(op, "cold query answered from memo")
        if kind == "miss":
            self.answers[op["ref"]] = result
        if kind == "sweep":
            bad = [c["metric"] for c in result["comparisons"]
                   if not _passed(c["passed"])]
            if bad:
                return self._fail(op, f"sweep comparisons failed: {bad}")
            self.sweep_rates.append(result["n_points"] / dt)
        if kind == "sampled":
            self.backends.add(result.get("backend"))
            self.sampled_rates.append(result["n_transactions"] / dt)
        if kind in ("miss", "sampled", "sweep"):
            self.cold.append((kind, op["request"], result))
        self.latencies[kind].append(dt)

    def _burst(self, op):
        n = op["copies"]
        ids = [self._id("burst") for _ in range(n)]
        self.attempted += n
        t0 = time.perf_counter()
        answers = self.burster.send([{**op["request"], "id": i}
                                     for i in ids])
        dt = time.perf_counter() - t0
        events = [answers.get(i, {}) for i in ids]
        if not all(e.get("ok") for e in events):
            return self._fail(op, "a burst member failed")
        if any(e["result"] != events[0]["result"] for e in events):
            return self._fail(op, "burst members disagree")
        joined = sum(1 for e in events if e.get("coalesced"))
        if joined != n - 1:
            return self._fail(op, f"{joined} of {n} members coalesced, "
                                  f"expected {n - 1}")
        self.latencies["burst"].append(dt)

    def _cli(self, op):
        params = {k: v for k, v in op["request"].items() if k != "op"}
        argv = [sys.executable, "-m", "repro.cli", "query", "uber",
                "--socket", self.sock_path, "--params",
                json.dumps(params)]
        self.attempted += 1
        t0 = time.perf_counter()
        proc = subprocess.run(argv, env=self.env, capture_output=True,
                              text=True, timeout=120)
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            return self._fail(op, f"exit code {proc.returncode}")
        try:
            event = json.loads(proc.stdout)
        except json.JSONDecodeError:
            return self._fail(op, "output is not JSON")
        if not event.get("cached"):
            return self._fail(op, "CLI answer was not served from memo")
        if event.get("result") != self.answers.get(op["ref"]):
            return self._fail(op, "CLI answer differs from the first")
        self.latencies["cli"].append(dt)

    def stats(self):
        return self.client.request({"op": "stats",
                                    "id": self._id("stats")})["result"]


def library_answer(kind, request):
    """The answer of ``request`` computed by direct library calls.

    Mirrors what the service is documented to evaluate, through the
    public library API, so it checks the service's plumbing (parsing,
    defaults, caching, serialization) rather than restating it.
    """
    import numpy as np
    from repro.device import MTJDevice, PAPER_EVAL_DEVICE
    from repro.memsys import build_engine, uber_sweep
    from repro.units import nm_to_m

    device = MTJDevice(PAPER_EVAL_DEVICE)
    if kind == "sweep":
        result = uber_sweep(device,
                            pitch_ratios=list(request["pitch_ratios"]),
                            patterns=list(request["patterns"]),
                            eccs=list(request["eccs"]),
                            seed=request["seed"], executor="serial")
        return {"rows": json.loads(json.dumps(
            [[v.item() if hasattr(v, "item") else v for v in row]
             for row in result.rows]))}
    engine = build_engine(device, pitch=nm_to_m(request["pitch_nm"]),
                          ecc=request["ecc"], workload=request["pattern"],
                          backend="numpy")
    if kind == "miss":
        rates = engine.expected_rates(rng=request["seed"])
        return {k: float(v) for k, v in rates.items()}
    result = engine.run(request["transactions"],
                        rng=np.random.default_rng(request["seed"]))
    return {"uber": float(result.uber), "raw_ber": float(result.raw_ber),
            "n_transactions": int(result.n_transactions),
            "words_corrected": int(result.words_corrected),
            "words_detected": int(result.words_detected),
            "words_silent": int(result.words_silent)}


#: Cold answers per kind that each run recomputes with library calls.
CROSS_CHECKS = {"miss": 3, "sampled": 1, "sweep": 1}


def cross_check(cold, seed):
    """Compare a seeded subset of cold answers with library calls.

    Returns the list of mismatch descriptions (empty when all agree)
    and the number of answers checked.
    """
    rng = random.Random(f"query-mix-check:{int(seed)}")
    failures, checked = [], 0
    for kind, count in sorted(CROSS_CHECKS.items()):
        pool = [(req, res) for k, req, res in cold if k == kind]
        for request, answer in rng.sample(pool, min(count, len(pool))):
            expected = library_answer(kind, request)
            got = {k: answer.get(k) for k in expected}
            checked += 1
            if got != expected:
                failures.append(f"{kind} {request}: service {got} != "
                                f"library {expected}")
    return failures, checked
