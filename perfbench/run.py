"""Pipeline benchmark for chunkcode.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each repetition is a fresh
interpreter (child.py) with a pinned minimal environment that calls the
chunkcode CLI in-process against a fake chat endpoint (fake_endpoint.py),
which runs in its own process. Only workload inputs are passed to the CLI,
never a tuning option, so a gain has to reach users through the defaults.

Workloads (all: 17-dimension codebook, 500-word chunks, 15 iterations):

  record_latency  `run --strategy chunk --cache-mode record` from an empty
                  cache against a 20 ms endpoint: the run users pay for.
  rate_limited    as record_latency, but some prompt texts get 429/503 with
                  Retry-After: 0 on first arrival and others a 400 on every
                  arrival: retry and failure accounting.
  replay_analyze  records a chunk and a whole run once (untimed), then times
                  replaying both, `evaluate` against a 3-rater manual matrix
                  and `stats --test mann-whitney` on per-document internal
                  agreement: CPU and file reads, no transport.

Every repetition's outputs are checked against the endpoint's answer model
(see checks.py). The last stdout line is one JSON object: end-to-end
metrics (medians over repetitions) with --trace 0; per-layer metrics from
alternating untraced and traced repetitions with --trace 1.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import http.client
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import corpus
import spans

HERE = Path(__file__).resolve().parent

# Record workloads use two-chunk documents: a 5,000-word document is 2,550
# prompts, a minute of serial 20 ms calls, longer than a whole run.
WORKLOADS = {
    "record_latency": {"docs": 1, "words": 1000, "latency_s": 0.020, "retries": 0, "rejects": 0},
    "rate_limited": {"docs": 1, "words": 1000, "latency_s": 0.020, "retries": 2, "rejects": 1},
    "replay_analyze": {"docs": 2, "words": 5000, "latency_s": 0.0, "retries": 0, "rejects": 0},
}
SETUP_PROBES = 9
# Seconds child.reference() takes at the reference speed. A command's
# CPU-busy part is converted to that speed by the reference timed next to
# it, because a shared machine's speed can drift by tens of percent over
# minutes.
REF_S = 0.025
CHILD_TIMEOUT_S = 150

# Metric names and units; BENCHMARK.json adds each end-to-end metric's bound.
END_TO_END = {
    "prompts_per_s": "1/s", "commands_s": "s", "setup_s": "s",
    "cache_bytes_per_prompt": "B", "peak_rss_mb": "MB", "cell_success_ratio": "ratio",
}
# Per-layer metrics from traced repetitions.
SPAN_LAYER = {
    **{f"{name}.{kind}": ("s" if kind == "s" else "count") for name in spans.SPAN_NAMES for kind in ("s", "calls")},
    "llm_client.request_key.calls_per_prompt": "count",
    "llm_client.complete.self_s": "s",
    "engine.run_iterations.self_s": "s",
    "llm_client.transport.p50_ms": "ms",
    "llm_client.transport.p99_ms": "ms",
    "llm_client.transport.cpu_ms_per_call": "ms",
}
# Per-layer metrics from the untraced repetitions of a --trace 1 run.
UNTRACED_LAYER = {
    "whole_prompts_per_s": "1/s", "analyze_s": "s", "client_cpu_ms_per_prompt": "ms",
    "endpoint.inflight_mean": "count", "endpoint.inflight_max": "count", "endpoint.idle_share": "ratio",
    "endpoint.requests_per_prompt": "count", "endpoint.retry_gap_ms.p50": "ms", "endpoint.retry_gap_ms.max": "ms",
    "proc.rchar_per_prompt": "B", "proc.wchar_per_prompt": "B",
    "proc.syscr_per_prompt": "count", "proc.syscw_per_prompt": "count",
    "cache.files_per_prompt": "count", "proc.env_vars": "count", "machine.speed": "ratio",
}
PER_LAYER = {**SPAN_LAYER, **UNTRACED_LAYER, "trace.overhead_share": "ratio", "trace.missing_wrappers": "count"}


class BenchError(Exception):
    pass


class Endpoint:
    """The fake endpoint process and its control paths."""

    def __init__(self, env: dict, cwd: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "fake_endpoint.py")],
            env=env, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        line = self.proc.stdout.readline()
        if not line.strip().isdigit():
            self.close()
            raise BenchError("fake endpoint did not start")
        self.port = int(line)

    def call(self, method: str, path: str, payload: dict | None = None) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            body = json.dumps(payload).encode() if payload is not None else None
            conn.request(method, path, body=body, headers={"Content-Type": "application/json"})
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def close(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


class Bench:
    def __init__(self, root: Path, work: Path, name: str, seed: int):
        self.root, self.work, self.name, self.seed = root, work, name, seed
        self.shape = WORKLOADS[name]
        self.corpus = corpus.make_corpus(seed, self.shape["docs"], self.shape["words"])
        self.inputs = corpus.write_inputs(self.corpus, work / "inputs")
        self.problems: list[str] = []
        self.attempted = self.failed = 0
        self.digests: set[str] = set()
        self.missing: set[str] = set()
        self.setup_samples: list[float] = []
        self._spawned = 0
        # Pinned environment: no proxy variables for requests to re-read on
        # every call, HOME inside the checkout for its netrc lookup.
        self.env = {"HOME": str(work), "LC_ALL": "C.UTF-8", "PYTHONHASHSEED": "0"}
        self.endpoint = Endpoint(self.env, work)
        self.env["CHUNKCODE_BASE_URL"] = f"http://127.0.0.1:{self.endpoint.port}/v1"

    def close(self) -> None:
        self.endpoint.close()

    # -- children ------------------------------------------------------------

    def spawn(self, spec: dict) -> dict:
        self._spawned += 1
        n = self._spawned
        spec_path, result_path = self.work / f"spec{n}.json", self.work / f"result{n}.json"
        spec = {"src": str(self.root / "src"), "result": str(result_path), "trace": False, **spec}
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        log = self.work / f"child{n}.log"
        with open(log, "w", encoding="utf-8") as fh:
            spawned_at = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(spec_path), repr(spawned_at)],
                env=self.env, cwd=self.work, stdout=fh, stderr=subprocess.STDOUT,
                timeout=CHILD_TIMEOUT_S,
            )
        if proc.returncode != 0 or not result_path.exists():
            tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
            raise BenchError(f"child exited with {proc.returncode}:\n{tail}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        spec_path.unlink()
        result_path.unlink()
        log.unlink()
        return result

    def probe_setup(self) -> None:
        spec = {"mode": "setup", "manifest": str(self.inputs["manifest"]), "codebook": str(self.inputs["codebook"])}
        result = self.spawn(spec)
        self.setup_samples.append(result["setup_s"] * REF_S / result["ref_s"])

    def run_argv(self, strategy: str, mode: str, cache: Path, out: Path) -> list[str]:
        return [
            "run", "--manifest", str(self.inputs["manifest"]), "--codebook", str(self.inputs["codebook"]),
            "--model", corpus.MODEL, "--strategy", strategy, "--iterations", str(corpus.ITERATIONS),
            "--cache-mode", mode, "--cache-dir", str(cache), "--out", str(out),
        ]

    def run_steps(self, steps: list[tuple[str, list[str], int]], trace: bool) -> dict | None:
        """Run (name, argv, expected exit) steps in one child; None if any
        step exited otherwise."""
        result = self.spawn({
            "mode": "steps", "trace": trace,
            "steps": [{"name": name, "argv": argv} for name, argv, _ in steps],
        })
        ok = True
        for (name, _, expected), step in zip(steps, result["steps"]):
            speed = REF_S / step["ref_s"]
            busy = min(step["cpu_s"], step["wall_s"])
            step["speed"] = speed
            step["t_s"] = step["wall_s"] - busy + busy * speed
            step["cpu_t_s"] = step["cpu_s"] * speed
            self.attempted += 1
            if step["exit"] != expected:
                self.failed += 1
                ok = False
                self.problems.append(f"{name} exited {step['exit']}, expected {expected}")
        result["by_name"] = {s["name"]: s for s in result["steps"]}
        return result if ok else None

    # -- metrics -------------------------------------------------------------

    def common_metrics(self, result: dict, prompts: int, cache: Path, stats: dict) -> dict:
        files = [p for p in cache.rglob("*") if p.is_file()]
        answered = sum(stats["answered"].values())
        gaps = sorted(g * 1000 for g in stats["retry_gaps_s"])
        m = {
            "machine.speed": median([s["speed"] for s in result["steps"]]),
            "peak_rss_mb": result["peak_rss_mb"],
            "cache_bytes_per_prompt": sum(p.stat().st_size for p in files) / prompts,
            "cache.files_per_prompt": len(files) / prompts,
            "proc.env_vars": result["env_vars"],
            "endpoint.inflight_mean": stats["inflight_mean"],
            "endpoint.inflight_max": stats["inflight_max"],
            "endpoint.idle_share": stats["idle_share"],
            "endpoint.requests_per_prompt": stats["requests"] / answered if answered else 0.0,
            "endpoint.retry_gap_ms.p50": median(gaps),
            "endpoint.retry_gap_ms.max": max(gaps, default=0.0),
        }
        for key in ("rchar", "wchar", "syscr", "syscw"):
            m[f"proc.{key}_per_prompt"] = result["io"][key] / prompts
        if "spans" in result:
            m.update(self.span_metrics(result, prompts))
        return m

    def span_metrics(self, result: dict, prompts: int) -> dict:
        self.missing.update(result["missing"])
        summary = spans.summarize(result["spans"])
        empty = {"s": 0.0, "self_s": 0.0, "calls": 0, "cpu_s": 0.0, "durations": []}
        m = {}
        for name in spans.SPAN_NAMES:
            entry = summary.get(name, empty)
            m[f"{name}.s"] = entry["s"]
            m[f"{name}.calls"] = entry["calls"]
        key, complete = summary.get("llm_client.request_key", empty), summary.get("llm_client.complete", empty)
        post = summary.get("llm_client.transport", empty)
        durations = sorted(d * 1000 for d in post["durations"])
        m.update({
            "llm_client.request_key.calls_per_prompt": key["calls"] / prompts,
            "llm_client.complete.self_s": complete["self_s"],
            "engine.run_iterations.self_s": summary.get("engine.run_iterations", empty)["self_s"],
            "llm_client.transport.p50_ms": spans.percentile(durations, 50),
            "llm_client.transport.p99_ms": spans.percentile(durations, 99),
            "llm_client.transport.cpu_ms_per_call": post["cpu_s"] * 1000 / post["calls"] if post["calls"] else 0.0,
        })
        return m

    # -- workloads -----------------------------------------------------------

    def prepare(self) -> None:
        shape = self.shape
        retry, reject, failed_pairs = self.corpus.injections(shape["retries"], shape["rejects"])
        self.retry, self.reject, self.failed_pairs = retry, frozenset(reject), frozenset(failed_pairs)
        self.endpoint.call("POST", "/_bench/config", {
            "seed": self.seed, "latency_s": shape["latency_s"],
            "retry": self.retry, "reject": sorted(self.reject),
        })
        if self.name == "replay_analyze":
            self.record_corpus()

    def record_corpus(self) -> None:
        """Untimed: record a chunk and a whole run and evaluate them once."""
        rec = self.work / "recorded"
        self.cache = rec / "cache"
        steps = [
            ("record chunk", self.run_argv("chunk", "record", self.cache, rec / "chunk"), 0),
            ("record whole", self.run_argv("whole", "record", self.cache, rec / "whole"), 0),
            ("evaluate", ["evaluate", "--manual", str(self.inputs["manual"]), "--run", str(rec / "chunk"),
                          "--run", str(rec / "whole"), "--out", str(rec / "report")], 0),
        ]
        if self.run_steps(steps, trace=False) is None:
            raise BenchError("recording the replay corpus failed: " + "; ".join(self.problems))
        stats = self.endpoint.call("GET", "/_bench/stats")
        self.problems += checks.check_endpoint(stats, self.corpus, ("chunk", "whole"))
        for strategy in ("chunk", "whole"):
            self.problems += checks.check_run_dir(rec / strategy, self.corpus, strategy)
        self.recorded = rec
        self.cache_bytes = sum(p.stat().st_size for p in self.cache.rglob("*") if p.is_file())
        # Mann-Whitney samples: per-document internal agreement of each strategy.
        with open(rec / "report" / "internal_agreement_by_doc.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        self.samples = rec / "samples.csv"
        self.samples.write_text(
            "group,value\n" + "".join(f"{r['strategy']},{r['internal_agreement']}\n" for r in rows),
            encoding="utf-8",
        )

    def record_rep(self, rep: Path, trace: bool) -> dict | None:
        cache, out = rep / "cache", rep / "out"
        self.endpoint.call("POST", "/_bench/reset")
        expected_exit = 2 if self.failed_pairs else 0
        result = self.run_steps([("run", self.run_argv("chunk", "record", cache, out), expected_exit)], trace)
        if result is None:
            return None
        stats = self.endpoint.call("GET", "/_bench/stats")
        self.problems += checks.check_run_dir(out, self.corpus, "chunk", self.failed_pairs)
        self.problems += checks.check_endpoint(
            stats, self.corpus, ("chunk",), self.retry, self.reject, self.failed_pairs
        )
        self.digests.add(checks.digest(out))
        prompts = checks.count_records(out)
        cells = len(self.corpus.doc_ids) * len(self.corpus.dims) * corpus.ITERATIONS
        run = result["by_name"]["run"]
        m = self.common_metrics(result, prompts, cache, stats)
        m.update({
            "prompts_per_s": prompts / run["t_s"],
            "commands_s": run["t_s"],
            "client_cpu_ms_per_prompt": run["cpu_t_s"] * 1000 / prompts,
            "cell_success_ratio": 1 - len(self.failed_pairs) * corpus.ITERATIONS / cells,
            "whole_prompts_per_s": 0.0,
            "analyze_s": 0.0,
        })
        return m

    def replay_rep(self, rep: Path, trace: bool) -> dict | None:
        self.endpoint.call("POST", "/_bench/reset")
        manual, chunk, whole = str(self.inputs["manual"]), rep / "chunk", rep / "whole"
        steps = [
            ("replay chunk", self.run_argv("chunk", "replay", self.cache, chunk), 0),
            ("replay whole", self.run_argv("whole", "replay", self.cache, whole), 0),
            ("evaluate", ["evaluate", "--manual", manual, "--run", str(chunk), "--run", str(whole),
                          "--out", str(rep / "report")], 0),
            ("stats", ["stats", "--samples", str(self.samples), "--test", "mann-whitney",
                       "--out", str(rep / "stats.csv")], 0),
        ]
        result = self.run_steps(steps, trace)
        if result is None:
            return None
        stats = self.endpoint.call("GET", "/_bench/stats")
        if stats["requests"]:
            self.problems.append(f"replay sent {stats['requests']} request(s) to the endpoint")
        for strategy, out in (("chunk", chunk), ("whole", whole)):
            if checks.digest(out, checks.OUTPUT_FILES) != checks.digest(self.recorded / strategy, checks.OUTPUT_FILES):
                self.problems.append(f"replayed {strategy} outputs differ from the recording")
            meta = json.loads((out / "run_meta.json").read_text(encoding="utf-8"))
            recorded_meta = json.loads((self.recorded / strategy / "run_meta.json").read_text(encoding="utf-8"))
            if {**meta, "cache_mode": "record"} != recorded_meta:
                self.problems.append(f"replayed {strategy} run_meta.json differs beyond cache_mode")
        report_names = sorted(p.name for p in (self.recorded / "report").iterdir())
        if checks.digest(rep / "report", report_names) != checks.digest(self.recorded / "report", report_names):
            self.problems.append("evaluate tables differ from the recorded runs' tables")
        self.digests.add(checks.digest(rep, ["stats.csv"]))
        by = result["by_name"]
        n_chunk, n_whole = checks.count_records(chunk), checks.count_records(whole)
        m = self.common_metrics(result, n_chunk + n_whole, self.cache, stats)
        m.update({
            "prompts_per_s": n_chunk / by["replay chunk"]["t_s"],
            "whole_prompts_per_s": n_whole / by["replay whole"]["t_s"],
            "analyze_s": by["evaluate"]["t_s"] + by["stats"]["t_s"],
            "commands_s": sum(s["t_s"] for s in result["steps"]),
            "client_cpu_ms_per_prompt": (by["replay chunk"]["cpu_t_s"] + by["replay whole"]["cpu_t_s"])
            * 1000 / (n_chunk + n_whole),
            "cache_bytes_per_prompt": self.cache_bytes / (n_chunk + n_whole),
            "cell_success_ratio": 1.0,
        })
        return m

    def measure(self, seconds: float, trace: bool) -> tuple[list[dict], list[dict]]:
        """Repeat until the next repetition would overrun ``seconds``.

        With ``trace`` repetitions alternate untraced and traced; without,
        set-up probes are spread over the window, so that drift in the
        machine's speed reaches their median as it reaches the repetitions'.
        Returns the (untraced, traced) repetitions' metrics.
        """
        rep_fn = self.replay_rep if self.name == "replay_analyze" else self.record_rep
        plain, traced = [], []
        start = time.monotonic()
        n = 0
        while True:
            elapsed = time.monotonic() - start
            while not trace and len(self.setup_samples) < 1 + (SETUP_PROBES - 1) * min(1.0, elapsed / seconds):
                self.probe_setup()
            n += 1
            is_traced = trace and n % 2 == 0
            rep_start = time.monotonic()
            m = rep_fn(self.work / f"rep{n}", is_traced)
            shutil.rmtree(self.work / f"rep{n}", ignore_errors=True)
            if m is not None:
                (traced if is_traced else plain).append(m)
            took = time.monotonic() - rep_start
            elapsed = time.monotonic() - start
            if plain and (traced or not trace):
                if elapsed + took > seconds:
                    break
            elif m is None and elapsed > seconds:
                raise BenchError("no repetition completed: " + "; ".join(self.problems[:5]))
        while not trace and len(self.setup_samples) < SETUP_PROBES:
            self.probe_setup()
        return plain, traced


def report(bench: Bench, plain: list[dict], traced: list[dict], trace: bool) -> dict:
    if len(bench.digests) > 1:
        bench.problems.append(f"outputs differ across repetitions: {len(bench.digests)} digests")
    if trace:
        units = PER_LAYER
        metrics = {n: median([m[n] for m in traced]) for n in SPAN_LAYER}
        metrics.update({n: median([m[n] for m in plain]) for n in UNTRACED_LAYER})
        rate = median([m["prompts_per_s"] for m in plain])
        metrics["trace.overhead_share"] = 1 - median([m["prompts_per_s"] for m in traced]) / rate
        metrics["trace.missing_wrappers"] = len(bench.missing)
        if bench.missing:
            print(f"not traced, wrapped name missing: {', '.join(sorted(bench.missing))}", file=sys.stderr)
    else:
        units = END_TO_END
        metrics = {n: median([m[n] for m in plain]) for n in END_TO_END if n != "setup_s"}
        metrics["setup_s"] = median(bench.setup_samples)
    return {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {n: {"value": metrics[n], "unit": unit} for n, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM unwind through the finally below, which stops the endpoint.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "chunkcode" / "cli.py").is_file():
        print("error: run from the root of a chunkcode checkout (src/chunkcode is missing)", file=sys.stderr)
        return 1
    work = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = None
    try:
        bench = Bench(root, work, args.workload, args.seed)
        bench.prepare()
        plain, traced = bench.measure(args.seconds, bool(args.trace))
        result = report(bench, plain, traced, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if bench is not None:
            bench.close()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    for problem in bench.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
