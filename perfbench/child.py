"""One repetition of a workload, in a fresh interpreter.

    python3 perfbench/child.py SPEC.json SPAWNED_AT

SPEC names the source tree, the chunkcode commands to run in-process and
where to write the result. In "setup" mode the child only imports the CLI
and loads the manifest and codebook, then reports the time since
SPAWNED_AT, the parent's monotonic clock reading just before the spawn
(the clock is system-wide).
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path


def proc_io() -> dict[str, int]:
    fields = {}
    with open("/proc/self/io", encoding="ascii") as fh:
        for line in fh:
            key, _, value = line.partition(":")
            fields[key] = int(value)
    return fields


_REFERENCE_DOC = {f"key{i}": [f"word{j}" for j in range(20)] for i in range(40)}


def reference() -> float:
    """Seconds a fixed mix of JSON, hashing and string work takes now.

    A shared machine's speed can drift by tens of percent over minutes;
    timing this next to each measured step lets the parent convert the
    step's CPU-busy time to a fixed reference speed.
    """
    start = time.perf_counter()
    for _ in range(100):
        text = json.dumps(_REFERENCE_DOC)
        json.loads(text)
        hashlib.sha256(text.encode()).hexdigest()
        " ".join(text.split()).lower().find("absent")
    return time.perf_counter() - start


def invoke(main, argv: list[str]) -> int:
    """Call the click entry point in-process and return its exit code."""
    try:
        main(argv, standalone_mode=False)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    return 0


def main() -> None:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    from chunkcode import cli

    if spec["mode"] == "setup":
        cli.load_manifest(spec["manifest"])
        cli.load_codebook(spec["codebook"])
        result = {"setup_s": time.monotonic() - float(sys.argv[2]), "ref_s": reference()}
    else:
        tracer = None
        if spec["trace"]:
            import spans

            tracer = spans.Tracer()
            tracer.install()
        steps = []
        io_before = proc_io()
        for step in spec["steps"]:
            if tracer is not None:
                tracer.run_id = step["name"]
            ref_before = reference()
            cpu0, wall0 = time.process_time(), time.perf_counter()
            code = invoke(cli.main, step["argv"])
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            ref_s = (ref_before + reference()) / 2
            steps.append({"name": step["name"], "exit": code, "wall_s": wall, "cpu_s": cpu, "ref_s": ref_s})
        io_after = proc_io()
        result = {
            "steps": steps,
            "io": {k: io_after[k] - io_before[k] for k in ("rchar", "wchar", "syscr", "syscw")},
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "env_vars": len(os.environ),
        }
        if tracer is not None:
            result["missing"] = tracer.missing
            result["spans"] = tracer.spans
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
