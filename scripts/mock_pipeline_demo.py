#!/usr/bin/env python3
"""End-to-end offline demo: code a tiny corpus with both strategies against a
three-rater manual matrix, all with the deterministic mock (no network).

Writes run directories and evaluation tables under --workdir and prints the
performance and kappa tables.
"""

import argparse
import tempfile
from pathlib import Path

import chunkcode as cc
from chunkcode import report

DOCS = {
    "plant-upgrade": (
        "The treatment plant upgrade adds real time sensors across the "
        "distribution network so operators can compare simulated and observed "
        "flows before approving maintenance work. "
    )
    * 40,
    "storm-review": (
        "This review of storm overflow incidents catalogues the reporting "
        "obligations of the utility and the data retention rules that apply "
        "to third party contractors handling telemetry records. "
    )
    * 25,
}

MANUAL_ROWS = """doc_id,dimension_id,rater_1,rater_2,rater_3
plant-upgrade,fidelity,T,T,F
plant-upgrade,use-cases,T,T,T
plant-upgrade,state,T,F,F
storm-review,fidelity,F,F,F
storm-review,use-cases,T,F,T
storm-review,state,F,T,F
"""

CODEBOOK = [
    {"id": "fidelity", "name": "Fidelity", "definition": "How closely the model mirrors reality."},
    {"id": "use-cases", "name": "Use-Cases", "definition": "What the system is used for."},
    {"id": "state", "name": "State", "definition": "Whether live state is tracked."},
]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", type=Path, default=None, help="defaults to a temp dir")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--iterations", type=int, default=15)
    parser.add_argument("--chunk-size", type=int, default=50)
    parser.add_argument("--flip-probability", type=float, default=0.1)
    args = parser.parse_args()

    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="chunkcode-demo-"))
    workdir.mkdir(parents=True, exist_ok=True)
    print(f"working directory: {workdir}\n")

    cb = cc.Codebook(tuple(cc.Dimension(**entry) for entry in CODEBOOK))
    corpus = [cc.DocumentText.from_raw(doc_id, text) for doc_id, text in DOCS.items()]
    manual_path = workdir / "manual.csv"
    manual_path.write_text(MANUAL_ROWS, encoding="utf-8")

    runs = []
    for strategy in ("whole", "chunk"):
        cfg = cc.RunConfig(
            model="demo-model",
            strategy=strategy,
            chunk_size=args.chunk_size,
            iterations=args.iterations,
            seed=args.seed,
        )
        mock = cc.StochasticMock(
            seed=args.seed,
            flip_probability=args.flip_probability,
            truth=lambda req: "use-cases" in req.tag or "fidelity" in req.tag,
        )
        client = cc.LLMClient(mode="mock", mock=mock)
        out_dir = workdir / f"run_{strategy}"
        result = report.write_run(out_dir, corpus, cb, cfg, client)
        runs.append(report.load_run(out_dir))
        print(
            f"{strategy:>6}: {result.prompts} prompts,"
            f" internal agreement {cc.internal_agreement(cc.consensus_table(result.results)).model:.4f}"
        )

    manual = cc.read_ratings_csv(manual_path)
    reports_dir = workdir / "reports"
    report.write_report_bundle(reports_dir, runs, manual)

    print("\nperformance table")
    print((reports_dir / "performance.md").read_text(encoding="utf-8"))
    print("kappa table")
    print((reports_dir / "kappa.md").read_text(encoding="utf-8"))
    print(f"full tables under {reports_dir}")


if __name__ == "__main__":
    main()
