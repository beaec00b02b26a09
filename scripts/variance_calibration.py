#!/usr/bin/env python3
"""Calibrate internal agreement against the seeded stochastic mock.

For each flip probability, runs the whole-text strategy over a synthetic
corpus and compares the per-cell internal agreement with the exact binomial
expectation of the modal-agreement statistic. Demonstrates, offline, how
response instability maps to the internal-agreement metric.
"""

import argparse
import math

import chunkcode as cc


def modal_agreement_expectation(iterations: int, p_correct: float) -> tuple[float, float]:
    pmf = [
        math.comb(iterations, k) * p_correct**k * (1 - p_correct) ** (iterations - k)
        for k in range(iterations + 1)
    ]
    values = [max(k, iterations - k) / iterations for k in range(iterations + 1)]
    mean = sum(p * v for p, v in zip(pmf, values))
    var = sum(p * (v - mean) ** 2 for p, v in zip(pmf, values))
    return mean, var


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cells", type=int, default=400, help="documents x dimensions")
    parser.add_argument("--iterations", type=int, default=15)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--flip", type=float, nargs="+", default=[0.0, 0.05, 0.1, 0.2, 0.3, 0.5]
    )
    args = parser.parse_args()

    n_dims = 20
    n_docs = max(1, args.cells // n_dims)
    cb = cc.Codebook(
        tuple(
            cc.Dimension(id=f"dim{i:02d}", name=f"Dim {i}", definition=f"Definition {i}.")
            for i in range(n_dims)
        )
    )
    corpus = [
        cc.DocumentText.from_raw(f"doc{i:03d}", f"synthetic body {i}")
        for i in range(n_docs)
    ]

    print(f"{n_docs * n_dims} cells, {args.iterations} iterations per cell\n")
    print(f"{'flip_p':>7} {'empirical':>10} {'expected':>9} {'z':>6}")
    for flip in args.flip:
        cfg = cc.RunConfig(
            model="calibration",
            strategy="whole",
            iterations=args.iterations,
            cache_mode="mock",
            seed=args.seed,
        )
        client = cc.LLMClient(
            mode="mock",
            mock=cc.StochasticMock(seed=args.seed, flip_probability=flip, truth=True),
        )
        result = cc.run_iterations(corpus, cb, cfg, client)
        cells = cc.internal_agreement(cc.consensus_table(result.results)).cells
        empirical = sum(cells.values()) / len(cells)
        expected, variance = modal_agreement_expectation(args.iterations, 1 - flip)
        se = math.sqrt(variance / len(cells)) if variance else float("inf")
        z = (empirical - expected) / se if variance else 0.0
        print(f"{flip:>7.2f} {empirical:>10.4f} {expected:>9.4f} {z:>6.2f}")


if __name__ == "__main__":
    main()
