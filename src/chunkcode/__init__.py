"""Deductive coding of documents with chat-completion models.

Codes a corpus against a binary codebook using either whole-text prompts or
fixed-size word chunks, repeats the exercise over independent iterations,
reduces to consensus codes, and compares the result against human rating
matrices with agreement and significance statistics.
"""

from .agreement import (
    ConfusionCounts,
    KappaComparison,
    RatingMatrix,
    accuracy,
    confusion,
    fleiss_kappa,
    identification_rates,
    kappa_band,
    kappa_with_llm,
    kappa_with_llm_by_doc,
    manual_consensus,
    negative_identification_rate,
    percent_agreement,
    precision,
    rating_matrix_from_iterations,
    read_ratings_csv,
    recall,
    write_ratings_csv,
)
from .classifier import (
    BinaryCode,
    KeyPhraseSet,
    classify,
    default_key_phrases,
    load_key_phrases,
)
from .codebook import Codebook, Dimension, default_codebook, load_codebook
from .engine import (
    CellFailure,
    ConsensusResult,
    InternalAgreement,
    IterationResult,
    PromptRecord,
    RunConfig,
    RunResult,
    consensus,
    consensus_table,
    internal_agreement,
    iteration_results_from_records,
    read_records_jsonl,
    run_iterations,
)
from .errors import (
    CacheMissError,
    ChunkCodeError,
    CodebookError,
    ConfigError,
    DegenerateKappaError,
    IngestionError,
    SubjectMismatchError,
    TransportError,
    UndefinedMetricError,
)
from .ingestion import (
    Chunk,
    DocumentText,
    chunk_document,
    load_document,
    load_manifest,
    preprocess,
    tokenize_words,
)
from .llm_client import (
    LLMClient,
    LLMResponse,
    PromptRequest,
    StochasticMock,
    render_prompt,
    retry_delay,
)
from .stats import (
    Sample,
    TestResult,
    chi_square_sf,
    kruskal_wallis,
    mann_whitney_u,
    midranks,
    pairwise_mann_whitney,
    wilcoxon_signed_rank_one_sample,
)

__all__ = [name for name in dir() if not name.startswith("_")]
