"""Certification toolkit for compressive-sensing measurement matrices."""

from .certify import (
    CertificationReport,
    CoherenceResult,
    NormalizationError,
    RipProfile,
    RipResult,
    SparkResult,
    certify,
    coherence,
    condition_number_bound,
    rip_constant,
    rip_profile,
    spark,
    welch_bound,
)
from .dft_uniqueness import (
    DftUniquenessResult,
    MissingSamplePattern,
    dft_sparsity_limit,
    dft_uniqueness_oracle,
    load_pattern,
    stride_count,
)
from .matrix_core import (
    CsvParseError,
    CsvShapeError,
    DegenerateColumnError,
    MeasurementMatrix,
    build_gaussian,
    build_partial_idft,
    build_random_partial_fourier,
    gram,
    load_matrix_csv,
    normalize_columns,
    save_matrix_csv,
)
from .recon import (
    ExperimentReport,
    SparseVector,
    generate_sparse_signal,
    monte_carlo,
    omp,
)

__version__ = "0.1.0"
