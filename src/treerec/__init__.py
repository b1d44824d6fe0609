"""Graded compositionality scores for learned representations.

Fits an explicitly compositional model (one parameter per primitive symbol,
combined along oracle derivation trees) to observed representations; the
reconstruction error of the best fit measures how compositional the
representations are.  Includes tree edit distance over derivations,
topographic similarity, a distance-bound verifier, and a binned mutual
information estimator.
"""

from .analysis import (
    BoundCheckReport,
    ConditionsUnmetError,
    CorrelationResult,
    DegenerateInputError,
    bound_check,
    mutual_information_binned,
    pearson,
    spearman,
    topographic_similarity,
)
from .datagen import (
    GenSpec,
    code_alphabet,
    fig5_alphabets,
    fig5_languages,
    generate_compositional,
    generate_random,
)
from .dataio import (
    DatasetFormatError,
    load_report,
    read_dataset,
    report_to_dict,
    write_dataset,
    write_report,
)
from .derivation import (
    Derivation,
    DerivationSyntaxError,
    Leaf,
    Node,
    Symbol,
    all_derivations,
    format_derivation,
    pairwise_tree_edit_distances,
    parse_derivation,
    primitives_of,
    size,
    tree_edit_distance,
)
from .solver import (
    Dataset,
    DivergenceError,
    FitConfig,
    MissingPrimitiveError,
    PrimitiveTable,
    Record,
    TreReport,
    closed_form_fit,
    eval_compositional,
    fit,
    gradient_check,
    homomorphism_residuals,
    objective,
    tre_datum,
    trivial_composition_table,
)
from .space import (
    AdditiveComposition,
    CodeShape,
    CompositionLookupError,
    CompositionSpec,
    DistanceSpec,
    LinearComposition,
    ShapeMismatchError,
    TableComposition,
    VectorShape,
    ZeroNormError,
    compose,
    decode_message,
    distance,
    encode_message,
    is_hard_code,
)

__version__ = "0.1.0"
