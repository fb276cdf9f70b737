"""Modal Lambek calculus with extraction and island modalities, plus a
compositional tensor-network semantics."""

from .formula import (
    Atom,
    Box,
    Dia,
    Formula,
    FormulaError,
    Mode,
    Over,
    Polarity,
    Tensor,
    Under,
    parse_formula,
    print_formula,
)
from .prover import (
    Arrow,
    ProofTerm,
    Prover,
    ProverError,
    SearchConfig,
    derive_sentence,
    prove,
    validate,
)
from .diagram import (
    Diagram,
    DiagramError,
    Node,
    box,
    cap,
    compose,
    cup,
    dual_type,
    frobenius_network,
    identity,
    normalize,
    permutation,
    spider,
    swap,
    tensor_par,
)
from .translate import (
    AxiomLinking,
    compile_sentence,
    extract_axiom_links,
    interpret_proof,
    interpret_type,
    link_diagram,
    proof_meaning,
)
from .lexicon import (
    LexEntry,
    Lexicon,
    LexiconError,
    builtin_lexicon,
    conjoin_states,
    is_conjoinable,
)

__version__ = "0.1.0"

# exported on first use (PEP 562): ``tensor`` loads numpy, which only
# evaluation needs
_TENSOR_NAMES = ("TensorError", "TensorStore", "closed_form_1d", "eval_diagram",
                 "oracle_eval")


def __getattr__(name: str):
    if name in _TENSOR_NAMES:
        from . import tensor

        return getattr(tensor, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Atom",
    "Box",
    "Dia",
    "Formula",
    "FormulaError",
    "Mode",
    "Over",
    "Polarity",
    "Tensor",
    "Under",
    "parse_formula",
    "print_formula",
    "Arrow",
    "ProofTerm",
    "Prover",
    "ProverError",
    "SearchConfig",
    "derive_sentence",
    "prove",
    "validate",
    "Diagram",
    "DiagramError",
    "Node",
    "box",
    "cap",
    "compose",
    "cup",
    "dual_type",
    "frobenius_network",
    "identity",
    "normalize",
    "permutation",
    "spider",
    "swap",
    "tensor_par",
    "AxiomLinking",
    "compile_sentence",
    "extract_axiom_links",
    "interpret_proof",
    "interpret_type",
    "link_diagram",
    "proof_meaning",
    "TensorError",
    "TensorStore",
    "closed_form_1d",
    "eval_diagram",
    "oracle_eval",
    "LexEntry",
    "Lexicon",
    "LexiconError",
    "builtin_lexicon",
    "conjoin_states",
    "is_conjoinable",
    "__version__",
]
