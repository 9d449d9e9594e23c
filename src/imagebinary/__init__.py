"""Exact weighted-automata toolkit: image-binary automata over finite and
infinite words, GF(2) automata and shift registers, disambiguation of
boundedly ambiguous Buchi acceptors, and probabilistic model checking
against Markov chains.  All results are exact rationals or GF(2) values.
"""

from .errors import (
    AutomataError,
    InputError,
    InternalInvariantError,
    ParseError,
    SemanticError,
    ValidationError,
)
from .fields import F2, GF2, QQ, field_by_name
from .matrix import CoordBasis, Matrix
from .wa import (
    WeightedAutomaton,
    add,
    as_word,
    check_forward_conjugate,
    const_one,
    equivalent,
    eval_word,
    hadamard,
    language_table,
    minimize,
    negate,
    span_explore,
    zero_automaton,
)
from .ifa import (
    Dfa,
    HankelBlock,
    block_rank,
    complement,
    dfa_to_ifa,
    hankel_block,
    ifa_to_dfa,
    intersect,
    is_image_binary,
    nfa_to_dfa,
    nfa_to_ifa,
    union,
    words_up_to,
)
from .mod2 import (
    LfsrSpec,
    ShiftRegisterReport,
    ifa_to_mod2,
    lfsr_period,
    lfsr_sequence,
    lfsr_to_mod2ma,
    shift_register_rank_report,
)
from .buchi import (
    OVERFLOW,
    CountVector,
    Iba,
    Lasso,
    Nba,
    binariness_witness,
    check_ambiguity_on_lassos,
    diamond_on_loop,
    iba_lasso_count_final,
    iba_lasso_eval,
    is_ultimately_stable,
    kdis,
    kdis_successor_weights,
    kdis_weight_w,
    nba_lasso_accepts,
    nba_lasso_count_final,
    num_succ,
    trim_iba,
)
from .mc import (
    Fiber,
    MarkovChain,
    ProductSystem,
    SccClass,
    build_product,
    classify_scc,
    model_check,
    solve_values,
)
from .formats import (
    load_automaton,
    load_markov_chain,
    parse_automaton,
    parse_markov_chain,
    save_automaton,
    save_markov_chain,
    serialize_automaton,
    serialize_markov_chain,
)
from .fixtures import (
    bounded_ambiguity_nba,
    conjugated_ifa,
    generate_fixture_files,
    random_dfa,
    random_invertible_int_matrix,
    random_mc,
)

__version__ = "0.1.0"
