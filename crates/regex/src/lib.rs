//! Trace regular expressions with the paper's `•` binding operator.
//!
//! The concrete trace sets of Johnsen & Owe (2002) are written with a
//! prefix-of-regular-expression predicate:
//!
//! ```text
//! T(Write) ≜ { h : Seq[α(Write)] | h prs [[⟨x,o,OW⟩ ⟨x,o,W⟩* ⟨x,o,CW⟩] • x ∈ Objects]* }
//! ```
//!
//! `h prs R` holds when `h` is a prefix of a word of the regular language
//! `R`; the binding operator `•` binds the variable `x` afresh for each
//! traversal of the enclosing loop, so a *different* environment object may
//! take the write lock each round.  Because any set `{h | h prs R}` is
//! prefix closed, these predicates define legal Def.-1 trace sets by
//! construction.
//!
//! This crate implements:
//!
//! * the expression AST ([`ast::Re`]) over event *templates* whose object
//!   positions may be variables ([`ast::Template`]);
//! * a Thompson-style NFA with explicit binding scopes ([`nfa`]), whose
//!   simulation states carry variable environments;
//! * the [`prs`](prs::prs) predicate itself, via NFA simulation plus a
//!   static liveness analysis (a simulation state counts only if an
//!   accepting state is still reachable from it);
//! * deterministic automata over a **finitized concrete alphabet**
//!   ([`dfa::ConcreteDfa`]): determinization, product, complement,
//!   language inclusion with shortest counterexamples, and hiding
//!   (erasing internal events to ε) — the machinery behind exact
//!   refinement and composition checking in `pospec-core`/`pospec-check`.

pub mod ast;
pub mod dfa;
pub mod inclusion;
pub mod minimize;
pub mod nfa;
pub mod prs;

pub use ast::{Env, Re, TArg, TObj, Template, VarId};
pub use dfa::{AcceptMode, AcceptedPrefixes, ConcreteDfa};
pub use inclusion::{
    accepts_outside_bounds, accepts_word_of_length_at_least, lazy_lifted_inclusion,
    InclusionOutcome,
};
pub use nfa::Nfa;
pub use prs::{in_lang, prs, CompiledRe};
