//! An OUN-flavoured surface syntax for partial object specifications.
//!
//! The paper closes by noting that its notation *"can be augmented with
//! further syntactic coating, in order to improve on the ease of use"*
//! (§9), deferring a concrete specification language (OUN) to other work.
//! This crate provides that coating: a small textual language for
//! universes and specifications that elaborates to `pospec-core` values.
//!
//! ```text
//! universe {
//!   class Objects;            // infinite object class
//!   data Data;                // infinite data class
//!   object o;
//!   object c : Objects;
//!   method R(Data);
//!   method OW;  method W(Data);  method CW;
//!   witnesses Objects 2;
//!   witnesses Data 1;
//! }
//!
//! spec Write {
//!   objects { o }
//!   alphabet {
//!     <Objects, o, OW>; <Objects, o, W(Data)>; <Objects, o, CW>;
//!   }
//!   traces prs [ <x, o, OW> <x, o, W(_)>* <x, o, CW> . x in Objects ]*;
//! }
//! ```
//!
//! The trace language is the paper's own: regular expressions over event
//! templates with the binding operator written `[ R . x in C ]` (the
//! paper's `[R • x ∈ C]`), `|` for alternation, juxtaposition for
//! sequence, and `*`/`+`/`?` postfix.  `traces any;` denotes the
//! unrestricted set.
//!
//! Documents may additionally declare semantic components (Def. 8–9) and
//! record development obligations for the auditor:
//!
//! ```text
//! component Impl { o behaves ServerBehaviour; c behaves ClientBehaviour; }
//! development {
//!   refine Concrete of Abstract;
//!   compose Merged from ViewA with ViewB;
//!   sound ViewA for Impl;
//! }
//! ```

pub mod edit;
pub mod elab;
pub mod incr;
pub mod lexer;
pub mod parser;
pub mod pos;
pub mod pretty;

pub use edit::{apply_edits, coalesce_deletions, select_non_overlapping, EditError, TextEdit};
pub use elab::{parse_document, Document, Elaborated};
pub use incr::{parse_document_session, ElabSession, SessionLoad};
pub use lexer::{LangError, Span};
pub use pretty::{
    print_development, print_document, print_full_document, print_spec, print_universe, PrettyError,
};
