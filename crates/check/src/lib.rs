//! The verification engine: what the paper did in PVS, done by machine
//! checking.
//!
//! Johnsen & Owe encoded their framework in the PVS theorem prover and
//! verified compositional refinement (Theorem 16) interactively.  This
//! crate substitutes high-volume *mechanical* validation:
//!
//! * [`explore`] — bounded enumeration of trace sets over the finitized
//!   alphabet, sequential or data-parallel (OS threads), with deadlock
//!   detection and bounded refinement falsification;
//! * [`refinement`] — human-readable explanations of `pospec-core`'s
//!   refinement verdicts;
//! * [`gen`] — seeded random generation of universes, alphabets, regular
//!   trace sets and specifications, including *refinements-by-construction*
//!   (exact projections), so that theorem premises are sampled densely;
//! * [`theorems`] — executable statements of the paper's meta-theory
//!   (Property 5, Lemma 6, Theorem 7, Property 12, Lemma 13, Lemma 15,
//!   Theorem 16, Property 17, Theorem 18), each validated over many random
//!   instances, plus *necessity* probes showing that dropping a side
//!   condition (composability, properness) admits genuine counterexamples;
//! * [`report`] — serializable experiment records backing
//!   `EXPERIMENTS.md`.

pub mod coverage;
pub mod development;
pub mod explore;
pub mod gen;
pub mod liveness;
pub mod refinement;
pub mod report;
pub mod testgen;
pub mod theorems;

pub use coverage::{state_coverage, CoverageReport};
pub use development::{Development, DevelopmentError, StepReport};
pub use explore::{
    bounded_refinement_counterexample, count_members_by_len, enumerate_members,
    enumerate_spec_traces, is_deadlocked_bounded, Parallelism,
};
pub use gen::{Arena, SpecGen};
pub use liveness::{quiescence, QuiescenceReport};
pub use refinement::explain_verdict;
pub use report::{ExperimentRecord, Outcome};
pub use testgen::{transition_cover, TestSuite};
pub use theorems::TheoremOutcome;
