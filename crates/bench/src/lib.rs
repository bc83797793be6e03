//! The paper fixtures and the campaigns behind the `paper_report`
//! binary, which regenerates every reproduction row of EXPERIMENTS.md.
//! Each campaign is gated on verdicts and counters; performance is
//! measured by the `perfbench/` workloads.
//!
//! * [`paper`] — the universe and specifications of the paper's running
//!   example (Examples 1–6), shared with the integration tests and
//!   perfbench;
//! * [`scale`] — the SCALE campaign: generated known-answer ring
//!   networks batch-checked against their manifests, cold then warm
//!   through one cache;
//! * [`campaign`] — the FAULT fault-injection campaign: seeds × drop
//!   rates over supervised chaos runs, with same-seed reproduction
//!   checked per cell;
//! * [`service`] — the SERVE campaign: the paper's check matrix sent
//!   twice to an in-process `pospec-serve` instance over real TCP;
//! * [`chaos`] — the CHAOS campaign: a deterministic fault-injecting
//!   TCP proxy between a retrying client and the hardened server, plus
//!   the kill-and-restart cycle over the persistent automaton cache.

pub mod campaign;
pub mod chaos;
pub mod paper;
pub mod scale;
pub mod service;
