//! CLASP — the CLoud-based Applications Speed Platform.
//!
//! This crate is the paper's primary contribution: a measurement platform
//! that orchestrates cloud VMs to run longitudinal throughput tests
//! against Internet speed-test servers, and the analysis that detects
//! diurnal congestion in the results.
//!
//! The pieces, mapped to the paper:
//!
//! * [`world`] — the shared environment: topology, server registry, load
//!   model, routing (the substitute for "the Internet + GCP");
//! * [`select`] — §3.1's two server-selection methods:
//!   [`select::topology`] (bdrmap pilot scan → group servers by border
//!   link → pick one per link) and [`select::differential`]
//!   (Speedchecker-style tier-latency pre-test → candidate tuples →
//!   server choice);
//! * [`plan`] — §3.2's deployment planning: the 17-tests/hour budget, VM
//!   counts per region, zone spreading;
//! * [`campaign`] — the longitudinal measurement loop: hourly cron with
//!   randomized order, speed tests, traceroutes, bucket uploads,
//!   billing;
//! * [`exec`] — the deterministic worker pool behind `--jobs N`:
//!   campaign units scatter across scoped threads and gather in
//!   canonical order, bit-identical at every job count;
//! * [`runner`] — the unified execution entrypoint: one builder for
//!   fresh/resumed, batch/streaming, serial/parallel, observed or not;
//! * [`pipeline`] — §3.3's processing: raw bucket objects → time-series
//!   database;
//! * [`congestion`] — §3.3's detection method: normalized peak-to-trough
//!   variability `V(s,d)`, the elbow-chosen threshold `H`, hourly labels
//!   `V_H(s,t)`, congestion events and hour-of-day probabilities;
//! * [`tiercmp`] — §4.1's premium-vs-standard comparison `Δ_m(S,t)`;
//! * [`congestion_ext`] — the §5 future-work detectors (autocorrelation
//!   and hidden-Markov-model based), implemented and compared against
//!   the threshold method;
//! * [`reselect`] — the §5 future-work automatic re-selection: re-run
//!   the pilot scan against a churned server registry and compute the
//!   update plan;
//! * [`diag`] — congestion localization and mitigation ranking, scored
//!   against the simulator's per-link ground truth: fault-injection
//!   scenarios, ranked border links per window (precision@1 / MRR), and
//!   predicted-vs-replayed mitigation actions (see DESIGN.md §14).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod congestion;
pub mod congestion_ext;
pub mod crosscloud;
pub mod diag;
pub mod exec;
pub mod pipeline;
pub mod plan;
pub mod reselect;
pub mod runner;
pub mod select;
pub mod tiercmp;
pub mod world;

pub use campaign::{Campaign, CampaignConfig, CampaignResult};
pub use clasp_obs::Observer;
pub use congestion::{CongestionAnalysis, CongestionEvent, DayVariability};
pub use runner::Runner;
pub use world::World;
