//! # pathalg-engine — executing path-algebra plans
//!
//! The paper deliberately leaves the algorithms for each operator out of scope
//! ("to build a reference implementation, one only needs to specify an
//! algorithm for each operator", Section 7.2). This crate supplies those
//! algorithms and ties the whole stack together:
//!
//! * [`physical`] — the physical implementations of ϕ over a *materialised*
//!   base: the semi-naïve fixpoint from `pathalg-core`, the parallel
//!   base-path frontier engine ([`physical::frontier`], DESIGN.md §7), and
//!   two textbook baselines (a literal transcription of Definition 4.1 and a
//!   DFS with restrictor pruning) that the tests and the `ablations` bench
//!   compare against. A ϕ over a label scan or a label-scan join chain never
//!   materialises its base: it runs on `pathalg-pmr`'s path-multiset
//!   representation (DESIGN.md §8), the engine's one kernel for those.
//! * [`exec`] — [`exec::ExecutionConfig`] (thread count, source batch size)
//!   and [`exec::EngineEvaluator`], the engine-level plan interpreter that
//!   hands every ϕ node and sliced pipeline to the cost model and builds the
//!   PMR over shared per-hop CSR snapshots.
//! * [`cost`] — a simple cardinality/cost model over
//!   [`pathalg_graph::stats::GraphStats`], the ingredient Section 7.3 says a
//!   cost-based optimizer needs, plus the engine's one strategy decision
//!   ([`cost::choose_strategy`]): a sliced PMR pipeline (serial or
//!   parallel), a full PMR drain, the semi-naïve fixpoint, or the base-path
//!   frontier.
//! * [`baseline`] — end-to-end evaluation of a parsed query with the
//!   classical automaton-product algorithm instead of the algebra, used as an
//!   independent correctness oracle and benchmark comparator.
//! * [`runner`] — [`runner::QueryRunner`]: parse → type-check → optimize →
//!   evaluate, the "reference implementation of GQL / SQL-PGQ" the paper
//!   sketches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod cost;
pub mod exec;
pub mod physical;
pub mod runner;

pub use exec::{EngineEvaluator, ExecutionConfig};
pub use runner::{QueryResult, QueryRunner, RunnerConfig};
