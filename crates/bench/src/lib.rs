//! # congest-bench
//!
//! The experiment suite reproducing every quantitative claim of the paper (see
//! DESIGN.md §4 for the index): [`experiments`] holds one function per claim,
//! [`table`] the rendering/fitting helpers. The `experiments` binary prints the
//! tables to stdout, in DESIGN.md §4's order. This crate measures nothing: the
//! repo's one benchmark is the separate `bench/` package (see `bench/README.md`).

pub mod experiments;
pub mod table;
