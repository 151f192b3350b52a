//! Baseline index-selection algorithms, reimplemented on the shared
//! what-if substrate so they can be compared against AIM exactly as the
//! paper does in §VI-B (Figures 4 and 5) and §VI-C (Figure 6).
//!
//! | Advisor | Class | Search |
//! |---|---|---|
//! | [`Extend`] / [`Gia`] | academic SOTA | add-or-extend one column per step, best benefit per byte |
//! | [`Dta`] | industrial SOTA | per-query candidates → merging → greedy anytime enumeration |
//!
//! All advisors implement [`aim_core::IndexAdvisor`] and report the number
//! of optimizer (what-if) calls of their last run — the quantity that
//! dominates their runtime, per Papadomanolakis et al. and §VIII-a of the
//! paper.

pub mod common;
pub mod dta;
pub mod extend;

pub use common::{indexable_columns, syntactic_candidates, CostEvaluator};
pub use dta::Dta;
pub use extend::{Extend, Gia};
