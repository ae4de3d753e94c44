//! Reduced ordered binary decision diagrams (ROBDDs) for the `symbi`
//! logic-synthesis suite.
//!
//! This crate is a self-contained BDD package in the tradition of CUDD,
//! providing the substrate for the symbolic bi-decomposition algorithms of
//! Kravets & Mishchenko (DATE 2009). It implements:
//!
//! - a hash-consed, open-addressed unique table with a bounded lossy
//!   computed-table cache ([`Manager`], tunable via [`KernelConfig`]),
//! - mark-and-sweep garbage collection over an explicit root set
//!   ([`Manager::protect`] / [`Ref`]), with auto-GC at safe points
//!   ([`Manager::maybe_gc`]) and order-preserving compaction
//!   ([`Manager::compact`]),
//! - the Boolean connectives and the `ITE` operator,
//! - existential/universal quantification over variable cubes,
//! - variable substitution (single and simultaneous vector composition),
//! - structural analyses: support, node counting, satisfying-assignment
//!   counting and enumeration,
//! - symbolic combinatorics used by the paper's choice subsetting:
//!   weight functions `w_k(c)`, integer encodings, comparison relations
//!   ([`combin`]),
//! - DOT export for debugging ([`dot`]).
//!
//! Variable order defaults to creation order ([`Manager::new_var`]
//! appends at the bottom), but variables and levels are decoupled:
//! [`Manager::with_var_order`] starts from any permutation,
//! [`Manager::reordered`] rebuilds chosen roots under a new order, and
//! [`Manager::sift_in_place`] runs Rudell sifting by adjacent-level
//! swaps without rebuilding. The
//! algorithms in `symbi-core` plan their variable layout up front
//! (interleaving decision and function variables), matching the scales
//! reported in the paper.
//!
//! # Example
//!
//! ```
//! use symbi_bdd::Manager;
//!
//! let mut m = Manager::new();
//! let x = m.new_var();
//! let y = m.new_var();
//! let f = m.or(x, y);
//! let g = m.and(x, y);
//! // x + y is not x & y ...
//! assert_ne!(f, g);
//! // ... but De Morgan holds.
//! let nx = m.not(x);
//! let ny = m.not(y);
//! let h = m.and(nx, ny);
//! let h = m.not(h);
//! assert_eq!(f, h);
//! ```

mod analysis;
mod budgeted;
pub mod combin;
mod compose;
mod constrain;
pub mod dot;
mod governor;
pub mod hash;
pub mod image;
mod manager;
mod node;
pub mod par;
mod quant;
mod restrict;
mod transfer;

pub use governor::{
    CancelHandle, FaultKind, FaultPlan, FaultRule, FaultSite, ResourceExhausted, ResourceGovernor,
    MAX_DEADLINE_OVERSHOOT_STEPS,
};
pub use manager::{KernelConfig, Manager, ManagerStats, Ref, RootSet};
pub use node::{NodeId, VarId};
pub use par::TaskPanic;

#[cfg(test)]
mod tests_reorder;
#[cfg(test)]
mod tests_semantics;
