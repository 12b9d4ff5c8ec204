//! Query operators.
//!
//! [`mjoin`] is the state-intensive operator the paper studies, run
//! inside [`QueryEngine`](crate::engine::QueryEngine); the stateful
//! [`aggregate`] consumes its flattened results in the example queries
//! (e.g. the intro's Query 1: multi-join + `GROUP BY brokerName` +
//! `min(price)`).

pub mod aggregate;
pub mod mjoin;

pub use aggregate::{AggregateFunction, GroupByAggregate};
pub use mjoin::MJoinOperator;
