//! # gss-query
//!
//! The query-translation layer of paper Figure 3: users describe queries
//! in a compact textual DSL (or the typed [`QueryDsl`]/[`WindowDsl`] API);
//! the translator derives workload characteristics and configures general
//! slicing operators.
//!
//! ```
//! use gss_core::{StorePolicy, StreamOrder};
//! use gss_query::{translate, QueryDsl};
//!
//! let queries = [
//!     QueryDsl::parse("SUM OVER SLIDE 10s 2s").unwrap(),
//!     QueryDsl::parse("SUM OVER TUMBLE 5s").unwrap(),
//!     QueryDsl::parse("P95 OVER SESSION 30s").unwrap(),
//! ];
//! let translated = translate(&queries, StreamOrder::InOrder, 0, StorePolicy::Lazy).unwrap();
//! // Both SUM queries share one slice store; P95 gets its own operator.
//! assert_eq!(translated.operator_count(), 2);
//! ```

pub mod any;
mod duration;
pub mod spec;
pub mod translate;

pub use any::{AggKind, AnyAggregate, AnyPartial, Value};
pub use spec::WindowDsl;
pub use translate::{translate, QueryDsl, Translated};
