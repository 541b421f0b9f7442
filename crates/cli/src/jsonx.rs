//! Included by path from `benchmark/src/json.rs:6`; the reader is `cards_net::json`.
pub use cards_net::json::{parse, Json};
