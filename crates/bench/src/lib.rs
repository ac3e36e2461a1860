//! The scheduler head-to-head bench (`benches/engine.rs`) and the
//! dependency-free criterion stand-in it runs on.

// Library code must stay panic-free on arbitrary inputs: failures are
// typed `SimError`s, never `unwrap()`/`panic!`. Tests are exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]

pub mod criterion;
