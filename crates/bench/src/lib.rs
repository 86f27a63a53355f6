//! # bench — the reproduction harness
//!
//! * [`repro`] — renders every paper table and figure from fresh campaign
//!   runs (used by the `repro` binary).
//! * [`ablations`] — the extension experiments from `DESIGN.md` §6:
//!   store-and-forward vs pipelined relaying (A1), selector strategies vs
//!   the oracle (A2), congestion sweeps (A3), and multi-hop detours.
//! * [`gate`] — the regression gates of the `flowsim` bench as one table.

pub mod ablations;
pub mod gate;
pub mod repro;
