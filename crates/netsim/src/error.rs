//! Error types for the simulator.

use crate::topology::NodeId;
use std::fmt;

/// Result alias used across the crate.
pub type NetResult<T> = Result<T, NetError>;

/// Everything that can go wrong while building or running a simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// No route exists between the two nodes (disconnected topology).
    NoRoute { src: NodeId, dst: NodeId },
    /// An explicit path was supplied but two consecutive nodes in it are not
    /// adjacent in the topology.
    BrokenPath { from: NodeId, to: NodeId },
    /// A node id referenced a node that does not exist.
    UnknownNode(NodeId),
    /// A transfer of zero bytes was requested.
    EmptyTransfer,
    /// A flow or process id was used after completion/cancellation.
    StaleHandle(&'static str),
    /// A transfer stage gave up on an endpoint: an upload part or rsync
    /// stage exceeded its retry limit.
    Blocked { at: NodeId, reason: &'static str },
    /// The simulation reached its configured event budget — almost always a
    /// protocol livelock in a process implementation.
    EventBudgetExhausted { events: u64 },
    /// A transfer spent its whole retry budget on throttles and transient
    /// errors without completing (the bounded-retry analogue of an HTTP
    /// client giving up on a misbehaving endpoint).
    RetryBudgetExhausted { at: NodeId, budget: u32 },
    /// A transfer ran past its hard deadline in simulated time.
    DeadlineExceeded { at: NodeId },
    /// The root process finished without producing a value.
    NoResult,
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::NoRoute { src, dst } => write!(f, "no route from {src} to {dst}"),
            NetError::BrokenPath { from, to } => {
                write!(f, "explicit path broken: {from} is not adjacent to {to}")
            }
            NetError::UnknownNode(n) => write!(f, "unknown node {n}"),
            NetError::EmptyTransfer => write!(f, "transfer of zero bytes requested"),
            NetError::StaleHandle(what) => write!(f, "stale {what} handle"),
            NetError::Blocked { at, reason } => write!(f, "blocked at {at}: {reason}"),
            NetError::EventBudgetExhausted { events } => {
                write!(
                    f,
                    "event budget exhausted after {events} events (protocol livelock?)"
                )
            }
            NetError::RetryBudgetExhausted { at, budget } => {
                write!(f, "retry budget ({budget}) exhausted talking to {at}")
            }
            NetError::DeadlineExceeded { at } => {
                write!(f, "transfer deadline exceeded talking to {at}")
            }
            NetError::NoResult => write!(f, "root process finished without a result"),
        }
    }
}

impl std::error::Error for NetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = NetError::NoRoute {
            src: NodeId(1),
            dst: NodeId(2),
        };
        assert_eq!(e.to_string(), "no route from n1 to n2");
        let e = NetError::EventBudgetExhausted { events: 10 };
        assert!(e.to_string().contains("livelock"));
        let e = NetError::RetryBudgetExhausted {
            at: NodeId(3),
            budget: 8,
        };
        assert_eq!(e.to_string(), "retry budget (8) exhausted talking to n3");
        let e = NetError::DeadlineExceeded { at: NodeId(4) };
        assert!(e.to_string().contains("deadline"));
    }

    #[test]
    fn is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&NetError::EmptyTransfer);
    }
}
