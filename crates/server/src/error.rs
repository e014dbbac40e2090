//! Error type of the serving subsystem.

use red_runtime::RuntimeError;

/// Everything that can go wrong standing up or driving a server.
#[derive(Debug)]
pub enum ServerError {
    /// A fleet needs at least one replica.
    EmptyFleet,
    /// A server needs at least one client.
    NoClients,
    /// The load generator needs at least one input to rotate through.
    NoInputs,
    /// A request's input does not match the chip's first-stage layer.
    InputMismatch {
        /// `(height, width, channels)` the first stage expects.
        expected: (usize, usize, usize),
        /// `(height, width, channels)` the request carried.
        actual: (usize, usize, usize),
    },
    /// A request targeted a partition (resident network) the fleet does
    /// not host.
    UnknownNetwork {
        /// The requested partition index.
        network: usize,
        /// How many partitions the fleet hosts.
        partitions: usize,
    },
    /// A client was registered with a tenant index outside the
    /// configured tenant classes.
    UnknownTenant {
        /// The requested tenant index.
        tenant: usize,
        /// How many tenant classes the config declares.
        tenants: usize,
    },
    /// `submit_modeled` was called on a functional server — its replicas
    /// would have nothing to execute.
    NeedsInput,
    /// The load generator's traffic set does not cover the fleet's
    /// partitions one-to-one.
    TrafficMismatch {
        /// Partitions the fleet hosts.
        expected: usize,
        /// Input sets the caller supplied.
        actual: usize,
    },
    /// An open-loop load's offered rate is not a positive, finite number
    /// of requests per second.
    InvalidRate {
        /// The rejected rate.
        rps: f64,
    },
    /// The server (scheduler thread) is gone — submitted after shutdown.
    Disconnected,
    /// The scheduler died (panicked) instead of returning its session
    /// state — e.g. in a custom [`crate::AdmissionPolicy`] or in a
    /// replica's chip execution — or, run by [`crate::drive`], stopped
    /// making progress. Surfaced as a value from
    /// [`crate::Server::try_finish`] and [`crate::drive`] (and a clean
    /// panic message from [`crate::Server::finish`]) rather than
    /// re-raising the foreign panic payload.
    SchedulerFailed {
        /// The panic message, when the payload carried one.
        message: String,
    },
    /// A runtime error from chip compilation or execution.
    Runtime(RuntimeError),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::EmptyFleet => write!(f, "a chip fleet needs at least one replica"),
            ServerError::NoClients => write!(f, "a server needs at least one client"),
            ServerError::NoInputs => {
                write!(f, "the load generator needs at least one request input")
            }
            ServerError::InputMismatch { expected, actual } => write!(
                f,
                "request input {}x{}x{} does not match the chip's first stage ({}x{}x{})",
                actual.0, actual.1, actual.2, expected.0, expected.1, expected.2
            ),
            ServerError::UnknownNetwork {
                network,
                partitions,
            } => write!(
                f,
                "request targets partition {network} but the fleet hosts {partitions}"
            ),
            ServerError::UnknownTenant { tenant, tenants } => write!(
                f,
                "client registered with tenant {tenant} but the config declares {tenants}"
            ),
            ServerError::NeedsInput => write!(
                f,
                "submit_modeled requires a model-only server (ServerConfig::model_only)"
            ),
            ServerError::TrafficMismatch { expected, actual } => write!(
                f,
                "load generator got {actual} input sets for a fleet of {expected} partitions"
            ),
            ServerError::InvalidRate { rps } => write!(
                f,
                "open-loop rate must be positive and finite (requests/s), got {rps}"
            ),
            ServerError::Disconnected => {
                write!(f, "the server is no longer running (channel disconnected)")
            }
            ServerError::SchedulerFailed { message } => {
                write!(f, "the scheduler failed without reporting: {message}")
            }
            ServerError::Runtime(e) => write!(f, "runtime error: {e}"),
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerError::Runtime(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RuntimeError> for ServerError {
    fn from(e: RuntimeError) -> Self {
        ServerError::Runtime(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_name_the_problem() {
        let msg = ServerError::InputMismatch {
            expected: (4, 4, 8),
            actual: (2, 2, 1),
        }
        .to_string();
        assert!(msg.contains("2x2x1") && msg.contains("4x4x8"));
        assert!(ServerError::EmptyFleet.to_string().contains("replica"));
        assert!(ServerError::Disconnected.to_string().contains("server"));
        let msg = ServerError::UnknownNetwork {
            network: 3,
            partitions: 2,
        }
        .to_string();
        assert!(msg.contains('3') && msg.contains('2'));
        assert!(ServerError::NeedsInput.to_string().contains("model-only"));
        let msg = ServerError::TrafficMismatch {
            expected: 3,
            actual: 1,
        }
        .to_string();
        assert!(msg.contains('3') && msg.contains('1'));
        let msg = ServerError::SchedulerFailed {
            message: "policy panicked".into(),
        }
        .to_string();
        assert!(msg.contains("scheduler") && msg.contains("policy panicked"));
        let msg = ServerError::InvalidRate { rps: f64::NAN }.to_string();
        assert!(msg.contains("positive and finite") && msg.contains("NaN"));
    }
}
