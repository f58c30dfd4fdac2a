//! Typed serving-path errors.
//!
//! Every failure mode the daemon can hit has a variant, and every
//! variant has a stable wire code — the protocol layer sends
//! `ERR <code> <message>` so clients (and the load generator's
//! assertions) can tell a shed request from a timeout from a
//! malformed line without parsing prose.

use taster_feeds::PipelineError;

/// Everything that can go wrong on the serving path.
#[derive(Debug)]
pub enum ServeError {
    /// The request line was not a known command (or was not valid
    /// UTF-8, or exceeded the request-size cap).
    Malformed(String),
    /// A socket operation exceeded its deadline (slow-loris client,
    /// stalled reader) or a request exceeded its end-to-end budget.
    Timeout(String),
    /// Admission control shed the request: the tick's `--max-pending`
    /// requests were already served.
    Overloaded(String),
    /// The queried artifact does not exist yet (no sealed epoch, or a
    /// final report requested before ingestion completed).
    NotReady(String),
    /// The daemon is draining and no longer accepts new work.
    ShuttingDown,
    /// A checkpoint could not be written, read, or validated.
    Checkpoint(String),
    /// The underlying pipeline rejected the scenario or fault profile.
    Pipeline(PipelineError),
    /// Any other I/O failure on the socket or checkpoint directory.
    Io(String),
}

impl ServeError {
    /// Stable one-word wire code, sent as `ERR <code> …`.
    pub fn code(&self) -> &'static str {
        match self {
            ServeError::Malformed(_) => "malformed",
            ServeError::Timeout(_) => "timeout",
            ServeError::Overloaded(_) => "overloaded",
            ServeError::NotReady(_) => "not-ready",
            ServeError::ShuttingDown => "shutting-down",
            ServeError::Checkpoint(_) => "checkpoint",
            ServeError::Pipeline(_) => "pipeline",
            ServeError::Io(_) => "io",
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Malformed(msg) => write!(f, "malformed request: {msg}"),
            ServeError::Timeout(msg) => write!(f, "deadline exceeded: {msg}"),
            ServeError::Overloaded(msg) => write!(f, "overloaded: {msg}"),
            ServeError::NotReady(msg) => write!(f, "not ready: {msg}"),
            ServeError::ShuttingDown => write!(f, "daemon is shutting down"),
            ServeError::Checkpoint(msg) => write!(f, "checkpoint: {msg}"),
            ServeError::Pipeline(e) => write!(f, "pipeline: {e}"),
            ServeError::Io(msg) => write!(f, "io: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<PipelineError> for ServeError {
    fn from(e: PipelineError) -> ServeError {
        ServeError::Pipeline(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> ServeError {
        match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
                ServeError::Timeout(e.to_string())
            }
            _ => ServeError::Io(e.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_distinct() {
        let all = [
            ServeError::Malformed("x".into()),
            ServeError::Timeout("x".into()),
            ServeError::Overloaded("x".into()),
            ServeError::NotReady("x".into()),
            ServeError::ShuttingDown,
            ServeError::Checkpoint("x".into()),
            ServeError::Io("x".into()),
        ];
        let codes: Vec<&str> = all.iter().map(|e| e.code()).collect();
        let mut dedup = codes.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(codes.len(), dedup.len());
    }

    #[test]
    fn io_timeouts_convert_to_typed_timeouts() {
        let e = std::io::Error::new(std::io::ErrorKind::WouldBlock, "slow");
        assert!(matches!(ServeError::from(e), ServeError::Timeout(_)));
        let e = std::io::Error::new(std::io::ErrorKind::TimedOut, "slow");
        assert!(matches!(ServeError::from(e), ServeError::Timeout(_)));
        let e = std::io::Error::new(std::io::ErrorKind::BrokenPipe, "gone");
        assert!(matches!(ServeError::from(e), ServeError::Io(_)));
    }
}
