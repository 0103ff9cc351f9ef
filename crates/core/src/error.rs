//! The framework's unified error type.
//!
//! Every fallible seam of the pipeline — query compilation, model
//! fitting, the training harness, simulation runs, artifact I/O — converges on [`Error`],
//! so callers (the CLI, examples, downstream tools) handle one type and
//! `?` composes across layers.

use sapred_cluster::SimError;
use sapred_predict::linalg::FitError;
use sapred_query::QueryError;
use std::fmt;

/// Anything that can go wrong end to end in the prediction pipeline.
#[derive(Debug)]
pub enum Error {
    /// Query text failed to lex, parse, or analyze.
    Query(QueryError),
    /// A model failed to fit (too few samples, singular normal matrix).
    Fit {
        /// Which model: `"job"`, `"map task"`, or `"reduce task"`.
        model: &'static str,
        /// The underlying least-squares failure.
        source: FitError,
    },
    /// The training harness failed (a worker panicked, or the population
    /// produced no usable runs).
    Training(String),
    /// An operation needed a trained predictor but none was available.
    NotTrained,
    /// A simulation run failed: its event budget ran out, or its
    /// checkpoint bytes did not restore. (An invalid query or fault plan
    /// is [`Error::Invalid`].)
    Sim(SimError),
    /// Reading or writing an artifact failed.
    Io {
        /// What was being read or written.
        context: String,
        /// The underlying I/O failure.
        source: std::io::Error,
    },
    /// Invalid input to the pipeline (bad flag value, unknown mix or
    /// scheduler name, malformed workload or fault plan).
    Invalid(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Query(e) => write!(f, "query error: {e}"),
            Error::Fit { model, source } => write!(f, "fitting the {model} model: {source}"),
            Error::Training(msg) => write!(f, "training: {msg}"),
            Error::NotTrained => {
                write!(f, "no trained predictor (call Pipeline::train first)")
            }
            Error::Sim(e) => write!(f, "simulation: {e}"),
            Error::Io { context, source } => write!(f, "{context}: {source}"),
            Error::Invalid(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Query(e) => Some(e),
            Error::Fit { source, .. } => Some(source),
            Error::Sim(e) => Some(e),
            Error::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<QueryError> for Error {
    fn from(e: QueryError) -> Self {
        Error::Query(e)
    }
}

impl From<SimError> for Error {
    fn from(e: SimError) -> Self {
        match e {
            SimError::Invalid(msg) => Error::Invalid(msg),
            e => Error::Sim(e),
        }
    }
}

impl Error {
    /// Wrap an I/O failure with what was being attempted.
    pub fn io(context: impl Into<String>, source: std::io::Error) -> Self {
        Error::Io { context: context.into(), source }
    }

    /// An invalid-input error.
    pub fn invalid(msg: impl Into<String>) -> Self {
        Error::Invalid(msg.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failing_layer() {
        let e = Error::Fit { model: "job", source: FitError::TooFewSamples };
        assert!(e.to_string().contains("job model"));
        let e: Error = QueryError::parse("bad token").into();
        assert!(e.to_string().starts_with("query error"));
        assert!(Error::NotTrained.to_string().contains("train"));
    }

    #[test]
    fn sources_chain_for_error_reporting() {
        use std::error::Error as _;
        let e = Error::Fit { model: "job", source: FitError::Singular };
        assert!(e.source().is_some());
        assert!(Error::NotTrained.source().is_none());
    }
}
