//! Engine error type.

use scihadoop_compress::CompressError;
use std::fmt;

/// Errors surfaced by the MapReduce engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MrError {
    /// Intermediate data failed to decompress or parse.
    Intermediate(String),
    /// A segment's CRC-32C trailer did not match its contents.
    Checksum(String),
    /// A codec reported corruption.
    Codec(CompressError),
    /// Invalid job configuration.
    Config(String),
    /// A task panicked.
    TaskFailed(String),
    /// A distributed-runtime transport failure: a socket died, a frame
    /// was malformed, or a worker process disappeared mid-task.
    Net(String),
    /// Several tasks failed before the job could be aborted; every
    /// collected error is preserved.
    Tasks(Vec<MrError>),
}

impl MrError {
    /// Collapse the errors of a failed phase: one error returns as
    /// itself, several as [`MrError::Tasks`].
    pub fn from_task_errors(mut errors: Vec<MrError>) -> MrError {
        assert!(!errors.is_empty(), "no task errors to report");
        if errors.len() == 1 {
            errors.pop().expect("one error")
        } else {
            MrError::Tasks(errors)
        }
    }

    /// All task errors, whether one or many.
    pub fn task_errors(&self) -> &[MrError] {
        match self {
            MrError::Tasks(errs) => errs,
            other => std::slice::from_ref(other),
        }
    }

    /// Whether this error (or any task error inside it) is a detected
    /// data-integrity failure — the signal the runner counts as caught
    /// corruption rather than a logic bug. Both the segment's own
    /// CRC-32C trailer ([`MrError::Checksum`]) and any codec error
    /// qualify: a codec error comes only from decompressing a segment,
    /// and a flip in compressed bytes fails the codec frame's CRC-32C
    /// before any decoder runs.
    pub fn is_checksum(&self) -> bool {
        self.task_errors()
            .iter()
            .any(|e| matches!(e, MrError::Checksum(_) | MrError::Codec(_)))
    }
}

impl fmt::Display for MrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MrError::Intermediate(msg) => write!(f, "intermediate data error: {msg}"),
            MrError::Checksum(msg) => write!(f, "segment checksum failure: {msg}"),
            MrError::Codec(e) => write!(f, "codec error: {e}"),
            MrError::Config(msg) => write!(f, "bad job config: {msg}"),
            MrError::TaskFailed(msg) => write!(f, "task failed: {msg}"),
            MrError::Net(msg) => write!(f, "network error: {msg}"),
            MrError::Tasks(errs) => {
                write!(f, "{} tasks failed: ", errs.len())?;
                for (i, e) in errs.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{e}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for MrError {}

impl From<CompressError> for MrError {
    fn from(e: CompressError) -> Self {
        MrError::Codec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_converts() {
        let e: MrError = CompressError::Truncated("x".into()).into();
        assert!(e.to_string().contains("codec error"));
        assert!(MrError::Config("zero reducers".into())
            .to_string()
            .contains("zero reducers"));
    }

    #[test]
    fn task_errors_collapse_and_expand() {
        let one = MrError::from_task_errors(vec![MrError::Config("a".into())]);
        assert_eq!(one, MrError::Config("a".into()));
        assert_eq!(one.task_errors().len(), 1);

        let many = MrError::from_task_errors(vec![
            MrError::Config("a".into()),
            MrError::TaskFailed("b".into()),
        ]);
        assert!(matches!(&many, MrError::Tasks(errs) if errs.len() == 2));
        assert_eq!(many.task_errors().len(), 2);
        let msg = many.to_string();
        assert!(msg.contains("2 tasks failed"), "{msg}");
        assert!(msg.contains('a') && msg.contains('b'), "{msg}");
    }

    #[test]
    fn checksum_errors_are_detected_even_inside_task_lists() {
        let direct = MrError::Checksum("crc mismatch".into());
        assert!(direct.is_checksum());
        assert!(direct.to_string().contains("checksum"));
        let nested = MrError::Tasks(vec![
            MrError::TaskFailed("x".into()),
            MrError::Checksum("crc".into()),
        ]);
        assert!(nested.is_checksum());
        assert!(!MrError::Config("nope".into()).is_checksum());
        // A CRC mismatch caught inside a codec frame (lz, deflate,
        // bzip) is detected corruption too, and so is a stream the
        // codec cannot decode.
        let frame_crc: MrError = CompressError::ChecksumMismatch {
            stored: 1,
            computed: 2,
        }
        .into();
        assert!(frame_crc.is_checksum());
        let structural: MrError = CompressError::Corrupt("table".into()).into();
        assert!(structural.is_checksum());
        let short: MrError = CompressError::Truncated("stream".into()).into();
        assert!(short.is_checksum());
    }
}
