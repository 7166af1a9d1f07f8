//! The one error shape of the typecheck → compile-with-glue stages.
//!
//! Every case study's multi-language facade (`sharedmem::multilang`,
//! `affine_interop::multilang`, `memgc_interop::multilang`) type checks a
//! program against its convertibility rules and compiles it with glue at
//! the boundaries; either stage can fail, and [`PipelineError`] records
//! which one did, whatever the stage errors of the language pair are.

use std::fmt;

/// The one error shape shared by every case study's pipeline, generic over
/// the per-stage error types.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError<T, C> {
    /// The program did not type check.
    Type(T),
    /// Compilation failed (a boundary had no registered conversion).
    ///
    /// With a sound rule set this cannot happen for programs that type
    /// check, because the type checker consults the same rules.
    Compile(C),
}

impl<T: fmt::Display, C: fmt::Display> fmt::Display for PipelineError<T, C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Type(e) => write!(f, "type error: {e}"),
            PipelineError::Compile(e) => write!(f, "compile error: {e}"),
        }
    }
}

impl<T, C> std::error::Error for PipelineError<T, C>
where
    T: fmt::Display + fmt::Debug,
    C: fmt::Display + fmt::Debug,
{
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_errors_keep_their_stage() {
        assert_eq!(
            PipelineError::<String, String>::Type("t".into()).to_string(),
            "type error: t"
        );
        assert_eq!(
            PipelineError::<String, String>::Compile("c".into()).to_string(),
            "compile error: c"
        );
    }
}
