//! Machine outcomes and dynamic error codes.
//!
//! Both target languages can terminate in a *well-defined* dynamic error:
//! `fail c` for an error code `c`.  The paper's type-safety theorems
//! (Thm 3.3 / 3.4) allow well-typed programs to end in `Conv` (a conversion
//! found a value outside the expected set), `Idx` (array index out of
//! bounds, RefLL only) or `Ptr` (use of a freed manual location, §5 target),
//! but never in `Type` (a stuck machine / dynamic type error).

use std::fmt;

/// Dynamic error codes raised by the target machines (`fail c`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ErrorCode {
    /// A dynamic type error: the machine was about to get stuck.
    ///
    /// Semantic type soundness guarantees well-typed multi-language programs
    /// never fail with this code.
    Type,
    /// Array index out of bounds (StackLang `idx`).
    Idx,
    /// A conversion was asked to convert a value outside the expected set, or
    /// a dynamically-enforced affine resource was used twice.
    Conv,
    /// A manually-managed location was used after being freed (LCVM §5).
    Ptr,
}

impl ErrorCode {
    /// The codes the type-safety theorems permit for well-typed programs.
    ///
    /// `Type` is never benign; `Idx`, `Conv` and `Ptr` are "well-defined
    /// errors" in the sense of the paper.
    pub fn is_benign(self) -> bool {
        !matches!(self, ErrorCode::Type)
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ErrorCode::Type => "Type",
            ErrorCode::Idx => "Idx",
            ErrorCode::Conv => "Conv",
            ErrorCode::Ptr => "Ptr",
        };
        write!(f, "{s}")
    }
}

/// The result of running a target machine under a step budget.
///
/// `OutOfFuel` corresponds to the step-index escape clause of the expression
/// relations: an execution longer than the budget imposes no constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome<V> {
    /// Terminated with a value.
    Value(V),
    /// Terminated with a well-defined dynamic error `fail c`.
    Fail(ErrorCode),
    /// The step budget was exhausted before termination.
    OutOfFuel,
}

impl<V> Outcome<V> {
    /// Returns the value if the outcome is `Value`, otherwise `None`.
    pub fn value(self) -> Option<V> {
        match self {
            Outcome::Value(v) => Some(v),
            _ => None,
        }
    }

    /// Returns a reference to the value if the outcome is `Value`.
    pub fn value_ref(&self) -> Option<&V> {
        match self {
            Outcome::Value(v) => Some(v),
            _ => None,
        }
    }

    /// True if the outcome is `Fail(code)`.
    pub fn is_fail_with(&self, code: ErrorCode) -> bool {
        matches!(self, Outcome::Fail(c) if *c == code)
    }

    /// True if the outcome is permitted by semantic type safety: a value, a
    /// benign failure, or running out of budget.
    pub fn is_safe(&self) -> bool {
        match self {
            Outcome::Value(_) | Outcome::OutOfFuel => true,
            Outcome::Fail(c) => c.is_benign(),
        }
    }

    /// Maps the carried value, preserving failures.
    pub fn map<W>(self, f: impl FnOnce(V) -> W) -> Outcome<W> {
        match self {
            Outcome::Value(v) => Outcome::Value(f(v)),
            Outcome::Fail(c) => Outcome::Fail(c),
            Outcome::OutOfFuel => Outcome::OutOfFuel,
        }
    }
}

impl<V: fmt::Display> fmt::Display for Outcome<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Outcome::Value(v) => write!(f, "value {v}"),
            Outcome::Fail(c) => write!(f, "fail {c}"),
            Outcome::OutOfFuel => write!(f, "out of fuel"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_errors_are_never_benign() {
        assert!(!ErrorCode::Type.is_benign());
        assert!(ErrorCode::Idx.is_benign());
        assert!(ErrorCode::Conv.is_benign());
        assert!(ErrorCode::Ptr.is_benign());
    }

    #[test]
    fn safety_classification() {
        assert!(Outcome::Value(1).is_safe());
        assert!(Outcome::<i32>::OutOfFuel.is_safe());
        assert!(Outcome::<i32>::Fail(ErrorCode::Conv).is_safe());
        assert!(!Outcome::<i32>::Fail(ErrorCode::Type).is_safe());
    }

    #[test]
    fn map_preserves_shape() {
        assert_eq!(Outcome::Value(2).map(|x| x * 10), Outcome::Value(20));
        assert_eq!(
            Outcome::<i32>::Fail(ErrorCode::Idx).map(|x| x * 10),
            Outcome::Fail(ErrorCode::Idx)
        );
        assert_eq!(
            Outcome::<i32>::OutOfFuel.map(|x| x * 10),
            Outcome::OutOfFuel
        );
    }

    #[test]
    fn accessors() {
        assert_eq!(Outcome::Value(7).value(), Some(7));
        assert_eq!(Outcome::<i32>::OutOfFuel.value(), None);
        assert!(Outcome::<i32>::Fail(ErrorCode::Conv).is_fail_with(ErrorCode::Conv));
        assert!(!Outcome::<i32>::Fail(ErrorCode::Conv).is_fail_with(ErrorCode::Idx));
        assert_eq!(Outcome::Value(3).value_ref(), Some(&3));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Outcome::Value(1).to_string(), "value 1");
        assert_eq!(Outcome::<i32>::Fail(ErrorCode::Ptr).to_string(), "fail Ptr");
        assert_eq!(Outcome::<i32>::OutOfFuel.to_string(), "out of fuel");
    }
}
