//! The evaluator tier, named for run stamps.
//!
//! There is one tier: the portable scalar power-form evaluator of
//! [`batch`](crate::batch), with nothing to detect or select.
//! [`active_level`] stays because the end-to-end benchmark prints it in its
//! run stamp.

/// The evaluator tier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdLevel {
    /// Portable scalar code: the power-form evaluator.
    Scalar,
}

/// The tier every hash evaluation in the process uses: always
/// [`SimdLevel::Scalar`].
pub fn active_level() -> SimdLevel {
    SimdLevel::Scalar
}
