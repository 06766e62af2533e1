//! Finite, totally ordered real values for use in protocol messages.

use std::fmt;

/// A finite `f64` with a total order — the value type gradecast instances
/// carry for `RealAA`.
///
/// `f64` itself is neither `Eq` nor `Ord` (NaN); protocol values must be
/// finite, so this newtype enforces finiteness at construction and derives
/// its order from [`f64::total_cmp`].
///
/// # Example
///
/// ```
/// use real_aa::R64;
///
/// let a = R64::new(1.5);
/// let b = R64::new(2.0);
/// assert!(a < b);
/// assert_eq!(a.get(), 1.5);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct R64(f64);

impl R64 {
    /// Wraps a finite value.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN or infinite: non-finite values can never be
    /// honest protocol values, and letting them onto the wire would poison
    /// every comparison downstream.
    pub fn new(x: f64) -> Self {
        assert!(x.is_finite(), "protocol values must be finite, got {x}");
        R64(x)
    }

    /// The wrapped value.
    pub fn get(self) -> f64 {
        self.0
    }
}

impl PartialEq for R64 {
    fn eq(&self, other: &Self) -> bool {
        self.0.total_cmp(&other.0) == std::cmp::Ordering::Equal
    }
}

impl Eq for R64 {}

impl PartialOrd for R64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for R64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl std::hash::Hash for R64 {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.to_bits().hash(state);
    }
}

impl fmt::Display for R64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<R64> for f64 {
    fn from(v: R64) -> f64 {
        v.0
    }
}

impl sim_net::Payload for R64 {
    fn size_bytes(&self) -> usize {
        8
    }
}

impl gradecast::GcValue for R64 {
    /// The IEEE-754 bit pattern — injective on the finite values `R64`
    /// admits, and inverted by `from_bits64`, as batched gradecast's
    /// tallying requires.
    fn bits64(&self) -> u64 {
        self.0.to_bits()
    }

    fn from_bits64(bits: u64) -> Self {
        R64::new(f64::from_bits(bits))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_matches_f64() {
        assert!(R64::new(-1.0) < R64::new(0.0));
        assert!(R64::new(0.0) < R64::new(1e-9));
        assert_eq!(R64::new(3.0), R64::new(3.0));
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_rejected() {
        let _ = R64::new(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn infinity_rejected() {
        let _ = R64::new(f64::NEG_INFINITY);
    }

    #[test]
    fn usable_in_btreemap() {
        let mut m = std::collections::BTreeMap::new();
        m.insert(R64::new(2.0), "two");
        m.insert(R64::new(1.0), "one");
        let keys: Vec<f64> = m.keys().map(|k| k.get()).collect();
        assert_eq!(keys, vec![1.0, 2.0]);
    }

    #[test]
    fn display_roundtrip() {
        assert_eq!(R64::new(2.5).to_string(), "2.5");
        assert_eq!(f64::from(R64::new(2.5)), 2.5);
    }

    #[test]
    fn wire_size_is_one_f64() {
        use sim_net::Payload;
        assert_eq!(R64::new(1.0).size_bytes(), 8);
    }
}
