//! Canonical serialization shared across the workspace: a minimal JSON
//! value type whose rendering is byte-stable, plus FNV-1a fingerprinting.
//!
//! Promoted out of `aa-fuzz` so that fuzz-corpus repro files, flight-recorder
//! traces (`aa-trace`), and bench output all speak exactly one codec — a
//! value that renders to the same bytes everywhere is what makes trace
//! determinism checks and case fingerprints meaningful.

#![warn(missing_docs)]

mod json;

pub use json::Json;

/// The FNV-1a 64-bit offset basis.
pub const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// The FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit hash of a byte string.
///
/// Used for fuzz-case fingerprints and trace digests; stable across
/// platforms and releases by construction.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    fnv1a_64_extend(FNV_OFFSET_BASIS, bytes)
}

/// Continues an FNV-1a 64-bit hash over more bytes:
/// `fnv1a_64_extend(fnv1a_64(a), b)` is `fnv1a_64` of `a` followed by
/// `b`, so a record written in pieces is hashed without joining them.
pub fn fnv1a_64_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn fnv_extends_over_pieces() {
        assert_eq!(
            fnv1a_64_extend(fnv1a_64(b"foo"), b"bar"),
            fnv1a_64(b"foobar")
        );
        assert_eq!(
            fnv1a_64_extend(fnv1a_64(b"foobar"), b""),
            fnv1a_64(b"foobar")
        );
    }

    #[test]
    fn fnv_is_order_sensitive() {
        assert_ne!(fnv1a_64(b"ab"), fnv1a_64(b"ba"));
    }
}
