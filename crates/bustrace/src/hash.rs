//! 64-bit FNV-1a: the one stable, dependency-free hash the workspace
//! uses wherever a digest must not change across runs or platforms
//! (artifact section checksums, trace-cache file names, daemon shard
//! keys). `std`'s `DefaultHasher` is randomized per process, so it
//! cannot serve any of those.

/// FNV-1a offset basis: the digest of the empty input.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Extends the FNV-1a digest `hash` with `bytes`, so a digest can be
/// built incrementally: `fnv1a_extend(fnv1a(a), b) == fnv1a(a ++ b)`.
pub fn fnv1a_extend(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// FNV-1a digest of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), FNV_OFFSET);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn extending_equals_hashing_the_concatenation() {
        assert_eq!(fnv1a_extend(fnv1a(b"foo"), b"bar"), fnv1a(b"foobar"));
    }
}
