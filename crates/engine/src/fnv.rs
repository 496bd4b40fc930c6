//! 64-bit FNV-1a: the stable, platform-independent hash behind the engine
//! configuration fingerprint, dispatch shard fingerprints and cache-store
//! record checksums. Unlike `std::hash` its output never changes across
//! platforms, runs or releases, so persisted values stay loadable.

/// The FNV-1a offset basis: the hash of empty input, and the state every
/// hash starts from.
pub const FNV1A_64_BASIS: u64 = 0xcbf29ce484222325;

/// Continues the 64-bit FNV-1a state `h` over `bytes`. Hashing chunks in
/// turn equals hashing their concatenation, so
/// `fnv1a_64(FNV1A_64_BASIS, bytes)` is the hash of `bytes`.
pub fn fnv1a_64(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_vectors() {
        assert_eq!(fnv1a_64(FNV1A_64_BASIS, b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a_64(FNV1A_64_BASIS, b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a_64(FNV1A_64_BASIS, b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn chunks_continue_the_hash() {
        let whole = fnv1a_64(FNV1A_64_BASIS, b"foobar");
        for split in 0..=6 {
            let (a, b) = b"foobar".split_at(split);
            assert_eq!(fnv1a_64(fnv1a_64(FNV1A_64_BASIS, a), b), whole);
        }
    }
}
