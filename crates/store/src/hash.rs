//! Content addressing for profiles.
//!
//! A profile's identity is the FNV-1a hash of its canonical JSON
//! serialization. `NumaProfile::to_json` is byte-deterministic (object
//! keys follow struct declaration order and floats render canonically),
//! so two runs that produced identical measurements hash identically no
//! matter how the bytes arrived — ingesting the same run twice, or the
//! same profile pretty-printed, dedups to one stored copy.
//!
//! [`ProfileId::of`] never materializes that JSON: the profile streams
//! its canonical text through `serde::Serializer` into a sink that
//! folds each byte into the hash and counts them, so identity costs one
//! allocation-free pass whose floor is FNV-1a's one multiply per byte.

use numa_profiler::NumaProfile;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a and length of the JSON text streamed into it.
struct HashSink {
    hash: u64,
    len: usize,
}

impl serde::Sink for HashSink {
    fn write(&mut self, text: &str) {
        self.hash = fnv1a_extend(self.hash, text.as_bytes());
        self.len += text.len();
    }
}

/// Mix one more 64-bit value into a running hash (order-sensitive).
pub fn mix(h: u64, x: u64) -> u64 {
    let mut h = h ^ x.rotate_left(31);
    h = h.wrapping_mul(FNV_PRIME);
    h ^ (h >> 29)
}

/// Content address of one stored profile.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ProfileId(pub u64);

impl ProfileId {
    /// Hash the canonical serialization of a profile, returning the id
    /// and the canonical JSON's byte length (memory accounting). The
    /// JSON itself is streamed into the hash, never held.
    pub fn of(profile: &NumaProfile) -> (ProfileId, usize) {
        let mut s = serde::Serializer::new(HashSink {
            hash: FNV_OFFSET,
            len: 0,
        });
        profile.write_json(&mut s);
        let sink = s.into_inner();
        (ProfileId(sink.hash), sink.len)
    }
}

impl fmt::Display for ProfileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl fmt::Debug for ProfileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ProfileId({self})")
    }
}

impl FromStr for ProfileId {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        u64::from_str_radix(s, 16)
            .map(ProfileId)
            .map_err(|_| format!("not a 16-hex-digit profile id: {s:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_distinguishes_inputs() {
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
        assert_ne!(fnv1a(b""), fnv1a(b"\0"));
        assert_eq!(fnv1a(b"profile"), fnv1a(b"profile"));
    }

    #[test]
    fn mix_is_order_sensitive() {
        assert_ne!(mix(mix(0, 1), 2), mix(mix(0, 2), 1));
    }

    #[test]
    fn id_round_trips_through_hex() {
        let id = ProfileId(0x0123_4567_89ab_cdef);
        let parsed: ProfileId = id.to_string().parse().unwrap();
        assert_eq!(parsed, id);
        assert!("xyz".parse::<ProfileId>().is_err());
    }
}
