//! Sketch snapshot serialization over the in-tree [`Json`] layer —
//! the replacement for the old `serde`-derived `--features serde`
//! support.
//!
//! [`Snapshot`] is deliberately narrow: a type maps itself to a
//! [`Json`] value and reconstructs itself from one, validating
//! structural invariants on the way in (reconstruction goes through
//! the type's own constructors wherever possible, so derived state —
//! S-tables, popcounts, thresholds — is rebuilt rather than trusted
//! from the wire).
//!
//! Implementations for the estimator types live next to the types
//! (`snapshot_impl` modules in `smb-core` and `smb-baselines`); this
//! module provides the trait, the primitive impls, and the impls for
//! `smb-hash`'s config types.

use crate::json::{Json, JsonError};
use smb_hash::{HashAlgorithm, HashScheme};

/// A type that can round-trip through the in-tree JSON layer.
pub trait Snapshot: Sized {
    /// Serialize to a JSON value.
    fn to_json(&self) -> Json;

    /// Reconstruct from a JSON value, validating invariants.
    fn from_json(v: &Json) -> Result<Self, JsonError>;

    /// Serialize to a compact JSON string.
    fn to_json_string(&self) -> String {
        self.to_json().to_string()
    }

    /// Parse and reconstruct from a JSON string.
    fn from_json_str(s: &str) -> Result<Self, JsonError> {
        Self::from_json(&Json::parse(s)?)
    }
}

// ---- primitives -------------------------------------------------------

macro_rules! impl_snapshot_uint {
    ($($ty:ty => $as:ident),+ $(,)?) => {
        $(
            impl Snapshot for $ty {
                fn to_json(&self) -> Json {
                    Json::Int(*self as i128)
                }
                fn from_json(v: &Json) -> Result<Self, JsonError> {
                    v.$as()
                }
            }
        )+
    };
}

impl_snapshot_uint!(u8 => as_u8, u32 => as_u32, u64 => as_u64, usize => as_usize);

impl Snapshot for f64 {
    fn to_json(&self) -> Json {
        Json::Float(*self)
    }
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_f64()
    }
}

impl Snapshot for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_bool()
    }
}

impl Snapshot for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(v.as_str()?.to_owned())
    }
}

impl<T: Snapshot> Snapshot for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(Snapshot::to_json).collect())
    }
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_arr()?.iter().map(T::from_json).collect()
    }
}

// ---- smb-hash config types --------------------------------------------

impl Snapshot for HashAlgorithm {
    fn to_json(&self) -> Json {
        Json::Str(
            match self {
                HashAlgorithm::Xxh64 => "xxh64",
                HashAlgorithm::Murmur3_128Low => "murmur3_128_low",
                HashAlgorithm::Fnv1aMixed => "fnv1a_mixed",
            }
            .to_owned(),
        )
    }

    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v.as_str()? {
            "xxh64" => Ok(HashAlgorithm::Xxh64),
            "murmur3_128_low" => Ok(HashAlgorithm::Murmur3_128Low),
            "fnv1a_mixed" => Ok(HashAlgorithm::Fnv1aMixed),
            other => Err(JsonError::new(format!("unknown hash algorithm `{other}`"))),
        }
    }
}

impl Snapshot for HashScheme {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("algorithm".into(), self.algorithm().to_json()),
            ("seed".into(), Json::Int(self.seed() as i128)),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let algorithm = HashAlgorithm::from_json(v.field("algorithm")?)?;
        let seed = v.field("seed")?.as_u64()?;
        Ok(HashScheme::new(algorithm, seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Snapshot + PartialEq + std::fmt::Debug>(value: &T) {
        let s = value.to_json_string();
        let back = T::from_json_str(&s).expect("reconstruct");
        assert_eq!(&back, value, "via {s}");
    }

    #[test]
    fn primitives_round_trip() {
        roundtrip(&0u8);
        roundtrip(&255u8);
        roundtrip(&u32::MAX);
        roundtrip(&u64::MAX);
        roundtrip(&123456usize);
        roundtrip(&0.123456789f64);
        roundtrip(&true);
        roundtrip(&String::from("snapshot"));
        roundtrip(&vec![1u64, u64::MAX, 0]);
        roundtrip(&vec![0.5f64, 1.0 / 3.0]);
    }

    #[test]
    fn hash_scheme_round_trips() {
        for alg in [
            HashAlgorithm::Xxh64,
            HashAlgorithm::Murmur3_128Low,
            HashAlgorithm::Fnv1aMixed,
        ] {
            roundtrip(&alg);
            roundtrip(&HashScheme::new(alg, 0xDEAD_BEEF_CAFE_F00D));
        }
    }

    #[test]
    fn unknown_algorithm_rejected() {
        assert!(HashAlgorithm::from_json_str("\"sha256\"").is_err());
    }

    #[test]
    fn seed_above_2_pow_53_survives() {
        let scheme = HashScheme::new(HashAlgorithm::Xxh64, u64::MAX - 1);
        let back = HashScheme::from_json_str(&scheme.to_json_string()).unwrap();
        assert_eq!(back.seed(), u64::MAX - 1);
    }
}
