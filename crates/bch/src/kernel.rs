//! Codec kernels: one bit-serial oracle, one production path.
//!
//! Both compute the *same* function — systematic encode and
//! bounded-distance decode are defined by field arithmetic, and the
//! production path only reorganizes that arithmetic into wider
//! word-parallel steps. The differential harness in
//! `tests/codec_kernels.rs` pins it bit-identical to
//! [`CodecKernel::Reference`].
//!
//! | kernel      | role       | encoder             | syndromes                      | root search           |
//! |-------------|------------|---------------------|--------------------------------|-----------------------|
//! | `Reference` | oracle     | bit-serial LFSR     | bit-serial Horner              | Chien sweep           |
//! | `Fused`     | production | carry-less fold     | residues of the remainder      | trace-split solve     |
//!
//! The production encoder has one pass at every register width, from the
//! one word of `t <= 4` over GF(2^16) up: it folds `W` carry-less
//! multiplies per message word into a state of at least 18 words, on
//! whichever multiply the CPU has, and leaves the register left-aligned
//! in whole words (it works modulo `g * x^pad`). See [`crate::encoder`].
//!
//! `Fused` fuses the validity shortcut and syndrome computation into one
//! LFSR pass over the message: `received mod g` is the message's
//! remainder plus the received parity, zero iff the codeword is valid,
//! and since `g(beta_i) = 0` it satisfies `S_i = (received mod g)(beta_i)`
//! for every designed root `beta_i`, so the `2t` full-codeword Horner
//! passes collapse into one division of an `r`-bit polynomial by the `t`
//! minimal polynomials of the odd roots, the residues evaluated there —
//! see [`crate::syndrome`] — and `t` squarings (`S_2k = S_k^2`). Its root
//! search does not sweep the `n` positions: it factors the locator into
//! linear terms (see [`crate::chien`]), which costs `O(deg^2)` whatever
//! the codeword length and answers `None` on exactly the locators the
//! sweep comes up short on.

/// Selects the datapath a [`crate::BchCode`] instance runs.
///
/// Both kernels produce bit-identical parity, corrections, outcomes and
/// statistics; [`CodecKernel::Reference`] exists so tests and benches can
/// hold the production path against the definition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CodecKernel {
    /// Bit-serial everything. The differential-testing oracle.
    Reference,
    /// The production path: LFSR encoder on a carry-less fold, fused
    /// single-pass syndrome-via-remainder decode, locator roots solved for
    /// instead of searched.
    #[default]
    Fused,
}

impl CodecKernel {
    /// Short stable name for bench records and logs.
    pub fn name(self) -> &'static str {
        match self {
            CodecKernel::Reference => "reference",
            CodecKernel::Fused => "fused",
        }
    }
}

impl std::fmt::Display for CodecKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn production_path_is_the_default_and_names_display() {
        assert_eq!(CodecKernel::default(), CodecKernel::Fused);
        for k in [CodecKernel::Reference, CodecKernel::Fused] {
            assert_eq!(format!("{k}"), k.name());
        }
    }
}
