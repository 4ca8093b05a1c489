//! Carry-less multiplication kernels: one oracle, one production path.
//!
//! Dense GF(2)\[x\] multiplication over bit-packed [`Block`] words:
//!
//! | kernel | role | technique |
//! |--------|------|-----------|
//! | `mul_raw_reference` ([`MulKernel::Reference`]) | oracle | bit-serial schoolbook — the definition, and the reference the production path is differential-tested against |
//! | `mul_raw_clmul` ([`MulKernel::Clmul`]) | production | column by column: one 64x64 carry-less multiply per word pair, accumulated where the machine keeps it |
//!
//! Both compute the *same* product. [`MulKernel::best`] is the production
//! one, and it is what [`crate::Gf2Poly::mul`] runs.
//!
//! Both accept *raw* word slices (trailing zero words allowed) and return a
//! raw word vector that may carry trailing zero words — callers building a
//! [`crate::Gf2Poly`] must normalize, which [`crate::Gf2Poly::mul_with`]
//! does.
//!
//! Beside the multiply, two entry points for a caller that reduces a long
//! message modulo a fixed polynomial by multiplication instead of tables
//! (`mlcx_bch`'s LFSR pass for registers wider than one word): fixed
//! shapes, **most significant word first**, nothing allocated at a state
//! of 18 words:
//!
//! | entry point | computes |
//! |-------------|----------|
//! | [`row_product_clmul`] | `sum_i a[i] * K_i`: `L` words against `L` constants of `W` words, into `W + 1` |
//! | [`fold_clmul`] | per `L` message words, `state <- sum_i state[i] * K_i + (next L words)`: the row product landing in the state's low `W + 1` words, the state held as big-endian 128-bit pairs — one load and a byte reversal per two message words, two products per pair by the multiply's selector, one multiply per word of each constant — and at `L = 18` (every register up to 17 words) in registers |
//!
//! And four for a caller whose polynomials have coefficients in GF(2^m)
//! (`mlcx_bch`'s root search and Berlekamp-Massey). A polynomial is a
//! `[u32]` of even length, one coefficient per 32-bit **slot**, and the
//! kernels read it two slots to the 64-bit word (Kronecker substitution):
//! the carry-less product of a word and a one-slot scalar is the two
//! coefficient products side by side, because a product of reduced
//! coefficients has degree `<= 2m - 2 <= 30` and the slots never meet.
//! Sums of such products stay in their slots too, so a whole inner product
//! is reduced modulo the field polynomial once, both slots at a time, by
//! [`Barrett`]:
//!
//! | entry point | computes |
//! |-------------|----------|
//! | [`combine`] | `acc <- reduce(acc + sum_r s_r * row_r)`: one multiply per word of every row, two per word of `acc` to reduce |
//! | [`frobenius_chain`] | `z_i = x^(2^i) mod f` for `i = 0..=m`, and whether `z_m = x`: each `z_i^2` one multiply per word (`w * w` squares the two coefficients of a word, the cross terms cancelling), folded down by [`combine`]s |
//! | [`with_dots`] | a caller's loop of `sum_i a_i * b_(len-1-i)`: the product of `(a_0, a_1)` and `(b_0, b_1)` carries `a_0 b_1 + a_1 b_0` in its middle slot, so one multiply per word pair and one reduction, the loop run whole behind the gate |
//! | [`split`] | `g = gcd(f, trace mod f)` and `f / g` in place: the three divisions of a trace split, one slot per multiply and only the leading coefficient reduced per step ([`Barrett`] on a whole word), Euclid on pseudo-remainders, no inverse until the gcd |
//!
//! And one for a caller that divides one value by many small moduli over
//! GF(2) (`mlcx_bch`'s syndromes, the residues modulo the minimal
//! polynomials of the generator):
//!
//! | entry point | computes |
//! |-------------|----------|
//! | [`residues`] | `value mod m_j` for every modulus of a prebuilt [`Residues`] table: `W` multiplies per modulus, then a two-multiply Barrett word |
//!
//! # One gate
//!
//! All a kernel needs of the machine is a 64 x 64 -> 128 bit carry-less
//! multiply XORed into an accumulator, so each entry point is one body,
//! generic over that multiply-accumulate, and one call of it is a job:
//! its arguments, shapes checked. The fold needs one thing more, the
//! accumulator as a **pair** of words that never leaves it: two message
//! words loaded into one, either word multiplied where it is by selector,
//! the halves of a product moved between pairs — on `pclmulqdq` an `xmm`
//! register (`movdqu` and `pshufb`, the multiply's `imm`, `palignr`), on
//! shift-and-XOR a `u128`. Where `pclmulqdq` is available (the
//! `clmul` cargo feature on, an `x86_64` target, the CPU flag present)
//! the job runs on it through the crate's one `#[target_feature]` function,
//! into which the body, monomorphised, inlines down to the instructions;
//! everywhere else on shift-and-XOR, one bit of a factor at a time — the
//! same result, for tests and odd machines, not for speed.

/// The machine word the kernels operate on (64 coefficient bits).
pub type Block = u64;

/// Result length (in words) that can hold `a * b` for any inputs.
fn product_len(a: &[Block], b: &[Block]) -> usize {
    if a.is_empty() || b.is_empty() {
        return 0;
    }
    a.len() + b.len()
}

/// Bit-serial schoolbook multiplication (the definition).
///
/// For every set coefficient bit of `a`, XORs `b` shifted by that single
/// bit position into the accumulator, one *bit* at a time. Quadratic in
/// bits; exists purely as the differential-testing oracle.
pub(crate) fn mul_raw_reference(a: &[Block], b: &[Block]) -> Vec<Block> {
    let mut acc = vec![0u64; product_len(a, b)];
    for (wi, &aw) in a.iter().enumerate() {
        for bit in 0..64 {
            if aw >> bit & 1 == 1 {
                let shift = wi * 64 + bit;
                let (ws, bs) = (shift / 64, shift % 64);
                for (bj, &bw) in b.iter().enumerate() {
                    if bw == 0 {
                        continue;
                    }
                    acc[ws + bj] ^= bw << bs;
                    if bs != 0 {
                        acc[ws + bj + 1] ^= bw >> (64 - bs);
                    }
                }
            }
        }
    }
    acc
}

/// The production multiply, column by column: output word `k` is the low
/// word of `sum_(i+j=k) a[i] * b[j]`, one accumulator, plus the high word
/// of column `k - 1`'s. `pclmulqdq` where the CPU has it,
/// shift-and-XOR (the same result) everywhere else.
pub(crate) fn mul_raw_clmul(a: &[Block], b: &[Block]) -> Vec<Block> {
    dispatch(MulRaw(a, b))
}

/// Row product `out = sum_i a[i] * K_i` over GF(2)\[x\]: `L = a.len()` words
/// against `L` constants of `W = out.len() - 1` words each, into `W + 1`
/// words.
///
/// Every multi-word value here and in [`fold_clmul`] is **most significant
/// word first**, and `consts` holds the constants by column: `W` rows of
/// `L` words, `consts[w * L + i]` = word `w` of `K_i`, so that one output
/// column reads `a` and one row front to back.
///
/// # Panics
///
/// Panics if `a` or `out` is empty or `consts.len() != L * W`.
pub fn row_product_clmul(a: &[Block], consts: &[Block], out: &mut [Block]) {
    assert!(!a.is_empty() && !out.is_empty(), "empty operand");
    assert_eq!(
        consts.len(),
        a.len() * (out.len() - 1),
        "constants are not W rows of L words"
    );
    dispatch(RowProduct(a, consts, out));
}

/// The state length [`fold_clmul`] holds on the stack, with a step's
/// columns, and unrolls a step over, its pairs in registers: every
/// register up to 17 words folds at it. Any other length goes on the heap.
const FOLD_STACK_WORDS: usize = 18;

/// Folds `message` into the `L`-word `state`: per `L` message words,
/// `state <- sum_i state[i] * K_i + (the next L words)`, the product a
/// [`row_product_clmul`] over `consts` (`W = consts.len() / L` words per
/// constant, same layout) landing in the state's low `W + 1` words.
///
/// With `K_i = x^(64 * (2L - 1 - i)) mod G` that keeps `state` congruent
/// modulo `G` to everything read so far — `W` multiplies per message word
/// and no table. `message` is a byte string taken as big-endian words, the
/// whole of it in one call so that the `target_feature` boundary is
/// crossed once. Inside, the state is big-endian 128-bit pairs, the form
/// the multiply takes its operands in: a message pair is one load and a
/// byte reversal, each pair two products, and only the low `W + 1` words
/// wait on the step before — the others are the next message words, whose
/// products need not wait for anything.
///
/// # Panics
///
/// Panics if `L` is zero, if `consts.len()` is not `L * W` with `W < L`
/// (the product must fit the state), or if `message.len()` is not a
/// multiple of `L`.
pub fn fold_clmul(state: &mut [Block], consts: &[Block], message: &[[u8; 8]]) {
    let l = state.len();
    assert!(l > 0, "empty state");
    assert!(
        consts.len().is_multiple_of(l) && consts.len() / l < l,
        "constants are not W < L rows of L words"
    );
    assert!(
        message.len().is_multiple_of(l),
        "message is not a multiple of L words"
    );
    dispatch(Fold(state, consts, message));
}

/// The one thing every kernel needs of the machine: a 64 x 64 -> 128 bit
/// carry-less multiply XORed into an accumulator that stays wherever the
/// machine keeps it (an `xmm` register for `pclmulqdq`; moving each
/// product to general registers would double the work on the multiplier's
/// port).
///
/// An accumulator is also a **pair**: two words of a multi-word value,
/// big-endian (the more significant one high), which the multiply takes
/// a word of by selector without moving it ([`Fold`]).
trait MulAcc: Copy {
    type Acc: Copy;
    /// `w` as an accumulator's low word, the high word zero.
    fn word(self, w: Block) -> Self::Acc;
    fn mul_acc(self, acc: Self::Acc, a: Block, b: Block) -> Self::Acc;
    /// The accumulator's (high, low) words.
    fn halves(self, acc: Self::Acc) -> (Block, Block);
    /// The pair `(high, low)`.
    fn pair(self, high: Block, low: Block) -> Self::Acc;
    /// Two big-endian message words as a pair, the first high.
    fn load_be(self, words: &[[u8; 8]; 2]) -> Self::Acc;
    fn xor(self, a: Self::Acc, b: Self::Acc) -> Self::Acc;
    /// `acc + x * y` for `x` a word of `s` and `y` one of `k`, chosen as
    /// `pclmulqdq` chooses them: bit 0 of `S` the high word of `s`, bit 4
    /// `k[1]`.
    fn mul_lanes<const S: i32>(self, acc: Self::Acc, s: Self::Acc, k: &[Block; 2]) -> Self::Acc;
    /// The pair of `above`'s low word and `below`'s high word: a 128-bit
    /// value straddling two pairs, its part in the one between them.
    fn straddle(self, above: Self::Acc, below: Self::Acc) -> Self::Acc;

    fn zero(self) -> Self::Acc {
        self.word(0)
    }
}

/// Shift-and-XOR, one bit of `a` at a time: the portable [`MulAcc`].
#[derive(Clone, Copy)]
struct ShiftXor;

impl MulAcc for ShiftXor {
    type Acc = u128;

    fn word(self, w: Block) -> u128 {
        u128::from(w)
    }

    fn mul_acc(self, mut acc: u128, mut a: Block, b: Block) -> u128 {
        while a != 0 {
            acc ^= u128::from(b) << a.trailing_zeros();
            a &= a - 1;
        }
        acc
    }

    fn halves(self, acc: u128) -> (Block, Block) {
        ((acc >> 64) as Block, acc as Block)
    }

    fn pair(self, high: Block, low: Block) -> u128 {
        u128::from(high) << 64 | u128::from(low)
    }

    fn load_be(self, [high, low]: &[[u8; 8]; 2]) -> u128 {
        self.pair(Block::from_be_bytes(*high), Block::from_be_bytes(*low))
    }

    fn xor(self, a: u128, b: u128) -> u128 {
        a ^ b
    }

    fn mul_lanes<const S: i32>(self, acc: u128, s: u128, k: &[Block; 2]) -> u128 {
        let (high, low) = self.halves(s);
        let x = if S & 1 == 1 { high } else { low };
        self.mul_acc(acc, x, k[usize::from(S & 0x10 != 0)])
    }

    fn straddle(self, above: u128, below: u128) -> u128 {
        above << 64 | below >> 64
    }
}

/// One call of an entry point, shapes checked: its body over whichever
/// [`MulAcc`] [`dispatch`] hands it. Every `run` is `#[inline(always)]`,
/// so that it compiles into the `target_feature` function whole.
trait Kernel {
    type Out;
    fn run<M: MulAcc>(self, mul: M) -> Self::Out;
}

/// Runs `kernel` on `pclmulqdq` where the CPU has it, on [`ShiftXor`]
/// everywhere else.
fn dispatch<K: Kernel>(kernel: K) -> K::Out {
    #[cfg(all(feature = "clmul", target_arch = "x86_64"))]
    if let Some(cpu) = clmul::Pclmul::detect() {
        return cpu.run(kernel);
    }
    kernel.run(ShiftXor)
}

/// [`mul_raw_clmul`]'s job.
struct MulRaw<'a>(&'a [Block], &'a [Block]);

impl Kernel for MulRaw<'_> {
    type Out = Vec<Block>;

    #[inline(always)]
    fn run<M: MulAcc>(self, mul: M) -> Vec<Block> {
        let MulRaw(a, b) = self;
        let len = product_len(a, b);
        let mut out = Vec::with_capacity(len);
        let mut carry = 0;
        for k in 0..len.saturating_sub(1) {
            // a[i] * b[k - i] for every i both have.
            let (first, last) = (k.saturating_sub(b.len() - 1), k.min(a.len() - 1));
            let mut acc = mul.zero();
            for (&x, &y) in a[first..=last]
                .iter()
                .zip(b[k - last..=k - first].iter().rev())
            {
                acc = mul.mul_acc(acc, x, y);
            }
            let (high, low) = mul.halves(acc);
            out.push(carry ^ low);
            carry = high;
        }
        if len > 0 {
            out.push(carry);
        }
        out
    }
}

/// [`row_product_clmul`]'s job: column `w` is one accumulator over `a` and
/// row `w`; its high word meets the low word of the column before.
struct RowProduct<'a>(&'a [Block], &'a [Block], &'a mut [Block]);

impl Kernel for RowProduct<'_> {
    type Out = ();

    #[inline(always)]
    fn run<M: MulAcc>(self, mul: M) {
        let RowProduct(a, consts, out) = self;
        let (last, columns) = out.split_last_mut().expect("out is not empty");
        let mut carry = 0;
        for (o, row) in columns.iter_mut().zip(consts.chunks_exact(a.len())) {
            let mut acc = mul.zero();
            for (&s, &k) in a.iter().zip(row) {
                acc = mul.mul_acc(acc, s, k);
            }
            let (high, low) = mul.halves(acc);
            *o = carry ^ high;
            carry = low;
        }
        *last = carry;
    }
}

/// [`fold_clmul`]'s job.
struct Fold<'a>(&'a mut [Block], &'a [Block], &'a [[u8; 8]]);

impl Kernel for Fold<'_> {
    type Out = ();

    #[inline(always)]
    fn run<M: MulAcc>(self, mul: M) {
        let Fold(state, consts, message) = self;
        let l = state.len();
        // The columns of a step above its bottom one.
        let above = (consts.len() / l).saturating_sub(1);
        if l == FOLD_STACK_WORDS {
            // Its length spelled out: a step unrolls over the pairs, and
            // they stay in registers.
            let mut pairs = [mul.zero(); FOLD_STACK_WORDS / 2];
            let mut columns = [mul.zero(); FOLD_STACK_WORDS - 2];
            fold_pairs(
                mul,
                state,
                &mut pairs,
                &mut columns[..above],
                consts,
                message,
            );
        } else {
            let mut scratch = vec![mul.zero(); l.div_ceil(2) + above];
            let (pairs, columns) = scratch.split_at_mut(l.div_ceil(2));
            fold_pairs(mul, state, pairs, columns, consts, message);
        }
    }
}

/// [`Fold`] through the `L`-word `state` as `pairs`, aligned to its last
/// word (an odd `L`'s first word is the low word of the first pair, the
/// high word zero), and room for the `W - 1` columns of a step's product
/// `above` its bottom one.
#[inline(always)]
fn fold_pairs<M: MulAcc>(
    mul: M,
    state: &mut [Block],
    pairs: &mut [M::Acc],
    above: &mut [M::Acc],
    consts: &[Block],
    message: &[[u8; 8]],
) {
    let l = state.len();
    let (odd, w) = (l % 2, consts.len() / l);
    let (head, words) = state.split_at_mut(odd);
    if let Some(&s) = head.first() {
        pairs[0] = mul.pair(0, s);
    }
    for (p, s) in pairs[odd..].iter_mut().zip(words.as_chunks::<2>().0) {
        *p = mul.pair(s[0], s[1]);
    }
    for chunk in message.chunks_exact(l) {
        // Column j from the bottom is sum_i state[i] * (word W - 1 - j of
        // K_i): two products a pair, into two accumulators.
        let column_of = |row: &[Block]| {
            let (mut a, mut b) = (mul.zero(), mul.zero());
            if let (1, Some(k)) = (odd, row.first_chunk()) {
                a = mul.mul_lanes::<0x00>(a, pairs[0], k);
            }
            for (&s, k) in pairs[odd..].iter().zip(row[odd..].as_chunks().0) {
                a = mul.mul_lanes::<0x01>(a, s, k);
                b = mul.mul_lanes::<0x10>(b, s, k);
            }
            mul.xor(a, b)
        };
        // The bottom column lines up with the bottom pair, and of a
        // one-word register it is the whole product: it stays where it was
        // computed, and the others go `above` it.
        let mut rows = consts.chunks_exact(l).rev();
        let bottom = rows.next().map_or_else(|| mul.zero(), column_of);
        for (c, row) in above.iter_mut().zip(rows) {
            *c = column_of(row);
        }
        let (head, words) = chunk.split_at(odd);
        if let Some(m) = head.first() {
            pairs[0] = mul.pair(0, Block::from_be_bytes(*m));
        }
        for (p, m) in pairs[odd..].iter_mut().zip(words.as_chunks().0) {
            *p = mul.load_be(m);
        }
        // The product, W + 1 words, into the low pairs: from the bottom
        // up, every other column lines up with a pair, and the one above
        // it straddles two, its low word in this pair's high word and its
        // high word in the low word of the pair below.
        let column = |j: usize| match j {
            0 => bottom,
            _ => above.get(j - 1).copied().unwrap_or_else(|| mul.zero()),
        };
        let mut below = mul.zero();
        for (q, p) in pairs.iter_mut().rev().enumerate() {
            if 2 * q <= w {
                let straddling = column(2 * q + 1);
                let product = mul.xor(column(2 * q), mul.straddle(straddling, below));
                *p = mul.xor(*p, product);
                below = straddling;
            }
        }
    }
    if let Some(s) = head.first_mut() {
        *s = mul.halves(pairs[0]).1;
    }
    for (s, &p) in words.as_chunks_mut::<2>().0.iter_mut().zip(&pairs[odd..]) {
        let (high, low) = mul.halves(p);
        *s = [high, low];
    }
}

/// The constants that reduce 32-bit slots modulo the polynomial of one
/// GF(2^m), `2 <= m <= 16`, two slots at a time.
///
/// A slot holds a sum of products of reduced coefficients, `v` of degree
/// `<= 2m - 2`. With `mu = floor(y^(2m) / p)` the quotient of `v` by `p` is
/// exactly `q = floor(floor(v / y^m) * mu / y^m)` — carry-less division
/// has no rounding to correct — and `v + q * p` is the remainder: two
/// multiplies, each of a whole two-slot word by a one-slot constant, with
/// products of degree `<= 2m - 2` again.
///
/// A whole word `v` (any degree below 64) is reduced the same way, one
/// value at a time, without a shift: `q = floor(v * mu_63 / y^63)` for
/// `mu_63 = floor(y^63 / p)` (the terms of `v` below `y^m` reach no
/// quotient bit), which is the high word of `v * (mu_63 y)`, and
/// `v + q * p` is the remainder.
#[derive(Debug, Clone, Copy)]
pub struct Barrett {
    m: u32,
    /// The field polynomial `p`, degree `m`.
    poly: u64,
    /// `floor(y^(2m) / p)`, degree `m`.
    mu: u64,
    /// `floor(y^63 / p) * y`, degree `64 - m`.
    word_mu: u64,
}

/// One value in both slots of a word.
const BOTH_SLOTS: u64 = 0x1_0000_0001;

impl Barrett {
    /// The constants for GF(2^m) modulo `poly` (bit `i` the coefficient
    /// of `y^i`).
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= m <= 16` and `poly` has degree `m`.
    pub fn new(m: u32, poly: u32) -> Self {
        assert!((2..=16).contains(&m), "extension degree {m}");
        assert_eq!(poly >> m, 1, "the polynomial's degree is not m");
        // Long division of y^k by p: one quotient bit per step.
        let quotient = |k: u32| {
            let (mut rem, mut mu) = (1u64 << m, 0u64);
            for _ in m..=k {
                mu <<= 1;
                if rem >> m == 1 {
                    rem ^= u64::from(poly);
                    mu |= 1;
                }
                rem <<= 1;
            }
            mu
        };
        Barrett {
            m,
            poly: u64::from(poly),
            mu: quotient(2 * m),
            word_mu: quotient(63) << 1,
        }
    }

    /// The low word of `v` (any degree below 64) modulo `p`.
    #[inline(always)]
    fn reduce_word<M: MulAcc>(self, mul: M, v: M::Acc) -> Block {
        let q = mul
            .halves(mul.mul_acc(mul.zero(), mul.halves(v).1, self.word_mu))
            .0;
        mul.halves(mul.mul_acc(v, q, self.poly)).1
    }

    /// Both slots of `v` (each of degree `<= 2m - 2`) modulo `p`.
    #[inline(always)]
    fn reduce<M: MulAcc>(self, mul: M, v: u64) -> u64 {
        // What a 64-bit shift by m carries from the upper slot into the
        // lower one lands above bit 32 - m, where no quotient has bits.
        let quotient = u64::from(u32::MAX >> self.m) * BOTH_SLOTS;
        let low = |a, b| mul.halves(mul.mul_acc(mul.zero(), a, b)).1;
        let q = low(self.mu, v >> self.m & quotient) >> self.m & quotient;
        (v ^ low(self.poly, q)) & (((1 << self.m) - 1) * BOTH_SLOTS)
    }
}

/// `true` when every slot is below `2^bits`.
fn slots_below(bits: u32, slots: &[u32]) -> bool {
    slots.iter().fold(0, |any, &v| any | v) >> bits == 0
}

fn pack([low, high]: [u32; 2]) -> u64 {
    u64::from(low) | u64::from(high) << 32
}

fn unpack(word: u64) -> [u32; 2] {
    [word as u32, (word >> 32) as u32]
}

/// `acc <- reduce(acc + sum_r scalars[r] * row_r)` over GF(2^m)\[x\]: the
/// rows are `rows` cut into `scalars.len()` polynomials as long as `acc`.
///
/// `acc` comes in as the sum's first term and need not be reduced (slots
/// below `2^(2m-1)`: a product of coefficients is welcome); it leaves
/// reduced. Column by column: the accumulator of one word of `acc` takes
/// a multiply per row, stays where the machine keeps it, and is reduced
/// once ([`Barrett`]).
///
/// # Panics
///
/// Panics if `acc` is empty or of odd length, if `rows.len()` is not
/// `scalars.len() * acc.len()`, or if a scalar, a row slot (`2^m` and up)
/// or an `acc` slot (`2^(2m-1)` and up) is out of range.
pub fn combine(field: Barrett, scalars: &[u32], rows: &[u32], acc: &mut [u32]) {
    assert!(
        !acc.is_empty() && acc.len().is_multiple_of(2),
        "a polynomial is a whole number of two-slot words"
    );
    assert_eq!(
        rows.len(),
        scalars.len() * acc.len(),
        "rows are not one polynomial per scalar"
    );
    assert!(
        slots_below(field.m, scalars) && slots_below(field.m, rows),
        "unreduced scalar or row slot"
    );
    assert!(
        slots_below(2 * field.m - 1, acc),
        "accumulator slot wider than a product"
    );
    dispatch(Combine(field, scalars, rows, acc));
}

/// Slots of [`frobenius_chain`]'s scratch for a modulus of degree `deg`.
pub const fn frobenius_scratch_len(deg: usize) -> usize {
    (3 + deg / 2) * deg.next_multiple_of(2)
}

/// The Frobenius chain modulo a monic `f` of degree `deg >= 3` over
/// GF(2^m): `z` leaves as the `m + 1` polynomials `z_i = x^(2^i) mod f`,
/// `i = 0..=m`, one after the other, each as long as `f`. Returns whether
/// `z_m = x` — whether `f` divides `x^(2^m) - x`, i.e. has `deg` distinct
/// roots in the field.
///
/// `f` is the low coefficients `f_0 .. f_(deg-1)` (the leading 1 is
/// implicit), then a zero slot where `deg` is odd. A square is
/// `sum_j c_j^2 x^(2j)`, so only the rows `x^(2j) mod f`, `2j >= deg`, are
/// tabulated — each from the last by a move of one word and a
/// [`combine`] of the two coefficients that left the top with
/// `x^deg mod f` and `x^(deg+1) mod f` — and `z_(i+1)` is the low half of
/// `z_i^2` plus a [`combine`] of its upper coefficients with those rows:
/// `deg^2 / 4 + 2.5 deg` multiplies a squaring. All of it in one call, so
/// that the `target_feature` boundary is crossed once.
///
/// # Panics
///
/// Panics if `deg < 3`, if `f.len()` is not `deg` rounded up to even, if
/// `z.len()` is not `(m + 1) * f.len()` or `scratch.len()` not
/// [`frobenius_scratch_len`], or if a slot of `f` is unreduced (the
/// padding slot: nonzero).
pub fn frobenius_chain(
    field: Barrett,
    f: &[u32],
    deg: usize,
    scratch: &mut [u32],
    z: &mut [u32],
) -> bool {
    assert!(deg >= 3, "a modulus of degree {deg} has no chain");
    assert_eq!(f.len(), deg.next_multiple_of(2), "f is not deg slots");
    assert_eq!(
        z.len(),
        (field.m as usize + 1) * f.len(),
        "z is not m + 1 rows"
    );
    assert_eq!(scratch.len(), frobenius_scratch_len(deg), "scratch");
    assert!(
        slots_below(field.m, f) && f[deg..].iter().all(|&pad| pad == 0),
        "unreduced slot"
    );
    dispatch(Chain(field, f, deg, scratch, z))
}

/// A loop that takes one inner product of GF(2^m) polynomials a turn,
/// each behind the last — Berlekamp–Massey's discrepancies — for
/// [`with_dots`] to run whole.
pub trait Dots {
    /// The loop. `dot(a, b)` is `sum_i a[i] * b[len - 1 - i]`, reduced,
    /// over the field [`with_dots`] was given: the coefficient of
    /// `x^(len-1)` in the product of the two polynomials. Word `w` of `a`,
    /// `(a_2w, a_2w+1)`, meets word `len/2 - 1 - w` of `b`,
    /// `(b_(len-2-2w), b_(len-1-2w))`, and the middle slot of their
    /// product is `a_2w b_(len-1-2w) + a_2w+1 b_(len-2-2w)` — two terms of
    /// the sum, the outer slots the terms of other coefficients. `len / 2`
    /// multiplies, one [`Barrett`] reduction. `dot` panics if the lengths
    /// differ or are odd; in a debug build, also if a slot is unreduced.
    ///
    /// Mark the implementation `#[inline(always)]`: only inlined into the
    /// `target_feature` function does the loop run there.
    fn run(&mut self, dot: impl FnMut(&[u32], &[u32]) -> u32);
}

/// Runs `job` with its `dot` on whichever multiply the CPU has, the
/// `target_feature` boundary crossed once for the whole loop: each product
/// waits on the last, and a crossing apiece, its arguments passed through
/// memory, would sit on that chain.
pub fn with_dots(field: Barrett, job: &mut impl Dots) {
    dispatch(DotLoop(field, job));
}

/// Slots of [`split`]'s scratch for a factor of degree `deg` and a trace
/// of `len` slots.
pub const fn split_scratch_len(deg: usize, len: usize) -> usize {
    let dividend = if len > deg { len } else { deg + 1 };
    dividend + 2 * deg + 1
}

/// Splits the monic `f` of degree `deg` over GF(2^m) by
/// `g = gcd(f, trace mod f)`: when `g` is a proper factor, `f` leaves as
/// the low coefficients of `g` followed by those of `f / g` (both monic,
/// the leading 1s implicit) and the result is `Some(deg g)`; otherwise `f`
/// is left as it came and the result is `None`.
///
/// `f` is laid out as for [`frobenius_chain`]: `f_0 .. f_(deg-1)`, then a
/// zero slot where `deg` is odd; `trace` is any polynomial, reduced slots.
/// All three divisions — `trace mod f`, Euclid's, `f / g` — are one call.
/// The two by a monic divisor reduce only the leading coefficient: every
/// other one takes its carry-less product with the quotient coefficient
/// unreduced (a sum of products, below `2^(2m-1)`), the quotient
/// coefficient is one [`Barrett`] word, and the next leading coefficient,
/// which need only be congruent, takes this one's product unreduced two
/// steps in three — so that the chain from one step to the next is one
/// multiply, where the log tables took a `log` and an `exp` out of L2.
/// Euclid takes no inverse: each remainder is a pseudo-remainder, two
/// multiplies and two reductions from the last, and `g` is made monic
/// once ([`GfField::inv`](crate::GfField::inv)).
///
/// # Panics
///
/// Panics if `deg` is 0, if `f.len()` is not `deg` rounded up to even, if
/// `trace` is of odd length, if `scratch.len()` is not
/// [`split_scratch_len`]`(deg, trace.len())`, or if a slot of `f` or
/// `trace` is unreduced (the padding slot: nonzero).
pub fn split(
    field: &crate::GfField,
    f: &mut [u32],
    deg: usize,
    trace: &[u32],
    scratch: &mut [u32],
) -> Option<usize> {
    let m = field.degree();
    assert!(deg > 0, "a constant has no factor to split");
    assert_eq!(f.len(), deg.next_multiple_of(2), "f is not deg slots");
    assert!(
        trace.len().is_multiple_of(2),
        "a polynomial is a whole number of two-slot words"
    );
    assert_eq!(
        scratch.len(),
        split_scratch_len(deg, trace.len()),
        "scratch"
    );
    assert!(
        slots_below(m, f) && slots_below(m, trace) && f[deg..].iter().all(|&pad| pad == 0),
        "unreduced slot"
    );
    dispatch(Split(field, f, deg, trace, scratch))
}

/// Moduli over GF(2) of degree 1 to 31 and what [`residues`] divides by
/// them with, for a value of `W` words.
///
/// For a modulus `m` of degree `d`, the kernel works modulo
/// `M = m * x^(64-d)`, of degree 64 (the residue then sits in the top `d`
/// bits of a word): `value * x^(64-d)` is congruent to
/// `sum_i value[i] * C_i` with `C_i = x^(64 (W-i) - d) mod M`, a sum of
/// degree below 127, and one Barrett word takes it below 64:
/// `q = hi + high(hi * mu)` with `mu = floor(x^128 / M)`, and the low word
/// plus `low(q * M)` is the residue, moved up `64 - d`. Each `C_i` is the
/// next one times `x^64`, reduced the same way: two multiplies per word.
#[derive(Debug, Clone)]
pub struct Residues {
    words: usize,
    /// Per modulus, `W + 2` words: `C_0 .. C_(W-1)`, then `mu` below its
    /// leading term, then the modulus `m` itself.
    rows: Vec<Block>,
}

impl Residues {
    /// The table for `moduli` (bit `i` the coefficient of `x^i`) and a
    /// value of `words` words.
    ///
    /// # Panics
    ///
    /// Panics if a modulus is constant (degree 0).
    pub fn new(moduli: &[u32], words: usize) -> Self {
        assert!(
            moduli.iter().all(|&m| m > 1),
            "a constant modulus leaves no residue"
        );
        let mut rows = vec![0; moduli.len() * (words + 2)];
        dispatch(ResidueTable(moduli, words, &mut rows));
        Residues { words, rows }
    }

    /// The words `W` of the value [`residues`] takes.
    pub fn words(&self) -> usize {
        self.words
    }

    /// The number of moduli, i.e. of residues [`residues`] gives.
    fn count(&self) -> usize {
        self.rows.len() / (self.words + 2)
    }

    /// Bytes of constants the table holds.
    pub fn table_bytes(&self) -> usize {
        size_of_val(&self.rows[..])
    }
}

/// `out[j] = value mod m_j` for every modulus of `table`, `value` being
/// `W` words **most significant first** (as the fold's state): `W`
/// multiplies per modulus, accumulated where the machine keeps them, and
/// a two-multiply Barrett word — every modulus independent of the others.
///
/// # Panics
///
/// Panics unless `value` is [`Residues::words`] long and `out` holds one
/// residue per modulus.
pub fn residues(table: &Residues, value: &[Block], out: &mut [u32]) {
    assert_eq!(value.len(), table.words, "the value is not W words");
    assert_eq!(out.len(), table.count(), "not one residue per modulus");
    dispatch(ResiduesOf(table, value, out));
}

/// [`combine`]'s job.
struct Combine<'a>(Barrett, &'a [u32], &'a [u32], &'a mut [u32]);

impl Kernel for Combine<'_> {
    type Out = ();

    #[inline(always)]
    fn run<M: MulAcc>(self, mul: M) {
        let Combine(field, scalars, rows, acc) = self;
        let (acc, _) = acc.as_chunks_mut::<2>();
        let (rows, _) = rows.as_chunks::<2>();
        let words = acc.len();
        for (w, out) in acc.iter_mut().enumerate() {
            let mut sum = mul.zero();
            for (&s, row) in scalars.iter().zip(rows.chunks_exact(words)) {
                sum = mul.mul_acc(sum, u64::from(s), pack(row[w]));
            }
            *out = unpack(field.reduce(mul, pack(*out) ^ mul.halves(sum).1));
        }
    }
}

/// Coefficient-wise squares over GF(2^m), `(field, p, out)`:
/// `out[j] = p[j]^2`, which are the coefficients of `p(x)^2` (`out[j]` that
/// of `x^(2j)`). One multiply per word: `(c0 + c1 Y)^2 = c0^2 + c1^2 Y^2`
/// in characteristic 2, so the product of a two-slot word with itself is
/// its two squares, one in each half, and they are reduced side by side
/// ([`Barrett`]). Run by [`Chain`] on its own rows.
struct Square<'a>(Barrett, &'a [u32], &'a mut [u32]);

impl Kernel for Square<'_> {
    type Out = ();

    #[inline(always)]
    fn run<M: MulAcc>(self, mul: M) {
        let Square(field, p, out) = self;
        let (p, _) = p.as_chunks::<2>();
        let (out, _) = out.as_chunks_mut::<2>();
        for (o, &w) in out.iter_mut().zip(p) {
            let (high, low) = mul.halves(mul.mul_acc(mul.zero(), pack(w), pack(w)));
            *o = unpack(field.reduce(mul, low | high << 32));
        }
    }
}

/// [`frobenius_chain`]'s job: `(field, f, deg, scratch, z)`.
struct Chain<'a>(Barrett, &'a [u32], usize, &'a mut [u32], &'a mut [u32]);

impl Kernel for Chain<'_> {
    type Out = bool;

    #[inline(always)]
    fn run<M: MulAcc>(self, mul: M) -> bool {
        let Chain(field, f, deg, scratch, z) = self;
        let stride = f.len();
        // x^deg mod f, which is f's low coefficients, and x^(deg+1) mod f:
        // one slot up, the coefficient that leaves the top times the former.
        let (base, rest) = scratch.split_at_mut(2 * stride);
        let (rows, squares) = rest.split_at_mut(deg / 2 * stride);
        base[..stride].copy_from_slice(f);
        let (x_deg, x_deg1) = base.split_at_mut(stride);
        x_deg1.fill(0);
        x_deg1[1..deg].copy_from_slice(&f[..deg - 1]);
        Combine(field, &[f[deg - 1]], x_deg, x_deg1).run(mul);
        // Rows x^(2j) mod f, 2j >= deg: the first is one of those two, each
        // next one x^2 times the last.
        rows[..stride].copy_from_slice(&base[deg % 2 * stride..][..stride]);
        for r in 1..deg / 2 {
            let (done, row) = rows.split_at_mut(r * stride);
            let (last, row) = (&done[(r - 1) * stride..], &mut row[..stride]);
            row.fill(0);
            row[2..deg].copy_from_slice(&last[..deg - 2]);
            Combine(field, &last[deg - 2..deg], base, row).run(mul);
        }
        // z_0 = x; z_(i+1) = z_i^2 mod f.
        z[..stride].fill(0);
        z[1] = 1;
        for i in 0..field.m as usize {
            let (current, next) = z[i * stride..].split_at_mut(stride);
            let next = &mut next[..stride];
            Square(field, current, squares).run(mul);
            let (low, high) = squares.split_at(stride / 2);
            for (n, &s) in next.as_chunks_mut::<2>().0.iter_mut().zip(low) {
                *n = [s, 0];
            }
            Combine(field, &high[..deg / 2], rows, next).run(mul);
        }
        let last = &z[field.m as usize * stride..];
        last.iter()
            .enumerate()
            .all(|(c, &v)| v == u32::from(c == 1))
    }
}

/// One inner product of [`with_dots`].
struct Dot<'a>(Barrett, &'a [u32], &'a [u32]);

impl Kernel for Dot<'_> {
    type Out = u32;

    #[inline(always)]
    fn run<M: MulAcc>(self, mul: M) -> u32 {
        let Dot(field, a, b) = self;
        let (a, _) = a.as_chunks::<2>();
        let (b, _) = b.as_chunks::<2>();
        let mut sum = mul.zero();
        for (&x, &y) in a.iter().zip(b.iter().rev()) {
            sum = mul.mul_acc(sum, pack(x), pack(y));
        }
        let middle = mul.halves(sum).1 >> 32;
        unpack(field.reduce(mul, middle))[0]
    }
}

/// [`with_dots`]' job.
struct DotLoop<'a, J>(Barrett, &'a mut J);

impl<J: Dots> Kernel for DotLoop<'_, J> {
    type Out = ();

    #[inline(always)]
    fn run<M: MulAcc>(self, mul: M) {
        let DotLoop(field, job) = self;
        job.run(|a, b| {
            assert!(
                a.len().is_multiple_of(2),
                "a polynomial is a whole number of two-slot words"
            );
            assert_eq!(a.len(), b.len(), "a dot product of unequal lengths");
            debug_assert!(
                slots_below(field.m, a) && slots_below(field.m, b),
                "unreduced slot"
            );
            Dot(field, a, b).run(mul)
        });
    }
}

/// `a` modulo the monic divisor whose low coefficients are `d`, from the
/// top down: the (reduced) quotient is left in `a[d.len()..]`, the
/// remainder in `a[..d.len()]`, its slots sums of products.
///
/// `a`'s slots need only be below `2^(2m-1)`. Only the leading coefficient
/// is reduced, and it stays in the accumulator from one step to the next.
#[inline(always)]
fn divide<M: MulAcc>(field: Barrett, mul: M, a: &mut [u32], d: &[u32]) {
    let e = d.len();
    if a.len() <= e {
        return;
    }
    let mut lead = mul.word(u64::from(a[a.len() - 1]));
    // The next leading coefficient need only be congruent: two steps in
    // three it takes the product of this one unreduced (below 2^31, then
    // 2^47: the product stays in the word), and the reduction is off the
    // chain. Unrolled, so that which factor it takes is not a select.
    let mut steps = (e..a.len()).rev();
    while let Some(j) = steps.next() {
        lead = divide_step(field, mul, a, j, d, lead, false);
        let Some(j) = steps.next() else { break };
        lead = divide_step(field, mul, a, j, d, lead, false);
        let Some(j) = steps.next() else { break };
        lead = divide_step(field, mul, a, j, d, lead, true);
    }
    a[e - 1] = field.reduce_word(mul, lead) as u32;
}

/// One step of [`divide`]: the quotient coefficient `reduce(lead)` into
/// `a[j]`, its products into the slots below, and the next leading
/// coefficient, out of this one `reduced` or not.
#[inline(always)]
fn divide_step<M: MulAcc>(
    field: Barrett,
    mul: M,
    a: &mut [u32],
    j: usize,
    d: &[u32],
    lead: M::Acc,
    reduced: bool,
) -> M::Acc {
    let (&top, low) = d.split_last().expect("d is not empty");
    let q = field.reduce_word(mul, lead);
    a[j] = q as u32;
    let factor = if reduced { q } else { mul.halves(lead).1 };
    let next = mul.mul_acc(mul.word(u64::from(a[j - 1])), factor, u64::from(top));
    // From the top: the next step reads the first of these.
    for (x, &c) in a[j - d.len()..j - 1].iter_mut().zip(low).rev() {
        *x ^= mul.halves(mul.mul_acc(mul.zero(), q, u64::from(c))).1 as u32;
    }
    next
}

/// `s * x + t * y` reduced, for reduced factors.
#[inline(always)]
fn mul_add<M: MulAcc>(field: Barrett, mul: M, [s, x, t, y]: [u64; 4]) -> u64 {
    let v = mul.mul_acc(mul.mul_acc(mul.zero(), s, x), t, y);
    field.reduce_word(mul, v)
}

/// One step of Euclid without an inverse: `a[..db]` leaves as the
/// pseudo-remainder `beta^k a mod b` of `a` by `b` (degree `db`, its
/// leading coefficient `beta`, also passed on its own), the quotient's
/// length `k = a.len() - db` at least 2; returns the remainder's
/// coefficient of `x^(db-1)` — its leading one unless it is 0 — so that
/// the next step's `beta` need not come back from memory. Every slot is
/// reduced, in and out.
///
/// Long division of `beta^k a` needs no inverse: a step is
/// `A <- beta A + lead x^s b`. A quotient longer than two takes it slot by
/// slot until two are left; for the usual two (quotient degree 1, the
/// remainder one degree down) the remainder is
/// `beta^2 a + alpha_1 b + beta alpha_0 x b` with `alpha_0 = a_(db+1)`,
/// `alpha_1 = beta a_db + alpha_0 b_(db-1)`: each slot one sum of three
/// products and one reduction, and from one remainder's leading
/// coefficient to the next a chain of two.
#[inline(always)]
fn pseudo_remainder<M: MulAcc>(
    field: Barrett,
    mul: M,
    mut a: &mut [u32],
    b: &[u32],
    beta: u64,
) -> u64 {
    let db = b.len() - 1;
    while a.len() > db + 2 {
        let (lead, rest) = a.split_last_mut().expect("a is longer than b");
        let (lead, shift) = (u64::from(*lead), rest.len() - db);
        for (i, x) in rest.iter_mut().enumerate() {
            let c = i.checked_sub(shift).map_or(0, |i| b[i]);
            *x = mul_add(field, mul, [beta, (*x).into(), lead, c.into()]) as u32;
        }
        a = rest;
    }
    let alpha0 = u64::from(a[db + 1]);
    let alpha1 = mul_add(field, mul, [beta, a[db].into(), alpha0, b[db - 1].into()]);
    let gamma0 = mul_add(field, mul, [beta, alpha0, 0, 0]);
    let beta2 = mul_add(field, mul, [beta, beta, 0, 0]);
    let slot = |x: u32, c: u32, c_below: u32| {
        let sum = mul.mul_acc(mul.mul_acc(mul.zero(), beta2, x.into()), alpha1, c.into());
        let sum = mul.mul_acc(sum, gamma0, c_below.into());
        field.reduce_word(mul, sum)
    };
    // From the top: the next step's beta first.
    let (first, above) = a[..db].split_first_mut().expect("b is not constant");
    let mut above = above.iter_mut().zip(b.windows(2)).rev();
    let Some((x, c)) = above.next() else {
        *first = slot(*first, b[0], 0) as u32;
        return (*first).into();
    };
    let top = slot(*x, c[1], c[0]);
    *x = top as u32;
    for (x, c) in above {
        *x = slot(*x, c[1], c[0]) as u32;
    }
    *first = slot(*first, b[0], 0) as u32;
    top
}

/// [`split`]'s job: `(field, f, deg, trace, scratch)`.
struct Split<'a>(
    &'a crate::GfField,
    &'a mut [u32],
    usize,
    &'a [u32],
    &'a mut [u32],
);

impl Kernel for Split<'_> {
    type Out = Option<usize>;

    #[inline(always)]
    fn run<M: MulAcc>(self, mul: M) -> Option<usize> {
        let Split(gf, f, e, trace, scratch) = self;
        let field = gf.barrett();
        let (mut b, rest) = scratch.split_at_mut(trace.len().max(e + 1));
        let (mut a, div) = rest.split_at_mut(e + 1);
        // b = trace mod f, its slots reduced.
        let len = trace.iter().rposition(|&c| c != 0)? + 1;
        b[..len].copy_from_slice(&trace[..len]);
        divide(field, mul, &mut b[..len], &f[..e]);
        let rem = &mut b[..len.min(e)];
        for c in rem.iter_mut() {
            *c = field.reduce_word(mul, mul.word((*c).into())) as u32;
        }
        // A zero remainder: every root has trace 0; a constant one: every
        // root has trace 1. Nothing to split either way.
        let mut db = rem.iter().rposition(|&c| c != 0).filter(|&d| d > 0)?;
        // Euclid, from a = f: a <- a mod b, (a, b) <- (b, a) until the
        // remainder vanishes; b is then the gcd.
        a[..e].copy_from_slice(&f[..e]);
        a[e] = 1;
        let (mut da, mut beta) = (e, u64::from(b[db]));
        loop {
            let top = pseudo_remainder(field, mul, &mut a[..=da], &b[..=db], beta);
            let (d, lead) = if top != 0 {
                (db - 1, top)
            } else {
                match a[..db].iter().rposition(|&c| c != 0) {
                    None => break,
                    Some(d) => (d, a[d].into()),
                }
            };
            // A constant remainder: the gcd is 1.
            if d == 0 {
                return None;
            }
            std::mem::swap(&mut a, &mut b);
            (da, db, beta) = (db, d, lead);
        }
        // g, monic.
        let inv = u64::from(gf.inv(b[db]).expect("b[db] is b's leading coefficient"));
        for (o, &c) in div.iter_mut().zip(&b[..db]) {
            *o = mul_add(field, mul, [inv, c.into(), 0, 0]) as u32;
        }
        // f / g: the quotient is what long division leaves on top.
        a[..e].copy_from_slice(&f[..e]);
        a[e] = 1;
        divide(field, mul, &mut a[..=e], &div[..db]);
        f[..db].copy_from_slice(&div[..db]);
        f[db..e].copy_from_slice(&a[db..e]);
        Some(db)
    }
}

/// A modulus of [`Residues`] as the kernel takes it: `M` below its
/// leading term, `m`'s lower terms moved up to where `x^(64-d)` puts them,
/// and the move `64 - d`.
#[inline(always)]
fn scaled(modulus: Block) -> (Block, u32) {
    let shift = 64 - modulus.ilog2();
    ((modulus ^ 1 << modulus.ilog2()) << shift, shift)
}

/// `high * x^64 + low` modulo `M = x^64 + m_low`, given
/// `mu = floor(x^128 / M)` below its leading term: the quotient is `high`
/// plus the high word of `high * mu`, and nothing of the value and the
/// quotient's multiple of `M` is left above the low word.
#[inline(always)]
fn barrett_word<M: MulAcc>(mul: M, high: Block, low: Block, mu: Block, m_low: Block) -> Block {
    let q = high ^ mul.halves(mul.mul_acc(mul.zero(), high, mu)).0;
    low ^ mul.halves(mul.mul_acc(mul.zero(), m_low, q)).1
}

/// [`Residues::new`]'s job: `(moduli, words, rows)`.
struct ResidueTable<'a>(&'a [u32], usize, &'a mut [Block]);

impl Kernel for ResidueTable<'_> {
    type Out = ();

    #[inline(always)]
    fn run<M: MulAcc>(self, mul: M) {
        let ResidueTable(moduli, words, rows) = self;
        for (row, &modulus) in rows.chunks_exact_mut(words + 2).zip(moduli) {
            let (consts, tail) = row.split_at_mut(words);
            let d = modulus.ilog2();
            // floor(x^(64+d) / m) by long division, 65 quotient bits: the
            // leading one leaves the word on the last shift.
            let (mut rem, mut mu) = (1u64 << d, 0u64);
            for _ in 0..65 {
                mu <<= 1;
                if rem >> d == 1 {
                    rem ^= u64::from(modulus);
                    mu |= 1;
                }
                rem <<= 1;
            }
            let (m_low, shift) = scaled(u64::from(modulus));
            // C_(W-1) = x^(64-d); each one up is the last times x^64.
            let mut c = 1 << shift;
            for k in consts.iter_mut().rev() {
                *k = c;
                c = barrett_word(mul, c, 0, mu, m_low);
            }
            tail.copy_from_slice(&[mu, u64::from(modulus)]);
        }
    }
}

/// [`residues`]' job.
struct ResiduesOf<'a>(&'a Residues, &'a [Block], &'a mut [u32]);

impl Kernel for ResiduesOf<'_> {
    type Out = ();

    #[inline(always)]
    fn run<M: MulAcc>(self, mul: M) {
        let ResiduesOf(table, value, out) = self;
        for (o, row) in out.iter_mut().zip(table.rows.chunks_exact(table.words + 2)) {
            let (consts, tail) = row.split_at(table.words);
            let (mu, modulus) = (tail[0], tail[1]);
            let mut sum = mul.zero();
            for (&k, &v) in consts.iter().zip(value) {
                sum = mul.mul_acc(sum, k, v);
            }
            let (high, low) = mul.halves(sum);
            let (m_low, shift) = scaled(modulus);
            *o = (barrett_word(mul, high, low, mu, m_low) >> shift) as u32;
        }
    }
}

#[cfg(all(feature = "clmul", target_arch = "x86_64"))]
mod clmul {
    //! The only unsafe in the crate: `pclmulqdq` as a [`MulAcc`], and the
    //! one function compiled with it, which every [`Kernel`] runs through.
    #![allow(unsafe_code, reason = "target_feature intrinsics have no safe form")]

    use std::arch::x86_64::{
        __m128i, _mm_alignr_epi8, _mm_clmulepi64_si128, _mm_cvtsi64_si128, _mm_extract_epi64,
        _mm_loadu_si128, _mm_set_epi64x, _mm_set_epi8, _mm_shuffle_epi8, _mm_xor_si128,
    };

    use super::{Block, Kernel, MulAcc};

    /// Proof that the CPU executes pclmulqdq, ssse3 and sse4.1: the one
    /// constructor checks, which is what lets the [`MulAcc`] methods and
    /// [`Pclmul::run`] be safe to call.
    #[derive(Clone, Copy)]
    pub(super) struct Pclmul(());

    impl Pclmul {
        pub(super) fn detect() -> Option<Self> {
            // sse4.1 covers the pextrq lane extraction in `halves`, ssse3
            // (which sse4.1 implies) the byte shuffles of the pair form;
            // every CPU shipping pclmulqdq also ships both, but detect them.
            (std::arch::is_x86_feature_detected!("pclmulqdq")
                && std::arch::is_x86_feature_detected!("ssse3")
                && std::arch::is_x86_feature_detected!("sse4.1"))
            .then_some(Pclmul(()))
        }

        /// Runs `kernel` on `pclmulqdq`.
        pub(super) fn run<K: Kernel>(self, kernel: K) -> K::Out {
            // SAFETY: `self` exists, so `detect` saw pclmulqdq, ssse3 and
            // sse4.1 (sse2 is x86_64 baseline).
            unsafe { on_pclmul(self, kernel) }
        }
    }

    impl MulAcc for Pclmul {
        type Acc = __m128i;

        #[inline(always)]
        fn word(self, w: Block) -> __m128i {
            // SAFETY: sse2 is x86_64 baseline.
            unsafe { _mm_cvtsi64_si128(w as i64) }
        }

        #[inline(always)]
        fn mul_acc(self, acc: __m128i, a: Block, b: Block) -> __m128i {
            // SAFETY: `self` exists, so `detect` saw pclmulqdq.
            unsafe {
                let (a, b) = (_mm_cvtsi64_si128(a as i64), _mm_cvtsi64_si128(b as i64));
                _mm_xor_si128(acc, _mm_clmulepi64_si128::<0>(a, b))
            }
        }

        #[inline(always)]
        fn halves(self, acc: __m128i) -> (Block, Block) {
            // SAFETY: `self` exists, so `detect` saw sse4.1 (pextrq).
            unsafe {
                (
                    _mm_extract_epi64::<1>(acc) as Block,
                    _mm_extract_epi64::<0>(acc) as Block,
                )
            }
        }

        #[inline(always)]
        fn pair(self, high: Block, low: Block) -> __m128i {
            // SAFETY: sse2 is x86_64 baseline.
            unsafe { _mm_set_epi64x(high as i64, low as i64) }
        }

        #[inline(always)]
        fn load_be(self, words: &[[u8; 8]; 2]) -> __m128i {
            // SAFETY: `words` is 16 readable bytes (movdqu has no alignment
            // to meet), and `detect` saw ssse3 (pshufb).
            unsafe {
                let reverse = _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
                _mm_shuffle_epi8(_mm_loadu_si128(words.as_ptr().cast()), reverse)
            }
        }

        #[inline(always)]
        fn xor(self, a: __m128i, b: __m128i) -> __m128i {
            // SAFETY: sse2 is x86_64 baseline.
            unsafe { _mm_xor_si128(a, b) }
        }

        #[inline(always)]
        fn mul_lanes<const S: i32>(self, acc: __m128i, s: __m128i, k: &[Block; 2]) -> __m128i {
            // SAFETY: `k` is 16 readable bytes (movdqu has no alignment to
            // meet), and `detect` saw pclmulqdq.
            unsafe {
                let k = _mm_loadu_si128(k.as_ptr().cast());
                _mm_xor_si128(acc, _mm_clmulepi64_si128::<S>(s, k))
            }
        }

        #[inline(always)]
        fn straddle(self, above: __m128i, below: __m128i) -> __m128i {
            // SAFETY: `detect` saw ssse3 (palignr).
            unsafe { _mm_alignr_epi8::<8>(above, below) }
        }
    }

    /// The one function compiled with the features on: `kernel`'s body,
    /// monomorphised for [`Pclmul`], inlines into it, so that the
    /// [`MulAcc`] methods come down to the instructions.
    ///
    /// # Safety
    ///
    /// The CPU must execute pclmulqdq, sse2, ssse3 and sse4.1; a [`Pclmul`]
    /// is the proof, and a `target_feature` function is unsafe to call from
    /// code compiled without the features all the same.
    #[target_feature(
        enable = "pclmulqdq",
        enable = "sse2",
        enable = "ssse3",
        enable = "sse4.1"
    )]
    unsafe fn on_pclmul<K: Kernel>(cpu: Pclmul, kernel: K) -> K::Out {
        kernel.run(cpu)
    }
}

/// The carry-less multiply kernels by name: the oracle and the production
/// path [`MulKernel::best`] returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MulKernel {
    /// Bit-serial oracle: one set bit of a factor at a time.
    Reference,
    /// The production multiply, column by column: `pclmulqdq` where the
    /// CPU has it, shift-and-XOR everywhere else.
    Clmul,
}

impl MulKernel {
    /// Every kernel, oracle first.
    pub const ALL: [MulKernel; 2] = [MulKernel::Reference, MulKernel::Clmul];

    /// The production kernel, on every build and CPU.
    pub fn best() -> MulKernel {
        MulKernel::Clmul
    }

    /// Runs the selected kernel on raw word slices (output may carry
    /// trailing zero words; see the module docs).
    pub fn mul_raw(self, a: &[Block], b: &[Block]) -> Vec<Block> {
        match self {
            MulKernel::Reference => mul_raw_reference(a, b),
            MulKernel::Clmul => mul_raw_clmul(a, b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    fn random_words(n: usize, state: &mut u64) -> Vec<u64> {
        (0..n).map(|_| xorshift(state)).collect()
    }

    #[test]
    fn all_rungs_match_reference_on_random_inputs() {
        let mut state = 0x1234_5678_9abc_def0u64;
        for (la, lb) in [(1, 1), (1, 3), (2, 2), (3, 5), (7, 4), (16, 16)] {
            let a = random_words(la, &mut state);
            let b = random_words(lb, &mut state);
            let reference = mul_raw_reference(&a, &b);
            for k in MulKernel::ALL {
                assert_eq!(
                    k.mul_raw(&a, &b),
                    reference,
                    "{k:?} diverged on {la}x{lb} words"
                );
            }
        }
    }

    #[test]
    fn commutative_across_rungs() {
        let mut state = 99u64;
        let a = random_words(5, &mut state);
        let b = random_words(3, &mut state);
        for k in MulKernel::ALL {
            // a*b and b*a differ in raw length; compare content-padded.
            let mut ab = k.mul_raw(&a, &b);
            let mut ba = k.mul_raw(&b, &a);
            let len = ab.len().max(ba.len());
            ab.resize(len, 0);
            ba.resize(len, 0);
            assert_eq!(ab, ba, "{k:?}");
        }
    }

    #[test]
    fn empty_and_zero_operands() {
        for k in MulKernel::ALL {
            assert!(k.mul_raw(&[], &[1, 2, 3]).is_empty());
            assert!(k.mul_raw(&[5], &[]).is_empty());
            assert!(k.mul_raw(&[0, 0], &[0]).iter().all(|&w| w == 0));
        }
    }

    #[test]
    fn single_bit_times_single_bit() {
        // x^63 * x^1 = x^64: crosses the word boundary in every kernel.
        for k in MulKernel::ALL {
            let got = k.mul_raw(&[1u64 << 63], &[1u64 << 1]);
            assert_eq!(got[0], 0, "{k:?}");
            assert_eq!(got[1], 1, "{k:?}");
        }
    }

    #[test]
    fn trailing_zero_words_in_inputs_are_harmless() {
        let a = [0xDEAD_BEEFu64, 0, 0];
        let b = [0x1234_5678u64, 0];
        let reference = mul_raw_reference(&[0xDEAD_BEEF], &[0x1234_5678]);
        for k in MulKernel::ALL {
            let got = k.mul_raw(&a, &b);
            // Same product, possibly longer tail of zeros.
            assert_eq!(&got[..reference.len()], &reference[..], "{k:?}");
            assert!(got[reference.len()..].iter().all(|&w| w == 0));
        }
    }

    /// `sum_i a[i] * K_i` by the oracle multiply, most significant word
    /// first like everything the row product and the fold touch.
    fn row_product_reference(a: &[u64], consts: &[u64], w: usize) -> Vec<u64> {
        let l = a.len();
        let mut out = vec![0u64; w + 1];
        for (i, &s) in a.iter().enumerate() {
            let k: Vec<u64> = (0..w).rev().map(|row| consts[row * l + i]).collect();
            for (j, word) in mul_raw_reference(&[s], &k).into_iter().enumerate() {
                out[w - j] ^= word;
            }
        }
        out
    }

    fn poly(words_msb_first: &[u64]) -> crate::Gf2Poly {
        crate::Gf2Poly::from_words(words_msb_first.iter().rev().copied().collect())
    }

    #[test]
    fn row_product_and_fold_match_the_oracle_on_every_shape() {
        // Up to a product of 20 words: past the 18 the stack holds.
        let mut rng = 0x0F01_DED5_EED5_0001u64;
        for l in 1..=20 {
            for w in 1..=19 {
                let a = random_words(l, &mut rng);
                let consts = random_words(l * w, &mut rng);
                let mut out = vec![0u64; w + 1];
                row_product_clmul(&a, &consts, &mut out);
                assert_eq!(out, row_product_reference(&a, &consts, w), "L {l}, W {w}");
            }
        }
        for l in 2..=20 {
            for w in 1..l {
                // A modulus of degree 64 W and the constants that move the
                // state up L words under it: K_i = x^(64 (2L-1-i)) mod G.
                let mut modulus = vec![1u64];
                modulus.extend(random_words(w, &mut rng));
                let modulus = poly(&modulus);
                let mut consts = vec![0u64; l * w];
                for i in 0..l {
                    let k = crate::Gf2Poly::monomial(64 * (2 * l - 1 - i)).rem(&modulus);
                    for (j, &word) in k.as_words().iter().enumerate() {
                        consts[(w - 1 - j) * l + i] = word;
                    }
                }
                for steps in 0..=4 {
                    let seed = random_words(l, &mut rng);
                    let message = random_words(l * steps, &mut rng);
                    let bytes: Vec<[u8; 8]> = message.iter().map(|m| m.to_be_bytes()).collect();
                    let mut state = seed.clone();
                    fold_clmul(&mut state, &consts, &bytes);
                    // Step by step, by the oracle multiply...
                    let mut expect = seed.clone();
                    for chunk in message.chunks(l) {
                        let product = row_product_reference(&expect, &consts, w);
                        expect = chunk.to_vec();
                        for (e, p) in expect[l - w - 1..].iter_mut().zip(product) {
                            *e ^= p;
                        }
                    }
                    assert_eq!(state, expect, "L {l}, W {w}, {steps} steps");
                    // ...and as what it is for: seed then message, mod G.
                    let all: Vec<u64> = seed.iter().chain(&message).copied().collect();
                    assert_eq!(
                        poly(&state).rem(&modulus),
                        poly(&all).rem(&modulus),
                        "L {l}, W {w}, {steps} steps"
                    );
                }
            }
        }
    }

    // A bad shape must stop at the safe wrapper, whatever the CPU.
    #[test]
    #[should_panic(expected = "W rows of L words")]
    fn row_product_rejects_constants_that_are_not_l_by_w() {
        row_product_clmul(&[1, 2, 3], &[0; 7], &mut [0; 3]);
    }

    #[test]
    #[should_panic(expected = "W < L rows of L words")]
    fn fold_rejects_a_product_wider_than_the_state() {
        fold_clmul(&mut [0; 4], &[0; 16], &[[0; 8]; 4]);
    }

    #[test]
    #[should_panic(expected = "W < L rows of L words")]
    fn fold_rejects_constants_that_are_not_l_by_w() {
        fold_clmul(&mut [0; 4], &[0; 9], &[[0; 8]; 4]);
    }

    #[test]
    #[should_panic(expected = "not a multiple of L words")]
    fn fold_rejects_a_message_that_is_not_whole_steps() {
        fold_clmul(&mut [0; 4], &[0; 8], &[[0; 8]; 6]);
    }

    #[test]
    #[should_panic(expected = "empty state")]
    fn fold_rejects_an_empty_state() {
        fold_clmul(&mut [], &[], &[]);
    }

    /// `v mod p` by long division, one slot.
    fn slot_mod(v: u32, m: u32, poly: u32) -> u32 {
        (m..32).rev().fold(v, |v, bit| {
            if v >> bit & 1 == 1 {
                v ^ poly << (bit - m)
            } else {
                v
            }
        })
    }

    fn random_slots(n: usize, bits: u32, state: &mut u64) -> Vec<u32> {
        (0..n)
            .map(|_| xorshift(state) as u32 & ((1 << bits) - 1))
            .collect()
    }

    #[test]
    fn barrett_reduces_every_product_sized_slot() {
        // A combine of no rows is the reduction alone. Every slot value a
        // sum of products can take for m <= 8, 65 536 seeded ones above,
        // each once in the low slot and once in the high one.
        let mut rng = 0xBA22_E77Du64;
        for m in 2..=16 {
            let field = crate::GfField::new(m).unwrap();
            let poly = field.primitive_poly();
            let values: Vec<u32> = if m <= 8 {
                (0..1 << (2 * m - 1)).collect()
            } else {
                random_slots(1 << 16, 2 * m - 1, &mut rng)
            };
            let mut acc: Vec<u32> = values.iter().chain(values.iter().rev()).copied().collect();
            combine(field.barrett(), &[], &[], &mut acc);
            for (&v, &r) in values.iter().chain(values.iter().rev()).zip(&acc) {
                assert_eq!(r, slot_mod(v, m, poly), "m {m}, v {v:#x}");
            }
        }
    }

    /// [`Barrett::reduce_word`] over a list of words.
    struct Words<'a>(Barrett, &'a [u64]);

    impl Kernel for Words<'_> {
        type Out = Vec<u64>;

        fn run<M: MulAcc>(self, mul: M) -> Vec<u64> {
            let Words(field, values) = self;
            values
                .iter()
                .map(|&v| field.reduce_word(mul, mul.word(v)))
                .collect()
        }
    }

    #[test]
    fn barrett_reduces_any_word_on_either_multiply() {
        // What the split's leading coefficients are: any value below 2^64
        // (products of products, up to 62 bits), each bit alone, all ones.
        let mut rng = 0x030D_B0D5_u64;
        for m in 2..=16 {
            let field = crate::GfField::new(m).unwrap();
            let poly = u64::from(field.primitive_poly());
            let mut values = random_words(4096, &mut rng);
            values.extend((0..64).map(|bit| 1 << bit));
            values.push(!0);
            let expect: Vec<u64> = values
                .iter()
                .map(|&v| {
                    (m..64).rev().fold(v, |v, bit| {
                        if v >> bit & 1 == 1 {
                            v ^ poly << (bit - m)
                        } else {
                            v
                        }
                    })
                })
                .collect();
            assert_eq!(dispatch(Words(field.barrett(), &values)), expect, "m {m}");
            assert_eq!(
                Words(field.barrett(), &values).run(ShiftXor),
                expect,
                "m {m}"
            );
        }
    }

    #[test]
    fn combine_and_square_match_the_field_coefficient_by_coefficient() {
        let mut rng = 0xC0FF_EE00_5107u64;
        for m in 2..=16 {
            let field = crate::GfField::new(m).unwrap();
            for (count, len) in [(0, 2), (1, 2), (2, 6), (5, 4), (16, 10), (33, 66)] {
                let scalars = random_slots(count, m, &mut rng);
                let rows = random_slots(count * len, m, &mut rng);
                // The first term comes in as wide as a product.
                let init = random_slots(len, 2 * m - 1, &mut rng);
                let mut acc = init.clone();
                combine(field.barrett(), &scalars, &rows, &mut acc);
                for (c, &got) in acc.iter().enumerate() {
                    let sum = scalars.iter().zip(rows.chunks(len)).fold(
                        slot_mod(init[c], m, field.primitive_poly()),
                        |sum, (&s, row)| sum ^ field.mul(s, row[c]),
                    );
                    assert_eq!(got, sum, "m {m}, {count} rows of {len}, coefficient {c}");
                }
                let mut squares = vec![0; rows.len()];
                dispatch(Square(field.barrett(), &rows, &mut squares));
                for (&c, &sq) in rows.iter().zip(&squares) {
                    assert_eq!(sq, field.pow(c, 2), "m {m}, {c}^2");
                }
            }
        }
    }

    /// A monic `f` of degree `deg` (low coefficients, padded to whole
    /// words) with a nonzero constant term.
    fn random_modulus(deg: usize, m: u32, state: &mut u64) -> Vec<u32> {
        let mut f = random_slots(deg, m, state);
        f[0] |= 1;
        f.resize(deg.next_multiple_of(2), 0);
        f
    }

    /// `p * q mod f` over GF(2^m), schoolbook, by `GfField::mul`.
    fn mul_mod(field: &crate::GfField, p: &[u32], q: &[u32], f: &[u32], deg: usize) -> Vec<u32> {
        let mut prod = vec![0u32; 2 * deg];
        for (i, &a) in p[..deg].iter().enumerate() {
            for (j, &b) in q[..deg].iter().enumerate() {
                prod[i + j] ^= field.mul(a, b);
            }
        }
        for top in (deg..2 * deg).rev() {
            let lead = std::mem::take(&mut prod[top]);
            for (c, &fc) in f[..deg].iter().enumerate() {
                prod[top - deg + c] ^= field.mul(lead, fc);
            }
        }
        prod.truncate(deg);
        prod.resize(f.len(), 0);
        prod
    }

    #[test]
    fn frobenius_chain_squares_modulo_f_in_every_field() {
        let mut rng = 0xF20B_E217u64;
        for m in 2..=16 {
            let field = crate::GfField::new(m).unwrap();
            for deg in [3, 4, 5, 6, 9, 16, 33] {
                let f = random_modulus(deg, m, &mut rng);
                let mut scratch = vec![0; frobenius_scratch_len(deg)];
                let mut z = vec![0; (m as usize + 1) * f.len()];
                let fixed = frobenius_chain(field.barrett(), &f, deg, &mut scratch, &mut z);
                let mut expect = vec![0u32; f.len()];
                expect[1] = 1;
                for (i, z_i) in z.chunks(f.len()).enumerate() {
                    assert_eq!(z_i, expect, "m {m}, degree {deg}, z_{i}");
                    if i == m as usize {
                        let x = z_i.iter().enumerate().all(|(c, &v)| v == u32::from(c == 1));
                        assert_eq!(fixed, x, "m {m}, degree {deg}");
                    }
                    expect = mul_mod(&field, z_i, z_i, &f, deg);
                }
            }
            // Distinct roots in the field: x^(2^m) = x modulo the product.
            let deg = 3.min(field.order() as usize);
            let mut f = vec![1u32];
            for e in 0..deg {
                let root = field.alpha_pow(e as i64);
                f.push(0);
                for c in (0..f.len()).rev() {
                    f[c] = field.mul(f[c], root) ^ if c > 0 { f[c - 1] } else { 0 };
                }
            }
            assert_eq!(f.pop(), Some(1), "monic");
            f.resize(deg.next_multiple_of(2), 0);
            let mut z = vec![0; (m as usize + 1) * f.len()];
            let mut scratch = vec![0; frobenius_scratch_len(deg)];
            assert!(frobenius_chain(
                field.barrett(),
                &f,
                deg,
                &mut scratch,
                &mut z
            ));
        }
    }

    /// A loop of `dot`s over given pairs, collecting them.
    struct Pairs<'a>(&'a [(Vec<u32>, Vec<u32>)], Vec<u32>);

    impl Dots for Pairs<'_> {
        #[inline(always)]
        fn run(&mut self, mut dot: impl FnMut(&[u32], &[u32]) -> u32) {
            let Pairs(pairs, out) = self;
            out.extend(pairs.iter().map(|(a, b)| dot(a, b)));
        }
    }

    fn dots_of(field: Barrett, pairs: &[(Vec<u32>, Vec<u32>)]) -> Vec<u32> {
        let mut job = Pairs(pairs, Vec::new());
        with_dots(field, &mut job);
        job.1
    }

    #[test]
    fn dot_is_the_sum_of_field_products_at_every_even_length() {
        let mut rng = 0xD07_D07u64;
        for m in 2..=16 {
            let field = crate::GfField::new(m).unwrap();
            let pairs: Vec<(Vec<u32>, Vec<u32>)> = (0..=132)
                .step_by(2)
                .map(|len| {
                    (
                        random_slots(len, m, &mut rng),
                        random_slots(len, m, &mut rng),
                    )
                })
                .collect();
            let dots = dots_of(field.barrett(), &pairs);
            for ((a, b), got) in pairs.iter().zip(dots) {
                let len = a.len();
                let expect = (0..len).fold(0, |sum, i| sum ^ field.mul(a[i], b[len - 1 - i]));
                assert_eq!(got, expect, "m {m}, length {len}");
            }
        }
    }

    /// `a * b` over GF(2^m), schoolbook.
    fn poly_mul(field: &crate::GfField, a: &[u32], b: &[u32]) -> Vec<u32> {
        let mut out = vec![0; a.len() + b.len() - 1];
        for (i, &x) in a.iter().enumerate() {
            for (j, &y) in b.iter().enumerate() {
                out[i + j] ^= field.mul(x, y);
            }
        }
        out
    }

    /// `(a / b, a mod b)` by schoolbook long division through
    /// `GfField::inv`; `b`'s last coefficient is its nonzero leading one.
    fn poly_divmod(field: &crate::GfField, a: &[u32], b: &[u32]) -> (Vec<u32>, Vec<u32>) {
        let db = b.len() - 1;
        let inv = field.inv(b[db]).unwrap();
        let mut rem = a.to_vec();
        let mut quot = vec![0; a.len().saturating_sub(db)];
        for j in (db..a.len()).rev() {
            let q = field.mul(rem[j], inv);
            quot[j - db] = q;
            for (r, &c) in rem[j - db..=j].iter_mut().zip(b) {
                *r ^= field.mul(q, c);
            }
        }
        rem.truncate(db.min(a.len()));
        (quot, rem)
    }

    fn trimmed(mut p: Vec<u32>) -> Vec<u32> {
        while p.last() == Some(&0) {
            p.pop();
        }
        p
    }

    /// What [`split`] gives on `f` (low coefficients, monic) and `trace`,
    /// by Euclid and long division on `GfField`: `deg g` and `g` then
    /// `f / g` when `g = gcd(f, trace mod f)` is a proper factor; `None` and
    /// `f` otherwise.
    fn split_reference(
        field: &crate::GfField,
        f: &[u32],
        trace: &[u32],
    ) -> (Option<usize>, Vec<u32>) {
        let full: Vec<u32> = f.iter().copied().chain([1]).collect();
        let (mut a, mut b) = (full.clone(), trimmed(poly_divmod(field, trace, &full).1));
        while !b.is_empty() {
            let rem = trimmed(poly_divmod(field, &a, &b).1);
            (a, b) = (b, rem);
        }
        let dg = a.len() - 1;
        if dg == 0 || dg == f.len() {
            return (None, f.to_vec());
        }
        let inv = field.inv(a[dg]).unwrap();
        let g: Vec<u32> = a.iter().map(|&c| field.mul(c, inv)).collect();
        let (h, rem) = poly_divmod(field, &full, &g);
        assert!(rem.iter().all(|&c| c == 0), "g divides f");
        (
            Some(dg),
            g[..dg].iter().chain(&h[..f.len() - dg]).copied().collect(),
        )
    }

    /// [`split`] on `f` (low coefficients) and `trace`, padded as it takes
    /// them: its result and what it leaves of `f`.
    fn split_padded(field: &crate::GfField, f: &[u32], trace: &[u32]) -> (Option<usize>, Vec<u32>) {
        let deg = f.len();
        let mut padded = f.to_vec();
        padded.resize(deg.next_multiple_of(2), 0);
        let mut trace = trace.to_vec();
        trace.resize(trace.len().next_multiple_of(2), 0);
        let mut scratch = vec![0; split_scratch_len(deg, trace.len())];
        let split = split(field, &mut padded, deg, &trace, &mut scratch);
        assert!(padded[deg..].iter().all(|&pad| pad == 0), "padding kept");
        padded.truncate(deg);
        (split, padded)
    }

    /// A monic polynomial of degree `deg`, full coefficients.
    fn random_monic(deg: usize, m: u32, state: &mut u64) -> Vec<u32> {
        let mut p = random_slots(deg, m, state);
        p.push(1);
        p
    }

    /// `f = g h` with `deg g` drawn from `1..deg` (full coefficients), and
    /// a trace `g u + f v` of up to `2 deg` coefficients.
    fn factored(
        field: &crate::GfField,
        deg: usize,
        state: &mut u64,
    ) -> (usize, Vec<u32>, Vec<u32>) {
        let m = field.degree();
        let dg = 1 + xorshift(state) as usize % (deg - 1);
        let g = random_monic(dg, m, state);
        let f = poly_mul(field, &g, &random_monic(deg - dg, m, state));
        let v = random_slots(xorshift(state) as usize % deg + 1, m, state);
        let mut trace = poly_mul(field, &f, &v);
        for (t, c) in trace
            .iter_mut()
            .zip(poly_mul(field, &g, &random_slots(deg - dg, m, state)))
        {
            *t ^= c;
        }
        (dg, f, trace)
    }

    #[test]
    fn split_is_schoolbook_division_and_gcd_in_every_field() {
        // Divisors of degree 1 to 70 in every field, traces up to twice as
        // long: random ones (their gcd with f mostly 1), g u + f v for a
        // proper factor g (mostly g), multiples of f (every root shared)
        // and 1 plus one (no root shared) — neither of which splits.
        let mut rng = 0x5_B117_5EEDu64;
        let mut proper = 0;
        for m in 2..=16 {
            let field = crate::GfField::new(m).unwrap();
            for deg in 1..=70 {
                let f = random_monic(deg, m, &mut rng);
                let len = 1 + xorshift(&mut rng) as usize % (2 * deg);
                let multiple = poly_mul(
                    &field,
                    &f,
                    &random_slots(len.max(deg + 1) - deg, m, &mut rng),
                );
                let mut one_more = multiple.clone();
                one_more[0] ^= 1;
                let cases = [
                    (f.clone(), random_slots(len, m, &mut rng), "random"),
                    (f.clone(), multiple, "a multiple of f"),
                    (f, one_more, "1 + a multiple of f"),
                ];
                let factored = (deg >= 2).then(|| {
                    let (dg, f, trace) = factored(&field, deg, &mut rng);
                    (f, trace, dg)
                });
                for (f, trace, what) in cases {
                    let expect = split_reference(&field, &f[..deg], &trace);
                    if what != "random" {
                        assert_eq!(expect.0, None, "m {m}, degree {deg}, {what}");
                    }
                    let what = format!("m {m}, degree {deg}, {what} of {}", trace.len());
                    assert_eq!(split_padded(&field, &f[..deg], &trace), expect, "{what}");
                }
                if let Some((f, trace, dg)) = factored {
                    let expect = split_reference(&field, &f[..deg], &trace);
                    proper += usize::from(expect.0 == Some(dg));
                    let what = format!("m {m}, degree {deg}, g of {dg}");
                    assert_eq!(split_padded(&field, &f[..deg], &trace), expect, "{what}");
                }
            }
        }
        assert!(
            proper > 15 * 69 / 2,
            "only {proper} splits by the planted factor"
        );
    }

    /// The table's residues against long division (`Gf2Poly::rem`), and —
    /// what the syndromes use them for — evaluated at the root.
    fn check_residues(field: &crate::GfField, exponents: &[u32], words: usize, rng: &mut u64) {
        let moduli: Vec<u32> = exponents
            .iter()
            .map(|&j| crate::minpoly::minimal_poly(field, j).as_words()[0] as u32)
            .collect();
        let table = Residues::new(&moduli, words);
        assert_eq!((table.count(), table.words()), (moduli.len(), words));
        for round in 0..4 {
            // Random words, then all ones, then a single top bit.
            let value = match round {
                0 | 1 => random_words(words, rng),
                2 => vec![!0; words],
                _ => (0..words).map(|i| u64::from(i == 0) << 63).collect(),
            };
            let mut out = vec![0; moduli.len()];
            residues(&table, &value, &mut out);
            let poly = poly(&value);
            for ((&j, &m), &r) in exponents.iter().zip(&moduli).zip(&out) {
                let modulus = crate::Gf2Poly::from_int(u64::from(m));
                let rem = crate::Gf2Poly::from_int(u64::from(r));
                let what = format!("m {}, j {j}, {words} words", field.degree());
                assert_eq!(rem, poly.rem(&modulus), "{what}");
                let root = field.alpha_pow(i64::from(j));
                assert_eq!(
                    rem.eval_in_field(field, root),
                    poly.eval_in_field(field, root),
                    "{what}"
                );
            }
        }
    }

    #[test]
    fn residues_are_long_division_by_the_minimal_polynomials_in_every_field() {
        let mut rng = 0x2E51_D0E5u64;
        for m in 2..=16 {
            let field = crate::GfField::new(m).unwrap();
            for t in [1u32, 5, 11, 14] {
                let odd: Vec<u32> = (0..t).map(|k| 2 * k + 1).collect();
                for words in [1, (m * t).div_ceil(64) as usize, 5] {
                    check_residues(&field, &odd, words, &mut rng);
                }
            }
        }
        // The paper's widest code: 65 moduli of degree 16, 17 words.
        let field = crate::GfField::new(16).unwrap();
        let odd: Vec<u32> = (0..65).map(|k| 2 * k + 1).collect();
        check_residues(&field, &odd, 17, &mut rng);
        // Moduli of degree below m — alpha^9 and alpha^21 of GF(2^6) lie
        // in GF(2^3) and GF(2^2) — and two odd exponents of one coset
        // (GF(2^4), t = 5: 9 is in C_3), one modulus twice.
        let mp = |m, j| {
            let field = crate::GfField::new(m).unwrap();
            crate::minpoly::minimal_poly(&field, j)
        };
        assert_eq!((mp(6, 9).degree(), mp(6, 21).degree()), (Some(3), Some(2)));
        assert_eq!(mp(4, 9), mp(4, 3));
    }

    #[test]
    fn residues_divide_by_any_modulus_up_to_degree_31() {
        let mut rng = 0x0DD_D1F15u64;
        for degree in 1..=31 {
            let moduli: Vec<u32> = (0..7)
                .map(|_| xorshift(&mut rng) as u32 & ((1 << degree) - 1) | 1 << degree)
                .collect();
            for words in [1, 2, 17] {
                let table = Residues::new(&moduli, words);
                let value = random_words(words, &mut rng);
                let mut out = vec![0; moduli.len()];
                residues(&table, &value, &mut out);
                for (&m, &r) in moduli.iter().zip(&out) {
                    let modulus = crate::Gf2Poly::from_int(u64::from(m));
                    assert_eq!(
                        crate::Gf2Poly::from_int(u64::from(r)),
                        poly(&value).rem(&modulus),
                        "modulus {m:#x}, {words} words"
                    );
                }
            }
        }
    }

    #[test]
    fn the_pclmulqdq_bodies_equal_the_shift_and_xor_bodies() {
        // What the entry points run (pclmulqdq where the CPU has it)
        // against their jobs run on shift-and-XOR, on random shapes.
        let mut rng = 0x5AFE_B0D1E5u64;
        let fields: Vec<crate::GfField> =
            (2..=16).map(|m| crate::GfField::new(m).unwrap()).collect();
        for round in 0..200 {
            let (la, lb) = (1 + round % 17, 1 + round % 5);
            let (a, b) = (random_words(la, &mut rng), random_words(lb, &mut rng));
            assert_eq!(mul_raw_clmul(&a, &b), MulRaw(&a, &b).run(ShiftXor));
            let (l, w) = (2 + round % 19, 1 + round % 7);
            let (w, state) = (w.min(l - 1), random_words(l, &mut rng));
            let consts = random_words(l * w, &mut rng);
            let (mut got, mut expect) = (vec![0; w + 1], vec![0; w + 1]);
            row_product_clmul(&state, &consts, &mut got);
            RowProduct(&state, &consts, &mut expect).run(ShiftXor);
            assert_eq!(got, expect, "row product, L {l}, W {w}");
            let message: Vec<[u8; 8]> = random_words(2 * l, &mut rng)
                .iter()
                .map(|m| m.to_be_bytes())
                .collect();
            let (mut got, mut expect) = (state.clone(), state);
            fold_clmul(&mut got, &consts, &message);
            Fold(&mut expect, &consts, &message).run(ShiftXor);
            assert_eq!(got, expect, "fold, L {l}, W {w}");
            let m = 2 + (xorshift(&mut rng) % 15) as u32;
            let field = Barrett::new(m, crate::GfField::new(m).unwrap().primitive_poly());
            let (count, len) = (round % 19, 2 + 2 * (round % 13));
            let scalars = random_slots(count, m, &mut rng);
            let rows = random_slots(count * len, m, &mut rng);
            let init = random_slots(len, 2 * m - 1, &mut rng);
            let (mut got, mut expect) = (init.clone(), init);
            combine(field, &scalars, &rows, &mut got);
            Combine(field, &scalars, &rows, &mut expect).run(ShiftXor);
            assert_eq!(got, expect, "combine, m {m}, {count} rows of {len}");
            let (mut got, mut expect) = (vec![0; rows.len()], vec![0; rows.len()]);
            dispatch(Square(field, &rows, &mut got));
            Square(field, &rows, &mut expect).run(ShiftXor);
            assert_eq!(got, expect, "square, m {m}");
            let deg = 3 + round % 40;
            let f = random_modulus(deg, m, &mut rng);
            let mut scratch = vec![0; frobenius_scratch_len(deg)];
            let mut got = vec![0; (m as usize + 1) * f.len()];
            let mut expect = got.clone();
            assert_eq!(
                frobenius_chain(field, &f, deg, &mut scratch, &mut got),
                Chain(field, &f, deg, &mut scratch, &mut expect).run(ShiftXor),
            );
            assert_eq!(got, expect, "chain, m {m}, degree {deg}");
            let (a, b) = (
                random_slots(len, m, &mut rng),
                random_slots(len, m, &mut rng),
            );
            let pairs = [(a, b)];
            let mut portable = Pairs(&pairs, Vec::new());
            DotLoop(field, &mut portable).run(ShiftXor);
            assert_eq!(
                dots_of(field, &pairs),
                portable.1,
                "dot, m {m}, length {len}"
            );
            // Factors of degree 1 to 70, every other trace planted with a
            // proper factor.
            let gf = &fields[m as usize - 2];
            let deg = 1 + round % 70;
            let (f, trace) = if round % 2 == 0 && deg >= 2 {
                let (_, f, trace) = factored(gf, deg, &mut rng);
                (f[..deg].to_vec(), trace)
            } else {
                let len = 1 + xorshift(&mut rng) as usize % (2 * deg);
                (
                    random_slots(deg, m, &mut rng),
                    random_slots(len, m, &mut rng),
                )
            };
            let (mut f, mut trace) = (f, trace);
            f.resize(deg.next_multiple_of(2), 0);
            trace.resize(trace.len().next_multiple_of(2), 0);
            let mut scratch = vec![0; split_scratch_len(deg, trace.len())];
            let (mut got, mut expect) = (f.clone(), f);
            assert_eq!(
                split(gf, &mut got, deg, &trace, &mut scratch),
                Split(gf, &mut expect, deg, &trace, &mut scratch).run(ShiftXor),
                "split, m {m}, degree {deg}"
            );
            assert_eq!(got, expect, "split, m {m}, degree {deg}");
            // Moduli of every degree the table takes, values of 1..=18 words.
            let words = 1 + round % 18;
            let moduli: Vec<u32> = (0..count)
                .map(|_| {
                    let degree = 1 + xorshift(&mut rng) % 31;
                    xorshift(&mut rng) as u32 & ((1 << degree) - 1) | 1 << degree
                })
                .collect();
            let table = Residues::new(&moduli, words);
            let mut portable = vec![0; table.rows.len()];
            ResidueTable(&moduli, words, &mut portable).run(ShiftXor);
            assert_eq!(table.rows, portable, "table, {count} moduli, {words} words");
            let value = random_words(words, &mut rng);
            let (mut got, mut expect) = (vec![0; count], vec![0; count]);
            residues(&table, &value, &mut got);
            ResiduesOf(&table, &value, &mut expect).run(ShiftXor);
            assert_eq!(got, expect, "residues, {count} moduli, {words} words");
        }
    }

    fn gf16() -> Barrett {
        Barrett::new(4, 0x13)
    }

    // As above: a bad shape never reaches the intrinsics.
    #[test]
    #[should_panic(expected = "unreduced scalar or row slot")]
    fn combine_rejects_an_unreduced_scalar() {
        combine(gf16(), &[16], &[1, 1], &mut [0, 0]);
    }

    #[test]
    #[should_panic(expected = "unreduced scalar or row slot")]
    fn combine_rejects_an_unreduced_row_slot() {
        combine(gf16(), &[1, 1], &[1, 2, 3, 16], &mut [0, 0]);
    }

    #[test]
    #[should_panic(expected = "accumulator slot wider than a product")]
    fn combine_rejects_an_accumulator_wider_than_a_product() {
        combine(gf16(), &[], &[], &mut [0, 1 << 7]);
    }

    #[test]
    #[should_panic(expected = "one polynomial per scalar")]
    fn combine_rejects_rows_that_are_not_one_per_scalar() {
        combine(gf16(), &[1, 1], &[0; 6], &mut [0; 4]);
    }

    #[test]
    #[should_panic(expected = "whole number of two-slot words")]
    fn combine_rejects_half_a_word() {
        combine(gf16(), &[1], &[0; 3], &mut [0; 3]);
    }

    #[test]
    #[should_panic(expected = "whole number of two-slot words")]
    fn combine_rejects_an_empty_accumulator() {
        combine(gf16(), &[], &[], &mut []);
    }

    #[test]
    #[should_panic(expected = "degree 2 has no chain")]
    fn chain_rejects_a_modulus_below_degree_three() {
        frobenius_chain(gf16(), &[1, 1], 2, &mut [0; 8], &mut [0; 10]);
    }

    #[test]
    #[should_panic(expected = "f is not deg slots")]
    fn chain_rejects_a_modulus_that_is_not_deg_slots() {
        frobenius_chain(gf16(), &[1, 1, 1], 3, &mut [0; 16], &mut [0; 20]);
    }

    #[test]
    #[should_panic(expected = "z is not m + 1 rows")]
    fn chain_rejects_a_chain_that_is_not_m_plus_one_rows() {
        frobenius_chain(gf16(), &[1, 1, 1, 0], 3, &mut [0; 16], &mut [0; 16]);
    }

    #[test]
    #[should_panic(expected = "scratch")]
    fn chain_rejects_scratch_of_the_wrong_size() {
        frobenius_chain(gf16(), &[1, 1, 1, 0], 3, &mut [0; 12], &mut [0; 20]);
    }

    #[test]
    #[should_panic(expected = "unreduced slot")]
    fn chain_rejects_a_nonzero_padding_slot() {
        frobenius_chain(gf16(), &[1, 1, 1, 1], 3, &mut [0; 16], &mut [0; 20]);
    }

    #[test]
    #[should_panic(expected = "whole number of two-slot words")]
    fn dot_rejects_an_odd_length() {
        dots_of(gf16(), &[(vec![1, 2, 3], vec![1, 2, 3])]);
    }

    #[test]
    #[should_panic(expected = "unequal lengths")]
    fn dot_rejects_unequal_lengths() {
        dots_of(gf16(), &[(vec![1, 2], vec![1, 2, 3, 4])]);
    }

    fn gf16_field() -> crate::GfField {
        crate::GfField::new(4).unwrap()
    }

    #[test]
    #[should_panic(expected = "a constant has no factor")]
    fn split_rejects_a_constant() {
        split(&gf16_field(), &mut [], 0, &[1, 0], &mut [0; 3]);
    }

    #[test]
    #[should_panic(expected = "f is not deg slots")]
    fn split_rejects_a_factor_that_is_not_deg_slots() {
        split(&gf16_field(), &mut [1, 2, 3], 3, &[1, 2], &mut [0; 11]);
    }

    #[test]
    #[should_panic(expected = "whole number of two-slot words")]
    fn split_rejects_half_a_word_of_trace() {
        split(
            &gf16_field(),
            &mut [1, 2, 3, 0],
            3,
            &[1, 2, 3],
            &mut [0; 11],
        );
    }

    #[test]
    #[should_panic(expected = "scratch")]
    fn split_rejects_scratch_of_the_wrong_size() {
        split(&gf16_field(), &mut [1, 2, 3, 0], 3, &[1, 2], &mut [0; 10]);
    }

    #[test]
    #[should_panic(expected = "unreduced slot")]
    fn split_rejects_an_unreduced_factor_slot() {
        split(&gf16_field(), &mut [1, 16, 3, 0], 3, &[1, 2], &mut [0; 11]);
    }

    #[test]
    #[should_panic(expected = "unreduced slot")]
    fn split_rejects_an_unreduced_trace_slot() {
        split(&gf16_field(), &mut [1, 2, 3, 0], 3, &[1, 17], &mut [0; 11]);
    }

    #[test]
    #[should_panic(expected = "unreduced slot")]
    fn split_rejects_a_nonzero_padding_slot() {
        split(&gf16_field(), &mut [1, 2, 3, 5], 3, &[1, 2], &mut [0; 11]);
    }

    // Monic is the layout, the leading 1 implicit: one written out lands in
    // the padding slot (odd degree) or makes f a slot too long (even).
    #[test]
    #[should_panic(expected = "unreduced slot")]
    fn split_rejects_a_written_out_leading_coefficient() {
        split(&gf16_field(), &mut [1, 2, 3, 1], 3, &[1, 2], &mut [0; 11]);
    }

    #[test]
    #[should_panic(expected = "f is not deg slots")]
    fn split_rejects_a_factor_with_its_leading_coefficient() {
        split(
            &gf16_field(),
            &mut [1, 2, 3, 4, 1, 0],
            4,
            &[1, 2],
            &mut [0; 14],
        );
    }

    #[test]
    #[should_panic(expected = "not W words")]
    fn residues_reject_a_value_of_the_wrong_width() {
        residues(&Residues::new(&[0x13, 0x7], 3), &[1, 2], &mut [0; 2]);
    }

    #[test]
    #[should_panic(expected = "one residue per modulus")]
    fn residues_reject_an_output_of_the_wrong_length() {
        residues(&Residues::new(&[0x13, 0x7], 2), &[1, 2], &mut [0; 3]);
    }

    #[test]
    #[should_panic(expected = "constant modulus")]
    fn residues_reject_a_constant_modulus() {
        Residues::new(&[0x13, 1], 2);
    }

    #[test]
    #[should_panic(expected = "degree is not m")]
    fn barrett_rejects_a_polynomial_of_another_degree() {
        Barrett::new(4, 0x25);
    }

    #[test]
    fn best_is_the_production_kernel_on_every_cpu() {
        assert_eq!(MulKernel::best(), MulKernel::Clmul);
    }
}
