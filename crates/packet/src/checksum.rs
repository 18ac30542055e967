//! Internet ones-complement checksums.
//!
//! MPTCP reuses TCP's 16-bit ones-complement checksum for the DSS option
//! (§3.3.6 of the paper), so one pass over the payload could feed both it
//! and the TCP checksum. This stack makes four per trip, with DSS checksums
//! on (the default): `TcpSegment::encode_into` and `MptcpConnection::
//! place_chunk`'s [`dss_checksum`] each sum every data byte on the way out,
//! `TcpSegment::decode_verified_view_into` and `MappingTracker::
//! consume_next` on the way in (ROADMAP item 16). This module provides the
//! raw sum, the fold, and the DSS pseudo-header checksum.

/// Accumulate the ones-complement sum of `data` into `sum`.
///
/// `sum` is a 32-bit accumulator carrying un-folded carries; start from `0`
/// (or a previous partial sum) and call [`fold`] at the end. Odd-length data
/// is virtually padded with a trailing zero byte, per RFC 1071.
///
/// Internally this sums many bytes per add in u64 lanes — AVX-512 and AVX2
/// kernels (runtime-detected on x86-64) widening 32-bit words into 64-bit
/// vector accumulators, with a portable four-lane scalar kernel everywhere
/// else — rather than one 16-bit word at a time (the benchmark's
/// `packet.checksum_gbps` is its rate). The wide sum is taken in native
/// byte order and corrected once at the end: a ones-complement sum is
/// endian-independent up to a byte swap (RFC 1071 §2.B), so on
/// little-endian hosts the folded 16-bit result is simply `swap_bytes()`d
/// back to the big-endian word order the protocol defines.
#[inline]
pub fn ones_complement_add(sum: u32, data: &[u8]) -> u32 {
    sum + u32::from(wide_sum(data))
}

/// Folded (but not complemented) 16-bit ones-complement sum of `data`,
/// computed with u64 lanes. Returns a big-endian-word-order sum; adding it
/// into a u32 accumulator is valid because ones-complement addition is
/// associative and any partial fold is congruent mod 2^16 − 1.
fn wide_sum(data: &[u8]) -> u16 {
    let (acc_simd, rest_simd) = bulk_sum_simd(data);
    let (acc_scalar, rest) = bulk_sum_portable(rest_simd);
    // Both partials are folded below 2^33, so the combined accumulator and
    // the < 8 bytes of tail adds below cannot overflow a u64.
    let mut acc = acc_simd + acc_scalar;

    // Tail (< 8 bytes): native-endian 16-bit words, odd byte zero-padded.
    let mut tail_chunks = rest.chunks_exact(2);
    for c in &mut tail_chunks {
        acc += u64::from(u16::from_ne_bytes([c[0], c[1]]));
    }
    if let [last] = tail_chunks.remainder() {
        // The pad byte is the *second* byte of the final 16-bit word in
        // wire order, i.e. the high byte of a little-endian native word.
        acc += u64::from(u16::from_ne_bytes([*last, 0]));
    }

    let acc = (acc & 0xffff_ffff) + (acc >> 32);
    let acc32 = ((acc & 0xffff_ffff) + (acc >> 32)) as u32;
    let mut s16 = (acc32 & 0xffff) + (acc32 >> 16);
    while s16 >> 16 != 0 {
        s16 = (s16 & 0xffff) + (s16 >> 16);
    }
    let native = s16 as u16;
    // Native word order → protocol (big-endian) word order.
    if cfg!(target_endian = "little") {
        native.swap_bytes()
    } else {
        native
    }
}

/// Portable bulk kernel: four independent u64 lanes over 32-byte chunks,
/// explicit end-around carries, then single u64 words. Returns the partial
/// sum folded below 2^33 plus the unprocessed tail (< 8 bytes).
fn bulk_sum_portable(data: &[u8]) -> (u64, &[u8]) {
    // Independent lanes break the dependency chain so several adds stay in
    // flight per cycle.
    let mut lanes = [0u64; 4];
    let mut carries = 0u64;
    let mut chunks32 = data.chunks_exact(32);
    for c in &mut chunks32 {
        for (i, lane) in lanes.iter_mut().enumerate() {
            let w = u64::from_ne_bytes(c[i * 8..i * 8 + 8].try_into().unwrap());
            let (s, carry) = lane.overflowing_add(w);
            *lane = s;
            carries += u64::from(carry);
        }
    }
    let mut rest = chunks32.remainder();
    let mut chunks8 = rest.chunks_exact(8);
    for c in &mut chunks8 {
        let w = u64::from_ne_bytes(c.try_into().unwrap());
        let (s, carry) = lanes[0].overflowing_add(w);
        lanes[0] = s;
        carries += u64::from(carry);
    }
    rest = chunks8.remainder();

    // Collapse lanes + carries into one end-around-carry u64 sum, then
    // fold below 2^33 (2^32 ≡ 1 mod 2^16 − 1 keeps folds congruent).
    let mut acc = carries;
    for lane in lanes {
        let (s, carry) = acc.overflowing_add(lane);
        acc = s + u64::from(carry);
    }
    let s = (acc & 0xffff_ffff) + (acc >> 32);
    ((s & 0xffff_ffff) + (s >> 32), rest)
}

/// SIMD bulk kernel dispatch: on x86-64, sum whole 128-byte blocks with
/// AVX-512 and whole 64-byte blocks with AVX2 (each runtime-detected,
/// cascading widest-first); otherwise pass the input through untouched.
/// Returns a partial sum below 2^34 plus the remainder (< 64 bytes when
/// any kernel ran).
#[cfg(target_arch = "x86_64")]
fn bulk_sum_simd(data: &[u8]) -> (u64, &[u8]) {
    let mut acc = 0u64;
    let mut rest = data;
    if rest.len() >= 64
        && std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512bw")
    {
        // SAFETY: AVX-512F + AVX-512BW support was just verified at
        // runtime (BW supplies the byte-masked tail load).
        let (a, r) = unsafe { bulk_sum_avx512(rest) };
        acc += a;
        rest = r;
    }
    if rest.len() >= 64 && std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just verified at runtime.
        let (a, r) = unsafe { bulk_sum_avx2(rest) };
        acc += a;
        rest = r;
    }
    (acc, rest)
}

#[cfg(not(target_arch = "x86_64"))]
fn bulk_sum_simd(data: &[u8]) -> (u64, &[u8]) {
    (0, data)
}

/// AVX-512 kernel: two 64-byte loads per iteration, each register's 32-bit
/// words split into 64-bit lanes by mask/shift (plain ALU ops, no shuffle
/// port) and accumulated with 64-bit vector adds. No lane can carry below
/// 2^31 input bytes, far beyond any segment. The tail is consumed in the
/// same registers — one plain 64-byte block, then a byte-masked load
/// (AVX-512BW) whose zero fill is exactly the odd-byte pad semantics — so
/// this kernel sums the *entire* input and returns an empty remainder.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn bulk_sum_avx512(data: &[u8]) -> (u64, &[u8]) {
    use std::arch::x86_64::*;
    let mut chunks = data.chunks_exact(128);
    // SAFETY (for the whole function): loads are unaligned (`loadu`) and
    // every pointer stays within the chunk handed out by the iterator or
    // the bounds-checked remainder slice; the final load reads only the
    // `rest.len()` bytes its mask enables.
    unsafe {
        let mask = _mm512_set1_epi64(0xffff_ffff);
        let zero = _mm512_setzero_si512();
        // Four independent accumulators keep every dependency chain at one
        // vector add per iteration.
        let mut acc0 = zero;
        let mut acc1 = zero;
        let mut acc2 = zero;
        let mut acc3 = zero;
        for c in &mut chunks {
            let a = _mm512_loadu_si512(c.as_ptr() as *const __m512i);
            let b = _mm512_loadu_si512(c.as_ptr().add(64) as *const __m512i);
            acc0 = _mm512_add_epi64(acc0, _mm512_and_si512(a, mask));
            acc1 = _mm512_add_epi64(acc1, _mm512_srli_epi64(a, 32));
            acc2 = _mm512_add_epi64(acc2, _mm512_and_si512(b, mask));
            acc3 = _mm512_add_epi64(acc3, _mm512_srli_epi64(b, 32));
        }
        let mut rest = chunks.remainder();
        if rest.len() >= 64 {
            let a = _mm512_loadu_si512(rest.as_ptr() as *const __m512i);
            acc0 = _mm512_add_epi64(acc0, _mm512_and_si512(a, mask));
            acc1 = _mm512_add_epi64(acc1, _mm512_srli_epi64(a, 32));
            rest = &rest[64..];
        }
        if !rest.is_empty() {
            let k: __mmask64 = (1u64 << rest.len()) - 1;
            let a = _mm512_maskz_loadu_epi8(k, rest.as_ptr() as *const i8);
            acc2 = _mm512_add_epi64(acc2, _mm512_and_si512(a, mask));
            acc3 = _mm512_add_epi64(acc3, _mm512_srli_epi64(a, 32));
        }
        let sum = _mm512_add_epi64(_mm512_add_epi64(acc0, acc1), _mm512_add_epi64(acc2, acc3));
        // Each u64 lane stays below 2^60 for any real input, so the lane
        // sum cannot overflow; fold below 2^33 for the caller.
        let acc = _mm512_reduce_add_epi64(sum) as u64;
        let s = (acc & 0xffff_ffff) + (acc >> 32);
        ((s & 0xffff_ffff) + (s >> 32), &data[data.len()..])
    }
}

/// AVX2 kernel: two 32-byte loads per iteration, 32-bit words zero-widened
/// into 64-bit vector accumulators (no carries possible below 2^31 input
/// bytes, far beyond any segment).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn bulk_sum_avx2(data: &[u8]) -> (u64, &[u8]) {
    use std::arch::x86_64::*;
    let mut chunks = data.chunks_exact(64);
    // SAFETY (for the whole function): loads are unaligned (`loadu`) and
    // every pointer stays within the 64-byte chunk handed out by the
    // iterator.
    unsafe {
        let zero = _mm256_setzero_si256();
        // Four independent accumulators: one vector add per accumulator
        // per iteration keeps every dependency chain at one cycle.
        let mut acc0 = zero;
        let mut acc1 = zero;
        let mut acc2 = zero;
        let mut acc3 = zero;
        for c in &mut chunks {
            let a = _mm256_loadu_si256(c.as_ptr() as *const __m256i);
            let b = _mm256_loadu_si256(c.as_ptr().add(32) as *const __m256i);
            acc0 = _mm256_add_epi64(acc0, _mm256_unpacklo_epi32(a, zero));
            acc1 = _mm256_add_epi64(acc1, _mm256_unpackhi_epi32(a, zero));
            acc2 = _mm256_add_epi64(acc2, _mm256_unpacklo_epi32(b, zero));
            acc3 = _mm256_add_epi64(acc3, _mm256_unpackhi_epi32(b, zero));
        }
        let sum = _mm256_add_epi64(_mm256_add_epi64(acc0, acc1), _mm256_add_epi64(acc2, acc3));
        let mut out = [0u64; 4];
        _mm256_storeu_si256(out.as_mut_ptr() as *mut __m256i, sum);
        // Each u64 lane stays below 2^60 for any real input, so the plain
        // sum cannot overflow; fold below 2^33 for the caller.
        let acc: u64 = out.iter().sum();
        let s = (acc & 0xffff_ffff) + (acc >> 32);
        ((s & 0xffff_ffff) + (s >> 32), chunks.remainder())
    }
}

/// The original two-bytes-per-iteration sum, kept as the reference the
/// property tests compare the wide-word implementation against.
#[cfg(test)]
pub fn ones_complement_add_reference(mut sum: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    sum
}

/// Add a single big-endian 16-bit word to the accumulator.
#[inline]
pub fn add_u16(sum: u32, word: u16) -> u32 {
    sum + u32::from(word)
}

/// Add a big-endian 32-bit word to the accumulator.
#[inline]
pub fn add_u32(sum: u32, word: u32) -> u32 {
    sum + (word >> 16) + (word & 0xffff)
}

/// Add a big-endian 64-bit word to the accumulator.
#[inline]
pub fn add_u64(sum: u32, word: u64) -> u32 {
    add_u32(add_u32(sum, (word >> 32) as u32), word as u32)
}

/// Fold the 32-bit accumulator into the final 16-bit ones-complement value.
#[inline]
pub fn fold(mut sum: u32) -> u16 {
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

/// Compute the ones-complement checksum of a standalone buffer.
#[inline]
pub fn checksum(data: &[u8]) -> u16 {
    fold(ones_complement_add(0, data))
}

/// Compute the DSS checksum over the MPTCP pseudo-header and payload.
///
/// The pseudo-header covers the 64-bit data sequence number, the 32-bit
/// relative subflow sequence number, the 16-bit data-level length and a
/// zero field, exactly mirroring RFC 6824 §3.3. A content-modifying
/// middlebox that rewrites payload bytes (or shifts lengths) breaks this
/// checksum, which is what triggers MPTCP's fallback machinery.
pub fn dss_checksum(dsn: u64, subflow_seq_rel: u32, data_len: u16, payload: &[u8]) -> u16 {
    let mut sum = 0u32;
    sum = add_u64(sum, dsn);
    sum = add_u32(sum, subflow_seq_rel);
    sum = add_u16(sum, data_len);
    // 16-bit zero checksum field contributes nothing.
    sum = ones_complement_add(sum, payload);
    fold(sum)
}

/// Verify a DSS checksum; returns `true` when the payload is unmodified.
pub fn dss_checksum_valid(
    dsn: u64,
    subflow_seq_rel: u32,
    data_len: u16,
    payload: &[u8],
    expected: u16,
) -> bool {
    dss_checksum(dsn, subflow_seq_rel, data_len, payload) == expected
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc1071_example() {
        // The worked example from RFC 1071 §3: raw sum 0x2ddf0, which
        // folds to 0xddf2. The wide-word accumulator holds a partially
        // folded value (congruent mod 2^16 − 1), so compare after fold.
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(fold(ones_complement_add(0, &data)), !0xddf2u16);
        let reference = ones_complement_add_reference(0, &data);
        assert_eq!(reference & 0xfffff, 0x2ddf0);
        assert_eq!(fold(reference), !0xddf2u16);
    }

    #[test]
    fn wide_matches_reference_on_crafted_lengths() {
        // Every length class the wide path special-cases: empty, sub-word
        // tails, one full u64, the 32-byte lane boundary, and ±1 around it.
        let data: Vec<u8> = (0u32..257)
            .map(|i| (i.wrapping_mul(37) >> 3) as u8)
            .collect();
        for len in [
            0, 1, 2, 3, 7, 8, 9, 15, 16, 31, 32, 33, 63, 64, 65, 255, 256, 257,
        ] {
            let d = &data[..len];
            assert_eq!(
                fold(ones_complement_add(0, d)),
                fold(ones_complement_add_reference(0, d)),
                "len {len}"
            );
        }
        // All-0xff input exercises maximal carry traffic.
        let ff = vec![0xffu8; 1500];
        assert_eq!(
            fold(ones_complement_add(0, &ff)),
            fold(ones_complement_add_reference(0, &ff))
        );
    }

    #[test]
    fn empty_payload() {
        assert_eq!(checksum(&[]), 0xffff);
    }

    #[test]
    fn odd_length_padded() {
        assert_eq!(
            checksum(&[0xab]),
            fold(ones_complement_add(0, &[0xab, 0x00]))
        );
    }

    #[test]
    fn dss_checksum_detects_payload_change() {
        let payload = b"USER anonymous\r\n";
        let ck = dss_checksum(1000, 1, payload.len() as u16, payload);
        assert!(dss_checksum_valid(
            1000,
            1,
            payload.len() as u16,
            payload,
            ck
        ));
        let modified = b"USER 10.0.0.0001\r\n";
        assert!(!dss_checksum_valid(
            1000,
            1,
            modified.len() as u16,
            modified,
            ck
        ));
    }

    #[test]
    fn dss_checksum_detects_mapping_shift() {
        let payload = b"hello world";
        let ck = dss_checksum(42, 7, payload.len() as u16, payload);
        assert!(!dss_checksum_valid(
            43,
            7,
            payload.len() as u16,
            payload,
            ck
        ));
        assert!(!dss_checksum_valid(
            42,
            8,
            payload.len() as u16,
            payload,
            ck
        ));
    }

    proptest::proptest! {
        /// The wide-word sum equals the old 2-byte reference on arbitrary
        /// content, lengths, alignments (sub-slices shift the data relative
        /// to any 8/32-byte boundary), and non-zero initial accumulators.
        #[test]
        fn wide_equals_reference(
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..4096),
            offset in 0usize..64,
            initial in 0u32..0x1_0000,
        ) {
            let d = &data[offset.min(data.len())..];
            // Compare after fold: partial folds are congruent mod 2^16 − 1,
            // so the raw accumulators may differ while the checksum agrees.
            proptest::prop_assert_eq!(
                fold(ones_complement_add(initial, d)),
                fold(ones_complement_add_reference(initial, d))
            );
        }
    }

    #[test]
    fn incremental_equals_oneshot() {
        let a = b"abcdef";
        let b = b"ghijklm";
        let mut whole = Vec::new();
        whole.extend_from_slice(a);
        whole.extend_from_slice(b);
        // Incremental summation is only equal when the boundary is even.
        let sum = ones_complement_add(ones_complement_add(0, a), b);
        assert_eq!(fold(sum), checksum(&whole));
    }
}
