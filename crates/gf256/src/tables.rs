//! Compile-time generated tables: exp/log and split-nibble products for
//! GF(2^8), and the slicing-by-16 tables for CRC-32 (polynomial division
//! over GF(2)).

use crate::POLYNOMIAL;

/// `EXP[i] = g^i` where `g = 2` is a generator of the multiplicative group.
///
/// The table is doubled (512 entries) so that `EXP[log(a) + log(b)]` never
/// needs a modular reduction of the exponent sum.
pub const EXP: [u8; 512] = generate_exp();

/// `LOG[a] = i` such that `g^i = a`, for `a != 0`. `LOG[0]` is unused and set
/// to 0.
pub const LOG: [u8; 256] = generate_log();

const fn generate_exp() -> [u8; 512] {
    let mut table = [0u8; 512];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < 255 {
        table[i] = x as u8;
        table[i + 255] = x as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= POLYNOMIAL;
        }
        i += 1;
    }
    // Index 510 and 511 are never reached by log(a)+log(b) <= 508, but fill
    // them with consistent values anyway.
    table[510] = table[0];
    table[511] = table[1];
    table
}

const fn generate_log() -> [u8; 256] {
    let exp = generate_exp();
    let mut table = [0u8; 256];
    let mut i = 0;
    while i < 255 {
        table[exp[i] as usize] = i as u8;
        i += 1;
    }
    table
}

/// Split low-nibble multiplication tables: `MUL_LO[c][x] = c * x` for
/// `x < 16`. Together with [`MUL_HI`] this is the ISA-L decomposition
/// `c * b = MUL_LO[c][b & 0xf] ^ MUL_HI[c][b >> 4]`, which is exactly the
/// shape a 16-entry byte-shuffle instruction (`pshufb` / `vtbl`) can look up
/// sixteen (or thirty-two) bytes at a time. The SIMD kernels load one row of
/// each table into a vector register per coefficient.
pub const MUL_LO: [[u8; 16]; 256] = generate_nibble_table(false);

/// Split high-nibble multiplication tables: `MUL_HI[c][x] = c * (x << 4)`
/// for `x < 16`. See [`MUL_LO`].
pub const MUL_HI: [[u8; 16]; 256] = generate_nibble_table(true);

const fn generate_nibble_table(high: bool) -> [[u8; 16]; 256] {
    let mut table = [[0u8; 16]; 256];
    let mut c = 0;
    while c < 256 {
        let mut x = 0;
        while x < 16 {
            let operand = if high { (x as u8) << 4 } else { x as u8 };
            table[c][x] = raw_mul(c as u8, operand);
            x += 1;
        }
        c += 1;
    }
    table
}

/// The bit-reflected CRC-32 (IEEE 802.3) generator polynomial: bit `31 - i`
/// holds the coefficient of `x^i`, so "multiply by x" is a right shift.
pub const CRC32_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-16 CRC-32 tables: `CRC32_TABLES[0]` is the classic one-byte
/// table (`T0[b]` = the CRC state after feeding byte `b` into state 0), and
/// `CRC32_TABLES[k][b]` is `T0[b]` advanced through `k` further zero bytes.
/// Sixteen input bytes then fold into the state with sixteen independent
/// lookups instead of a sixteen-long dependency chain. A `static`, not a
/// `const`: 16 KiB that every use site must share.
pub static CRC32_TABLES: [[u32; 256]; 16] = generate_crc32_tables();

const fn generate_crc32_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut b = 0;
    while b < 256 {
        tables[0][b] = crc32_mul_x(b as u32, 8);
        b += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut b = 0;
        while b < 256 {
            tables[k][b] = crc32_mul_x(tables[k - 1][b], 8);
            b += 1;
        }
        k += 1;
    }
    tables
}

/// `value * x^n mod P` over GF(2) in the bit-reflected representation of
/// [`CRC32_POLY`]. Derives the byte tables above and the PCLMULQDQ fold
/// constants (`x^n mod P` is `crc32_mul_x(0x8000_0000, n)`).
pub const fn crc32_mul_x(mut value: u32, n: u32) -> u32 {
    let mut i = 0;
    while i < n {
        value = if value & 1 != 0 {
            (value >> 1) ^ CRC32_POLY
        } else {
            value >> 1
        };
        i += 1;
    }
    value
}

/// Full 256x256 multiplication table. Looked up by the bulk kernels so the
/// per-byte inner loop is a single indexed load.
pub fn mul_table() -> &'static [[u8; 256]; 256] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<Box<[[u8; 256]; 256]>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = Box::new([[0u8; 256]; 256]);
        for a in 0..256usize {
            for b in 0..256usize {
                t[a][b] = raw_mul(a as u8, b as u8);
            }
        }
        t
    })
}

/// Scalar multiplication via the exp/log tables.
pub const fn raw_mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        return 0;
    }
    let exp = EXP;
    let log = LOG;
    exp[log[a as usize] as usize + log[b as usize] as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Carry-free "schoolbook" multiplication used as an oracle.
    fn slow_mul(mut a: u8, mut b: u8) -> u8 {
        let mut product: u8 = 0;
        while b != 0 {
            if b & 1 != 0 {
                product ^= a;
            }
            let high = a & 0x80 != 0;
            a <<= 1;
            if high {
                a ^= (POLYNOMIAL & 0xff) as u8;
            }
            b >>= 1;
        }
        product
    }

    #[test]
    fn exp_log_roundtrip() {
        for a in 1..=255u8 {
            assert_eq!(EXP[LOG[a as usize] as usize], a);
        }
    }

    #[test]
    fn exp_table_halves_agree() {
        for i in 0..255 {
            assert_eq!(EXP[i], EXP[i + 255]);
        }
    }

    #[test]
    fn raw_mul_matches_schoolbook() {
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!(raw_mul(a, b), slow_mul(a, b), "a={a} b={b}");
            }
        }
    }

    #[test]
    fn mul_table_matches_raw_mul() {
        let t = mul_table();
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!(t[a as usize][b as usize], raw_mul(a, b));
            }
        }
    }

    #[test]
    fn nibble_tables_decompose_raw_mul() {
        for c in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!(
                    MUL_LO[c as usize][(b & 0x0f) as usize] ^ MUL_HI[c as usize][(b >> 4) as usize],
                    raw_mul(c, b),
                    "c={c} b={b}"
                );
            }
        }
    }

    #[test]
    fn crc32_tables_extend_the_byte_table_by_zero_bytes() {
        // The first table is the classic bitwise-derived byte table...
        assert_eq!(CRC32_TABLES[0][0], 0);
        assert_eq!(CRC32_TABLES[0][1], 0x7707_3096);
        assert_eq!(CRC32_TABLES[0][255], 0x2D02_EF8D);
        // ...and table k is table 0 pushed through k more zero bytes.
        for (k, table) in CRC32_TABLES.iter().enumerate().skip(1) {
            for (b, &entry) in table.iter().enumerate() {
                assert_eq!(
                    entry,
                    crc32_mul_x(CRC32_TABLES[0][b], 8 * k as u32),
                    "k={k} b={b}"
                );
            }
        }
    }

    #[test]
    fn generator_has_full_order() {
        // g = 2 must generate all 255 non-zero elements.
        let mut seen = [false; 256];
        for &e in EXP.iter().take(255) {
            let v = e as usize;
            assert!(!seen[v], "repeated element before order 255");
            seen[v] = true;
        }
        assert!(!seen[0]);
    }
}
