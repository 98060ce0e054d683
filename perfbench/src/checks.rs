//! Output checks computed without the code under test: plain-Rust
//! recomputations of what the sample programs must print, and the
//! grammar's one-byte-per-rule invariant.

use pgr_grammar::{Grammar, Nt};

/// Bitwise (table-free) CRC-32, IEEE polynomial, reflected.
pub fn crc32_bitwise(data: &[u8]) -> u32 {
    let mut c = 0xffff_ffffu32;
    for &b in data {
        c ^= u32::from(b);
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
    }
    c ^ 0xffff_ffff
}

/// The two lines `crc32.c` prints: the CRC of its generated 2048-byte
/// buffer, then the CRC of its 256-entry table as little-endian bytes.
fn crc32_expected() -> String {
    let buf: Vec<u8> = (0..2048u32).map(|i| (i * 31 + (i >> 3)) as u8).collect();
    let table: Vec<u8> = (0..256u32)
        .flat_map(|n| crc32_bitwise_table_entry(n).to_le_bytes())
        .collect();
    format!("{}\n{}\n", crc32_bitwise(&buf), crc32_bitwise(&table))
}

/// Table entry `n` of the reflected CRC-32 table, computed bit by bit.
fn crc32_bitwise_table_entry(n: u32) -> u32 {
    let mut c = n;
    for _ in 0..8 {
        c = if c & 1 != 0 {
            0xedb8_8320 ^ (c >> 1)
        } else {
            c >> 1
        };
    }
    c
}

/// `sieve.c`: the prime count and the digit sum of the primes <= 10000.
fn sieve_expected() -> String {
    let n = 10_000usize;
    let mut composite = vec![false; n + 1];
    let mut i = 2;
    while i * i <= n {
        if !composite[i] {
            let mut j = i * i;
            while j <= n {
                composite[j] = true;
                j += i;
            }
        }
        i += 1;
    }
    let primes: Vec<usize> = (2..=n).filter(|&p| !composite[p]).collect();
    let digit_sum: usize = primes
        .iter()
        .map(|&p| {
            let (mut v, mut s) = (p, 0);
            while v > 0 {
                s += v % 10;
                v /= 10;
            }
            s
        })
        .sum();
    format!("{} {digit_sum}\n", primes.len())
}

/// `matmul.c`: the trace of `a * b` for `a[i][j] = (i+j)/2` and
/// `b[i][j] = (i-j)/4`, accumulated in the program's order in f64.
fn matmul_expected() -> String {
    let n = 24;
    let a = |i: usize, j: usize| (i + j) as f64 * 0.5;
    let b = |i: usize, j: usize| (i as f64 - j as f64) * 0.25;
    let mut checksum = 0.0f64;
    for i in 0..n {
        let mut sum = 0.0f64;
        for k in 0..n {
            sum += a(i, k) * b(k, i);
        }
        checksum += sum;
    }
    format!("{}\n", checksum as i32)
}

/// Known answers for the samples that have one: `(output, exit code)`,
/// where the output is matched in full (`Full`) or by its last line
/// (`Tail`, for 8q, which prints its boards first).
pub enum Known {
    Full(String, i32),
    Tail(String, i32),
}

pub fn known_answer(sample: &str) -> Option<Known> {
    Some(match sample {
        "8q" => Known::Tail("92\n".into(), 92),
        "sieve" => Known::Full(sieve_expected(), 0),
        "crc32" => Known::Full(crc32_expected(), 0),
        "sort" => Known::Full("0 512\n".into(), 0),
        "matmul" => Known::Full(matmul_expected(), 0),
        _ => return None,
    })
}

/// Whether `(output, exit)` matches the sample's known answer (`true`
/// for samples without one).
pub fn matches_known(sample: &str, output: &[u8], exit: i32) -> bool {
    match known_answer(sample) {
        None => true,
        Some(Known::Full(text, code)) => output == text.as_bytes() && exit == code,
        Some(Known::Tail(text, code)) => output.ends_with(text.as_bytes()) && exit == code,
    }
}

/// The non-terminal with the most rules, if any exceeds 256 (the bound
/// that makes every derivation step one byte).
pub fn over_rule_budget(grammar: &Grammar) -> Option<(usize, usize)> {
    (0..grammar.nt_count())
        .map(|i| (i, grammar.rules_of(Nt(i as u16)).len()))
        .find(|&(_, n)| n > 256)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_the_standard_check_value() {
        assert_eq!(crc32_bitwise(b"123456789"), 0xcbf4_3926);
    }

    #[test]
    fn sieve_counts_1229_primes() {
        assert!(sieve_expected().starts_with("1229 "));
    }
}
