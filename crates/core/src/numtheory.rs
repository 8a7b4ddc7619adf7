//! Elementary number theory used throughout the analytical model.
//!
//! Everything in the Oed & Lange model reduces to modular arithmetic over the
//! bank count `m`: return numbers are `m / gcd(m, d)` (Theorem 1), conflict
//! freeness is a gcd condition on stride differences (Theorem 3), and the
//! isomorphism of distance pairs (Appendix) needs modular inverses.

/// Greatest common divisor (Euclid). By convention `gcd(0, 0) == 0` and
/// `gcd(a, 0) == a`, which matches the paper's use of `gcd(m, 0) = m` for
/// equal distances (`d2 - d1 = 0`).
///
/// ```
/// use vecmem_analytic::numtheory::gcd;
/// assert_eq!(gcd(16, 6), 2);
/// assert_eq!(gcd(12, 0), 12); // the paper's equal-distance convention
/// ```
#[must_use]
pub fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Greatest common divisor of three values.
#[must_use]
pub fn gcd3(a: u64, b: u64, c: u64) -> u64 {
    gcd(gcd(a, b), c)
}

/// Least common multiple. Panics on overflow in debug builds; the model only
/// ever calls this with values bounded by the bank count.
#[must_use]
pub fn lcm(a: u64, b: u64) -> u64 {
    if a == 0 || b == 0 {
        return 0;
    }
    a / gcd(a, b) * b
}

/// Extended Euclidean algorithm: returns `(g, x, y)` with
/// `a*x + b*y == g == gcd(a, b)`.
#[must_use]
pub fn extended_gcd(a: i128, b: i128) -> (i128, i128, i128) {
    if b == 0 {
        return (a, 1, 0);
    }
    let (g, x, y) = extended_gcd(b, a % b);
    (g, y, x - (a / b) * y)
}

/// Modular inverse of `a` modulo `n`, if it exists (i.e. `gcd(a, n) == 1`).
#[must_use]
pub fn mod_inverse(a: u64, n: u64) -> Option<u64> {
    if n == 0 {
        return None;
    }
    if n == 1 {
        return Some(0);
    }
    let (g, x, _) = extended_gcd(a as i128, n as i128);
    if g != 1 {
        return None;
    }
    Some((x.rem_euclid(n as i128)) as u64)
}

/// `a mod n` for possibly-negative `a`, with result in `0..n`.
#[must_use]
pub fn mod_reduce(a: i128, n: u64) -> u64 {
    debug_assert!(n > 0, "modulus must be positive");
    (a.rem_euclid(n as i128)) as u64
}

/// Ceiling division `⌈a / b⌉` for positive `b`.
#[must_use]
pub fn ceil_div(a: u64, b: u64) -> u64 {
    debug_assert!(b > 0, "divisor must be positive");
    a.div_ceil(b)
}

/// True when `a` and `b` are relatively prime.
#[must_use]
pub fn coprime(a: u64, b: u64) -> bool {
    gcd(a, b) == 1
}

/// The units of `Z/m` other than 1, ascending: every `k` in `2..m` with
/// `gcd(k, m) = 1`. The distinct prime factors of `m` are found once, by
/// trial division, and each candidate is tested for divisibility by them
/// alone; nothing is allocated.
///
/// ```
/// use vecmem_analytic::numtheory::units;
/// assert_eq!(units(12).collect::<Vec<_>>(), [5, 7, 11]);
/// assert_eq!(units(2).count(), 0);
/// ```
pub fn units(m: u64) -> impl Iterator<Item = u64> + Clone {
    // The product of the first 16 primes exceeds `u64::MAX`.
    let mut primes = [0u64; 15];
    let mut count = 0;
    let mut rest = m;
    let mut p = 2;
    while p <= rest / p {
        if rest.is_multiple_of(p) {
            primes[count] = p;
            count += 1;
            while rest.is_multiple_of(p) {
                rest /= p;
            }
        }
        p += 1;
    }
    if rest > 1 {
        primes[count] = rest;
        count += 1;
    }
    (2..m).filter(move |k| primes[..count].iter().all(|p| !k.is_multiple_of(*p)))
}

/// All positive divisors of `n`, in ascending order. `n` must be positive.
#[must_use]
pub fn divisors(n: u64) -> Vec<u64> {
    assert!(n > 0, "divisors of 0 are not defined");
    let mut small = Vec::new();
    let mut large = Vec::new();
    let mut i = 1;
    while i * i <= n {
        if n.is_multiple_of(i) {
            small.push(i);
            if i != n / i {
                large.push(n / i);
            }
        }
        i += 1;
    }
    large.reverse();
    small.extend(large);
    small
}

/// Finds the smallest `k >= 1` with `gcd(k, n) == 1` and
/// `k * a ≡ target (mod n)`, if one exists.
///
/// This is the renumbering multiplier used by the distance isomorphism
/// (paper Appendix): bank addresses may be relabelled by any unit `k`
/// modulo `m` without changing conflict behaviour.
#[must_use]
pub fn unit_multiplier_to(a: u64, target: u64, n: u64) -> Option<u64> {
    if n == 0 {
        return None;
    }
    if n == 1 {
        return Some(1);
    }
    // k*a ≡ target (mod n) is solvable iff gcd(a, n) | target; among the
    // solutions we need one coprime to n. The solution set is an arithmetic
    // progression with step n/gcd(a,n); scan it (bounded by n steps).
    let g = gcd(a % n, n);
    if g == 0 {
        // a ≡ 0: only target ≡ 0 works, and then any unit does.
        return if target.is_multiple_of(n) {
            Some(1)
        } else {
            None
        };
    }
    if !target.is_multiple_of(g) {
        return None;
    }
    let n_g = n / g;
    let a_g = (a % n) / g;
    let t_g = (target % n) / g;
    let inv = mod_inverse(a_g % n_g, n_g)?;
    let k0 = (inv as u128 * t_g as u128 % n_g as u128) as u64;
    // Candidates: k0 + j * n_g for j in 0..g (all residues mod n).
    for j in 0..g {
        let k = (k0 + j * n_g) % n;
        if k != 0 && coprime(k, n) {
            return Some(k);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(12, 8), 4);
        assert_eq!(gcd(8, 12), 4);
        assert_eq!(gcd(13, 6), 1);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(5, 0), 5);
        assert_eq!(gcd(0, 0), 0);
        assert_eq!(gcd(16, 16), 16);
    }

    #[test]
    fn gcd_of_zero_distance_is_modulus() {
        // The paper relies on gcd(m, 0) = m so that equal distances
        // (d2 - d1 = 0) satisfy Theorem 3 whenever r >= 2 n_c.
        assert_eq!(gcd(12, 0), 12);
    }

    #[test]
    fn gcd3_basics() {
        assert_eq!(gcd3(12, 8, 6), 2);
        assert_eq!(gcd3(12, 4, 8), 4);
        assert_eq!(gcd3(7, 5, 3), 1);
    }

    #[test]
    fn lcm_basics() {
        assert_eq!(lcm(4, 6), 12);
        assert_eq!(lcm(13, 6), 78);
        assert_eq!(lcm(0, 6), 0);
        assert_eq!(lcm(7, 7), 7);
    }

    #[test]
    fn extended_gcd_identity() {
        for &(a, b) in &[(240i128, 46i128), (13, 6), (12, 8), (1, 1), (17, 0)] {
            let (g, x, y) = extended_gcd(a, b);
            assert_eq!(a * x + b * y, g);
            assert_eq!(g, gcd(a as u64, b as u64) as i128);
        }
    }

    #[test]
    fn mod_inverse_basics() {
        assert_eq!(mod_inverse(3, 7), Some(5)); // 3*5 = 15 ≡ 1 (mod 7)
        assert_eq!(mod_inverse(7, 12), Some(7)); // 49 ≡ 1 (mod 12)
        assert_eq!(mod_inverse(4, 12), None);
        assert_eq!(mod_inverse(1, 1), Some(0));
        assert_eq!(mod_inverse(5, 0), None);
    }

    #[test]
    fn mod_inverse_is_inverse() {
        for n in 2..60u64 {
            for a in 1..n {
                if let Some(inv) = mod_inverse(a, n) {
                    assert_eq!(a * inv % n, 1, "a={a} n={n}");
                    assert!(coprime(a, n));
                } else {
                    assert!(!coprime(a, n));
                }
            }
        }
    }

    #[test]
    fn mod_reduce_negative() {
        assert_eq!(mod_reduce(-3, 13), 10);
        assert_eq!(mod_reduce(-13, 13), 0);
        assert_eq!(mod_reduce(15, 13), 2);
        assert_eq!(mod_reduce(0, 5), 0);
    }

    #[test]
    fn ceil_div_basics() {
        assert_eq!(ceil_div(13, 6), 3);
        assert_eq!(ceil_div(12, 6), 2);
        assert_eq!(ceil_div(0, 4), 0);
        assert_eq!(ceil_div(1, 4), 1);
    }

    #[test]
    fn units_are_the_coprime_residues() {
        for m in 0..=4_096u64 {
            assert!(units(m).eq((2..m).filter(|&k| coprime(k, m))), "m = {m}");
        }
        for m in [(1u64 << 32) - 5, 1 << 40, 6_700_417 * 641] {
            assert!(
                units(m)
                    .take(2_000)
                    .eq((2..m).filter(|&k| coprime(k, m)).take(2_000)),
                "m = {m}"
            );
        }
    }

    #[test]
    fn divisors_basics() {
        assert_eq!(divisors(12), vec![1, 2, 3, 4, 6, 12]);
        assert_eq!(divisors(13), vec![1, 13]);
        assert_eq!(divisors(1), vec![1]);
        assert_eq!(divisors(16), vec![1, 2, 4, 8, 16]);
    }

    #[test]
    #[should_panic(expected = "divisors of 0")]
    fn divisors_of_zero_panics() {
        let _ = divisors(0);
    }

    #[test]
    fn unit_multiplier_examples_from_appendix() {
        // Paper Appendix, m = 16: 1 ⊕ 3 ≡ 5 ⊕ 15 ≡ 11 ⊕ 1 (mod 16).
        // Mapping d2 = 3 to 1 requires k = 11 (3 * 11 = 33 ≡ 1).
        let k = unit_multiplier_to(3, 1, 16).unwrap();
        assert_eq!(3 * k % 16, 1);
        assert!(coprime(k, 16));
        // 2 ⊕ 3 ≡ 6 ⊕ 9 ≡ 6 ⊕ 1 (mod 16): k = 11 maps 3 -> 1 and 2 -> 6.
        assert_eq!(2 * k % 16, 6);
    }

    #[test]
    fn unit_multiplier_maps_to_gcd() {
        // For each (d, m) we can relabel so the distance becomes gcd(m, d).
        for m in 2..40u64 {
            for d in 1..m {
                let g = gcd(m, d);
                let k = unit_multiplier_to(d, g, m)
                    .unwrap_or_else(|| panic!("no unit multiplier for d={d} m={m}"));
                assert_eq!(k * d % m, g, "d={d} m={m} k={k}");
                assert!(coprime(k, m));
            }
        }
    }

    #[test]
    fn unit_multiplier_unsolvable() {
        // 4k ≡ 1 (mod 12) has no solution since gcd(4,12) = 4 does not divide 1.
        assert_eq!(unit_multiplier_to(4, 1, 12), None);
        // d = 0: only target 0 is reachable.
        assert_eq!(unit_multiplier_to(0, 0, 12), Some(1));
        assert_eq!(unit_multiplier_to(0, 3, 12), None);
    }
}
