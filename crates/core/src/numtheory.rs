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

/// Every `k` in `1..n` with `gcd(k, n) == 1` and `k * a ≡ target (mod
/// n)`, ascending; none when `n <= 1` or the congruence has no solution.
///
/// These are the renumbering multipliers of the distance isomorphism
/// (paper Appendix): bank addresses may be relabelled by any unit `k`
/// modulo `m` without changing conflict behaviour.
///
/// ```
/// use vecmem_analytic::numtheory::unit_multipliers_to;
/// // 3·11 ≡ 1 (mod 16), and 11 is the only unit that maps 3 onto 1.
/// assert_eq!(unit_multipliers_to(3, 1, 16).collect::<Vec<_>>(), [11]);
/// // 2·k ≡ 2 (mod 16) for k = 1, 9 (and 5, 13 would give 10).
/// assert_eq!(unit_multipliers_to(2, 2, 16).collect::<Vec<_>>(), [1, 9]);
/// ```
pub fn unit_multipliers_to(a: u64, target: u64, n: u64) -> impl Iterator<Item = u64> {
    // k·a ≡ target (mod n) is solvable iff g = gcd(a, n) divides target;
    // its solutions in 0..n are then k0 + j·n/g for j in 0..g, ascending.
    let progression = (n > 1)
        .then(|| gcd(a % n, n))
        .filter(|&g| (target % n).is_multiple_of(g))
        .and_then(|g| {
            let step = n / g;
            let inverse = mod_inverse(a % n / g, step)?;
            let k0 = (inverse as u128 * u128::from(target % n / g) % step as u128) as u64;
            Some((k0, step, g))
        });
    progression
        .into_iter()
        .flat_map(|(k0, step, g)| (0..g).map(move |j| k0 + j * step))
        .filter(move |&k| k != 0 && coprime(k, n))
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
        let k = unit_multipliers_to(3, 1, 16).next().unwrap();
        assert_eq!(3 * k % 16, 1);
        assert!(coprime(k, 16));
        // 2 ⊕ 3 ≡ 6 ⊕ 9 ≡ 6 ⊕ 1 (mod 16): k = 11 maps 3 -> 1 and 2 -> 6.
        assert_eq!(2 * k % 16, 6);
    }

    /// The multipliers are exactly the units of `Z/m` that solve the
    /// congruence, by brute force, and each `d` reaches `gcd(m, d)`.
    #[test]
    fn unit_multipliers_are_every_solving_unit() {
        for m in 2..40u64 {
            for d in 0..m {
                for target in 0..m {
                    let brute: Vec<u64> = (1..m)
                        .filter(|&k| coprime(k, m) && k * d % m == target)
                        .collect();
                    let found: Vec<u64> = unit_multipliers_to(d, target, m).collect();
                    assert_eq!(found, brute, "d={d} target={target} m={m}");
                }
                let g = gcd(m, d);
                if g < m {
                    assert!(unit_multipliers_to(d, g, m).next().is_some(), "d={d} m={m}");
                }
            }
        }
    }

    #[test]
    fn unit_multiplier_unsolvable() {
        // 4k ≡ 1 (mod 12) has no solution since gcd(4,12) = 4 does not divide 1.
        assert_eq!(unit_multipliers_to(4, 1, 12).next(), None);
        // d = 0: only target 0 is reachable, by every unit.
        assert_eq!(
            unit_multipliers_to(0, 0, 12).collect::<Vec<_>>(),
            [1, 5, 7, 11]
        );
        assert_eq!(unit_multipliers_to(0, 3, 12).next(), None);
        // Z/1 and Z/0 have no multipliers.
        assert_eq!(unit_multipliers_to(0, 0, 1).next(), None);
        assert_eq!(unit_multipliers_to(1, 1, 0).next(), None);
    }
}
