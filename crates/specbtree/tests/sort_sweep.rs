//! Seeded sweep pinning the counting sort to `sort_unstable`: every width,
//! sizes on both sides of the short-slice rule and of the emit batch,
//! column domains on both sides of the passes-against-levels rule (dense
//! ones count, full-width ones compare, mixed ones decide per input) and of
//! the widest digit (12 to 14 varying bits: one digit or two), and the
//! input orders a comparison sort treats specially. The kernel reports
//! nothing about the side it took; the sizes and domains are what put a
//! case on one.

use specbtree::{sort_tuples, sorted_tuples};
use workloads::rng::SplitMix64;

const SIZES: [usize; 13] = [
    0, 1, 63, 64, 65, 255, 256, 257, 1_000, 4_095, 4_096, 4_097, 100_000,
];

/// What one column draws from.
#[derive(Clone, Copy, Debug)]
enum Domain {
    One,
    Below(u64),
    /// Dense values far from zero: the bits that vary are low, the bits
    /// that are set are not.
    Offset(u64),
    Full,
}

impl Domain {
    fn draw(self, rng: &mut SplitMix64) -> u64 {
        match self {
            Domain::One => 42,
            Domain::Below(n) => rng.below(n),
            Domain::Offset(n) => (1 << 40) + rng.below(n),
            Domain::Full => rng.next_u64(),
        }
    }
}

const UNIFORM: [Domain; 10] = [
    Domain::One,
    Domain::Below(7),
    Domain::Below(300),
    Domain::Below(4_096),
    Domain::Below(8_192),
    Domain::Below(1 << 14),
    Domain::Below(70_000),
    Domain::Offset(300),
    Domain::Offset(12_000),
    Domain::Full,
];

/// The uniform domains, then one mix that gives neighbouring columns
/// different ones.
fn domains<const K: usize>() -> Vec<[Domain; K]> {
    let mut all: Vec<[Domain; K]> = UNIFORM.iter().map(|&d| [d; K]).collect();
    all.push(std::array::from_fn(|c| {
        UNIFORM[(2 * c + 1) % UNIFORM.len()]
    }));
    all
}

fn draw<const K: usize>(n: usize, cols: &[Domain; K], rng: &mut SplitMix64) -> Vec<[u64; K]> {
    (0..n).map(|_| cols.map(|d| d.draw(rng))).collect()
}

fn sweep<const K: usize>() {
    let mut rng = SplitMix64::new(0x5eed + K as u64);
    let mut scratch = Vec::new();
    for n in SIZES {
        for cols in domains::<K>() {
            let what = format!("K = {K}, n = {n}, {cols:?}");
            let mut want = draw(n, &cols, &mut rng);
            // As drawn (heavy repeats wherever the domain is small), then
            // what that left, then the same backwards.
            let mut got = want.clone();
            want.sort_unstable();
            for order in ["random", "sorted", "reversed"] {
                sort_tuples(&mut got, K, &mut scratch);
                assert!(got == want, "{what}, {order} input");
                if order == "sorted" {
                    got.reverse();
                }
            }
            // The one scratch buffer above served every size and domain in
            // turn; a fresh one does as well, on a slice of another size.
            got.reverse();
            let half = &mut got[n / 2..];
            sort_tuples(half, K, &mut Vec::new());
            assert!(half == &want[..n - n / 2], "{what}, the lower half");
        }
    }
}

#[test]
fn sort_tuples_is_sort_unstable_at_every_width() {
    sweep::<1>();
    sweep::<2>();
    sweep::<3>();
    sweep::<4>();
    sweep::<5>();
}

/// Sorting on the first `lead` columns only, both entries: the input
/// ascends on the skipped columns and is shuffled on the `lead` it sorts
/// on, so the output is in order only if every pass kept equal digits in
/// the order it found them. Below the short-slice rule `sort_tuples`
/// compares whole tuples, which must give the same order.
fn skip<const K: usize>() {
    let mut rng = SplitMix64::new(0xface + K as u64);
    let mut scratch = Vec::new();
    for n in SIZES {
        for cols in domains::<K>() {
            for lead in 0..=K {
                let what = format!("K = {K}, n = {n}, lead = {lead}, {cols:?}");
                let mut input = draw(n, &cols, &mut rng);
                input.sort_unstable_by(|a, b| a[lead..].cmp(&b[lead..]));
                let mut want = input.clone();
                want.sort_unstable();
                let got = sorted_tuples(|| input.iter().copied(), lead);
                assert!(got == want, "{what}, sorted_tuples");
                sort_tuples(&mut input, lead, &mut scratch);
                assert!(input == want, "{what}, sort_tuples");
            }
        }
    }
}

#[test]
fn both_entries_are_stable_on_the_columns_they_skip() {
    skip::<1>();
    skip::<2>();
    skip::<3>();
    skip::<5>();
}
