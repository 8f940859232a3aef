//! Key order by counting: the sort that establishes
//! [`BTreeSet::from_sorted`](crate::BTreeSet::from_sorted)'s precondition,
//! puts a batch of writes in the order a run wants and a block of bindings
//! in key order. Datalog identifiers are dense, so one sweep finds the bits
//! per column on which a batch's tuples differ (`OR ^ AND`); each column's
//! span of them is cut into the fewest equal digits of at most
//! [`MAX_DIGIT_BITS`], and every digit that varies becomes a stable
//! counting pass, least significant first, over a count table no larger
//! than the digit's largest value. Only the first `lead` columns are sorted
//! on; wide keys go to `sort_unstable`, by a rule read off the input.

use crate::Tuple;
use std::{array::from_fn, mem::replace, mem::swap};

/// The widest digit a counting pass sorts on. Measured on a 2-vCPU host,
/// as all below (`bench-suite`'s `ablation`, group `sort_tuples`, 2²⁰
/// tuples sorted `n` at a time, medians of three rounds): on a 2¹³ domain
/// one 13-bit pass a column read 0.40–0.65× of 12 bits' two 7-bit passes
/// at `n` = 4 096 and 16 384, and 0.94–1.14× at 1 024; 2¹¹ and 2¹² domains
/// take one pass a column under either bound (0.81–1.22×, noise). An
/// 11-bit bound gave 2¹² two passes a column, 1.1–2.5× of 13 bits'; 16 bits
/// read 1.5–1.8× of 13 on 2¹² and 2¹³ domains, whose tables leave L1.
const MAX_DIGIT_BITS: u32 = 13;

/// Slices shorter than this are compared: at 64 tuples the sweep and the
/// plan alone cost 10–30 % of `sort_unstable`'s 1.3–1.6 µs.
const SHORT: usize = 128;

/// A counting pass costs 1.2–1.7 of `sort_unstable`'s ⌈log₂ n⌉ levels in
/// cache (4 ns a tuple and pass against 2.3–3.3 a tuple and level at `n` =
/// 4 096), 2–3.4 out of it (`n` = 2²⁰), and summing a table entry a quarter
/// of moving a tuple, so counting is chosen while `2·passes·n + entries/4 ≤
/// levels·n`: 0.21–0.53× of comparing on a 2¹¹ domain from `n` = 256 up,
/// 0.97–1.08× on full-width keys, 1.3× for 2²⁰ triples over a 2³² domain.
const PASSES_PER_LEVEL: usize = 2;
const ENTRIES_PER_TUPLE: usize = 4;

/// What one counting pass sorts on: the bits of column `col` from `shift`
/// under `mask`, at most `top` in the batch.
#[derive(Clone, Copy)]
struct Digit {
    col: usize,
    shift: u32,
    mask: u64,
    top: usize,
}

impl Digit {
    fn of<const K: usize>(&self, t: &Tuple<K>) -> usize {
        (t[self.col] >> self.shift & self.mask) as usize
    }
}

/// The tuple count and the digits sorting on the first `lead` columns,
/// least significant first: `None` if comparing is cheaper.
fn plan<const K: usize>(
    tuples: impl Iterator<Item = Tuple<K>>,
    lead: usize,
) -> (usize, Option<Vec<Digit>>) {
    let (mut n, mut or, mut and) = (0usize, [0u64; K], [u64::MAX; K]);
    tuples.for_each(|t| {
        n += 1;
        (or, and) = (from_fn(|c| or[c] | t[c]), from_fn(|c| and[c] & t[c]));
    });
    let digits = (0..lead).rev().flat_map(|col| {
        let varying = or[col] ^ and[col];
        let low = varying.trailing_zeros();
        let span = (u64::BITS - varying.leading_zeros()).saturating_sub(low);
        let count = span.div_ceil(MAX_DIGIT_BITS);
        let bits = span.div_ceil(count.max(1));
        (0..count)
            .map(move |i| {
                let (shift, mask) = (low + i * bits, (1 << bits) - 1);
                let top = (or[col] >> shift & mask) as usize;
                Digit {
                    col,
                    shift,
                    mask,
                    top,
                }
            })
            .filter(move |d| d.top != d.of(&and))
    });
    let (passes, entries) = digits
        .clone()
        .fold((0, 0), |(p, e), d| (p + 1, e + d.top + 1));
    let levels = (usize::BITS - n.saturating_sub(1).leading_zeros()) as usize;
    let counting = (SHORT..u32::MAX as usize).contains(&n)
        && PASSES_PER_LEVEL * passes * n + entries / ENTRIES_PER_TUPLE <= levels * n;
    (n, counting.then(|| digits.collect()))
}

/// One stable counting pass over the tuples `src` yields — twice, the same:
/// counted in `at`, then each moved to the next free slot of its digit in
/// `dst`.
fn pass<const K: usize, I: Iterator<Item = Tuple<K>>>(
    src: impl Fn() -> I,
    dst: &mut [Tuple<K>],
    d: Digit,
    at: &mut Vec<u32>,
) {
    let mut sum = 0;
    at.clear();
    at.resize(d.top + 1, 0);
    src().for_each(|t| at[d.of(&t)] += 1);
    at.iter_mut().for_each(|a| sum += replace(a, sum));
    src().for_each(|t| {
        let slot = &mut at[d.of(&t)];
        dst[*slot as usize] = t;
        *slot += 1;
    });
}

/// Sorts `tuples` on their first `lead` columns, stably: tuples equal on
/// those keep their input order. With `lead = K` that is ascending, as
/// `sort_unstable` would have it; with fewer, the rest must ascend as given
/// among tuples equal on the lead, so that the comparison fallback (short
/// or wide input), which sorts whole tuples, gives the same order.
/// `scratch` is working memory, grown to the slice's size: keep it for the
/// next call.
pub fn sort_tuples<const K: usize>(tuples: &mut [Tuple<K>], lead: usize, scratch: &mut Vec<u64>) {
    let (n, Some(digits)) = plan(tuples.iter().copied(), lead) else {
        return tuples.sort_unstable();
    };
    scratch.resize(scratch.len().max(n * K), 0);
    let (mut src, (mut dst, _)) = (tuples, scratch[..n * K].as_chunks_mut::<K>());
    let mut at = Vec::new();
    for &d in &digits {
        pass(|| src.iter().copied(), dst, d, &mut at);
        swap(&mut src, &mut dst);
    }
    if digits.len() % 2 == 1 {
        dst.copy_from_slice(src);
    }
}

/// The tuples `walk` yields, ascending. `walk` is called up to three times
/// and yields the same sequence each time, in which tuples equal on their
/// first `lead` columns ascend: only those are sorted on, stably.
pub fn sorted_tuples<const K: usize, I: Iterator<Item = Tuple<K>>>(
    walk: impl Fn() -> I,
    lead: usize,
) -> Vec<Tuple<K>> {
    let (n, digits) = plan(walk(), lead);
    let Some([first, rest @ ..]) = digits.as_deref() else {
        let mut all = Vec::with_capacity(n);
        walk().for_each(|t| all.push(t));
        if digits.is_none() {
            all.sort_unstable();
        }
        return all;
    };
    let (mut a, mut b, mut at) = (vec![[0; K]; n], Vec::new(), Vec::new());
    pass(&walk, &mut a, *first, &mut at);
    for &d in rest {
        b.resize(n, [0; K]);
        pass(|| a.iter().copied(), &mut b, d, &mut at);
        swap(&mut a, &mut b);
    }
    a
}
