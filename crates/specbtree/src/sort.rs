//! Key order by counting: the sort that establishes
//! [`BTreeSet::from_sorted`](crate::BTreeSet::from_sorted)'s precondition
//! and puts a batch of writes in the order hinted operations want. Datalog
//! identifiers are dense, so one sweep finds the few bits per column on
//! which a batch's tuples differ (`OR ^ AND`), and every [`DIGIT_BITS`]-wide
//! digit holding one becomes a stable counting pass, least significant
//! first; wide keys go to `sort_unstable`, by a rule read off the input.

use crate::Tuple;
use std::{array::from_fn, mem::replace, mem::swap};

/// Bits per counting pass. Measured on this 2-vCPU host, as all below
/// (`bench-suite`'s `ablation`, group `sort_tuples`, ns per tuple): 11 bits
/// sort 4 096 pairs over 1 500 values in a pass per column, 8.5 against 8
/// bits' 19.6, and backfill `tc_random`'s reverse index in one (`retract_s`
/// 0.71–0.79× of 8 bits', `run_s` 0.97–1.01× on the benchmark's workloads).
const DIGIT_BITS: u32 = 11;
const BUCKETS: usize = 1 << DIGIT_BITS;

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

fn bucket<const K: usize>(t: &Tuple<K>, col: usize, shift: u32) -> usize {
    (t[col] >> shift) as usize & (BUCKETS - 1)
}

/// The tuple count and the passes (column, digit's first bit, largest digit
/// there) sorting on the first `lead` columns: none if comparing is cheaper.
fn plan<const K: usize>(
    tuples: impl Iterator<Item = Tuple<K>>,
    lead: usize,
) -> (usize, Vec<(usize, u32, usize)>) {
    let (mut n, mut or, mut and) = (0usize, [0u64; K], [u64::MAX; K]);
    tuples.for_each(|t| {
        n += 1;
        (or, and) = (from_fn(|c| or[c] | t[c]), from_fn(|c| and[c] & t[c]));
    });
    let shifts = (0..u64::BITS).step_by(DIGIT_BITS as usize);
    let digits = (0..lead)
        .rev()
        .flat_map(|c| shifts.clone().map(move |s| (c, s)))
        .map(|(c, s)| (c, s, bucket(&or, c, s)))
        .filter(|&(c, s, top)| top != bucket(&and, c, s));
    let (passes, entries) = digits
        .clone()
        .fold((0, 0), |(p, e), d| (p + 1, e + d.2 + 1));
    let levels = (usize::BITS - n.saturating_sub(1).leading_zeros()) as usize;
    let counting = (SHORT..u32::MAX as usize).contains(&n)
        && PASSES_PER_LEVEL * passes * n + entries / ENTRIES_PER_TUPLE <= levels * n;
    (n, digits.filter(|_| counting).collect())
}

/// One stable counting pass over the tuples `src` yields — twice, the same:
/// counted, then each moved to the next free slot of its bucket in `dst`.
fn pass<const K: usize, I: Iterator<Item = Tuple<K>>>(
    src: impl Fn() -> I,
    dst: &mut [Tuple<K>],
    (col, shift, top): (usize, u32, usize),
) {
    let (mut at, mut sum) = ([0u32; BUCKETS], 0);
    src().for_each(|t| at[bucket(&t, col, shift)] += 1);
    at[..=top].iter_mut().for_each(|a| sum += replace(a, sum));
    src().for_each(|t| {
        let slot = &mut at[bucket(&t, col, shift)];
        dst[*slot as usize] = t;
        *slot += 1;
    });
}

/// Sorts `tuples` ascending, as `sort_unstable` would. `scratch` is working
/// memory, grown to the slice's size: keep it for the next call.
pub fn sort_tuples<const K: usize>(tuples: &mut [Tuple<K>], scratch: &mut Vec<u64>) {
    let (n, digits) = plan(tuples.iter().copied(), K);
    if digits.is_empty() {
        return tuples.sort_unstable();
    }
    scratch.resize(scratch.len().max(n * K), 0);
    let (mut src, (mut dst, _)) = (tuples, scratch[..n * K].as_chunks_mut::<K>());
    for &d in &digits {
        pass(|| src.iter().copied(), dst, d);
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
    if digits.is_empty() {
        let mut all = Vec::with_capacity(n);
        walk().for_each(|t| all.push(t));
        all.sort_unstable();
        return all;
    }
    let (mut a, mut b) = (vec![[0; K]; n], Vec::new());
    pass(&walk, &mut a, digits[0]);
    for &d in &digits[1..] {
        b.resize(n, [0; K]);
        pass(|| a.iter().copied(), &mut b, d);
        swap(&mut a, &mut b);
    }
    a
}
