//! Adder/subtractor datapath builders.
//!
//! The execution-stage adder of the modelled core is a ripple-carry
//! adder: its per-bit carry chain produces exactly the bit-significance
//! ordering of timing failures that the paper observes ("bits with higher
//! significance tend to fail earlier"), because arrival times grow with bit
//! position.  A carry-select variant is also provided for ablation studies
//! on the influence of adder architecture on the dynamic-slack statistics.

use crate::builder::{full_adder, mux2};
use crate::netlist::{Netlist, NodeId};

/// Result of instantiating an adder: per-bit sums plus the carry out.
#[derive(Debug, Clone)]
pub struct AdderOutputs {
    /// Sum bits, little-endian.
    pub sum: Vec<NodeId>,
    /// Carry out of the most significant bit.
    pub carry_out: NodeId,
}

/// Instantiates a ripple-carry adder over the `width`-bit operands `a` and
/// `b` with carry input `cin`.
///
/// # Panics
///
/// Panics if the operand widths differ or are zero.
pub fn ripple_carry_adder(
    n: &mut Netlist,
    a: &[NodeId],
    b: &[NodeId],
    cin: NodeId,
) -> AdderOutputs {
    assert!(!a.is_empty(), "adder width must be non-zero");
    assert_eq!(a.len(), b.len(), "adder operands must have equal width");
    let mut sum = Vec::with_capacity(a.len());
    let mut carry = cin;
    for (&ai, &bi) in a.iter().zip(b) {
        let (s, c) = full_adder(n, ai, bi, carry);
        sum.push(s);
        carry = c;
    }
    AdderOutputs {
        sum,
        carry_out: carry,
    }
}

/// Instantiates an adder/subtractor: when `sub` is high, `b` is inverted and
/// the carry-in forced high, computing `a - b` in two's complement.
///
/// The carry structure is a carry-select adder with four-bit blocks, which
/// is representative of the fast adders a synthesis tool maps the
/// execution-stage add onto: shallow enough that its typical (sensitised)
/// delay sits close to its worst case, yet still showing the per-block
/// bit-significance ordering of arrival times the paper observes.
///
/// Returns the per-bit result and the carry out (which equals "no borrow"
/// for subtraction).
pub fn add_sub(n: &mut Netlist, a: &[NodeId], b: &[NodeId], sub: NodeId) -> AdderOutputs {
    assert_eq!(a.len(), b.len(), "add_sub operands must have equal width");
    let b_xor: Vec<NodeId> = b.iter().map(|&bi| n.xor2(bi, sub)).collect();
    carry_select_adder(n, a, &b_xor, sub, 4)
}

/// Ripple-carry variant of [`add_sub`], retained for ablation studies on the
/// influence of the adder architecture on the dynamic-slack statistics.
pub fn add_sub_ripple(n: &mut Netlist, a: &[NodeId], b: &[NodeId], sub: NodeId) -> AdderOutputs {
    assert_eq!(a.len(), b.len(), "add_sub operands must have equal width");
    let b_xor: Vec<NodeId> = b.iter().map(|&bi| n.xor2(bi, sub)).collect();
    ripple_carry_adder(n, a, &b_xor, sub)
}

/// Instantiates a carry-select adder built from ripple blocks of
/// `block_width` bits: a flatter arrival-time profile than the ripple
/// adder, for studying how it changes the extracted CDFs.
///
/// # Panics
///
/// Panics if `block_width` is zero or operand widths differ.
pub fn carry_select_adder(
    n: &mut Netlist,
    a: &[NodeId],
    b: &[NodeId],
    cin: NodeId,
    block_width: usize,
) -> AdderOutputs {
    assert!(block_width > 0, "block width must be non-zero");
    assert_eq!(a.len(), b.len(), "adder operands must have equal width");
    let zero = n.constant(false);
    let one = n.constant(true);
    let mut sum = Vec::with_capacity(a.len());
    let mut carry = cin;
    let mut start = 0usize;
    while start < a.len() {
        let end = (start + block_width).min(a.len());
        let ab = &a[start..end];
        let bb = &b[start..end];
        if start == 0 {
            let out = ripple_carry_adder(n, ab, bb, carry);
            sum.extend_from_slice(&out.sum);
            carry = out.carry_out;
        } else {
            // Speculatively compute the block for carry-in 0 and 1, then
            // select with the actual incoming carry.
            let out0 = ripple_carry_adder(n, ab, bb, zero);
            let out1 = ripple_carry_adder(n, ab, bb, one);
            for (s0, s1) in out0.sum.iter().zip(&out1.sum) {
                sum.push(mux2(n, carry, *s0, *s1));
            }
            carry = mux2(n, carry, out0.carry_out, out1.carry_out);
        }
        start = end;
    }
    AdderOutputs {
        sum,
        carry_out: carry,
    }
}

/// Instantiates a Kogge–Stone parallel-prefix adder.
///
/// The prefix structure has logarithmic depth and very little data
/// dependence in its arrival times, which is representative of the fast
/// carry-propagate adders a synthesis tool infers on timing-critical paths
/// (e.g. the final adder of the single-cycle multiplier).
///
/// # Panics
///
/// Panics if the operand widths differ or are zero.
pub fn kogge_stone_adder(n: &mut Netlist, a: &[NodeId], b: &[NodeId], cin: NodeId) -> AdderOutputs {
    assert!(!a.is_empty(), "adder width must be non-zero");
    assert_eq!(a.len(), b.len(), "adder operands must have equal width");
    let width = a.len();

    // Bit-wise generate / propagate.
    let mut g: Vec<NodeId> = a.iter().zip(b).map(|(&x, &y)| n.and2(x, y)).collect();
    let mut p: Vec<NodeId> = a.iter().zip(b).map(|(&x, &y)| n.xor2(x, y)).collect();
    let p_initial = p.clone();

    // Treat the carry-in as the generate of a virtual bit -1 by folding it
    // into bit 0: g0' = g0 | (p0 & cin).
    let p0_and_cin = n.and2(p[0], cin);
    g[0] = n.or2(g[0], p0_and_cin);

    // Prefix combination: (G, P) ∘ (G', P') = (G | (P & G'), P & P').
    let mut dist = 1usize;
    while dist < width {
        let prev_g = g.clone();
        let prev_p = p.clone();
        for i in (dist..width).rev() {
            let t = n.and2(prev_p[i], prev_g[i - dist]);
            g[i] = n.or2(prev_g[i], t);
            p[i] = n.and2(prev_p[i], prev_p[i - dist]);
        }
        dist *= 2;
    }

    // sum[i] = p_initial[i] ^ carry_into_i, carry_into_0 = cin,
    // carry_into_i = G[i-1] (which already folds in cin).
    let mut sum = Vec::with_capacity(width);
    sum.push(n.xor2(p_initial[0], cin));
    for i in 1..width {
        sum.push(n.xor2(p_initial[i], g[i - 1]));
    }
    AdderOutputs {
        sum,
        carry_out: g[width - 1],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{from_bits, to_bits};

    #[derive(Clone, Copy)]
    enum Arch {
        Ripple,
        CarrySelect,
        KoggeStone,
    }

    fn build_adder_arch(width: usize, arch: Arch) -> (Netlist, usize) {
        let mut n = Netlist::new();
        let a: Vec<NodeId> = (0..width).map(|i| n.add_input(format!("a{i}"))).collect();
        let b: Vec<NodeId> = (0..width).map(|i| n.add_input(format!("b{i}"))).collect();
        let cin = n.add_input("cin");
        let out = match arch {
            Arch::Ripple => ripple_carry_adder(&mut n, &a, &b, cin),
            Arch::CarrySelect => carry_select_adder(&mut n, &a, &b, cin, 4),
            Arch::KoggeStone => kogge_stone_adder(&mut n, &a, &b, cin),
        };
        for (i, s) in out.sum.iter().enumerate() {
            n.mark_output(*s, format!("s{i}"));
        }
        n.mark_output(out.carry_out, "cout");
        (n, width)
    }

    fn build_adder(width: usize, select: bool) -> (Netlist, usize) {
        build_adder_arch(
            width,
            if select {
                Arch::CarrySelect
            } else {
                Arch::Ripple
            },
        )
    }

    fn run_add(n: &Netlist, width: usize, a: u64, b: u64, cin: bool) -> (u64, bool) {
        let mut inputs = to_bits(a, width);
        inputs.extend(to_bits(b, width));
        inputs.push(cin);
        let out = n.evaluate(&inputs);
        (from_bits(&out[..width]), out[width])
    }

    #[test]
    fn ripple_adder_small_exhaustive() {
        let (n, w) = build_adder(4, false);
        for a in 0..16u64 {
            for b in 0..16u64 {
                for cin in [false, true] {
                    let (sum, cout) = run_add(&n, w, a, b, cin);
                    let expect = a + b + cin as u64;
                    assert_eq!(sum, expect & 0xF);
                    assert_eq!(cout, expect > 0xF);
                }
            }
        }
    }

    #[test]
    fn kogge_stone_small_exhaustive() {
        let (n, w) = build_adder_arch(4, Arch::KoggeStone);
        for a in 0..16u64 {
            for b in 0..16u64 {
                for cin in [false, true] {
                    let (sum, cout) = run_add(&n, w, a, b, cin);
                    let expect = a + b + cin as u64;
                    assert_eq!(sum, expect & 0xF, "a={a} b={b} cin={cin}");
                    assert_eq!(cout, expect > 0xF, "a={a} b={b} cin={cin}");
                }
            }
        }
    }

    #[test]
    fn kogge_stone_matches_ripple_16bit() {
        let (nr, w) = build_adder_arch(16, Arch::Ripple);
        let (nk, _) = build_adder_arch(16, Arch::KoggeStone);
        for (a, b) in [
            (0u64, 0u64),
            (0xFFFF, 1),
            (0xAAAA, 0x5555),
            (54321, 12345),
            (40000, 39999),
        ] {
            for cin in [false, true] {
                assert_eq!(run_add(&nr, w, a, b, cin), run_add(&nk, w, a, b, cin));
            }
        }
    }

    #[test]
    fn kogge_stone_is_shallower_than_ripple() {
        let (nr, _) = build_adder_arch(32, Arch::Ripple);
        let (nk, _) = build_adder_arch(32, Arch::KoggeStone);
        assert!(nk.max_output_depth() < nr.max_output_depth());
    }

    #[test]
    fn carry_select_matches_ripple() {
        let (nr, w) = build_adder(8, false);
        let (ns, _) = build_adder(8, true);
        for (a, b) in [(0u64, 0u64), (255, 1), (170, 85), (200, 100), (37, 219)] {
            assert_eq!(run_add(&nr, w, a, b, false), run_add(&ns, w, a, b, false));
            assert_eq!(run_add(&nr, w, a, b, true), run_add(&ns, w, a, b, true));
        }
    }

    #[test]
    fn add_sub_subtracts() {
        for variant in [0, 1] {
            let width = 8;
            let mut n = Netlist::new();
            let a: Vec<NodeId> = (0..width).map(|i| n.add_input(format!("a{i}"))).collect();
            let b: Vec<NodeId> = (0..width).map(|i| n.add_input(format!("b{i}"))).collect();
            let sub = n.add_input("sub");
            let out = if variant == 0 {
                add_sub(&mut n, &a, &b, sub)
            } else {
                add_sub_ripple(&mut n, &a, &b, sub)
            };
            for (i, s) in out.sum.iter().enumerate() {
                n.mark_output(*s, format!("s{i}"));
            }
            for (a_val, b_val) in [(100u64, 58u64), (5, 200), (0, 0), (255, 255)] {
                let mut inputs = to_bits(a_val, width);
                inputs.extend(to_bits(b_val, width));
                inputs.push(true);
                let got = from_bits(&n.evaluate(&inputs)[..width]);
                assert_eq!(got, a_val.wrapping_sub(b_val) & 0xFF);
                let mut inputs = to_bits(a_val, width);
                inputs.extend(to_bits(b_val, width));
                inputs.push(false);
                let got = from_bits(&n.evaluate(&inputs)[..width]);
                assert_eq!(got, (a_val + b_val) & 0xFF);
            }
        }
    }

    #[test]
    fn ripple_depth_grows_with_significance() {
        let (n, w) = build_adder(16, false);
        let depths = n.logic_depths();
        let d_low = depths[n.outputs()[0].node.index()];
        let d_high = depths[n.outputs()[w - 1].node.index()];
        assert!(
            d_high > d_low,
            "msb depth {d_high} should exceed lsb depth {d_low}"
        );
    }

    #[test]
    #[should_panic(expected = "equal width")]
    fn mismatched_widths_panic() {
        let mut n = Netlist::new();
        let a = vec![n.add_input("a0")];
        let b = vec![n.add_input("b0"), n.add_input("b1")];
        let cin = n.add_input("cin");
        ripple_carry_adder(&mut n, &a, &b, cin);
    }
}
