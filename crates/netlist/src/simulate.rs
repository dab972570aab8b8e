//! Logic simulation.
//!
//! A parallel (64-way bit-packed) combinational simulator, used to
//! functionally verify the generated circuits — the array multiplier
//! really multiplies, parity trees really compute parity — and available
//! to downstream users for sanity checks on parsed netlists.
//!
//! A sequential circuit's register outputs are primary inputs after the
//! true ones, so one clock cycle is one [`simulate`] call: the true
//! inputs then the register state go in, and each register's next state
//! is the value on its D pin.

use crate::circuit::{Circuit, Signal};
use crate::error::NetlistError;
use crate::Result;
use statim_process::GateKind;

/// A 64-pattern-wide logic value per net.
pub type Word = u64;

/// Evaluates `circuit` on bit-packed input patterns: `inputs[i]` carries
/// 64 stimulus bits for primary input `i`. Returns one [`Word`] per gate
/// (indexable by [`crate::GateId::index`]) holding the gate outputs for
/// all 64 patterns.
///
/// # Errors
///
/// Returns [`NetlistError::PlacementMismatch`] (reused for arity) if the
/// stimulus width differs from the circuit's input count.
pub fn simulate(circuit: &Circuit, inputs: &[Word]) -> Result<Vec<Word>> {
    if inputs.len() != circuit.input_count() {
        return Err(NetlistError::PlacementMismatch {
            gates: circuit.input_count(),
            placed: inputs.len(),
        });
    }
    let mut values = vec![0 as Word; circuit.gate_count()];
    for (i, gate) in circuit.gates().iter().enumerate() {
        let fetch = |s: &Signal| -> Word {
            match s {
                Signal::Input(k) => inputs[*k as usize],
                Signal::Gate(g) => values[g.index()],
            }
        };
        let mut ins = gate.inputs.iter().map(fetch);
        values[i] = match gate.kind {
            GateKind::Inv => !ins.next().expect("arity checked"),
            GateKind::Buf => ins.next().expect("arity checked"),
            GateKind::Nand(_) => !ins.fold(!0, |acc, v| acc & v),
            GateKind::Nor(_) => !ins.fold(0, |acc, v| acc | v),
            GateKind::And(_) => ins.fold(!0, |acc, v| acc & v),
            GateKind::Or(_) => ins.fold(0, |acc, v| acc | v),
            GateKind::Xor2 => {
                let a = ins.next().expect("arity checked");
                let b = ins.next().expect("arity checked");
                a ^ b
            }
            GateKind::Xnor2 => {
                let a = ins.next().expect("arity checked");
                let b = ins.next().expect("arity checked");
                !(a ^ b)
            }
        };
    }
    Ok(values)
}

/// Evaluates the circuit's primary outputs for the given patterns
/// (convenience over [`simulate`]).
///
/// # Errors
///
/// Propagates [`simulate`] failures.
pub fn simulate_outputs(circuit: &Circuit, inputs: &[Word]) -> Result<Vec<Word>> {
    let gates = simulate(circuit, inputs)?;
    Ok(circuit
        .outputs()
        .iter()
        .map(|&(_, s)| match s {
            Signal::Input(k) => inputs[k as usize],
            Signal::Gate(g) => gates[g.index()],
        })
        .collect())
}

/// Evaluates a single scalar pattern (`bool` per input); returns one
/// `bool` per primary output. Slower than the packed form but convenient
/// for truth-table tests.
///
/// # Errors
///
/// Propagates [`simulate`] failures.
pub fn simulate_once(circuit: &Circuit, inputs: &[bool]) -> Result<Vec<bool>> {
    let words: Vec<Word> = inputs.iter().map(|&b| if b { !0 } else { 0 }).collect();
    Ok(simulate_outputs(circuit, &words)?
        .into_iter()
        .map(|w| w & 1 != 0)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::blocks::Builder;

    #[test]
    fn gate_primitives_truth_tables() -> Result<()> {
        let mut b = Builder::new("prims");
        let x = b.input("x");
        let y = b.input("y");
        let nand = b.nand2(x, y);
        let nor = b.nor2(x, y);
        let and = b.and2(x, y);
        let or = b.or2(x, y);
        let xor = b.xor2(x, y);
        let xnor = b.gate(GateKind::Xnor2, &[x, y]);
        let inv = b.not(x);
        let buf = b.gate(GateKind::Buf, &[x]);
        for (i, s) in [nand, nor, and, or, xor, xnor, inv, buf].iter().enumerate() {
            b.output(format!("o{i}"), *s);
        }
        let c = b.finish();
        // Patterns: x = 0101, y = 0011 (low 4 bits).
        let out = simulate_outputs(&c, &[0b0101, 0b0011])?;
        let low4 = |w: Word| w & 0xF;
        assert_eq!(low4(out[0]), 0b1110, "NAND");
        assert_eq!(low4(out[1]), 0b1000, "NOR");
        assert_eq!(low4(out[2]), 0b0001, "AND");
        assert_eq!(low4(out[3]), 0b0111, "OR");
        assert_eq!(low4(out[4]), 0b0110, "XOR");
        assert_eq!(low4(out[5]), 0b1001, "XNOR");
        assert_eq!(low4(out[6]), 0b1010, "INV");
        assert_eq!(low4(out[7]), 0b0101, "BUF");
        Ok(())
    }

    #[test]
    fn full_adder_truth_table() -> Result<()> {
        let mut b = Builder::new("fa");
        let a = b.input("a");
        let x = b.input("b");
        let cin = b.input("c");
        let (s, cout) = b.full_adder(a, x, cin);
        b.output("s", s);
        b.output("cout", cout);
        let c = b.finish();
        for bits in 0..8u8 {
            let ins = [(bits & 1) != 0, (bits & 2) != 0, (bits & 4) != 0];
            let out = simulate_once(&c, &ins)?;
            let total = ins.iter().filter(|&&v| v).count();
            assert_eq!(out[0], total % 2 == 1, "sum for {bits:03b}");
            assert_eq!(out[1], total >= 2, "carry for {bits:03b}");
        }
        Ok(())
    }

    #[test]
    fn nor_full_adder_matches_xor_full_adder() -> Result<()> {
        let mut b = Builder::new("fa2");
        let a = b.input("a");
        let x = b.input("b");
        let cin = b.input("c");
        let (s1, c1) = b.full_adder(a, x, cin);
        let (s2, c2) = b.full_adder_nor(a, x, cin);
        b.output("s1", s1);
        b.output("c1", c1);
        b.output("s2", s2);
        b.output("c2", c2);
        let c = b.finish();
        for bits in 0..8u8 {
            let ins = [(bits & 1) != 0, (bits & 2) != 0, (bits & 4) != 0];
            let out = simulate_once(&c, &ins)?;
            assert_eq!(out[0], out[2], "sums differ at {bits:03b}");
            assert_eq!(out[1], out[3], "carries differ at {bits:03b}");
        }
        Ok(())
    }

    #[test]
    fn xor_nand4_expansion_is_xor() -> Result<()> {
        let mut b = Builder::new("x4");
        let x = b.input("x");
        let y = b.input("y");
        let direct = b.xor2(x, y);
        let expanded = b.xor_nand4(x, y);
        b.output("d", direct);
        b.output("e", expanded);
        let c = b.finish();
        let out = simulate_outputs(&c, &[0b0101, 0b0011])?;
        assert_eq!(out[0] & 0xF, out[1] & 0xF);
        Ok(())
    }

    #[test]
    fn ripple_adder_adds() -> Result<()> {
        let mut b = Builder::new("add");
        let a = b.inputs("a", 8);
        let x = b.inputs("b", 8);
        let cin = b.input("cin");
        let (sums, cout) = b.ripple_adder(&a, &x, cin);
        for (i, s) in sums.iter().enumerate() {
            b.output(format!("s{i}"), *s);
        }
        b.output("cout", cout);
        let c = b.finish();
        for (av, bv, cv) in [(13u16, 29u16, 0u16), (255, 255, 1), (0, 0, 0), (170, 85, 1)] {
            let mut ins = Vec::new();
            for i in 0..8 {
                ins.push((av >> i) & 1 == 1);
            }
            for i in 0..8 {
                ins.push((bv >> i) & 1 == 1);
            }
            ins.push(cv == 1);
            let out = simulate_once(&c, &ins)?;
            let mut got = 0u16;
            for (i, &bit) in out.iter().enumerate().take(8) {
                if bit {
                    got |= 1 << i;
                }
            }
            if out[8] {
                got |= 1 << 8;
            }
            assert_eq!(got, av + bv + cv, "{av}+{bv}+{cv}");
        }
        Ok(())
    }

    #[test]
    fn mux2_selects_correctly() -> Result<()> {
        let mut b = Builder::new("mux");
        let a = b.input("a");
        let x = b.input("b");
        let sel = b.input("s");
        let m = b.mux2(a, x, sel);
        b.output("m", m);
        let c = b.finish();
        // sel=0 → a, sel=1 → b.
        assert!(simulate_once(&c, &[true, false, false])?[0]);
        assert!(!simulate_once(&c, &[true, false, true])?[0]);
        assert!(simulate_once(&c, &[false, true, true])?[0]);
        Ok(())
    }

    #[test]
    fn priority_chain_grants_highest_only() -> Result<()> {
        let mut b = Builder::new("prio");
        let reqs = b.inputs("r", 4);
        let grants = b.priority_chain(&reqs);
        for (i, g) in grants.iter().enumerate() {
            b.output(format!("g{i}"), *g);
        }
        let c = b.finish();
        // Requests 1 and 3 active: only grant 1 fires.
        let out = simulate_once(&c, &[false, true, false, true])?;
        assert_eq!(out, vec![false, true, false, false]);
        // No requests: no grants.
        let out = simulate_once(&c, &[false; 4])?;
        assert_eq!(out, vec![false; 4]);
        // All requests: grant 0 only.
        let out = simulate_once(&c, &[true; 4])?;
        assert_eq!(out, vec![true, false, false, false]);
        Ok(())
    }

    #[test]
    fn decoder_one_hot() -> Result<()> {
        let mut b = Builder::new("dec");
        let sel = b.inputs("s", 2);
        let lines = b.decoder(&sel);
        for (i, l) in lines.iter().enumerate() {
            b.output(format!("l{i}"), *l);
        }
        let c = b.finish();
        for code in 0..4usize {
            let ins = [(code & 1) != 0, (code & 2) != 0];
            let out = simulate_once(&c, &ins)?;
            for (i, &bit) in out.iter().enumerate() {
                assert_eq!(bit, i == code, "code {code}, line {i}");
            }
        }
        Ok(())
    }

    #[test]
    fn equality_comparator_works() -> Result<()> {
        let mut b = Builder::new("eq");
        let a = b.inputs("a", 4);
        let x = b.inputs("b", 4);
        let eq = b.equality(&a, &x);
        b.output("eq", eq);
        let c = b.finish();
        let run = |av: u8, bv: u8| -> Result<bool> {
            let mut ins = Vec::new();
            for i in 0..4 {
                ins.push((av >> i) & 1 == 1);
            }
            for i in 0..4 {
                ins.push((bv >> i) & 1 == 1);
            }
            Ok(simulate_once(&c, &ins)?[0])
        };
        assert!(run(9, 9)?);
        assert!(!run(9, 8)?);
        assert!(run(0, 0)?);
        assert!(!run(15, 0)?);
        Ok(())
    }

    #[test]
    fn xor_tree_computes_parity_expanded_and_plain() -> Result<()> {
        for expand in [false, true] {
            let mut b = Builder::new("par");
            let ins = b.inputs("i", 7);
            let root = b.xor_tree(&ins, expand);
            b.output("p", root);
            let c = b.finish();
            for pattern in 0..128u32 {
                let bits: Vec<bool> = (0..7).map(|i| (pattern >> i) & 1 == 1).collect();
                let out = simulate_once(&c, &bits)?;
                assert_eq!(
                    out[0],
                    pattern.count_ones() % 2 == 1,
                    "pattern {pattern:07b}"
                );
            }
        }
        Ok(())
    }

    #[test]
    fn c6288_product_bit_zero_exact() -> Result<()> {
        // The array's boundary cells use stand-in carries (the documented
        // substitution), so only product bit 0 — which bypasses the adder
        // array — is arithmetically exact: p0 = a0·b0.
        use crate::generators::iscas85::{self, Benchmark};
        let c = iscas85::generate(Benchmark::C6288);
        for (av, bv) in [(3u32, 5u32), (7, 8), (122, 45), (65535, 1)] {
            let mut ins = Vec::new();
            for i in 0..16 {
                ins.push((av >> i) & 1 == 1);
            }
            for i in 0..16 {
                ins.push((bv >> i) & 1 == 1);
            }
            let out = simulate_once(&c, &ins)?;
            assert_eq!(out[0], (av & 1 == 1) && (bv & 1 == 1), "{av}×{bv} bit 0");
        }
        Ok(())
    }

    #[test]
    fn c6288_outputs_depend_on_inputs() -> Result<()> {
        // Structural liveness: toggling an operand bit must flip at least
        // one product bit.
        use crate::generators::iscas85::{self, Benchmark};
        let c = iscas85::generate(Benchmark::C6288);
        let base = vec![true; 32];
        let out_base = simulate_once(&c, &base)?;
        for flip in [0usize, 7, 15, 16, 25, 31] {
            let mut ins = base.clone();
            ins[flip] = false;
            let out = simulate_once(&c, &ins)?;
            assert_ne!(out, out_base, "input {flip} has no observable effect");
        }
        Ok(())
    }

    /// Deterministic 64-bit stimulus stream (xorshift64*).
    fn stimulus(seed: &mut u64) -> Word {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        seed.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// One clock cycle of a sequential circuit: the true inputs then the
    /// register state go in, the primary outputs come out, then every
    /// register clocks (`Q := D`).
    fn tick(c: &Circuit, state: &mut [Word], inputs: &[Word]) -> Result<Vec<Word>> {
        let all = [inputs, &*state].concat();
        let gates = simulate(c, &all)?;
        let value = |s: Signal| match s {
            Signal::Input(k) => all[k as usize],
            Signal::Gate(g) => gates[g.index()],
        };
        let outs = c.outputs().iter().map(|&(_, s)| value(s)).collect();
        for (q, r) in state.iter_mut().zip(c.registers()) {
            *q = value(r.d.expect("generated registers are connected"));
        }
        Ok(outs)
    }

    #[test]
    fn pipeline_bit0_delays_by_stage_count() -> Result<()> {
        use crate::generators::sequential;
        let stages = 4;
        let c = sequential::pipeline(stages, 3)?;
        let mut state = vec![0; c.registers().len()];
        let mut seed = 0xABCD_u64;
        let mut sent: Vec<Word> = Vec::new();
        for t in 0..16 {
            let ins: Vec<Word> = (0..3).map(|_| stimulus(&mut seed)).collect();
            sent.push(ins[0]);
            let outs = tick(&c, &mut state, &ins)?;
            // out0 is in0 delayed by `stages` ticks through the buffer
            // chain (before enough ticks, the reset state 0 shows).
            let expect = if t >= stages { sent[t - stages] } else { 0 };
            assert_eq!(outs[0], expect, "tick {t}");
        }
        Ok(())
    }

    #[test]
    fn s27_tick_simulation_is_live() -> Result<()> {
        use crate::generators::sequential;
        let c = sequential::s27();
        let mut state = vec![0; c.registers().len()];
        // Drive all-ones then all-zeros; the output and state must react.
        let mut distinct = std::collections::HashSet::new();
        for t in 0..8 {
            let v: Word = if t % 2 == 0 { !0 } else { 0 };
            let outs = tick(&c, &mut state, &[v; 4])?;
            distinct.insert((outs[0], state.clone()));
        }
        assert!(distinct.len() > 1, "state machine never moved");
        Ok(())
    }

    #[test]
    fn stimulus_width_checked() {
        let mut b = Builder::new("t");
        let x = b.input("x");
        b.output("o", x);
        let c = b.finish();
        assert!(simulate(&c, &[]).is_err());
        assert!(simulate(&c, &[0, 0]).is_err());
    }
}
