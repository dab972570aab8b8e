//! Property-based tests for netlist construction, formats and placement
//! over randomly generated circuits.

use proptest::prelude::*;
use statim_netlist::generators::blocks::Builder;
use statim_netlist::{bench_format, def_lite, stats, Circuit, Placement, PlacementStyle, Signal};
use statim_process::GateKind;

/// Strategy: a random valid DAG circuit described by, per gate, a kind
/// selector and input selectors (resolved modulo the signals available at
/// that point, so construction is always valid).
fn arb_circuit() -> impl Strategy<Value = Circuit> {
    (
        1usize..8, // inputs
        proptest::collection::vec((0u8..8, prop::collection::vec(0usize..1000, 4)), 1..60),
        1usize..5, // outputs
    )
        .prop_map(|(n_inputs, gate_specs, n_outputs)| {
            let mut b = Builder::new("random");
            let mut signals: Vec<Signal> =
                (0..n_inputs).map(|i| b.input(format!("i{i}"))).collect();
            for (kind_sel, input_sels) in gate_specs {
                let kind = match kind_sel {
                    0 => GateKind::Inv,
                    1 => GateKind::Buf,
                    2 => GateKind::Nand(2),
                    3 => GateKind::Nor(2),
                    4 => GateKind::And(2),
                    5 => GateKind::Or(2),
                    6 => GateKind::Xor2,
                    _ => GateKind::Nand(3),
                };
                let ins: Vec<Signal> = (0..kind.fan_in())
                    .map(|k| signals[input_sels[k] % signals.len()])
                    .collect();
                signals.push(b.gate(kind, &ins));
            }
            let total = signals.len();
            for o in 0..n_outputs {
                b.output(format!("o{o}"), signals[total - 1 - (o % total)]);
            }
            b.finish()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bench_round_trip_preserves_structure(c in arb_circuit()) {
        let text = bench_format::write(&c);
        let r = bench_format::parse("random", &text).unwrap();
        prop_assert_eq!(r.gate_count(), c.gate_count());
        prop_assert_eq!(r.input_count(), c.input_count());
        prop_assert_eq!(r.depth(), c.depth());
        prop_assert_eq!(r.path_count(), c.path_count());
        // Kind histograms match.
        prop_assert_eq!(r.kind_histogram(), c.kind_histogram());
    }

    #[test]
    fn def_round_trip_preserves_positions(c in arb_circuit(), seed in 0u64..100) {
        prop_assume!(c.gate_count() > 0);
        let p = Placement::generate(&c, PlacementStyle::Random(seed));
        let text = def_lite::write(&c, &p);
        let def = def_lite::parse(&text).unwrap();
        let p2 = def.placement_for(&c).unwrap();
        for g in c.gate_ids() {
            let (x1, y1) = p.position(g);
            let (x2, y2) = p2.position(g);
            // DEF stores nanometre-rounded coordinates.
            prop_assert!((x1 - x2).abs() < 1e-2);
            prop_assert!((y1 - y2).abs() < 1e-2);
        }
    }

    #[test]
    fn placements_stay_on_die(c in arb_circuit(), seed in 0u64..50) {
        prop_assume!(c.gate_count() > 0);
        for style in [PlacementStyle::Levelized, PlacementStyle::Random(seed)] {
            let p = Placement::generate(&c, style);
            prop_assert_eq!(p.len(), c.gate_count());
            for g in c.gate_ids() {
                let (nx, ny) = p.normalized(g);
                prop_assert!((0.0..1.0).contains(&nx));
                prop_assert!((0.0..1.0).contains(&ny));
            }
        }
    }

    #[test]
    fn depth_bounds(c in arb_circuit()) {
        let d = c.depth();
        prop_assert!(d <= c.gate_count());
        prop_assert!(c.gate_count() == 0 || d >= 1);
        // Levels are within [1, depth].
        for l in c.levels() {
            prop_assert!(l >= 1 && l <= d);
        }
    }

    #[test]
    fn path_count_at_least_output_reachable(c in arb_circuit()) {
        // Each gate-driven output contributes at least one path.
        let gate_pos = c
            .outputs()
            .iter()
            .filter(|(_, s)| matches!(s, Signal::Gate(_)))
            .count();
        prop_assert!(c.path_count() >= gate_pos as u128);
    }

    #[test]
    fn max_depth_paths_do_not_exceed_total(c in arb_circuit()) {
        prop_assert!(stats::max_depth_path_count(&c) <= c.path_count());
    }

    #[test]
    fn simulation_packed_matches_scalar(c in arb_circuit(), seed in 0u64..1000) {
        use statim_netlist::simulate::{simulate_once, simulate_outputs};
        // One packed run vs 8 scalar runs of its low bits.
        let ins: Vec<u64> = (0..c.input_count())
            .map(|i| seed.wrapping_mul(i as u64 * 2 + 3))
            .collect();
        let packed = simulate_outputs(&c, &ins).unwrap();
        for bit in 0..8 {
            let scalar_ins: Vec<bool> =
                ins.iter().map(|w| (w >> bit) & 1 == 1).collect();
            let scalar = simulate_once(&c, &scalar_ins).unwrap();
            for (o, &w) in packed.iter().enumerate() {
                prop_assert_eq!((w >> bit) & 1 == 1, scalar[o], "output {} bit {}", o, bit);
            }
        }
    }

    #[test]
    fn double_inversion_is_identity(c in arb_circuit(), seed in 0u64..100) {
        // Metamorphic property: appending two inverters to any output net
        // leaves its logic function unchanged.
        use statim_netlist::simulate::simulate_outputs;
        prop_assume!(c.gate_count() > 0);
        let ins: Vec<u64> = (0..c.input_count())
            .map(|i| seed.wrapping_mul(0x2545_F491_4F6C_DD1D).rotate_left(i as u32))
            .collect();
        let base = simulate_outputs(&c, &ins).unwrap();
        // Rebuild with the double-inverter tail on the first output.
        let mut b2 = statim_netlist::generators::blocks::Builder::new("ext");
        let mut sigs: Vec<Signal> = (0..c.input_count())
            .map(|i| b2.input(format!("i{i}")))
            .collect();
        for g in c.gates() {
            let ins_mapped: Vec<Signal> = g
                .inputs
                .iter()
                .map(|s| match s {
                    Signal::Input(k) => sigs[*k as usize],
                    Signal::Gate(gid) => sigs[c.input_count() + gid.index()],
                })
                .collect();
            let s = b2.gate(g.kind, &ins_mapped);
            sigs.push(s);
        }
        let (_, first_sig) = c.outputs()[0].clone();
        let mapped = match first_sig {
            Signal::Input(k) => sigs[k as usize],
            Signal::Gate(gid) => sigs[c.input_count() + gid.index()],
        };
        let inv1 = b2.not(mapped);
        let inv2 = b2.not(inv1);
        b2.output("o", inv2);
        let c2 = b2.finish();
        let doubled = simulate_outputs(&c2, &ins).unwrap();
        prop_assert_eq!(doubled[0], base[0]);
    }

    #[test]
    fn fanout_pins_sum_equals_gate_driven_pins(c in arb_circuit()) {
        let pins: usize = c.fanout_pins().iter().sum();
        let expected: usize = c
            .gates()
            .iter()
            .flat_map(|g| g.inputs.iter())
            .filter(|s| matches!(s, Signal::Gate(_)))
            .count();
        prop_assert_eq!(pins, expected);
    }
}
