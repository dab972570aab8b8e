//! ISCAS-85 `.bench` format reader and writer.
//!
//! The classic benchmark distribution format:
//!
//! ```text
//! # c17 example
//! INPUT(1)
//! INPUT(2)
//! OUTPUT(22)
//! 10 = NAND(1, 3)
//! 22 = NAND(10, 16)
//! ```
//!
//! The reader is two-pass (declarations may appear in any order) and maps
//! each function name through [`GateKind::from_bench`], so any circuit in
//! the supported gate library round-trips. Gates are emitted in
//! topological order by the writer.
//!
//! ECO overlays (per-gate drive strength and retiming pads) ride in
//! `# statim drive <net> <factor>` / `# statim pad <net> <seconds>`
//! directive comments: classic tools skip them as comments, while this
//! reader applies them, so an edited circuit round-trips through `.bench`
//! bit-exactly. The writer only emits directives for non-default values,
//! keeping unedited circuits byte-identical to their classic form.
//!
//! Sequential netlists (ISCAS89-style) use `Q = DFF(D)` cells — parsed
//! into [`Circuit`] registers, with Q as a pseudo primary input — plus
//! clock/constraint directives in the same comment channel:
//! `# statim clock period <seconds>`, `# statim clock depth <levels>`,
//! `# statim constraint setup <seconds>`,
//! `# statim constraint hold <seconds>`.

use crate::circuit::{Circuit, Signal};
use crate::error::NetlistError;
use crate::Result;
use statim_process::GateKind;
use std::collections::HashMap;
use std::fmt;

/// Parses `.bench` text into a [`Circuit`].
///
/// # Errors
///
/// Returns a [`NetlistError::Parse`] (with line number) for malformed
/// lines, [`NetlistError::UnsupportedGate`] for functions outside the
/// delay model's library, and [`NetlistError::UndefinedName`] if a net is
/// referenced but never defined.
pub fn parse(name: &str, text: &str) -> Result<Circuit> {
    // First pass: collect definitions.
    struct Def<'a> {
        line: usize,
        out: &'a str,
        func: &'a str,
        args: Vec<&'a str>,
    }
    let mut inputs: Vec<(usize, &str)> = Vec::new();
    let mut outputs: Vec<(usize, &str)> = Vec::new();
    let mut defs: Vec<Def> = Vec::new();
    // `Q = DFF(D)` cells: (line, q net, d net).
    let mut dffs: Vec<(usize, &str, &str)> = Vec::new();
    let mut directives: Vec<Directive<'_>> = Vec::new();

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        // Statim directives live inside comments (so classic readers
        // skip them); intercept before the comment strip.
        if let Some(directive) = raw.trim().strip_prefix("# statim ") {
            directives.push(parse_directive(raw, line_no, directive)?);
            continue;
        }
        let line = match raw.find('#') {
            Some(p) => &raw[..p],
            None => raw,
        }
        .trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = strip_decl(line, "INPUT") {
            inputs.push((line_no, rest));
        } else if let Some(rest) = strip_decl(line, "OUTPUT") {
            outputs.push((line_no, rest));
        } else if let Some(eq) = line.find('=') {
            let out = line[..eq].trim();
            let rhs = line[eq + 1..].trim();
            let open = rhs.find('(').ok_or_else(|| NetlistError::Parse {
                line: line_no,
                col: crate::col_in(raw, rhs),
                message: format!("expected FUNC(args) after `=`, got `{rhs}`"),
            })?;
            if !rhs.ends_with(')') {
                return Err(NetlistError::Parse {
                    line: line_no,
                    col: crate::col_in(raw, rhs) + rhs.len(),
                    message: "missing closing parenthesis".into(),
                });
            }
            let func = rhs[..open].trim();
            let args: Vec<&str> = rhs[open + 1..rhs.len() - 1]
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .collect();
            if out.is_empty() || func.is_empty() || args.is_empty() {
                return Err(NetlistError::Parse {
                    line: line_no,
                    col: crate::col_in(raw, line),
                    message: "empty net name, function or argument list".into(),
                });
            }
            if func == "DFF" {
                if args.len() != 1 {
                    return Err(NetlistError::Parse {
                        line: line_no,
                        col: crate::col_in(raw, rhs),
                        message: format!("DFF takes exactly one D argument, got {}", args.len()),
                    });
                }
                dffs.push((line_no, out, args[0]));
            } else {
                defs.push(Def {
                    line: line_no,
                    out,
                    func,
                    args,
                });
            }
        } else {
            return Err(NetlistError::Parse {
                line: line_no,
                col: crate::col_in(raw, line),
                message: format!("unrecognized line `{line}`"),
            });
        }
    }
    if inputs.is_empty() && defs.is_empty() && dffs.is_empty() {
        return Err(NetlistError::Parse {
            line: 1,
            col: 1,
            message: "empty netlist: no INPUT or gate definitions".into(),
        });
    }

    // Build: PIs first, then register Qs (pseudo-inputs), then gates in
    // dependency order (iterate until all resolve; the format allows
    // forward references). Register D pins connect last — `.bench`
    // sequential feedback means a D driver may be defined anywhere.
    let mut circuit = Circuit::new(name);
    for (_, pi) in &inputs {
        circuit.add_input(*pi)?;
    }
    for (line, q, _) in &dffs {
        circuit.add_register(*q, *line)?;
    }
    let mut pending: Vec<&Def> = defs.iter().collect();
    let mut resolved: HashMap<&str, Signal> = HashMap::new();
    while !pending.is_empty() {
        let before = pending.len();
        let mut still = Vec::new();
        for d in pending {
            let sigs: Option<Vec<Signal>> = d
                .args
                .iter()
                .map(|a| circuit.find(a).or_else(|| resolved.get(*a).copied()))
                .collect();
            match sigs {
                Some(sigs) => {
                    let kind = GateKind::from_bench(d.func, sigs.len()).ok_or(
                        NetlistError::UnsupportedGate {
                            function: d.func.to_string(),
                            arity: sigs.len(),
                            line: d.line,
                        },
                    )?;
                    let s = circuit.add_gate(d.out, kind, &sigs)?;
                    resolved.insert(d.out, s);
                }
                None => still.push(d),
            }
        }
        if still.len() == before {
            // No progress: an argument is genuinely undefined (or a cycle).
            let missing = still
                .iter()
                .flat_map(|d| d.args.iter())
                .find(|a| circuit.find(a).is_none())
                .copied()
                .unwrap_or("<cyclic definition>");
            return Err(NetlistError::UndefinedName {
                name: missing.to_string(),
            });
        }
        pending = still;
    }
    for (index, (line, _, d)) in dffs.iter().enumerate() {
        let s = circuit.find(d).ok_or_else(|| NetlistError::UndefinedName {
            name: d.to_string(),
        })?;
        circuit
            .connect_register_d(index, s)
            .map_err(|e| NetlistError::Parse {
                line: *line,
                col: 1,
                message: e.to_string(),
            })?;
    }
    for (_, po) in &outputs {
        let s = circuit
            .find(po)
            .ok_or_else(|| NetlistError::UndefinedName {
                name: po.to_string(),
            })?;
        circuit.mark_output(*po, s)?;
    }
    for d in directives {
        apply_directive(&mut circuit, d)?;
    }
    Ok(circuit)
}

/// A parsed `# statim ...` directive.
enum Directive<'a> {
    Drive {
        line: usize,
        net: &'a str,
        value: f64,
    },
    Pad {
        line: usize,
        net: &'a str,
        value: f64,
    },
    ClockPeriod {
        line: usize,
        value: f64,
    },
    ClockDepth {
        line: usize,
        value: usize,
    },
    ConstraintSetup {
        line: usize,
        value: f64,
    },
    ConstraintHold {
        line: usize,
        value: f64,
    },
}

fn apply_directive(circuit: &mut Circuit, d: Directive<'_>) -> Result<()> {
    let as_parse = |line: usize| {
        move |e: NetlistError| NetlistError::Parse {
            line,
            col: 1,
            message: e.to_string(),
        }
    };
    let overlay_gate = |circuit: &Circuit, line: usize, net: &str| match circuit.find(net) {
        Some(Signal::Gate(id)) => Ok(id),
        Some(Signal::Input(_)) => Err(NetlistError::Parse {
            line,
            col: 1,
            message: format!("statim directive targets primary input `{net}`, not a gate"),
        }),
        None => Err(NetlistError::UndefinedName {
            name: net.to_string(),
        }),
    };
    match d {
        Directive::Drive { line, net, value } => {
            let id = overlay_gate(circuit, line, net)?;
            circuit.set_drive(id, value).map_err(as_parse(line))
        }
        Directive::Pad { line, net, value } => {
            let id = overlay_gate(circuit, line, net)?;
            circuit.set_pad(id, value).map_err(as_parse(line))
        }
        Directive::ClockPeriod { line, value } => {
            circuit.set_clock_period(value).map_err(as_parse(line))
        }
        Directive::ClockDepth { line, value } => {
            circuit.set_tree_depth(value).map_err(as_parse(line))
        }
        Directive::ConstraintSetup { line, value } => {
            circuit.set_setup_margin(value).map_err(as_parse(line))
        }
        Directive::ConstraintHold { line, value } => {
            circuit.set_hold_margin(value).map_err(as_parse(line))
        }
    }
}

/// Parses the tail of a `# statim ...` directive comment.
fn parse_directive<'a>(raw: &str, line: usize, directive: &'a str) -> Result<Directive<'a>> {
    let mut fields = directive.split_whitespace();
    let bad = |message: String| NetlistError::Parse {
        line,
        col: crate::col_in(raw, directive),
        message,
    };
    let verb = fields.next().unwrap_or("");
    let parsed = match verb {
        "drive" | "pad" => {
            let net = fields
                .next()
                .ok_or_else(|| bad(format!("statim {verb} needs a net name and a value")))?;
            let value = fields
                .next()
                .ok_or_else(|| bad(format!("statim {verb} {net} needs a value")))?;
            let value: f64 = value
                .parse()
                .map_err(|_| bad(format!("invalid {verb} value `{value}`")))?;
            if verb == "drive" {
                Directive::Drive { line, net, value }
            } else {
                Directive::Pad { line, net, value }
            }
        }
        "clock" => {
            let field = fields.next().ok_or_else(|| {
                bad("statim clock needs a field (period or depth) and a value".into())
            })?;
            let value = fields
                .next()
                .ok_or_else(|| bad(format!("statim clock {field} needs a value")))?;
            match field {
                "period" => Directive::ClockPeriod {
                    line,
                    value: value
                        .parse()
                        .map_err(|_| bad(format!("invalid clock period `{value}`")))?,
                },
                "depth" => Directive::ClockDepth {
                    line,
                    value: value
                        .parse()
                        .map_err(|_| bad(format!("invalid clock depth `{value}`")))?,
                },
                other => {
                    return Err(bad(format!(
                        "unknown clock field `{other}` (expected period or depth)"
                    )))
                }
            }
        }
        "constraint" => {
            let field = fields.next().ok_or_else(|| {
                bad("statim constraint needs a field (setup or hold) and a value".into())
            })?;
            let value = fields
                .next()
                .ok_or_else(|| bad(format!("statim constraint {field} needs a value")))?;
            let value: f64 = value
                .parse()
                .map_err(|_| bad(format!("invalid constraint {field} value `{value}`")))?;
            match field {
                "setup" => Directive::ConstraintSetup { line, value },
                "hold" => Directive::ConstraintHold { line, value },
                other => {
                    return Err(bad(format!(
                        "unknown constraint field `{other}` (expected setup or hold)"
                    )))
                }
            }
        }
        other => {
            return Err(bad(format!(
                "unknown statim directive `{other}` (expected drive, pad, clock or constraint)"
            )))
        }
    };
    if let Some(extra) = fields.next() {
        return Err(bad(format!("trailing field `{extra}` after statim {verb}")));
    }
    Ok(parsed)
}

fn strip_decl<'a>(line: &'a str, keyword: &str) -> Option<&'a str> {
    let rest = line.strip_prefix(keyword)?.trim();
    let rest = rest.strip_prefix('(')?;
    let rest = rest.strip_suffix(')')?;
    Some(rest.trim())
}

/// Serializes a circuit to `.bench` text.
pub fn write(circuit: &Circuit) -> String {
    let mut out = String::new();
    // Writing into a `String` cannot fail.
    let _ = write_to(&mut out, circuit);
    out
}

/// Streams the `.bench` text of [`write()`] into `out`, piece by piece,
/// without building it as one string.
///
/// # Errors
///
/// Whatever `out` returns.
pub fn write_to<W: fmt::Write>(out: &mut W, circuit: &Circuit) -> fmt::Result {
    writeln!(out, "# {}", circuit.name())?;
    if circuit.is_sequential() {
        writeln!(
            out,
            "# {} inputs, {} outputs, {} gates, {} registers",
            circuit.true_input_count(),
            circuit.output_count(),
            circuit.gate_count(),
            circuit.registers().len()
        )?;
    } else {
        writeln!(
            out,
            "# {} inputs, {} outputs, {} gates",
            circuit.input_count(),
            circuit.output_count(),
            circuit.gate_count()
        )?;
    }
    // Register Qs are pseudo-inputs: they come back from the DFF lines,
    // not INPUT declarations.
    for pi in circuit.true_input_names() {
        writeln!(out, "INPUT({pi})")?;
    }
    // .bench outputs are *net* names: emit the driving net of each PO
    // (output aliases such as "cor0" do not exist as nets).
    for &(_, sig) in circuit.outputs() {
        writeln!(out, "OUTPUT({})", circuit.signal_name(sig))?;
    }
    for r in circuit.registers() {
        let d =
            r.d.map(|s| circuit.signal_name(s))
                .unwrap_or("<unconnected>");
        writeln!(out, "{} = DFF({d})", r.name)?;
    }
    for g in circuit.gates() {
        out.write_str(&g.name)?;
        out.write_str(" = ")?;
        out.write_str(g.kind.bench_name())?;
        out.write_char('(')?;
        for (k, &s) in g.inputs.iter().enumerate() {
            if k > 0 {
                out.write_str(", ")?;
            }
            out.write_str(circuit.signal_name(s))?;
        }
        out.write_str(")\n")?;
    }
    // ECO overlays, only where they differ from the defaults — unedited
    // circuits keep their classic byte-exact form. `{}` on f64 prints
    // the shortest round-trip-exact decimal, so parse(write(c)) == c.
    for g in circuit.gates() {
        if g.drive != 1.0 {
            writeln!(out, "# statim drive {} {}", g.name, g.drive)?;
        }
        if g.pad != 0.0 {
            writeln!(out, "# statim pad {} {}", g.name, g.pad)?;
        }
    }
    // Clock / constraint directives, non-default values only.
    let seq = circuit.seq_spec();
    if let Some(period) = seq.period {
        writeln!(out, "# statim clock period {period}")?;
    }
    if let Some(depth) = seq.tree_depth {
        writeln!(out, "# statim clock depth {depth}")?;
    }
    if seq.setup_margin != 0.0 {
        writeln!(out, "# statim constraint setup {}", seq.setup_margin)?;
    }
    if seq.hold_margin != 0.0 {
        writeln!(out, "# statim constraint hold {}", seq.hold_margin)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const C17: &str = "\
# c17 (reduced)
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)

OUTPUT(22)
OUTPUT(23)

10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
";

    #[test]
    fn parses_c17() {
        let c = parse("c17", C17).unwrap();
        assert_eq!(c.input_count(), 5);
        assert_eq!(c.output_count(), 2);
        assert_eq!(c.gate_count(), 6);
        assert_eq!(c.depth(), 3);
        assert_eq!(c.path_count(), 11);
    }

    #[test]
    fn round_trips() {
        let c = parse("c17", C17).unwrap();
        let text = write(&c);
        let c2 = parse("c17", &text).unwrap();
        assert_eq!(c.gate_count(), c2.gate_count());
        assert_eq!(c.depth(), c2.depth());
        assert_eq!(c.path_count(), c2.path_count());
        // Same gate names and kinds.
        for (a, b) in c.gates().iter().zip(c2.gates()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.kind, b.kind);
        }
    }

    #[test]
    fn forward_references_resolve() {
        let text = "\
INPUT(a)
OUTPUT(z)
z = NOT(y)
y = NOT(a)
";
        let c = parse("fwd", text).unwrap();
        assert_eq!(c.gate_count(), 2);
        assert_eq!(c.depth(), 2);
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "# hi\n\nINPUT(a)  # inline\nOUTPUT(b)\nb = NOT(a)\n";
        let c = parse("t", text).unwrap();
        assert_eq!(c.gate_count(), 1);
    }

    #[test]
    fn error_on_unknown_function() {
        let text = "INPUT(a)\nOUTPUT(b)\nb = MAJ(a, a, a)\n";
        match parse("t", text) {
            Err(NetlistError::UnsupportedGate {
                function,
                arity,
                line,
            }) => {
                assert_eq!(function, "MAJ");
                assert_eq!(arity, 3);
                assert_eq!(line, 3);
            }
            other => panic!("expected UnsupportedGate, got {other:?}"),
        }
    }

    #[test]
    fn error_on_undefined_net() {
        let text = "INPUT(a)\nOUTPUT(b)\nb = NOT(ghost)\n";
        assert!(matches!(
            parse("t", text),
            Err(NetlistError::UndefinedName { .. })
        ));
    }

    #[test]
    fn error_on_malformed_line() {
        assert!(matches!(
            parse("t", "INPUT(a)\nwat\n"),
            Err(NetlistError::Parse { line: 2, .. })
        ));
        assert!(matches!(
            parse("t", "x = NAND(a, b"),
            Err(NetlistError::Parse { line: 1, .. })
        ));
        assert!(parse("t", "x = (a)").is_err());
    }

    #[test]
    fn parse_errors_carry_line_and_column() {
        match parse("t", "") {
            Err(NetlistError::Parse {
                line: 1, col: 1, ..
            }) => {}
            other => panic!("expected empty-netlist error, got {other:?}"),
        }
        match parse("t", "INPUT(a)\nx = NAND(a, b") {
            Err(NetlistError::Parse { line: 2, col, .. }) => assert!(col > 1, "col {col}"),
            other => panic!("expected Parse, got {other:?}"),
        }
        match parse("t", "INPUT(a)\n   wat") {
            Err(NetlistError::Parse {
                line: 2, col: 4, ..
            }) => {}
            other => panic!("expected Parse at col 4, got {other:?}"),
        }
    }

    #[test]
    fn eco_overlays_round_trip() {
        let mut c = parse("c17", C17).unwrap();
        let Some(Signal::Gate(g10)) = c.find("10") else {
            panic!("gate 10 exists")
        };
        let Some(Signal::Gate(g22)) = c.find("22") else {
            panic!("gate 22 exists")
        };
        c.set_drive(g10, 1.75).unwrap();
        c.set_pad(g22, 3.25e-12).unwrap();
        let text = write(&c);
        assert!(text.contains("# statim drive 10 1.75"));
        assert!(text.contains("# statim pad 22 0.00000000000325"));
        let c2 = parse("c17", &text).unwrap();
        assert_eq!(c2.gate(g10).drive, 1.75);
        assert_eq!(c2.gate(g22).pad, 3.25e-12);
        // Full byte-exact round trip, overlays included.
        assert_eq!(write(&c2), text);
        // Unedited circuits never grow directives.
        assert!(!write(&parse("c17", C17).unwrap()).contains("statim"));
    }

    #[test]
    fn malformed_directives_fail_typed() {
        let base = "INPUT(a)\nOUTPUT(b)\nb = NOT(a)\n";
        for (extra, want_line) in [
            ("# statim boost b 2.0\n", 4),
            ("# statim drive b\n", 4),
            ("# statim drive b two\n", 4),
            ("# statim drive b 2.0 junk\n", 4),
            ("# statim drive b -1.0\n", 4),
            ("# statim pad b -1e-12\n", 4),
            ("# statim drive a 2.0\n", 4),
        ] {
            let text = format!("{base}{extra}");
            match parse("t", &text) {
                Err(NetlistError::Parse { line, .. }) => assert_eq!(line, want_line, "{extra}"),
                other => panic!("`{extra}` should fail as Parse, got {other:?}"),
            }
        }
        assert!(matches!(
            parse("t", &format!("{base}# statim drive ghost 2.0\n")),
            Err(NetlistError::UndefinedName { .. })
        ));
    }

    const S_TINY: &str = "\
# tiny sequential loop
INPUT(a)
OUTPUT(z)
r0 = DFF(n1)
n1 = NAND(a, r0)
z = NOT(r0)
# statim clock period 1e-09
# statim constraint setup 2e-11
";

    #[test]
    fn parses_sequential_bench() {
        let c = parse("stiny", S_TINY).unwrap();
        assert!(c.is_sequential());
        assert_eq!(c.registers().len(), 1);
        assert_eq!(c.true_input_count(), 1);
        assert_eq!(c.input_count(), 2);
        assert_eq!(c.gate_count(), 2);
        let r = &c.registers()[0];
        assert_eq!(r.name, "r0");
        assert_eq!(r.line, 4);
        assert_eq!(r.d, c.find("n1"));
        assert_eq!(c.seq_spec().period, Some(1e-9));
        assert_eq!(c.seq_spec().setup_margin, 2e-11);
        assert_eq!(c.seq_spec().hold_margin, 0.0);
    }

    #[test]
    fn sequential_round_trips_structurally() {
        let c = parse("stiny", S_TINY).unwrap();
        let text = write(&c);
        assert!(text.contains("r0 = DFF(n1)"));
        assert!(text.contains("# statim clock period 0.000000001"));
        assert!(text.contains("# statim constraint setup 0.00000000002"));
        assert!(!text.contains("INPUT(r0)"));
        let c2 = parse("stiny", &text).unwrap();
        assert_eq!(c, c2);
        // And the second serialization is byte-stable.
        assert_eq!(write(&c2), text);
    }

    #[test]
    fn dff_feedback_through_gates_resolves() {
        // D driver defined after the DFF, reading the DFF's own Q: the
        // loop is cut at the register, so this must parse.
        let text = "\
INPUT(x)
OUTPUT(q)
q = DFF(d)
d = XOR(x, q)
";
        let c = parse("fb", text).unwrap();
        assert_eq!(c.registers().len(), 1);
        assert_eq!(c.registers()[0].d, c.find("d"));
    }

    #[test]
    fn dff_errors_are_typed() {
        // Wrong arity.
        match parse("t", "INPUT(a)\nq = DFF(a, a)\n") {
            Err(NetlistError::Parse { line: 2, .. }) => {}
            other => panic!("expected Parse for 2-input DFF, got {other:?}"),
        }
        // Undefined D net.
        assert!(matches!(
            parse("t", "INPUT(a)\nOUTPUT(q)\nq = DFF(ghost)\n"),
            Err(NetlistError::UndefinedName { .. })
        ));
        // Duplicate Q name.
        assert!(matches!(
            parse("t", "INPUT(a)\na = DFF(a)\n"),
            Err(NetlistError::DuplicateName { .. })
        ));
    }

    #[test]
    fn malformed_clock_directives_fail_typed() {
        let base = "INPUT(a)\nOUTPUT(q)\nq = DFF(n)\nn = NOT(a)\n";
        for extra in [
            "# statim clock\n",
            "# statim clock period\n",
            "# statim clock period fast\n",
            "# statim clock period 1e-9 junk\n",
            "# statim clock period -1e-9\n",
            "# statim clock period 0\n",
            "# statim clock jitter 1e-12\n",
            "# statim clock depth 0\n",
            "# statim clock depth 99\n",
            "# statim constraint\n",
            "# statim constraint setup\n",
            "# statim constraint setup tight\n",
            "# statim constraint slew 1e-12\n",
            "# statim constraint hold -1e-12\n",
        ] {
            let text = format!("{base}{extra}");
            match parse("t", &text) {
                Err(NetlistError::Parse { line: 5, .. }) => {}
                other => panic!("`{extra}` should fail as Parse at line 5, got {other:?}"),
            }
        }
    }

    #[test]
    fn supports_all_library_gates() {
        let text = "\
INPUT(a)
INPUT(b)
OUTPUT(z)
c = AND(a, b)
d = OR(a, c)
e = XOR(c, d)
f = XNOR(d, e)
g = NOR(e, f)
h = BUFF(g)
z = NOT(h)
";
        let c = parse("all", text).unwrap();
        assert_eq!(c.gate_count(), 7);
        let text2 = write(&c);
        assert!(text2.contains("XNOR"));
        assert!(text2.contains("BUFF"));
        assert_eq!(parse("all2", &text2).unwrap().gate_count(), 7);
    }
}
