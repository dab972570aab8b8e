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
//! Declarations may appear in any order: the reader scans the file once,
//! orders the gate definitions by their dependencies in one walk (see
//! [`parse`]), and maps each function name through
//! [`GateKind::from_bench`], so any circuit in the supported gate library
//! round-trips. Gates are emitted in topological order by the writer.
//! Every error names its line and column.
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
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;

/// Parses `.bench` text into a [`Circuit`].
///
/// Definitions may come in any order. Gates are added in the order a
/// fixpoint resolver would add them, sweeping the file until every
/// definition resolves, so gate ids follow the file where it allows:
/// each definition lands in the pass after any argument defined later in
/// the file, and in the same pass as one defined earlier. Pass numbers
/// come from one depth-first walk over the definitions, so parsing takes
/// the same time in any definition order.
///
/// # Errors
///
/// Returns a [`NetlistError::Parse`] at the offending line and column
/// for malformed lines, functions outside the delay model's library, a
/// name defined twice (at the second definition), a reference to a net
/// that is never defined (at the reference) and a combinational cycle (at
/// the reference that closes it).
pub fn parse(name: &str, text: &str) -> Result<Circuit> {
    let netlist = Netlist::scan(text)?;
    let order = netlist.order()?;
    netlist.build(name, &order)
}

/// A source line, for error locations.
#[derive(Clone, Copy)]
struct Line<'a> {
    no: usize,
    raw: &'a str,
}

impl Line<'_> {
    /// A parse error at `token`, a slice of this line.
    fn error(&self, token: &str, message: String) -> NetlistError {
        NetlistError::Parse {
            line: self.no,
            col: crate::col_in(self.raw, token),
            message,
        }
    }

    fn undefined(&self, net: &str) -> NetlistError {
        self.error(net, format!("undefined name `{net}`"))
    }
}

/// Where a net is defined: its line, and the index of the gate
/// definition that drives it (none for a primary input or register Q).
#[derive(Clone, Copy)]
struct Net {
    line: usize,
    gate: Option<usize>,
}

/// A gate definition: `out = FUNC(args)`.
struct Def<'a> {
    line: Line<'a>,
    out: &'a str,
    kind: GateKind,
    args: Vec<&'a str>,
}

/// A `.bench` file's statements, in file order within each kind.
struct Netlist<'a> {
    inputs: Vec<&'a str>,
    outputs: Vec<(Line<'a>, &'a str)>,
    /// `Q = DFF(D)` cells: line, Q net, D net.
    dffs: Vec<(Line<'a>, &'a str, &'a str)>,
    defs: Vec<Def<'a>>,
    directives: Vec<Directive<'a>>,
    /// Every net, by where it is defined.
    nets: HashMap<&'a str, Net>,
}

impl<'a> Netlist<'a> {
    /// Reads the statements, refusing malformed lines, unknown functions
    /// and names defined twice.
    fn scan(text: &'a str) -> Result<Netlist<'a>> {
        let mut netlist = Netlist {
            inputs: Vec::new(),
            outputs: Vec::new(),
            dffs: Vec::new(),
            defs: Vec::new(),
            directives: Vec::new(),
            nets: HashMap::new(),
        };
        for (idx, raw) in text.lines().enumerate() {
            let at = Line { no: idx + 1, raw };
            // Statim directives live inside comments (so classic readers
            // skip them); intercept before the comment strip.
            if let Some(directive) = raw.trim().strip_prefix("# statim ") {
                netlist
                    .directives
                    .push(parse_directive(raw, at.no, directive)?);
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
                netlist.define(at, rest, None)?;
                netlist.inputs.push(rest);
            } else if let Some(rest) = strip_decl(line, "OUTPUT") {
                netlist.outputs.push((at, rest));
            } else if let Some(eq) = line.find('=') {
                let out = line[..eq].trim();
                let rhs = line[eq + 1..].trim();
                let open = rhs.find('(').ok_or_else(|| {
                    at.error(rhs, format!("expected FUNC(args) after `=`, got `{rhs}`"))
                })?;
                if !rhs.ends_with(')') {
                    let end = &rhs[rhs.len()..];
                    return Err(at.error(end, "missing closing parenthesis".into()));
                }
                let func = rhs[..open].trim();
                let args: Vec<&str> = rhs[open + 1..rhs.len() - 1]
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .collect();
                if out.is_empty() || func.is_empty() || args.is_empty() {
                    let message = "empty net name, function or argument list";
                    return Err(at.error(line, message.into()));
                }
                if func == "DFF" {
                    if args.len() != 1 {
                        let message =
                            format!("DFF takes exactly one D argument, got {}", args.len());
                        return Err(at.error(rhs, message));
                    }
                    netlist.define(at, out, None)?;
                    netlist.dffs.push((at, out, args[0]));
                } else {
                    let kind = GateKind::from_bench(func, args.len()).ok_or_else(|| {
                        at.error(func, format!("unsupported gate {func}/{}", args.len()))
                    })?;
                    netlist.define(at, out, Some(netlist.defs.len()))?;
                    netlist.defs.push(Def {
                        line: at,
                        out,
                        kind,
                        args,
                    });
                }
            } else {
                return Err(at.error(line, format!("unrecognized line `{line}`")));
            }
        }
        if netlist.inputs.is_empty() && netlist.defs.is_empty() && netlist.dffs.is_empty() {
            return Err(NetlistError::Parse {
                line: 1,
                col: 1,
                message: "empty netlist: no INPUT or gate definitions".into(),
            });
        }
        // A gate argument must name a net defined somewhere; the first
        // that does not, in file order, is the error.
        for def in &netlist.defs {
            if let Some(arg) = def.args.iter().find(|a| !netlist.nets.contains_key(*a)) {
                return Err(def.line.undefined(arg));
            }
        }
        Ok(netlist)
    }

    /// Records `net` as defined at `at`, driven by the gate definition
    /// `gate`, refusing a second definition.
    fn define(&mut self, at: Line<'a>, net: &'a str, gate: Option<usize>) -> Result<()> {
        match self.nets.entry(net) {
            Entry::Occupied(first) => {
                let first = first.get().line;
                let message = format!("duplicate name `{net}` (first defined on line {first})");
                Err(at.error(net, message))
            }
            Entry::Vacant(slot) => {
                slot.insert(Net { line: at.no, gate });
                Ok(())
            }
        }
    }

    /// The gate definitions in the order the circuit adds them: by pass,
    /// then by file position. A definition's pass is the largest of its
    /// gate arguments' passes, plus one for an argument defined later in
    /// the file, and at least 1. A depth-first walk settles every
    /// argument before its reader and meets a cycle as an argument still
    /// on its stack.
    fn order(&self) -> Result<Vec<usize>> {
        // `pass[i]`: 0 before the walk reaches definition i, OPEN while
        // it is on the stack.
        const OPEN: u32 = u32::MAX;
        let n = self.defs.len();
        let mut pass = vec![0u32; n];
        let gate_args = |i: usize| {
            self.defs[i]
                .args
                .iter()
                .filter_map(|&a| Some((a, self.nets.get(a)?.gate?)))
        };
        let mut stack = Vec::new();
        for root in 0..n {
            if pass[root] != 0 {
                continue;
            }
            pass[root] = OPEN;
            stack.push((root, gate_args(root)));
            while let Some((i, args)) = stack.last_mut() {
                let i = *i;
                match args.next() {
                    Some((a, j)) if pass[j] == OPEN => {
                        let line = self.nets[a].line;
                        let message =
                            format!("combinational cycle through `{a}` (defined on line {line})");
                        return Err(self.defs[i].line.error(a, message));
                    }
                    Some((_, j)) if pass[j] == 0 => {
                        pass[j] = OPEN;
                        stack.push((j, gate_args(j)));
                    }
                    Some(_) => {}
                    None => {
                        let later = |(_, j): (&str, usize)| pass[j] + u32::from(j > i);
                        pass[i] = gate_args(i).map(later).max().unwrap_or(1).max(1);
                        stack.pop();
                    }
                }
            }
        }
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_unstable_by_key(|&i| (pass[i], i));
        Ok(order)
    }

    /// Builds the circuit: primary inputs, then register Qs
    /// (pseudo-inputs), then the gates in `order`. Register D pins connect
    /// last — `.bench` sequential feedback means a D driver may be
    /// defined anywhere — then outputs and directives.
    fn build(&self, name: &str, order: &[usize]) -> Result<Circuit> {
        let mut circuit = Circuit::new(name);
        for pi in &self.inputs {
            circuit.add_input(*pi)?;
        }
        for (at, q, _) in &self.dffs {
            circuit.add_register(*q, at.no)?;
        }
        for &i in order {
            let def = &self.defs[i];
            let sigs = def
                .args
                .iter()
                .map(|a| circuit.find(a).ok_or_else(|| def.line.undefined(a)))
                .collect::<Result<Vec<Signal>>>()?;
            circuit.add_gate(def.out, def.kind, &sigs)?;
        }
        for (index, (at, _, d)) in self.dffs.iter().enumerate() {
            let s = circuit.find(d).ok_or_else(|| at.undefined(d))?;
            circuit
                .connect_register_d(index, s)
                .map_err(|e| at.error(d, e.to_string()))?;
        }
        for (at, po) in &self.outputs {
            let s = circuit.find(po).ok_or_else(|| at.undefined(po))?;
            circuit.mark_output(*po, s)?;
        }
        for d in &self.directives {
            apply_directive(&mut circuit, d)?;
        }
        Ok(circuit)
    }
}

/// A parsed `# statim ...` directive.
enum Directive<'a> {
    Drive {
        line: usize,
        /// The column of `net`.
        col: usize,
        net: &'a str,
        value: f64,
    },
    Pad {
        line: usize,
        col: usize,
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

fn apply_directive(circuit: &mut Circuit, d: &Directive<'_>) -> Result<()> {
    let as_parse = |line: usize| {
        move |e: NetlistError| NetlistError::Parse {
            line,
            col: 1,
            message: e.to_string(),
        }
    };
    let overlay_gate = |circuit: &Circuit, line: usize, col: usize, net: &str| {
        let message = match circuit.find(net) {
            Some(Signal::Gate(id)) => return Ok(id),
            Some(Signal::Input(_)) => {
                format!("statim directive targets primary input `{net}`, not a gate")
            }
            None => format!("undefined name `{net}`"),
        };
        Err(NetlistError::Parse { line, col, message })
    };
    match *d {
        Directive::Drive {
            line,
            col,
            net,
            value,
        } => {
            let id = overlay_gate(circuit, line, col, net)?;
            circuit.set_drive(id, value).map_err(as_parse(line))
        }
        Directive::Pad {
            line,
            col,
            net,
            value,
        } => {
            let id = overlay_gate(circuit, line, col, net)?;
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
            let col = crate::col_in(raw, net);
            if verb == "drive" {
                Directive::Drive {
                    line,
                    col,
                    net,
                    value,
                }
            } else {
                Directive::Pad {
                    line,
                    col,
                    net,
                    value,
                }
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

    /// `text`'s parse error as `(line, col, message)`.
    fn parse_error(text: &str) -> (usize, usize, String) {
        match parse("t", text) {
            Err(NetlistError::Parse { line, col, message }) => (line, col, message),
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn error_on_unknown_function() {
        let text = "INPUT(a)\nOUTPUT(b)\nb = MAJ(a, a, a)\n";
        let (line, col, message) = parse_error(text);
        assert_eq!((line, col), (3, 5));
        assert_eq!(message, "unsupported gate MAJ/3");
    }

    #[test]
    fn error_on_undefined_net() {
        let text = "INPUT(a)\nOUTPUT(b)\nb = NOT(ghost)\n";
        let (line, col, message) = parse_error(text);
        assert_eq!((line, col), (3, 9));
        assert_eq!(message, "undefined name `ghost`");
    }

    /// Every name-resolution error points at the reference, or at the
    /// second definition.
    #[test]
    fn name_errors_carry_line_and_column() {
        for (text, at, fragment) in [
            // A gate argument, the first undefined one in file order.
            ("INPUT(a)\nx = NOT(b)\ny = NAND(a, ghost)\n", (2, 9), "`b`"),
            // A DFF D pin, an output, a directive target.
            ("INPUT(a)\nq = DFF(ghost)\n", (2, 9), "`ghost`"),
            ("INPUT(a)\nx = NOT(a)\nOUTPUT(ghost)\n", (3, 8), "`ghost`"),
            (
                "INPUT(a)\nx = NOT(a)\n# statim pad  ghost 1e-12\n",
                (3, 15),
                "`ghost`",
            ),
            // Names defined twice, in each namespace pairing.
            ("INPUT(a)\nINPUT(a)\n", (2, 7), "first defined on line 1"),
            (
                "INPUT(a)\nx = NOT(a)\n  x = NOT(a)\n",
                (3, 3),
                "first defined on line 2",
            ),
            (
                "INPUT(a)\nq = DFF(a)\nq = NOT(a)\n",
                (3, 1),
                "duplicate name `q`",
            ),
            // Cycles, through two gates and through one.
            (
                "INPUT(a)\nx = NAND(a, y)\ny = NOT(x)\n",
                (3, 9),
                "cycle through `x`",
            ),
            ("INPUT(a)\nx = NAND(a, x)\n", (2, 13), "(defined on line 2)"),
        ] {
            let (line, col, message) = parse_error(text);
            assert_eq!((line, col), at, "{text:?}: {message}");
            assert!(message.contains(fragment), "{text:?}: {message}");
        }
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
        let (line, col, message) = parse_error(&format!("{base}# statim drive ghost 2.0\n"));
        assert_eq!((line, col), (4, 16));
        assert_eq!(message, "undefined name `ghost`");
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
        let (line, col, message) = parse_error("INPUT(a)\nOUTPUT(q)\nq = DFF(ghost)\n");
        assert_eq!((line, col), (3, 9));
        assert_eq!(message, "undefined name `ghost`");
        // Duplicate Q name.
        let (line, col, message) = parse_error("INPUT(a)\na = DFF(a)\n");
        assert_eq!((line, col), (2, 1));
        assert!(message.starts_with("duplicate name `a`"), "{message}");
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

    /// The resolver `parse` used before pass numbers: sweep the pending
    /// definitions in file order, adding each whose arguments all
    /// resolve, until none is left. Quadratic when definitions come in
    /// reverse, but the order it adds gates in is what `parse` keeps.
    fn fixpoint_order(netlist: &Netlist<'_>) -> Vec<usize> {
        let mut known: std::collections::HashSet<&str> = netlist.inputs.iter().copied().collect();
        known.extend(netlist.dffs.iter().map(|&(_, q, _)| q));
        let mut pending: Vec<usize> = (0..netlist.defs.len()).collect();
        let mut order = Vec::new();
        while !pending.is_empty() {
            let before = pending.len();
            pending.retain(|&i| {
                let def = &netlist.defs[i];
                let ready = def.args.iter().all(|a| known.contains(a));
                if ready {
                    known.insert(def.out);
                    order.push(i);
                }
                !ready
            });
            assert!(pending.len() < before, "a pass resolved nothing");
        }
        order
    }

    /// `text` with its definition lines (gates and DFFs) shuffled among
    /// their positions by a seeded xorshift.
    fn shuffle_definitions(text: &str, mut seed: u64) -> String {
        let mut lines: Vec<&str> = text.lines().collect();
        let at: Vec<usize> = (0..lines.len())
            .filter(|&i| lines[i].contains(" = "))
            .collect();
        let mut defs: Vec<&str> = at.iter().map(|&i| lines[i]).collect();
        for k in (1..defs.len()).rev() {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            defs.swap(k, (seed % (k as u64 + 1)) as usize);
        }
        for (&i, def) in at.iter().zip(defs) {
            lines[i] = def;
        }
        lines.join("\n")
    }

    #[test]
    fn pass_order_matches_the_fixpoint_resolver_on_shuffled_builtins() {
        use crate::generators::{iscas85, sequential};
        let mut circuits: Vec<Circuit> = iscas85::Benchmark::ALL
            .iter()
            .map(|&b| iscas85::generate(b))
            .collect();
        circuits.push(sequential::s27());
        for (stages, width) in [(2, 8), (4, 16), (8, 32)] {
            circuits.push(sequential::pipeline(stages, width).unwrap());
        }
        for circuit in &circuits {
            let text = write(circuit);
            for seed in [0x9e37_79b9_7f4a_7c15, 7, 2026] {
                let shuffled = shuffle_definitions(&text, seed);
                let netlist = Netlist::scan(&shuffled).unwrap();
                let want = netlist
                    .build(circuit.name(), &fixpoint_order(&netlist))
                    .unwrap();
                let got = parse(circuit.name(), &shuffled).unwrap();
                assert!(got == want, "{} seed {seed}", circuit.name());
            }
            // In file order every gate keeps its place.
            assert_eq!(write(&parse(circuit.name(), &text).unwrap()), text);
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
