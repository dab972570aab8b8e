//! Circuit netlists: combinational gates plus optional D flip-flops.
//!
//! A [`Circuit`] is a directed acyclic graph of gates over named primary
//! inputs and outputs — the object the methodology maps to a timing graph.
//! Construction is incremental through [`Circuit::add_input`] /
//! [`Circuit::add_gate`] / [`Circuit::mark_output`]; structural validity
//! (arity, dangling references, acyclicity by construction) is enforced as
//! the circuit is built.
//!
//! Sequential circuits add [`Register`]s (edge-triggered DFFs): each
//! register's Q output is modeled as a pseudo primary input appended after
//! the true inputs, so the combinational core stays a DAG — feedback loops
//! are cut at the registers. The [`SequentialSpec`] carries the clock
//! period, clock-tree depth, and setup/hold margins parsed from
//! `# statim clock` / `# statim constraint` directives.

use crate::error::NetlistError;
use crate::Result;
use statim_process::GateKind;
use std::collections::HashMap;
use std::sync::Arc;

/// Identifier of a gate within its circuit (dense index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GateId(pub u32);

impl GateId {
    /// The dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The driver of a signal: a primary input or a gate output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Signal {
    /// Primary input by index.
    Input(u32),
    /// Output of a gate.
    Gate(GateId),
}

/// A gate instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// Instance name (unique within the circuit).
    pub name: String,
    /// Gate type with fan-in.
    pub kind: GateKind,
    /// Input connections, length = `kind.fan_in()`.
    pub inputs: Vec<Signal>,
    /// Drive-strength multiplier from an ECO resize (1.0 = nominal).
    /// Both current-factor coefficients of the delay model scale by
    /// `1/drive`, so a 2x-sized gate is twice as fast at equal load.
    pub drive: f64,
    /// Delay pad in seconds from an ECO retime (0.0 = none), added to
    /// the gate's nominal propagation delay.
    pub pad: f64,
}

/// An edge-triggered D flip-flop.
///
/// The register's Q output is a pseudo primary input (index `q_input`
/// into the circuit's input list); its D pin samples `d` on each clock
/// edge. Registers are ideal (zero clock-to-Q delay) — the launch clock
/// arrival *is* the data departure time.
#[derive(Debug, Clone)]
pub struct Register {
    /// Instance name — also the name of the Q net.
    pub name: String,
    /// Driver of the D pin. `None` until connected (parsers connect D
    /// after all gates resolve, since `.bench` allows forward references).
    pub d: Option<Signal>,
    /// Index of the Q pseudo-input in the circuit's input list.
    pub q_input: u32,
    /// Source line of the defining `DFF(...)` cell (diagnostics only;
    /// two circuits that differ only in register source lines compare
    /// equal, so `parse(write(c)) == c` holds).
    pub line: usize,
}

impl PartialEq for Register {
    fn eq(&self, other: &Self) -> bool {
        // `line` is a diagnostic annotation, not structure.
        self.name == other.name && self.d == other.d && self.q_input == other.q_input
    }
}

/// Clock and timing-check constraints for a sequential circuit, carried
/// by `# statim clock` / `# statim constraint` directives in `.bench`.
#[derive(Debug, Clone, PartialEq)]
pub struct SequentialSpec {
    /// Clock period in seconds (`# statim clock period`). `None` means
    /// the analysis must be given a period (or solve for one).
    pub period: Option<f64>,
    /// Clock-tree depth override (`# statim clock depth`). `None` lets
    /// the analysis size a balanced tree to the register count.
    pub tree_depth: Option<usize>,
    /// Setup margin in seconds (`# statim constraint setup`).
    pub setup_margin: f64,
    /// Hold margin in seconds (`# statim constraint hold`).
    pub hold_margin: f64,
}

impl Default for SequentialSpec {
    fn default() -> Self {
        SequentialSpec {
            period: None,
            tree_depth: None,
            setup_margin: 0.0,
            hold_margin: 0.0,
        }
    }
}

/// A netlist: combinational gates plus optional registers.
///
/// Gates are stored in insertion order, which is guaranteed topological:
/// a gate may only reference inputs and previously added gates, so the
/// graph is acyclic by construction. Register Q outputs are pseudo
/// primary inputs appended *after* all true inputs (enforced by
/// [`Circuit::add_input`]), which keeps the input order canonical so
/// serialization round-trips structurally.
///
/// The name index and the input and output lists sit behind `Arc`s: no
/// ECO edit changes them, so a clone of a built circuit (what an edit
/// starts from) copies only its gates.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Circuit {
    name: String,
    input_names: Arc<Vec<String>>,
    gates: Vec<Gate>,
    outputs: Arc<Vec<(String, Signal)>>,
    names: Arc<HashMap<String, Signal>>,
    registers: Vec<Register>,
    seq: SequentialSpec,
}

impl Circuit {
    /// Creates an empty circuit.
    pub fn new(name: impl Into<String>) -> Self {
        Circuit {
            name: name.into(),
            ..Circuit::default()
        }
    }

    /// Circuit name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a primary input; returns its signal.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] if the name is taken and
    /// [`NetlistError::InvalidConfig`] once any register exists — Q
    /// pseudo-inputs must stay contiguous at the tail of the input list
    /// so the input order is canonical.
    pub fn add_input(&mut self, name: impl Into<String>) -> Result<Signal> {
        let name = name.into();
        if !self.registers.is_empty() {
            return Err(NetlistError::InvalidConfig {
                message: format!(
                    "cannot add primary input `{name}` after registers: \
                     true inputs must precede all register Q pseudo-inputs"
                ),
            });
        }
        if self.names.contains_key(&name) {
            return Err(NetlistError::DuplicateName { name });
        }
        let sig = Signal::Input(self.input_names.len() as u32);
        Arc::make_mut(&mut self.names).insert(name.clone(), sig);
        Arc::make_mut(&mut self.input_names).push(name);
        Ok(sig)
    }

    /// Adds a D flip-flop named `name` (also its Q net name) defined at
    /// source `line`; returns the Q pseudo-input signal. The D pin starts
    /// unconnected — call [`Circuit::connect_register_d`] once the driver
    /// exists (possibly after gates that themselves read this Q).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] if the name is taken.
    pub fn add_register(&mut self, name: impl Into<String>, line: usize) -> Result<Signal> {
        let name = name.into();
        if self.names.contains_key(&name) {
            return Err(NetlistError::DuplicateName { name });
        }
        let q_input = self.input_names.len() as u32;
        let sig = Signal::Input(q_input);
        Arc::make_mut(&mut self.names).insert(name.clone(), sig);
        Arc::make_mut(&mut self.input_names).push(name.clone());
        self.registers.push(Register {
            name,
            d: None,
            q_input,
            line,
        });
        Ok(sig)
    }

    /// Connects register `index`'s D pin to `driver`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InvalidConfig`] for an out-of-range index
    /// or an already-connected D pin, and
    /// [`NetlistError::DanglingSignal`] if the driver does not exist.
    pub fn connect_register_d(&mut self, index: usize, driver: Signal) -> Result<()> {
        let count = self.registers.len();
        let reg = self
            .registers
            .get_mut(index)
            .ok_or_else(|| NetlistError::InvalidConfig {
                message: format!("register index {index} out of range ({count} registers)"),
            })?;
        if reg.d.is_some() {
            return Err(NetlistError::InvalidConfig {
                message: format!("register `{}` D pin is already connected", reg.name),
            });
        }
        let name = reg.name.clone();
        if !self.signal_exists(driver) {
            return Err(NetlistError::DanglingSignal { gate: name });
        }
        self.registers[index].d = Some(driver);
        Ok(())
    }

    /// All registers in definition order.
    pub fn registers(&self) -> &[Register] {
        &self.registers
    }

    /// True when the circuit contains at least one register.
    pub fn is_sequential(&self) -> bool {
        !self.registers.is_empty()
    }

    /// Number of *true* primary inputs (excluding register Q
    /// pseudo-inputs, which sit at the tail of the input list).
    pub fn true_input_count(&self) -> usize {
        self.input_names.len() - self.registers.len()
    }

    /// Names of the true primary inputs (excluding register Qs).
    pub fn true_input_names(&self) -> &[String] {
        &self.input_names[..self.true_input_count()]
    }

    /// Clock / constraint spec (defaults when no directives were given).
    pub fn seq_spec(&self) -> &SequentialSpec {
        &self.seq
    }

    /// Sets the clock period in seconds.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InvalidConfig`] for a non-finite or
    /// non-positive period.
    pub fn set_clock_period(&mut self, period: f64) -> Result<()> {
        if !period.is_finite() || period <= 0.0 {
            return Err(NetlistError::InvalidConfig {
                message: format!("clock period {period} must be finite and positive"),
            });
        }
        self.seq.period = Some(period);
        Ok(())
    }

    /// Sets the clock-tree depth override.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InvalidConfig`] for depth 0 or above 32.
    pub fn set_tree_depth(&mut self, depth: usize) -> Result<()> {
        if depth == 0 || depth > 32 {
            return Err(NetlistError::InvalidConfig {
                message: format!("clock tree depth {depth} must be in 1..=32"),
            });
        }
        self.seq.tree_depth = Some(depth);
        Ok(())
    }

    /// Sets the setup margin in seconds.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InvalidConfig`] for a non-finite or
    /// negative margin.
    pub fn set_setup_margin(&mut self, margin: f64) -> Result<()> {
        if !margin.is_finite() || margin < 0.0 {
            return Err(NetlistError::InvalidConfig {
                message: format!("setup margin {margin} must be finite and non-negative"),
            });
        }
        self.seq.setup_margin = margin;
        Ok(())
    }

    /// Sets the hold margin in seconds.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InvalidConfig`] for a non-finite or
    /// negative margin.
    pub fn set_hold_margin(&mut self, margin: f64) -> Result<()> {
        if !margin.is_finite() || margin < 0.0 {
            return Err(NetlistError::InvalidConfig {
                message: format!("hold margin {margin} must be finite and non-negative"),
            });
        }
        self.seq.hold_margin = margin;
        Ok(())
    }

    /// Adds a gate driven by `inputs`; returns its output signal.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::ArityMismatch`] if `inputs.len()` differs
    /// from the gate's fan-in, [`NetlistError::DuplicateName`] for a name
    /// clash, and [`NetlistError::DanglingSignal`] if an input refers to a
    /// gate or PI that does not exist yet (which also rules out cycles).
    pub fn add_gate(
        &mut self,
        name: impl Into<String>,
        kind: GateKind,
        inputs: &[Signal],
    ) -> Result<Signal> {
        let name = name.into();
        if self.names.contains_key(&name) {
            return Err(NetlistError::DuplicateName { name });
        }
        if inputs.len() != kind.fan_in() {
            return Err(NetlistError::ArityMismatch {
                gate: name,
                expected: kind.fan_in(),
                got: inputs.len(),
            });
        }
        for &s in inputs {
            if !self.signal_exists(s) {
                return Err(NetlistError::DanglingSignal { gate: name });
            }
        }
        let id = GateId(self.gates.len() as u32);
        let sig = Signal::Gate(id);
        Arc::make_mut(&mut self.names).insert(name.clone(), sig);
        self.gates.push(Gate {
            name,
            kind,
            inputs: inputs.to_vec(),
            drive: 1.0,
            pad: 0.0,
        });
        Ok(sig)
    }

    /// Marks `signal` as a primary output under `name`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DanglingSignal`] if the signal does not
    /// exist. Output names live in a separate namespace and may alias a
    /// gate name (as in `.bench`, where outputs are plain net names).
    pub fn mark_output(&mut self, name: impl Into<String>, signal: Signal) -> Result<()> {
        let name = name.into();
        if !self.signal_exists(signal) {
            return Err(NetlistError::DanglingSignal { gate: name });
        }
        Arc::make_mut(&mut self.outputs).push((name, signal));
        Ok(())
    }

    fn signal_exists(&self, s: Signal) -> bool {
        match s {
            Signal::Input(i) => (i as usize) < self.input_names.len(),
            Signal::Gate(g) => g.index() < self.gates.len(),
        }
    }

    /// Number of gates.
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Number of primary inputs.
    pub fn input_count(&self) -> usize {
        self.input_names.len()
    }

    /// Number of primary outputs.
    pub fn output_count(&self) -> usize {
        self.outputs.len()
    }

    /// Gate by id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range (ids are only minted by this
    /// circuit, so this indicates cross-circuit misuse). Use
    /// [`Circuit::try_gate`] when the id may come from another circuit.
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id.index()]
    }

    /// Gate by id, rejecting ids minted by a different circuit.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InvalidConfig`] naming the offending id
    /// when it is out of range for this circuit.
    pub fn try_gate(&self, id: GateId) -> Result<&Gate> {
        self.gates
            .get(id.index())
            .ok_or_else(|| NetlistError::InvalidConfig {
                message: format!(
                    "gate id {} out of range for circuit `{}` with {} gates",
                    id.index(),
                    self.name,
                    self.gates.len()
                ),
            })
    }

    /// Replaces a gate's type in place (an ECO swap). The new kind must
    /// have the same fan-in — a swap never rewires pins.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InvalidConfig`] for a foreign id and
    /// [`NetlistError::ArityMismatch`] when the fan-ins differ.
    pub fn set_gate_kind(&mut self, id: GateId, kind: GateKind) -> Result<()> {
        self.try_gate(id)?;
        let gate = &mut self.gates[id.index()];
        if kind.fan_in() != gate.inputs.len() {
            return Err(NetlistError::ArityMismatch {
                gate: gate.name.clone(),
                expected: kind.fan_in(),
                got: gate.inputs.len(),
            });
        }
        gate.kind = kind;
        Ok(())
    }

    /// Reconnects one input pin of a gate to a different driver (an ECO
    /// wire change). The driver must already exist and, when it is a
    /// gate, must precede the sink in topological order — the invariant
    /// that keeps the netlist acyclic by construction.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InvalidConfig`] for a foreign id, an
    /// out-of-range pin, or a driver at or after the sink in topological
    /// order; [`NetlistError::DanglingSignal`] for a driver that does
    /// not exist.
    pub fn rewire_input(&mut self, id: GateId, pin: usize, driver: Signal) -> Result<()> {
        self.try_gate(id)?;
        if !self.signal_exists(driver) {
            return Err(NetlistError::DanglingSignal {
                gate: self.gates[id.index()].name.clone(),
            });
        }
        let gate = &self.gates[id.index()];
        if pin >= gate.inputs.len() {
            return Err(NetlistError::InvalidConfig {
                message: format!(
                    "pin {pin} out of range for gate `{}` with {} inputs",
                    gate.name,
                    gate.inputs.len()
                ),
            });
        }
        if let Signal::Gate(src) = driver {
            if src.index() >= id.index() {
                return Err(NetlistError::InvalidConfig {
                    message: format!(
                        "driver `{}` does not precede sink `{}` in topological order \
                         (the edge could close a cycle)",
                        self.gates[src.index()].name,
                        gate.name
                    ),
                });
            }
        }
        self.gates[id.index()].inputs[pin] = driver;
        Ok(())
    }

    /// Sets a gate's drive-strength multiplier (an ECO resize).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InvalidConfig`] for a foreign id or a
    /// non-finite / non-positive drive.
    pub fn set_drive(&mut self, id: GateId, drive: f64) -> Result<()> {
        self.try_gate(id)?;
        if !drive.is_finite() || drive <= 0.0 {
            return Err(NetlistError::InvalidConfig {
                message: format!(
                    "drive {drive} for gate `{}` must be finite and positive",
                    self.gates[id.index()].name
                ),
            });
        }
        self.gates[id.index()].drive = drive;
        Ok(())
    }

    /// Sets a gate's retiming pad in seconds (an ECO retime).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InvalidConfig`] for a foreign id or a
    /// non-finite / negative pad.
    pub fn set_pad(&mut self, id: GateId, pad: f64) -> Result<()> {
        self.try_gate(id)?;
        if !pad.is_finite() || pad < 0.0 {
            return Err(NetlistError::InvalidConfig {
                message: format!(
                    "pad {pad} for gate `{}` must be finite and non-negative",
                    self.gates[id.index()].name
                ),
            });
        }
        self.gates[id.index()].pad = pad;
        Ok(())
    }

    /// All gates in topological (insertion) order.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Iterator of gate ids in topological order.
    pub fn gate_ids(&self) -> impl Iterator<Item = GateId> {
        (0..self.gates.len() as u32).map(GateId)
    }

    /// Primary input names.
    pub fn input_names(&self) -> &[String] {
        &self.input_names
    }

    /// Primary outputs as `(name, driver)` pairs.
    pub fn outputs(&self) -> &[(String, Signal)] {
        &self.outputs
    }

    /// Resolves a name to its signal (inputs and gate outputs).
    pub fn find(&self, name: &str) -> Option<Signal> {
        self.names.get(name).copied()
    }

    /// Name of the net driven by `signal`.
    ///
    /// # Panics
    ///
    /// Panics if the signal refers past this circuit's inputs or gates.
    /// Use [`Circuit::try_signal_name`] for signals of uncertain origin.
    pub fn signal_name(&self, signal: Signal) -> &str {
        match signal {
            Signal::Input(i) => &self.input_names[i as usize],
            Signal::Gate(g) => &self.gates[g.index()].name,
        }
    }

    /// Name of the net driven by `signal`, rejecting signals that do not
    /// exist in this circuit.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DanglingSignal`] naming the offending
    /// reference when the signal is out of range.
    pub fn try_signal_name(&self, signal: Signal) -> Result<&str> {
        let name = match signal {
            Signal::Input(i) => self.input_names.get(i as usize).map(String::as_str),
            Signal::Gate(g) => self.gates.get(g.index()).map(|g| g.name.as_str()),
        };
        name.ok_or_else(|| NetlistError::DanglingSignal {
            gate: match signal {
                Signal::Input(i) => format!("<input {i}>"),
                Signal::Gate(g) => format!("<gate {}>", g.index()),
            },
        })
    }

    /// Per-gate fan-out pin counts: how many gate input pins each gate
    /// output drives. Primary-output connections are *not* counted as
    /// pins (they contribute wire load only), matching the delay model's
    /// `Cn` definition.
    pub fn fanout_pins(&self) -> Vec<usize> {
        let mut pins = vec![0usize; self.gates.len()];
        for g in &self.gates {
            for &s in &g.inputs {
                if let Signal::Gate(src) = s {
                    pins[src.index()] += 1;
                }
            }
        }
        // Register D pins load their drivers like any other gate pin.
        for r in &self.registers {
            if let Some(Signal::Gate(src)) = r.d {
                pins[src.index()] += 1;
            }
        }
        pins
    }

    /// Ids of gates whose output drives no gate pin and is not a primary
    /// output (dead logic). A well-formed benchmark has none.
    pub fn dangling_gates(&self) -> Vec<GateId> {
        let pins = self.fanout_pins();
        let mut is_po = vec![false; self.gates.len()];
        for &(_, s) in self.outputs.iter() {
            if let Signal::Gate(g) = s {
                is_po[g.index()] = true;
            }
        }
        self.gate_ids()
            .filter(|g| pins[g.index()] == 0 && !is_po[g.index()])
            .collect()
    }

    /// Logic depth: the maximum number of gates on any input-to-output
    /// path.
    pub fn depth(&self) -> usize {
        let mut level = vec![0usize; self.gates.len()];
        let mut max = 0;
        for (i, g) in self.gates.iter().enumerate() {
            let l = 1 + g
                .inputs
                .iter()
                .map(|s| match s {
                    Signal::Input(_) => 0,
                    Signal::Gate(src) => level[src.index()],
                })
                .max()
                .unwrap_or(0);
            level[i] = l;
            max = max.max(l);
        }
        max
    }

    /// Per-gate level (longest gate count from any primary input,
    /// 1-based).
    pub fn levels(&self) -> Vec<usize> {
        let mut level = vec![0usize; self.gates.len()];
        for (i, g) in self.gates.iter().enumerate() {
            level[i] = 1 + g
                .inputs
                .iter()
                .map(|s| match s {
                    Signal::Input(_) => 0,
                    Signal::Gate(src) => level[src.index()],
                })
                .max()
                .unwrap_or(0);
        }
        level
    }

    /// Number of distinct input→output paths, saturating at `u128::MAX`.
    /// (c6288 famously has ~10²⁰ paths.)
    pub fn path_count(&self) -> u128 {
        let mut paths = vec![0u128; self.gates.len()];
        for (i, g) in self.gates.iter().enumerate() {
            let mut total: u128 = 0;
            for s in &g.inputs {
                let inc = match s {
                    Signal::Input(_) => 1,
                    Signal::Gate(src) => paths[src.index()],
                };
                total = total.saturating_add(inc);
            }
            paths[i] = total;
        }
        let mut out: u128 = 0;
        for &(_, s) in self.outputs.iter() {
            let inc = match s {
                Signal::Input(_) => 1,
                Signal::Gate(g) => paths[g.index()],
            };
            out = out.saturating_add(inc);
        }
        out
    }

    /// Histogram of gate kinds, as `(kind, count)` sorted by count
    /// descending.
    pub fn kind_histogram(&self) -> Vec<(GateKind, usize)> {
        let mut map: HashMap<GateKind, usize> = HashMap::new();
        for g in &self.gates {
            *map.entry(g.kind).or_insert(0) += 1;
        }
        let mut v: Vec<(GateKind, usize)> = map.into_iter().collect();
        v.sort_by(|a, b| {
            b.1.cmp(&a.1)
                .then_with(|| format!("{}", a.0).cmp(&format!("{}", b.0)))
        });
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Result<Circuit> {
        // a, b -> n1 = NAND(a,b); n2 = NOT(n1); PO = n2
        let mut c = Circuit::new("tiny");
        let a = c.add_input("a")?;
        let b = c.add_input("b")?;
        let n1 = c.add_gate("n1", GateKind::Nand(2), &[a, b])?;
        let n2 = c.add_gate("n2", GateKind::Inv, &[n1])?;
        c.mark_output("out", n2)?;
        Ok(c)
    }

    /// A clone shares the name index and the input and output lists
    /// with its original until one of them grows, and then copies them
    /// instead of changing the other's.
    #[test]
    fn clones_share_names_until_one_grows() -> Result<()> {
        let original = tiny()?;
        let mut edited = original.clone();
        assert!(Arc::ptr_eq(&original.names, &edited.names));
        assert!(Arc::ptr_eq(&original.input_names, &edited.input_names));
        assert!(Arc::ptr_eq(&original.outputs, &edited.outputs));
        edited.set_drive(GateId(0), 2.0)?;
        assert!(Arc::ptr_eq(&original.names, &edited.names));
        let c = edited.add_input("c")?;
        let n3 = edited.add_gate("n3", GateKind::Inv, &[c])?;
        edited.mark_output("out2", n3)?;
        assert_eq!(original.find("c"), None);
        assert_eq!(original.find("n3"), None);
        assert_eq!((original.input_count(), original.output_count()), (2, 1));
        assert_eq!(original.gate(GateId(0)).drive, 1.0);
        assert_eq!(original, tiny()?);
        Ok(())
    }

    #[test]
    fn build_and_query() -> Result<()> {
        let c = tiny()?;
        assert_eq!(c.gate_count(), 2);
        assert_eq!(c.input_count(), 2);
        assert_eq!(c.output_count(), 1);
        assert_eq!(c.depth(), 2);
        assert_eq!(c.path_count(), 2);
        let n1 = c
            .find("n1")
            .ok_or(NetlistError::UndefinedName { name: "n1".into() })?;
        assert_eq!(c.signal_name(n1), "n1");
        assert!(c.find("zzz").is_none());
        Ok(())
    }

    #[test]
    fn duplicate_names_rejected() -> Result<()> {
        let mut c = Circuit::new("t");
        let a = c.add_input("a")?;
        assert!(matches!(
            c.add_input("a"),
            Err(NetlistError::DuplicateName { .. })
        ));
        c.add_gate("g", GateKind::Inv, &[a])?;
        assert!(matches!(
            c.add_gate("g", GateKind::Inv, &[a]),
            Err(NetlistError::DuplicateName { .. })
        ));
        assert!(matches!(
            c.add_gate("a", GateKind::Inv, &[a]),
            Err(NetlistError::DuplicateName { .. })
        ));
        Ok(())
    }

    #[test]
    fn arity_checked() -> Result<()> {
        let mut c = Circuit::new("t");
        let a = c.add_input("a")?;
        assert!(matches!(
            c.add_gate("g", GateKind::Nand(2), &[a]),
            Err(NetlistError::ArityMismatch {
                expected: 2,
                got: 1,
                ..
            })
        ));
        Ok(())
    }

    #[test]
    fn dangling_signal_rejected() {
        let mut c = Circuit::new("t");
        let bogus = Signal::Gate(GateId(99));
        assert!(matches!(
            c.add_gate("g", GateKind::Inv, &[bogus]),
            Err(NetlistError::DanglingSignal { .. })
        ));
        assert!(c.mark_output("o", bogus).is_err());
    }

    #[test]
    fn try_accessors_reject_foreign_ids() -> Result<()> {
        let c = tiny()?;
        assert!(c.try_gate(GateId(0)).is_ok());
        assert!(matches!(
            c.try_gate(GateId(99)),
            Err(NetlistError::InvalidConfig { .. })
        ));
        assert_eq!(c.try_signal_name(Signal::Input(0))?, "a");
        assert!(matches!(
            c.try_signal_name(Signal::Gate(GateId(99))),
            Err(NetlistError::DanglingSignal { .. })
        ));
        assert!(c.try_signal_name(Signal::Input(17)).is_err());
        Ok(())
    }

    #[test]
    fn fanout_pins_counted() -> Result<()> {
        let mut c = Circuit::new("t");
        let a = c.add_input("a")?;
        let g1 = c.add_gate("g1", GateKind::Inv, &[a])?;
        let _g2 = c.add_gate("g2", GateKind::Inv, &[g1])?;
        let _g3 = c.add_gate("g3", GateKind::Nand(2), &[g1, a])?;
        let pins = c.fanout_pins();
        assert_eq!(pins[0], 2); // g1 feeds g2 and g3
        assert_eq!(pins[1], 0);
        assert_eq!(pins[2], 0);
        Ok(())
    }

    #[test]
    fn dangling_gates_found() -> Result<()> {
        let mut c = Circuit::new("t");
        let a = c.add_input("a")?;
        let g1 = c.add_gate("g1", GateKind::Inv, &[a])?;
        let g2 = c.add_gate("g2", GateKind::Inv, &[g1])?;
        let _dead = c.add_gate("dead", GateKind::Inv, &[g1])?;
        c.mark_output("o", g2)?;
        let d = c.dangling_gates();
        assert_eq!(d.len(), 1);
        assert_eq!(c.try_gate(d[0])?.name, "dead");
        Ok(())
    }

    #[test]
    fn levels_monotone_along_edges() -> Result<()> {
        let c = tiny()?;
        let lv = c.levels();
        assert_eq!(lv, vec![1, 2]);
        Ok(())
    }

    #[test]
    fn path_count_saturates() -> Result<()> {
        // A chain of 2-input gates where both inputs come from the
        // previous gate doubles the path count each level.
        let mut c = Circuit::new("exp");
        let a = c.add_input("a")?;
        let mut prev = c.add_gate("g0", GateKind::Nand(2), &[a, a])?;
        for i in 1..200 {
            prev = c.add_gate(format!("g{i}"), GateKind::Nand(2), &[prev, prev])?;
        }
        c.mark_output("o", prev)?;
        assert_eq!(c.path_count(), u128::MAX);
        Ok(())
    }

    #[test]
    fn kind_histogram_sorted() -> Result<()> {
        let c = tiny()?;
        let h = c.kind_histogram();
        assert_eq!(h.len(), 2);
        assert_eq!(h[0].1, 1);
        Ok(())
    }

    #[test]
    fn eco_mutators_enforce_invariants() -> Result<()> {
        let mut c = Circuit::new("t");
        let a = c.add_input("a")?;
        let b = c.add_input("b")?;
        let g1 = c.add_gate("g1", GateKind::Nand(2), &[a, b])?;
        let Signal::Gate(id1) = g1 else {
            unreachable!()
        };
        let g2 = c.add_gate("g2", GateKind::Inv, &[g1])?;
        let Signal::Gate(id2) = g2 else {
            unreachable!()
        };
        c.mark_output("o", g2)?;

        // Swap keeps arity; a fan-in change is rejected.
        c.set_gate_kind(id1, GateKind::Nor(2))?;
        assert_eq!(c.gate(id1).kind, GateKind::Nor(2));
        assert!(matches!(
            c.set_gate_kind(id1, GateKind::Inv),
            Err(NetlistError::ArityMismatch { .. })
        ));

        // Rewire honours pin bounds, existence, and topological order.
        c.rewire_input(id1, 1, a)?;
        assert_eq!(c.gate(id1).inputs[1], a);
        assert!(matches!(
            c.rewire_input(id1, 5, a),
            Err(NetlistError::InvalidConfig { .. })
        ));
        assert!(matches!(
            c.rewire_input(id1, 0, Signal::Gate(GateId(99))),
            Err(NetlistError::DanglingSignal { .. })
        ));
        // g2 -> g1 would point backwards (and could close a cycle).
        assert!(matches!(
            c.rewire_input(id1, 0, g2),
            Err(NetlistError::InvalidConfig { .. })
        ));
        // Self-loop is equally refused.
        assert!(matches!(
            c.rewire_input(id2, 0, g2),
            Err(NetlistError::InvalidConfig { .. })
        ));

        // Drive and pad validate their ranges.
        c.set_drive(id1, 2.0)?;
        assert_eq!(c.gate(id1).drive, 2.0);
        assert!(c.set_drive(id1, 0.0).is_err());
        assert!(c.set_drive(id1, f64::NAN).is_err());
        c.set_pad(id2, 1.5e-12)?;
        assert_eq!(c.gate(id2).pad, 1.5e-12);
        assert!(c.set_pad(id2, -1.0e-12).is_err());
        assert!(c.set_pad(id2, f64::INFINITY).is_err());
        Ok(())
    }

    #[test]
    fn registers_build_and_query() -> Result<()> {
        let mut c = Circuit::new("seq");
        let a = c.add_input("a")?;
        let q = c.add_register("r0", 3)?;
        let g = c.add_gate("g", GateKind::Nand(2), &[a, q])?;
        c.mark_output("o", g)?;
        c.connect_register_d(0, g)?;
        assert!(c.is_sequential());
        assert_eq!(c.input_count(), 2);
        assert_eq!(c.true_input_count(), 1);
        assert_eq!(c.true_input_names(), ["a".to_string()]);
        assert_eq!(c.registers().len(), 1);
        assert_eq!(c.registers()[0].d, Some(g));
        assert_eq!(c.registers()[0].line, 3);
        assert_eq!(c.signal_name(q), "r0");
        // Q behaves as an input for depth/level purposes (loop is cut).
        assert_eq!(c.depth(), 1);
        // The register D pin counts as fan-out load on its driver.
        assert_eq!(c.fanout_pins(), vec![1]);
        Ok(())
    }

    #[test]
    fn register_invariants_enforced() -> Result<()> {
        let mut c = Circuit::new("seq");
        let a = c.add_input("a")?;
        let _q = c.add_register("r0", 1)?;
        // True inputs may not follow registers (canonical input order).
        assert!(matches!(
            c.add_input("late"),
            Err(NetlistError::InvalidConfig { .. })
        ));
        // Duplicate names are rejected across inputs and registers.
        assert!(matches!(
            c.add_register("a", 2),
            Err(NetlistError::DuplicateName { .. })
        ));
        // D connection checks: range, existence, single connection.
        assert!(c.connect_register_d(7, a).is_err());
        assert!(matches!(
            c.connect_register_d(0, Signal::Gate(GateId(99))),
            Err(NetlistError::DanglingSignal { .. })
        ));
        c.connect_register_d(0, a)?;
        assert!(matches!(
            c.connect_register_d(0, a),
            Err(NetlistError::InvalidConfig { .. })
        ));
        Ok(())
    }

    #[test]
    fn sequential_spec_validates() -> Result<()> {
        let mut c = Circuit::new("seq");
        assert_eq!(c.seq_spec(), &SequentialSpec::default());
        c.set_clock_period(1e-9)?;
        c.set_tree_depth(4)?;
        c.set_setup_margin(20e-12)?;
        c.set_hold_margin(5e-12)?;
        assert_eq!(c.seq_spec().period, Some(1e-9));
        assert_eq!(c.seq_spec().tree_depth, Some(4));
        assert!(c.set_clock_period(0.0).is_err());
        assert!(c.set_clock_period(f64::NAN).is_err());
        assert!(c.set_tree_depth(0).is_err());
        assert!(c.set_tree_depth(33).is_err());
        assert!(c.set_setup_margin(-1e-12).is_err());
        assert!(c.set_hold_margin(f64::INFINITY).is_err());
        Ok(())
    }

    #[test]
    fn register_equality_ignores_line() -> Result<()> {
        let mut a = Circuit::new("s");
        let x = a.add_input("x")?;
        a.add_register("r", 5)?;
        a.connect_register_d(0, x)?;
        let mut b = Circuit::new("s");
        let x2 = b.add_input("x")?;
        b.add_register("r", 9)?;
        b.connect_register_d(0, x2)?;
        assert_eq!(a, b);
        Ok(())
    }

    #[test]
    fn output_may_alias_gate_name() -> Result<()> {
        let mut c = Circuit::new("t");
        let a = c.add_input("a")?;
        let g = c.add_gate("n", GateKind::Inv, &[a])?;
        // .bench outputs are net names, so this must be allowed.
        c.mark_output("n", g)?;
        assert_eq!(c.output_count(), 1);
        Ok(())
    }
}
