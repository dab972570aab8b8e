//! Incremental ECO re-analysis on the timing-graph IR.
//!
//! An engineering change order (ECO) edits a handful of gates; a full
//! re-run re-characterizes, re-labels and re-analyzes everything. This
//! module keeps a base analysis resident and, for each edit script,
//! recomputes only what the edit can reach:
//!
//! * **Edits** are typed [`EcoEdit`]s (resize, retime, swap, add-wire,
//!   remove-wire), parsed from a line-oriented script
//!   ([`EcoScript::parse`]) or the daemon's one-line compact form
//!   ([`EcoScript::parse_compact`]).
//! * **Dirty set** — the edited circuit is re-characterized (cheap,
//!   `O(gates)`) and the new [`GateTiming`]s are diffed *bitwise*
//!   against the base. This catches every indirect perturbation —
//!   fan-out load shifts on the old and new drivers of a rewired pin,
//!   and the mean-wirelength normalization that couples all placed
//!   gates through a wire edit — without modeling any of it.
//! * **Dirty cone** — the IR's [`TimingGraph::fanout_cone`] of the dirty
//!   and edited gates is the region the edit can reach. It is only a
//!   counter ([`IncrementalStats::cone_gates`]): reuse is decided per path.
//! * **Path reuse** — a near-critical path of the edited circuit whose
//!   gate sequence was analyzed in the base run *and* contains no dirty
//!   gate has a bit-identical [`PathAnalysis`] (path analysis is a pure
//!   function of gate sequence, timing bits, placement and settings).
//!   The edited circuit runs through the engine's own stages with a
//!   reuse oracle that hands back the retained result in place of the
//!   per-path kernel. Everything else recomputes against the still-warm
//!   [`KernelStore`] — whose exact-bits keys need no invalidation: stale
//!   entries can never be hit by new values. Budgets and fault plans
//!   behave as in a full run.
//!
//! The merged [`SstaReport`] is **byte-identical** to a from-scratch run
//! of the edited netlist at any thread count, cache state and backend —
//! the differential suite (`tests/incremental.rs`) and the ECO fuzz
//! property test hold the subsystem to that contract.

#![warn(clippy::unwrap_used)]

use crate::analyze::PathAnalysis;
use crate::cache::KernelStore;
use crate::characterize::characterize_placed;
use crate::engine::{Front, RetainedPaths, RunContext, SstaEngine, SstaReport, StageProfile};
use crate::graph::TimingGraph;
use crate::supervise::Supervisor;
use crate::{CoreError, Result};
use statim_netlist::{Circuit, GateId, Placement, Signal};
use statim_process::GateKind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One typed engineering change order.
#[derive(Debug, Clone, PartialEq)]
pub enum EcoEdit {
    /// Scale a gate's drive strength (`resize <gate> <drive>`).
    ResizeGate {
        /// Target gate name.
        gate: String,
        /// New drive-strength multiplier (finite, > 0).
        drive: f64,
    },
    /// Set a gate's retiming pad (`retime <gate> <seconds>`).
    RetimeGate {
        /// Target gate name.
        gate: String,
        /// New pad in seconds (finite, ≥ 0).
        pad: f64,
    },
    /// Replace a gate's type at equal fan-in (`swap <gate> <kind>`).
    SwapGateType {
        /// Target gate name.
        gate: String,
        /// Replacement kind (e.g. `nor2`, `xnor`, `inv`).
        kind: GateKind,
    },
    /// Reconnect one input pin to a different driver
    /// (`addwire <driver> <sink> <pin>`).
    AddWire {
        /// New driver (primary input or gate output, by name).
        driver: String,
        /// Sink gate name.
        sink: String,
        /// 0-based input pin of the sink.
        pin: usize,
    },
    /// Detach one input pin from its driver and park it on the first
    /// primary input — the spare-net analogue for a format in which
    /// every pin needs *some* driver (`rmwire <sink> <pin>`).
    RemoveWire {
        /// Sink gate name.
        sink: String,
        /// 0-based input pin of the sink.
        pin: usize,
    },
}

impl EcoEdit {
    /// Renders the edit in script form (one line, no newline).
    pub fn render(&self) -> String {
        match self {
            EcoEdit::ResizeGate { gate, drive } => format!("resize {gate} {drive}"),
            EcoEdit::RetimeGate { gate, pad } => format!("retime {gate} {pad:e}"),
            EcoEdit::SwapGateType { gate, kind } => {
                format!("swap {gate} {}", kind_name(*kind))
            }
            EcoEdit::AddWire { driver, sink, pin } => format!("addwire {driver} {sink} {pin}"),
            EcoEdit::RemoveWire { sink, pin } => format!("rmwire {sink} {pin}"),
        }
    }
}

/// The script spelling of a gate kind (`nand3`, `xor`, `inv`, ...).
fn kind_name(kind: GateKind) -> String {
    match kind {
        GateKind::Inv => "inv".into(),
        GateKind::Buf => "buf".into(),
        GateKind::Nand(n) => format!("nand{n}"),
        GateKind::Nor(n) => format!("nor{n}"),
        GateKind::And(n) => format!("and{n}"),
        GateKind::Or(n) => format!("or{n}"),
        GateKind::Xor2 => "xor".into(),
        GateKind::Xnor2 => "xnor".into(),
    }
}

/// Parses a script kind spec: a function name with an optional arity
/// suffix (`nand2`, `xor`, `not`).
fn parse_kind(spec: &str, line: usize) -> Result<GateKind> {
    let split = spec
        .char_indices()
        .find(|(_, c)| c.is_ascii_digit())
        .map_or(spec.len(), |(i, _)| i);
    let (func, digits) = spec.split_at(split);
    let arity = if digits.is_empty() {
        match func.to_ascii_lowercase().as_str() {
            "inv" | "not" | "buf" | "buff" => 1,
            "xor" | "xnor" => 2,
            _ => {
                return Err(CoreError::EcoParse {
                    line,
                    message: format!("gate kind `{spec}` needs an arity (e.g. `{spec}2`)"),
                })
            }
        }
    } else {
        digits.parse::<usize>().map_err(|_| CoreError::EcoParse {
            line,
            message: format!("invalid arity in gate kind `{spec}`"),
        })?
    };
    GateKind::from_bench(func, arity).ok_or_else(|| CoreError::EcoParse {
        line,
        message: format!("unknown gate kind `{spec}`"),
    })
}

/// A parsed edit script: each edit with the 1-based script line it came
/// from (the compact form numbers its `;`-chunks instead).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EcoScript {
    /// `(line, edit)` pairs in script order.
    pub edits: Vec<(usize, EcoEdit)>,
}

impl EcoScript {
    /// Parses the line-oriented script form. Blank lines and `#`
    /// comments are skipped; every other line is one edit:
    ///
    /// ```text
    /// resize <gate> <drive>        # drive-strength multiplier
    /// retime <gate> <seconds>      # insert a delay pad
    /// swap <gate> <kind>           # e.g. nor2, xnor, inv
    /// addwire <driver> <sink> <pin>
    /// rmwire <sink> <pin>
    /// ```
    ///
    /// # Errors
    ///
    /// [`CoreError::EcoParse`] with the offending 1-based line for an
    /// unknown verb, a wrong operand count, or an unparseable number.
    pub fn parse(text: &str) -> Result<EcoScript> {
        let mut edits = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = i + 1;
            let body = raw.split('#').next().unwrap_or("").trim();
            if body.is_empty() {
                continue;
            }
            edits.push((line, parse_edit(body, line)?));
        }
        Ok(EcoScript { edits })
    }

    /// Parses the daemon's one-line compact form: edits separated by
    /// `;`, fields by `:` (`resize:g1:2.0;swap:g2:nor2`). Errors report
    /// the 1-based *chunk* index as the line.
    ///
    /// # Errors
    ///
    /// As [`EcoScript::parse`].
    pub fn parse_compact(text: &str) -> Result<EcoScript> {
        let mut edits = Vec::new();
        for (i, chunk) in text.split(';').enumerate() {
            let line = i + 1;
            let body = chunk.trim();
            if body.is_empty() {
                continue;
            }
            let spaced = body.replace(':', " ");
            edits.push((line, parse_edit(&spaced, line)?));
        }
        Ok(EcoScript { edits })
    }

    /// Renders the script form (one edit per line, trailing newline).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (_, e) in &self.edits {
            out.push_str(&e.render());
            out.push('\n');
        }
        out
    }

    /// Renders the compact one-line form accepted by
    /// [`EcoScript::parse_compact`].
    pub fn render_compact(&self) -> String {
        self.edits
            .iter()
            .map(|(_, e)| e.render().replace(' ', ":"))
            .collect::<Vec<_>>()
            .join(";")
    }
}

fn parse_edit(body: &str, line: usize) -> Result<EcoEdit> {
    let fields: Vec<&str> = body.split_whitespace().collect();
    let expect = |n: usize| -> Result<()> {
        if fields.len() != n + 1 {
            return Err(CoreError::EcoParse {
                line,
                message: format!(
                    "`{}` takes {n} operand{}, got {}",
                    fields[0],
                    if n == 1 { "" } else { "s" },
                    fields.len() - 1
                ),
            });
        }
        Ok(())
    };
    let float = |what: &str, s: &str| -> Result<f64> {
        s.parse::<f64>().map_err(|_| CoreError::EcoParse {
            line,
            message: format!("invalid {what} `{s}`"),
        })
    };
    let int = |what: &str, s: &str| -> Result<usize> {
        s.parse::<usize>().map_err(|_| CoreError::EcoParse {
            line,
            message: format!("invalid {what} `{s}`"),
        })
    };
    match fields[0].to_ascii_lowercase().as_str() {
        "resize" => {
            expect(2)?;
            Ok(EcoEdit::ResizeGate {
                gate: fields[1].to_string(),
                drive: float("drive", fields[2])?,
            })
        }
        "retime" => {
            expect(2)?;
            Ok(EcoEdit::RetimeGate {
                gate: fields[1].to_string(),
                pad: float("pad", fields[2])?,
            })
        }
        "swap" => {
            expect(2)?;
            Ok(EcoEdit::SwapGateType {
                gate: fields[1].to_string(),
                kind: parse_kind(fields[2], line)?,
            })
        }
        "addwire" => {
            expect(3)?;
            Ok(EcoEdit::AddWire {
                driver: fields[1].to_string(),
                sink: fields[2].to_string(),
                pin: int("pin", fields[3])?,
            })
        }
        "rmwire" => {
            expect(2)?;
            Ok(EcoEdit::RemoveWire {
                sink: fields[1].to_string(),
                pin: int("pin", fields[2])?,
            })
        }
        verb => Err(CoreError::EcoParse {
            line,
            message: format!("unknown edit verb `{verb}`"),
        }),
    }
}

/// Applies a parsed script to a circuit in order. Returns the set of
/// directly edited gates (ascending, deduplicated) — indirect effects
/// (fan-out loads, wirelength normalization) are discovered by the
/// caller's timing diff, not tracked here.
///
/// # Errors
///
/// [`CoreError::EcoApply`] with the edit's script line for an unknown
/// name, an edit targeting a primary input, or a netlist-level rejection
/// (arity clash, dangling driver, cycle-closing wire, bad value). The
/// circuit is left partially edited on error; apply to a scratch clone.
pub fn apply_edits(circuit: &mut Circuit, script: &EcoScript) -> Result<Vec<GateId>> {
    // ECO edits rewire the combinational timing graph; on a sequential
    // netlist they could silently move logic across a register boundary
    // and change which launch/capture checks exist. Until the sequential
    // flow understands edits, refuse with a typed error.
    if let Some(first) = circuit.registers().first() {
        return Err(CoreError::InvalidConfig {
            message: format!(
                "circuit `{}` is sequential ({} registers; first `{}` at line {}): \
                 ECO edits are combinational-only — re-run the full sequential flow \
                 (`statim seq`) after editing the netlist",
                circuit.name(),
                circuit.registers().len(),
                first.name,
                first.line
            ),
        });
    }
    let mut touched = Vec::new();
    for (line, edit) in &script.edits {
        let line = *line;
        let apply = |r: statim_netlist::Result<()>| -> Result<()> {
            r.map_err(|e| CoreError::EcoApply {
                line,
                message: e.to_string(),
            })
        };
        let target = |circuit: &Circuit, name: &str| -> Result<GateId> {
            match circuit.find(name) {
                Some(Signal::Gate(g)) => Ok(g),
                Some(Signal::Input(_)) => Err(CoreError::EcoApply {
                    line,
                    message: format!("`{name}` is a primary input, not a gate"),
                }),
                None => Err(CoreError::EcoApply {
                    line,
                    message: format!("gate `{name}` not found"),
                }),
            }
        };
        let id = match edit {
            EcoEdit::ResizeGate { gate, drive } => {
                let id = target(circuit, gate)?;
                apply(circuit.set_drive(id, *drive))?;
                id
            }
            EcoEdit::RetimeGate { gate, pad } => {
                let id = target(circuit, gate)?;
                apply(circuit.set_pad(id, *pad))?;
                id
            }
            EcoEdit::SwapGateType { gate, kind } => {
                let id = target(circuit, gate)?;
                apply(circuit.set_gate_kind(id, *kind))?;
                id
            }
            EcoEdit::AddWire { driver, sink, pin } => {
                let id = target(circuit, sink)?;
                let src = circuit.find(driver).ok_or_else(|| CoreError::EcoApply {
                    line,
                    message: format!("driver `{driver}` not found"),
                })?;
                apply(circuit.rewire_input(id, *pin, src))?;
                id
            }
            EcoEdit::RemoveWire { sink, pin } => {
                let id = target(circuit, sink)?;
                if circuit.input_count() == 0 {
                    return Err(CoreError::EcoApply {
                        line,
                        message: "circuit has no primary input to park the freed pin on".into(),
                    });
                }
                apply(circuit.rewire_input(id, *pin, Signal::Input(0)))?;
                id
            }
        };
        touched.push(id);
    }
    touched.sort_unstable();
    touched.dedup();
    Ok(touched)
}

/// Counters describing how much work one [`IncrementalEngine::apply`]
/// call avoided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Edits in the applied script.
    pub edits_applied: usize,
    /// Gates whose [`crate::GateTiming`] changed bitwise.
    pub dirty_gates: usize,
    /// Gates in the fanout cone of the dirty and edited gates: the
    /// region the edit can reach.
    pub cone_gates: usize,
    /// Near-critical paths whose retained analysis was reused.
    pub reused_paths: usize,
    /// Near-critical paths analyzed from scratch.
    pub recomputed_paths: usize,
}

impl IncrementalStats {
    /// The one-line summary `statim eco` prints (and CI greps).
    pub fn summary_line(&self) -> String {
        format!(
            "incremental: {} paths reused, {} recomputed; {} edit{} dirtied {} gate{} (cone {})",
            self.reused_paths,
            self.recomputed_paths,
            self.edits_applied,
            if self.edits_applied == 1 { "" } else { "s" },
            self.dirty_gates,
            if self.dirty_gates == 1 { "" } else { "s" },
            self.cone_gates
        )
    }
}

/// The result of one incremental pass: the merged report (byte-identical
/// to a from-scratch run of the edited netlist) plus reuse counters.
#[derive(Debug, Clone)]
pub struct EcoOutcome {
    /// The full report for the edited circuit.
    pub report: SstaReport,
    /// Reuse accounting for this pass.
    pub stats: IncrementalStats,
}

/// A resident analysis that re-runs the engine's own stages on each ECO
/// edit script, reusing every retained path the edit cannot reach, into
/// a report byte-identical to a from-scratch run of the edited netlist.
pub struct IncrementalEngine {
    engine: SstaEngine,
    circuit: Circuit,
    placement: Placement,
    front: Front,
    store: Arc<KernelStore>,
    /// The current report, indexed for the reuse oracle.
    retained: RetainedPaths,
}

impl IncrementalEngine {
    /// Runs the base analysis and builds the resident state.
    ///
    /// # Errors
    ///
    /// Any base-run failure.
    pub fn new(engine: SstaEngine, circuit: Circuit, placement: Placement) -> Result<Self> {
        let store = Arc::new(KernelStore::with_capacity(engine.config().cache_capacity));
        let (front, report) = engine.run_with_front(
            &circuit,
            &placement,
            RunContext {
                store: Some(Arc::clone(&store)),
                supervisor: None,
            },
        )?;
        Ok(IncrementalEngine {
            engine,
            circuit,
            placement,
            front,
            store,
            retained: RetainedPaths::new(Arc::new(report)),
        })
    }

    /// The current (post-edit) circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The placement the analysis runs against (edits never move gates).
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// The current base report.
    pub fn report(&self) -> &SstaReport {
        self.retained.report()
    }

    /// The shared kernel store (warm across passes).
    pub fn store(&self) -> &Arc<KernelStore> {
        &self.store
    }

    /// Applies an edit script and re-analyzes the edited circuit through
    /// the engine's own stages, reusing retained paths. On success the
    /// engine re-bases onto the edited circuit; on error its state is
    /// unchanged.
    ///
    /// # Errors
    ///
    /// [`CoreError::EcoApply`] for an inapplicable edit; otherwise the
    /// same failure modes as a full run of the edited circuit.
    pub fn apply(&mut self, script: &EcoScript) -> Result<EcoOutcome> {
        let start = Instant::now();
        let config = self.engine.config();
        let sup = Supervisor::new(config.budget, config.retries);
        let mut circuit = self.circuit.clone();
        let touched = apply_edits(&mut circuit, script)?;

        // Recharacterize and diff bitwise: the dirty set is *exactly*
        // the gates whose timing bits moved, however indirectly.
        let t0 = Instant::now();
        let timing = characterize_placed(&circuit, &config.tech, &self.placement)?;
        let characterize = StageProfile::serial(t0.elapsed().as_secs_f64());
        let dirty: Vec<bool> = timing
            .gates()
            .iter()
            .zip(self.front.timing.gates())
            .map(|(new, old)| new != old)
            .collect();
        let dirty_gates = dirty.iter().filter(|&&d| d).count();
        let seeds = dirty
            .iter()
            .enumerate()
            .filter(|(_, &d)| d)
            .map(|(i, _)| GateId(i as u32))
            .chain(touched.iter().copied());
        let cone_gates = TimingGraph::build(&circuit)?
            .fanout_cone(seeds)
            .iter()
            .filter(|&&c| c)
            .count();

        let (front, labels) = self.engine.front(&circuit, timing)?;

        // Path analysis is a pure function of gate sequence, timing bits,
        // placement and settings, so a retained path that crosses no
        // dirty gate is bitwise what a recompute would give (only a clean
        // report retains any).
        let reused = AtomicUsize::new(0);
        let recomputed = AtomicUsize::new(0);
        let oracle = |path: &[GateId]| -> Option<PathAnalysis> {
            let hit = if path.iter().any(|g| dirty[g.index()]) {
                None
            } else {
                self.retained.get(path).cloned()
            };
            let counter = if hit.is_some() { &reused } else { &recomputed };
            counter.fetch_add(1, Ordering::Relaxed);
            hit
        };
        let mut report = self.engine.run_characterized(
            &circuit,
            &self.placement,
            &front,
            Some(Arc::clone(&self.store)),
            &sup,
            Some(&oracle),
        )?;
        report.profile.characterize = characterize;
        report.profile.labels = labels;
        report.runtime = start.elapsed().as_secs_f64();

        let stats = IncrementalStats {
            edits_applied: script.edits.len(),
            dirty_gates,
            cone_gates,
            reused_paths: reused.into_inner(),
            recomputed_paths: recomputed.into_inner(),
        };

        // Re-base so the next script edits the edited circuit.
        let report = Arc::new(report);
        self.circuit = circuit;
        self.front = front;
        self.retained = RetainedPaths::new(Arc::clone(&report));

        Ok(EcoOutcome {
            report: SstaReport::clone(&report),
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SstaConfig;
    use crate::report::deterministic_report;
    use statim_netlist::generators::iscas85::{self, Benchmark};
    use statim_netlist::PlacementStyle;

    fn eco_config() -> SstaConfig {
        SstaConfig::date05().with_confidence(0.02)
    }

    fn c432() -> (Circuit, Placement) {
        let c = iscas85::generate(Benchmark::C432);
        let p = Placement::generate(&c, PlacementStyle::Levelized);
        (c, p)
    }

    #[test]
    fn script_round_trips_through_both_forms() {
        let text = "\
# a comment
resize g1 2.0
retime g2 2.5e-12
swap g3 nor2   # inline comment
addwire a g4 1
rmwire g5 0
";
        let script = EcoScript::parse(text).expect("parse");
        assert_eq!(script.edits.len(), 5);
        assert_eq!(script.edits[0].0, 2, "1-based line numbers");
        assert_eq!(script.edits[2].0, 4);
        let reparsed = EcoScript::parse(&script.render()).expect("reparse");
        assert_eq!(
            reparsed.edits.iter().map(|(_, e)| e).collect::<Vec<_>>(),
            script.edits.iter().map(|(_, e)| e).collect::<Vec<_>>()
        );
        let compact = script.render_compact();
        assert!(compact.contains("resize:g1:2;") || compact.contains("resize:g1:2.0;"));
        let from_compact = EcoScript::parse_compact(&compact).expect("compact");
        assert_eq!(
            from_compact
                .edits
                .iter()
                .map(|(_, e)| e)
                .collect::<Vec<_>>(),
            script.edits.iter().map(|(_, e)| e).collect::<Vec<_>>()
        );
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = EcoScript::parse("resize g1 2.0\nfrobnicate g2\n").expect_err("unknown verb");
        assert!(matches!(err, CoreError::EcoParse { line: 2, .. }), "{err}");
        let err = EcoScript::parse("resize g1\n").expect_err("operand count");
        assert!(matches!(err, CoreError::EcoParse { line: 1, .. }), "{err}");
        let err = EcoScript::parse("resize g1 fast\n").expect_err("bad float");
        assert!(matches!(err, CoreError::EcoParse { line: 1, .. }), "{err}");
        let err = EcoScript::parse("swap g1 frob2\n").expect_err("bad kind");
        assert!(matches!(err, CoreError::EcoParse { line: 1, .. }), "{err}");
        let err = EcoScript::parse_compact("resize:g1:2.0;addwire:a:g2:x").expect_err("bad pin");
        assert!(matches!(err, CoreError::EcoParse { line: 2, .. }), "{err}");
    }

    #[test]
    fn kind_specs_parse() {
        assert_eq!(parse_kind("nand3", 1).expect("nand3"), GateKind::Nand(3));
        assert_eq!(parse_kind("xor", 1).expect("xor"), GateKind::Xor2);
        assert_eq!(parse_kind("NOT", 1).expect("not"), GateKind::Inv);
        assert!(parse_kind("nand", 1).is_err(), "arity required");
        assert!(parse_kind("nand12", 1).is_err(), "arity out of range");
    }

    #[test]
    fn apply_rejects_bad_targets_with_lines() {
        let (mut c, _) = c432();
        let script = EcoScript::parse("resize nosuchgate 2.0\n").expect("parse");
        let err = apply_edits(&mut c, &script).expect_err("unknown gate");
        assert!(matches!(err, CoreError::EcoApply { line: 1, .. }), "{err}");
        // Rewiring backward (a later gate as driver of an earlier one)
        // is rejected as a potential cycle.
        let last = c.gates().last().expect("gates").name.clone();
        let first = c.gates().first().expect("gates").name.clone();
        let script =
            EcoScript::parse(&format!("# cycle\naddwire {last} {first} 0\n")).expect("parse");
        let err = apply_edits(&mut c, &script).expect_err("cycle");
        assert!(matches!(err, CoreError::EcoApply { line: 2, .. }), "{err}");
    }

    #[test]
    fn incremental_resize_matches_fresh_run_byte_for_byte() {
        let (circuit, placement) = c432();
        let engine = SstaEngine::new(eco_config());
        let mut inc = IncrementalEngine::new(engine.clone(), circuit.clone(), placement.clone())
            .expect("base");
        // Downsize a gate on the base critical path: it gets slower, so
        // the edited path stays critical and must recompute.
        let target = inc.report().critical().analysis.gates[0];
        let name = circuit.gate(target).name.clone();
        let script = EcoScript::parse(&format!("resize {name} 0.5\n")).expect("script");
        let outcome = inc.apply(&script).expect("apply");
        assert!(outcome.stats.dirty_gates >= 1);
        assert!(outcome.stats.recomputed_paths >= 1);

        let mut edited = circuit.clone();
        apply_edits(&mut edited, &script).expect("edit");
        let fresh = engine.run(&edited, &placement).expect("fresh");
        assert_eq!(
            deterministic_report(&outcome.report, 25),
            deterministic_report(&fresh, 25)
        );
        // The engine re-based: a second apply starts from the edited
        // circuit.
        assert_eq!(inc.circuit().gate(target).drive, 0.5);
    }

    #[test]
    fn clean_edit_reuses_paths() {
        let (circuit, placement) = c432();
        // An edit outside every near-critical path's support should
        // reuse almost everything. Retiming by zero is the cheapest
        // no-op edit: timing is bit-identical, so nothing is dirty.
        let engine = SstaEngine::new(eco_config());
        let mut inc = IncrementalEngine::new(engine, circuit, placement).expect("base");
        let base = deterministic_report(inc.report(), 25);
        let name = inc.circuit().gates()[0].name.clone();
        let script = EcoScript::parse(&format!("retime {name} 0.0\n")).expect("script");
        let outcome = inc.apply(&script).expect("apply");
        assert_eq!(outcome.stats.dirty_gates, 0);
        assert_eq!(outcome.stats.recomputed_paths, 0);
        assert_eq!(outcome.stats.reused_paths, outcome.report.num_paths);
        assert_eq!(deterministic_report(&outcome.report, 25), base);
    }

    #[test]
    fn budgeted_applies_match_fresh_budgeted_runs() {
        use crate::supervise::{BudgetKind, RunBudget};
        let (circuit, placement) = c432();
        let engine = SstaEngine::new(SstaConfig::date05().with_confidence(0.5).with_budget(
            RunBudget {
                max_paths: Some(3),
                ..RunBudget::none()
            },
        ));
        let mut inc = IncrementalEngine::new(engine.clone(), circuit.clone(), placement.clone())
            .expect("budgeted base");
        let mut edited = circuit;
        for gate in [40, 41] {
            let name = edited.gates()[gate].name.clone();
            let script = EcoScript::parse(&format!("resize {name} 2.0\n")).expect("script");
            let outcome = inc.apply(&script).expect("budgeted apply");
            apply_edits(&mut edited, &script).expect("edit");
            let fresh = engine.run(&edited, &placement).expect("fresh budgeted run");
            assert_eq!(
                deterministic_report(&outcome.report, usize::MAX),
                deterministic_report(&fresh, usize::MAX)
            );
            assert_eq!(outcome.report.budget_exhausted, Some(BudgetKind::Paths));
            assert_eq!(outcome.report.skipped_paths, 7);
            // A partial report seeds no reuse.
            assert_eq!(outcome.stats.reused_paths, 0);
        }
    }

    #[test]
    fn stats_summary_line_greppable() {
        let stats = IncrementalStats {
            edits_applied: 1,
            dirty_gates: 3,
            cone_gates: 17,
            reused_paths: 12,
            recomputed_paths: 4,
        };
        let line = stats.summary_line();
        assert!(line.starts_with("incremental: 12 paths reused"), "{line}");
        assert!(line.contains("4 recomputed"), "{line}");
        assert!(line.contains("cone 17"), "{line}");
    }
}
