//! Incremental ECO re-analysis on the engine's own stages.
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
//! * **Dirty set** — the gates the script touched are characterized
//!   again with their kept loads; a script that moves a wire
//!   re-characterizes every gate, since it shifts the fan-out loads of
//!   the old and new drivers and, through the mean-wirelength
//!   normalization, every placed gate's wire capacitance. The new
//!   [`GateTiming`](crate::GateTiming)s are diffed *bitwise* against the
//!   base, so the dirty set is exactly what moved, however indirectly.
//!   The whole step (`EditedFront`) is the one seam this engine and
//!   the service's `EDIT` of a warm base job share.
//! * **In place, with an undo** — [`IncrementalEngine::apply`] edits its
//!   resident circuit in place, saving each gate the script names (the
//!   only gates an edit changes) before its edit. Any error, an
//!   inapplicable edit or a run that fails after the edits applied (say
//!   one that trips `max_paths`), puts those gates back through the
//!   circuit's own setters, so a failed apply leaves the engine as it
//!   was. The report comes back as the [`Arc`] the engine keeps as its
//!   new base, not a copy.
//! * **Cone relabel** — Bellman-Ford sweeps visit gates in descending id
//!   order and every wire runs from a lower id to a higher one, so each
//!   sweep reads only the labels the sweep before it left: a Jacobi
//!   iteration. A gate outside the fanout cone of the dirty and edited
//!   gates therefore holds the base run's label at every sweep, not
//!   only at the end. The engine keeps every label change of its base
//!   run as `(sweep, label)` pairs per gate, and an apply runs the one
//!   Bellman-Ford kernel over the cone alone, reading its inputs from
//!   outside it from that history: the labels and the sweep count (one
//!   more than the latest change over all gates) are Bellman-Ford's,
//!   bit for bit. The relabel hands back only the cone's changes, which
//!   the engine commits, in time proportional to the cone, once the
//!   apply has succeeded. The service's warm fronts keep no history, so
//!   a daemon `EDIT` labels with Bellman-Ford over the whole graph.
//! * **Reach check** — one forward pass over the topologically ordered
//!   gates takes the fanout cone of the dirty and edited gates: the
//!   region the edit can reach, also counted in
//!   [`IncrementalStats::cone_gates`]. When no primary output in the
//!   cone qualifies under Fig. 2's own predicate against the base
//!   report's threshold `T = D − C·σ_C`, by its base label or its new
//!   one, and the critical delay and path are the base's, the base
//!   report comes back whole, with only the corner delay, the
//!   overestimation and the label sweeps taken from the edited front.
//!   That is exact: the cone is closed under fanout, so no gate outside
//!   it reads one inside it, and every timing and label bit outside it
//!   is the base's; Fig. 2 walks backward from qualifying outputs only,
//!   so it never enters the cone; and the critical output and path lie
//!   outside it, so σ_C, `T`, the set, its order, every analysis and the
//!   ranking keep their bits. The check also needs a clean base report
//!   enumerated at this run's `C` within its path caps, no fault plan,
//!   and a supervisor that has not tripped. Rewires need no special
//!   case: one re-characterizes every gate, so its cone covers nearly
//!   the whole netlist and the check fails by itself, and `addwire`
//!   keeps wires id-ordered, so the forward pass stays exact.
//! * **Path reuse** — otherwise, a near-critical path of the edited
//!   circuit whose gate sequence was analyzed in the base run *and*
//!   contains no dirty gate has a bit-identical [`PathAnalysis`] (path
//!   analysis is a pure function of gate sequence, timing bits,
//!   placement and settings). The edited circuit runs through the
//!   engine's own stages with a reuse oracle that hands back the
//!   retained result in place of the per-path kernel. Everything else
//!   recomputes against the still-warm [`KernelStore`] — whose
//!   exact-bits keys need no invalidation: stale entries can never be
//!   hit by new values. Budgets and fault plans behave as in a full
//!   run.
//!
//! The merged [`SstaReport`] is **byte-identical** to a from-scratch run
//! of the edited netlist at any thread count, cache state and backend —
//! the differential suite (`tests/incremental.rs`) and the ECO fuzz
//! property test hold the subsystem to that contract.

#![warn(clippy::unwrap_used)]

use crate::analyze::PathAnalysis;
use crate::cache::KernelStore;
use crate::engine::{
    overestimation_pct, Front, RetainedPaths, RunContext, RunProfile, SstaConfig, SstaEngine,
    SstaReport, StageProfile,
};
use crate::enumerate::{qualifier, threshold};
use crate::longest_path::{LabelHistory, Labeling};
use crate::supervise::Supervisor;
use crate::{CoreError, Result};
use statim_netlist::{Circuit, Gate, GateId, Placement, Signal};
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

    /// Whether any edit moves a wire (`addwire` or `rmwire`). Such an
    /// edit shifts fan-out loads and, on a placed circuit, every gate's
    /// normalized wire capacitance; the other edits change only the gates
    /// they name.
    pub fn rewires(&self) -> bool {
        self.edits
            .iter()
            .any(|(_, e)| matches!(e, EcoEdit::AddWire { .. } | EcoEdit::RemoveWire { .. }))
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
    edit_gates(circuit, script, |_, _| {})
}

/// [`apply_edits`], handing `save` each gate an edit names, as it was
/// just before that edit: the target of `resize`, `retime` and `swap`,
/// the sink of `addwire` and `rmwire`. Edits change only those gates.
fn edit_gates(
    circuit: &mut Circuit,
    script: &EcoScript,
    mut save: impl FnMut(GateId, &Gate),
) -> Result<Vec<GateId>> {
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
        let mut target = |circuit: &Circuit, name: &str| -> Result<GateId> {
            match circuit.find(name) {
                Some(Signal::Gate(g)) => {
                    save(g, circuit.gate(g));
                    Ok(g)
                }
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

/// An edited circuit's front, built from the front of the circuit the
/// edit started from: the one seam through which both
/// [`IncrementalEngine::apply`] and the service's `EDIT` of a warm base
/// job run.
pub(crate) struct EditedFront {
    pub(crate) front: Front,
    /// Gates whose [`GateTiming`](crate::GateTiming) differs bitwise
    /// from the base's.
    dirty: Vec<bool>,
    /// Gates in the fanout cone of the dirty and touched gates: every
    /// gate whose timing or labels the edit can move.
    pub(crate) cone_gates: usize,
    /// The primary-output drivers in that cone, each with its base label.
    cone_outputs: Vec<(GateId, f64)>,
    /// Whether the critical delay and critical path are the base's.
    same_critical: bool,
    characterize: StageProfile,
    labels: StageProfile,
}

/// What [`EditedFront::run`] made of an edit.
pub(crate) struct EditedRun {
    /// The edited circuit's report.
    pub(crate) report: Result<SstaReport>,
    /// Path analyses handed back from the base report.
    pub(crate) reused: usize,
    /// Path analyses computed.
    pub(crate) recomputed: usize,
    /// The base report came back whole: its paths, in their order, are
    /// this report's, so the base's index serves it too.
    whole: bool,
}

impl EditedRun {
    /// The report, its wall time taken from `start`, indexed for the
    /// next run: on `base`'s index when the base report came back whole,
    /// afresh otherwise.
    pub(crate) fn retain(self, base: &RetainedPaths, start: Instant) -> Result<RetainedPaths> {
        let mut report = self.report?;
        report.runtime = start.elapsed().as_secs_f64();
        let report = Arc::new(report);
        Ok(if self.whole {
            base.rebase(report)
        } else {
            RetainedPaths::new(report)
        })
    }
}

impl EditedFront {
    /// Copies the base timing, characterizes again only the gates the
    /// edit `touched` (every gate when it `rewires`), takes the dirty set
    /// from the bitwise diff against the base timing and its fanout cone,
    /// then labels the edited circuit and traces its critical path. The
    /// diff is the authority: it holds whatever the edit moved, however
    /// indirectly. Labels come from relabeling the cone against
    /// `history`, the base's label history, when there is one (the new
    /// front then holds the cone's label changes), else from Bellman-Ford
    /// over the whole graph.
    pub(crate) fn build(
        engine: &SstaEngine,
        circuit: &Circuit,
        placement: &Placement,
        base: &Front,
        history: Option<&LabelHistory>,
        touched: &[GateId],
        rewires: bool,
    ) -> Result<EditedFront> {
        let t0 = Instant::now();
        let timing = base.timing.recharacterize(
            circuit,
            &engine.config().tech,
            placement,
            touched,
            rewires,
        )?;
        let characterize = StageProfile::serial(t0.elapsed().as_secs_f64());
        let dirty: Vec<bool> = timing
            .gates()
            .iter()
            .zip(base.timing.gates())
            .map(|(new, old)| new != old)
            .collect();
        let cone = fanout_cone(circuit, &dirty, touched);
        let cone_outputs = circuit
            .outputs()
            .iter()
            .filter_map(|&(_, s)| match s {
                Signal::Gate(g) if cone[g.index()] => Some((g, base.labels.arrival[g.index()])),
                _ => None,
            })
            .collect();
        let labeling = match history {
            Some(history) => Labeling::Cone {
                labels: &base.labels,
                history,
                cone: &cone,
            },
            None => Labeling::Full { record: false },
        };
        let (front, labels) = engine.front(circuit, timing, labeling)?;
        let same_critical = front.critical_delay.to_bits() == base.critical_delay.to_bits()
            && front.critical_path == base.critical_path;
        Ok(EditedFront {
            front,
            dirty,
            cone_gates: cone.iter().filter(|&&c| c).count(),
            cone_outputs,
            same_critical,
            characterize,
            labels,
        })
    }

    /// The dirty gates, ascending.
    pub(crate) fn dirty_gates(&self) -> impl Iterator<Item = GateId> + '_ {
        self.dirty
            .iter()
            .enumerate()
            .filter(|(_, &d)| d)
            .map(|(i, _)| GateId(i as u32))
    }

    /// Stages 3–6 of the edited circuit from this front, over the base's
    /// `retained` report: the base report whole when the edit cannot
    /// reach its near-critical set ([`EditedFront::unreached`]),
    /// otherwise the engine's own stages with a reuse oracle
    /// ([`EditedFront::run_oracle`]). Either way the report is bitwise
    /// what a from-scratch run gives, and the counters are the oracle's.
    pub(crate) fn run(
        &self,
        engine: &SstaEngine,
        circuit: &Circuit,
        placement: &Placement,
        retained: &RetainedPaths,
        store: Arc<KernelStore>,
        sup: &Supervisor,
    ) -> EditedRun {
        if self.unreached(engine.config(), retained.report(), sup) {
            self.reuse_whole(engine.config(), retained, &store)
        } else {
            self.run_oracle(engine, circuit, placement, retained, store, sup)
        }
    }

    /// The reach check (see the module docs for why it is exact): whether
    /// a run from this front would enumerate, analyze and rank exactly
    /// what `base` holds. Beyond the cone test, the run must enumerate at
    /// `base`'s `C` under caps that admit its paths, with no fault plan,
    /// and nothing may have stopped it short.
    fn unreached(&self, config: &SstaConfig, base: &SstaReport, sup: &Supervisor) -> bool {
        let comparable = base.is_clean()
            && base.confidence.to_bits() == config.confidence.to_bits()
            && base.num_paths <= config.max_paths
            && !matches!(sup.budget().max_paths, Some(cap) if base.num_paths > cap)
            && !config.has_fault_plan();
        if !comparable {
            return false;
        }
        sup.check_wall();
        if sup.token().cancelled().is_some() {
            return false;
        }
        if !self.same_critical {
            return false;
        }
        let qualifies = qualifier(threshold(
            base.det_critical_delay,
            base.confidence,
            base.sigma_c,
        ));
        let arrival = &self.front.labels.arrival;
        self.cone_outputs
            .iter()
            .all(|&(g, base_label)| !qualifies(base_label) && !qualifies(arrival[g.index()]))
    }

    /// The base report with this front's corner delay, overestimation and
    /// label sweeps. Its profile books this front's characterize and
    /// labels stages, nothing for the stages it skipped, and a cache that
    /// saw no lookup. The counters are what the oracle would count: every
    /// path handed back, and σ_C's path recomputed only if the report
    /// does not hold it.
    fn reuse_whole(
        &self,
        config: &SstaConfig,
        retained: &RetainedPaths,
        store: &KernelStore,
    ) -> EditedRun {
        let base = retained.report();
        let report = self
            .front
            .worst_case
            .clone()
            .map(|worst_case_delay| SstaReport {
                worst_case_delay,
                overestimation_pct: overestimation_pct(worst_case_delay, &base.paths),
                label_sweeps: self.front.labels.sweeps,
                // The caller times the run.
                runtime: 0.0,
                profile: RunProfile {
                    characterize: self.characterize,
                    labels: self.labels,
                    cache: config.cache.then(|| {
                        let now = store.stats();
                        now.since(&now)
                    }),
                    ..RunProfile::default()
                },
                ..SstaReport::clone(base)
            });
        let critical_held = retained.get(&self.front.critical_path).is_some();
        EditedRun {
            report,
            reused: base.num_paths,
            recomputed: usize::from(!critical_held),
            whole: true,
        }
    }

    /// Stages 3–6 through the engine, with a reuse oracle over the base's
    /// `retained` report. Path analysis is a pure function of gate
    /// sequence, timing bits, placement and settings, so a retained path
    /// that crosses no dirty gate is bitwise what a recompute would give;
    /// the oracle refuses every other path. The report's profile carries
    /// this front's characterize and labels stages.
    fn run_oracle(
        &self,
        engine: &SstaEngine,
        circuit: &Circuit,
        placement: &Placement,
        retained: &RetainedPaths,
        store: Arc<KernelStore>,
        sup: &Supervisor,
    ) -> EditedRun {
        let reused = AtomicUsize::new(0);
        let recomputed = AtomicUsize::new(0);
        let oracle = |path: &[GateId]| -> Option<PathAnalysis> {
            let hit = if path.iter().any(|g| self.dirty[g.index()]) {
                None
            } else {
                retained.get(path).cloned()
            };
            let counter = if hit.is_some() { &reused } else { &recomputed };
            counter.fetch_add(1, Ordering::Relaxed);
            hit
        };
        let report = engine
            .run_characterized(
                circuit,
                placement,
                &self.front,
                Some(store),
                sup,
                Some(&oracle),
            )
            .map(|mut report| {
                report.profile.characterize = self.characterize;
                report.profile.labels = self.labels;
                report
            });
        EditedRun {
            report,
            reused: reused.into_inner(),
            recomputed: recomputed.into_inner(),
            whole: false,
        }
    }
}

/// The fanout cone of the dirty and touched gates, seeds included, in
/// one forward pass: gates are stored in topological order (every wire,
/// `addwire`'s included, runs from a lower id to a higher one), so a
/// gate's drivers are settled before it is visited.
fn fanout_cone(circuit: &Circuit, dirty: &[bool], touched: &[GateId]) -> Vec<bool> {
    let mut cone = dirty.to_vec();
    for g in touched {
        cone[g.index()] = true;
    }
    for (i, gate) in circuit.gates().iter().enumerate() {
        if !cone[i] {
            cone[i] = gate
                .inputs
                .iter()
                .any(|s| matches!(s, Signal::Gate(d) if cone[d.index()]));
        }
    }
    cone
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
    /// The full report for the edited circuit: the one the engine keeps
    /// as its new base, shared.
    pub report: Arc<SstaReport>,
    /// Reuse accounting for this pass.
    pub stats: IncrementalStats,
}

/// Entries per kernel map of an [`IncrementalEngine`]'s store when its
/// config sets no capacity, so an edit session's store (and memory)
/// stays flat however many fresh kernel keys its edits make. c6288's
/// base run, the largest built-in one, makes 429 inter and 859 intra
/// entries, about 54 per shard of 16; this keeps 128 per shard.
const DEFAULT_KERNEL_CAPACITY: usize = 2048;

/// A resident analysis that re-runs the engine's own stages on each ECO
/// edit script, reusing every retained path the edit cannot reach (the
/// whole report, when the edit cannot reach the near-critical set), into
/// a report byte-identical to a from-scratch run of the edited netlist.
pub struct IncrementalEngine {
    engine: SstaEngine,
    circuit: Circuit,
    placement: Placement,
    front: Front,
    /// Bellman-Ford's label history of the current circuit, which each
    /// apply relabels its edit's fanout cone against (none under the
    /// topological solver).
    history: Option<LabelHistory>,
    store: Arc<KernelStore>,
    /// The current report, indexed for the reuse oracle.
    retained: RetainedPaths,
}

impl IncrementalEngine {
    /// Runs the base analysis and builds the resident state. The kernel
    /// store holds the config's `cache_capacity` entries per kernel map,
    /// or 2048 when it sets none, so a long edit session's store stays
    /// flat.
    ///
    /// # Errors
    ///
    /// Any base-run failure.
    pub fn new(engine: SstaEngine, circuit: Circuit, placement: Placement) -> Result<Self> {
        let capacity = engine
            .config()
            .cache_capacity
            .or(Some(DEFAULT_KERNEL_CAPACITY));
        let store = Arc::new(KernelStore::with_capacity(capacity));
        let (mut front, report) = engine.run_with_front(
            &circuit,
            &placement,
            RunContext {
                store: Some(Arc::clone(&store)),
                supervisor: None,
            },
            true,
        )?;
        let history = front.label_changes.take().map(|c| LabelHistory::new(&c));
        Ok(IncrementalEngine {
            engine,
            circuit,
            placement,
            front,
            history,
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

    /// Applies an edit script and re-analyzes the edited circuit: the
    /// resident report whole when the edit cannot reach its near-critical
    /// set, else the engine's own stages reusing retained paths. The
    /// script edits the resident circuit in place; on success the engine
    /// re-bases onto the edited circuit, and on error it puts back every
    /// gate the script named, so its state is unchanged.
    ///
    /// # Errors
    ///
    /// [`CoreError::EcoApply`] for an inapplicable edit; otherwise the
    /// same failure modes as a full run of the edited circuit.
    pub fn apply(&mut self, script: &EcoScript) -> Result<EcoOutcome> {
        let mut saved = Vec::new();
        let outcome = self.apply_in_place(script, &mut saved);
        if outcome.is_err() {
            // Last edit first, so a gate named twice ends as it began.
            for (id, gate) in saved.into_iter().rev() {
                restore(&mut self.circuit, id, gate);
            }
        }
        outcome
    }

    /// [`IncrementalEngine::apply`] up to the undo: each gate the script
    /// names goes into `saved` before its edit.
    fn apply_in_place(
        &mut self,
        script: &EcoScript,
        saved: &mut Vec<(GateId, Gate)>,
    ) -> Result<EcoOutcome> {
        let start = Instant::now();
        let config = self.engine.config();
        let sup = Supervisor::new(config.budget, config.retries);
        let touched = edit_gates(&mut self.circuit, script, |id, gate| {
            saved.push((id, gate.clone()));
        })?;
        let edited = EditedFront::build(
            &self.engine,
            &self.circuit,
            &self.placement,
            &self.front,
            self.history.as_ref(),
            &touched,
            script.rewires(),
        )?;
        let run = edited.run(
            &self.engine,
            &self.circuit,
            &self.placement,
            &self.retained,
            Arc::clone(&self.store),
            &sup,
        );
        let stats = IncrementalStats {
            edits_applied: script.edits.len(),
            dirty_gates: edited.dirty_gates().count(),
            cone_gates: edited.cone_gates,
            reused_paths: run.reused,
            recomputed_paths: run.recomputed,
        };
        let retained = run.retain(&self.retained, start)?;
        let report = Arc::clone(retained.report());

        // Re-base so the next script edits the edited circuit.
        let mut front = edited.front;
        if let (Some(history), Some(changes)) = (&mut self.history, front.label_changes.take()) {
            history.commit(&changes);
        }
        self.front = front;
        self.retained = retained;

        Ok(EcoOutcome { report, stats })
    }
}

/// Puts a gate saved before an edit back through the circuit's own
/// setters.
fn restore(circuit: &mut Circuit, id: GateId, gate: Gate) {
    let restored = circuit.set_gate_kind(id, gate.kind).and_then(|()| {
        for (pin, &driver) in gate.inputs.iter().enumerate() {
            circuit.rewire_input(id, pin, driver)?;
        }
        circuit.set_drive(id, gate.drive)?;
        circuit.set_pad(id, gate.pad)
    });
    // Every saved value came from a valid netlist.
    restored.expect("a saved gate passes the setters' checks");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TimingGraph;
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

    /// The incremental state after `inc`'s next apply of `script` along
    /// the oracle path alone, built from `inc`'s current state without
    /// touching it: the edited front, its oracle run and the touched
    /// gates.
    fn oracle_apply(
        inc: &IncrementalEngine,
        script: &EcoScript,
    ) -> (Circuit, Vec<GateId>, EditedFront, EditedRun) {
        let mut circuit = inc.circuit.clone();
        let touched = apply_edits(&mut circuit, script).expect("script applies");
        let edited = EditedFront::build(
            &inc.engine,
            &circuit,
            &inc.placement,
            &inc.front,
            inc.history.as_ref(),
            &touched,
            script.rewires(),
        )
        .expect("edited front");
        let config = inc.engine.config();
        let sup = Supervisor::new(config.budget, config.retries);
        let run = edited.run_oracle(
            &inc.engine,
            &circuit,
            &inc.placement,
            &inc.retained,
            Arc::clone(&inc.store),
            &sup,
        );
        (circuit, touched, edited, run)
    }

    /// Every bit of a report but its wall times: scalars, label sweeps,
    /// path ranks and analyses, PDFs included.
    fn same_bits(a: &SstaReport, b: &SstaReport) -> bool {
        let scalars = |r: &SstaReport| {
            [
                r.det_critical_delay,
                r.worst_case_delay,
                r.overestimation_pct,
                r.confidence,
                r.sigma_c,
            ]
            .map(f64::to_bits)
        };
        scalars(a) == scalars(b)
            && (
                a.circuit.as_str(),
                a.gate_count,
                a.num_paths,
                a.label_sweeps,
            ) == (
                b.circuit.as_str(),
                b.gate_count,
                b.num_paths,
                b.label_sweeps,
            )
            && a.paths == b.paths
            && (&a.degraded, a.budget_exhausted, a.skipped_paths)
                == (&b.degraded, b.budget_exhausted, b.skipped_paths)
    }

    /// Applies `script` to `inc` and checks it against the oracle path
    /// from the same state and against a fresh run: the same report bits
    /// (label sweeps included) and the same counters, with the forward
    /// cone equal to the timing graph's. Returns whether the base report
    /// came back whole.
    fn apply_checked(inc: &mut IncrementalEngine, script: &EcoScript) -> bool {
        let label = script.render();
        let (circuit, touched, edited, oracle) = oracle_apply(inc, script);
        let want = oracle.report.expect("oracle run");
        let seeds = edited.dirty_gates().chain(touched.iter().copied());
        let graph_cone = TimingGraph::build(&circuit)
            .expect("graph")
            .fanout_cone(seeds);
        let cone = fanout_cone(&circuit, &edited.dirty, &touched);
        assert_eq!(cone, graph_cone, "{label}");
        assert_eq!(edited.cone_gates, cone.iter().filter(|&&c| c).count());
        let outcome = inc.apply(script).expect("apply");
        assert!(same_bits(&outcome.report, &want), "{label}");
        let fresh = inc.engine.run(&circuit, &inc.placement).expect("fresh run");
        assert!(same_bits(&outcome.report, &fresh), "{label}");
        let oracle_stats = IncrementalStats {
            edits_applied: script.edits.len(),
            dirty_gates: edited.dirty_gates().count(),
            cone_gates: edited.cone_gates,
            reused_paths: oracle.reused,
            recomputed_paths: oracle.recomputed,
        };
        assert_eq!(outcome.stats, oracle_stats, "{label}");
        outcome.report.profile.enumerate == StageProfile::default()
    }

    /// The valid ECO scripts of the repository's malformed-script corpus:
    /// each file's lines before the one that fails.
    fn corpus_prefixes() -> Vec<EcoScript> {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus/eco");
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .expect("eco corpus")
            .map(|e| e.expect("entry").path())
            .collect();
        files.sort();
        let mut scripts = Vec::new();
        for file in files {
            let text = std::fs::read_to_string(&file).expect("corpus file");
            let lines: Vec<&str> = text.lines().collect();
            let valid = (0..=lines.len())
                .rev()
                .map(|n| lines[..n].join("\n"))
                .find_map(|prefix| {
                    let script = EcoScript::parse(&prefix).ok()?;
                    apply_edits(&mut iscas85::generate(Benchmark::C432), &script).ok()?;
                    Some(script)
                })
                .expect("the empty prefix applies");
            scripts.push(valid);
        }
        scripts
    }

    /// A different gate kind at the same fan-in.
    fn other_kind(kind: GateKind) -> GateKind {
        match kind {
            GateKind::Nand(n) => GateKind::Nor(n),
            GateKind::Nor(n) => GateKind::Nand(n),
            GateKind::And(n) => GateKind::Or(n),
            GateKind::Or(n) => GateKind::And(n),
            GateKind::Xor2 => GateKind::Xnor2,
            GateKind::Xnor2 => GateKind::Xor2,
            GateKind::Inv => GateKind::Buf,
            GateKind::Buf => GateKind::Inv,
        }
    }

    /// A seeded valid one-edit script of any kind on `circuit`.
    fn random_script(state: &mut u64, circuit: &Circuit) -> EcoScript {
        let mut next = |n: usize| {
            *state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            ((*state >> 33) % n as u64) as usize
        };
        let gates = circuit.gates();
        let g = &gates[next(gates.len())];
        let edit = match next(5) {
            0 => EcoEdit::ResizeGate {
                gate: g.name.clone(),
                drive: [0.5, 0.8, 1.25, 2.0][next(4)],
            },
            1 => EcoEdit::RetimeGate {
                gate: g.name.clone(),
                pad: [0.0, 1e-12, 5e-12][next(3)],
            },
            2 => EcoEdit::SwapGateType {
                gate: g.name.clone(),
                kind: other_kind(g.kind),
            },
            3 => {
                let sink = gates.len() / 2 + next(gates.len() - gates.len() / 2);
                EcoEdit::AddWire {
                    driver: gates[next(sink)].name.clone(),
                    sink: gates[sink].name.clone(),
                    pin: next(gates[sink].inputs.len()),
                }
            }
            _ => EcoEdit::RemoveWire {
                sink: g.name.clone(),
                pin: next(g.inputs.len()),
            },
        };
        EcoScript {
            edits: vec![(1, edit)],
        }
    }

    fn cheap_config() -> SstaConfig {
        let mut config = SstaConfig::date05();
        config.quality_intra = 30;
        config.quality_inter = 15;
        config
    }

    /// Every valid corpus script, and every prefix of seeded random edit
    /// sequences: an apply equals the oracle path and a fresh run bit for
    /// bit, counts what the oracle counts, and the forward cone is the
    /// timing graph's. Both branches of the reach check are exercised.
    #[test]
    fn applies_equal_the_oracle_path_on_corpus_and_random_scripts() {
        let mut whole = [0usize; 2];
        let engine = SstaEngine::new(cheap_config());
        for script in corpus_prefixes() {
            let (circuit, placement) = c432();
            let mut inc = IncrementalEngine::new(engine.clone(), circuit, placement).expect("base");
            whole[usize::from(apply_checked(&mut inc, &script))] += 1;
        }
        let mut state = 0x5eed_0ec0_u64;
        for bench in [Benchmark::C432, Benchmark::C499, Benchmark::C880] {
            let circuit = iscas85::generate(bench);
            let placement = Placement::generate(&circuit, PlacementStyle::Levelized);
            let mut inc =
                IncrementalEngine::new(engine.clone(), circuit.clone(), placement).expect("base");
            for _ in 0..12 {
                let script = random_script(&mut state, &circuit);
                whole[usize::from(apply_checked(&mut inc, &script))] += 1;
            }
        }
        assert!(whole[0] > 0 && whole[1] > 0, "both branches ran: {whole:?}");
    }

    /// c1355's gates whose every cone output misses the base threshold by
    /// a clear margin: an edit that only speeds one of them up cannot
    /// reach the near-critical set.
    fn cold_gates(inc: &IncrementalEngine) -> Vec<GateId> {
        let report = inc.report();
        let limit = threshold(report.det_critical_delay, report.confidence, report.sigma_c);
        let graph = TimingGraph::build(&inc.circuit).expect("graph");
        inc.circuit
            .gate_ids()
            .filter(|&g| {
                let cone = graph.fanout_cone([g]);
                inc.circuit.outputs().iter().all(|&(_, s)| match s {
                    Signal::Gate(o) => {
                        !cone[o.index()] || inc.front.labels.arrival[o.index()] < 0.9 * limit
                    }
                    Signal::Input(_) => true,
                })
            })
            .collect()
    }

    fn c1355_engine() -> IncrementalEngine {
        let circuit = iscas85::generate(Benchmark::C1355);
        let placement = Placement::generate(&circuit, PlacementStyle::Levelized);
        IncrementalEngine::new(SstaEngine::new(SstaConfig::date05()), circuit, placement)
            .expect("c1355 base")
    }

    /// A resize of a cold gate takes the shortcut; a resize on the
    /// critical path does not. Both equal the oracle path and a fresh
    /// run.
    #[test]
    fn a_cold_gate_resize_reuses_the_base_whole_and_a_critical_one_does_not() {
        let mut inc = c1355_engine();
        let cold = cold_gates(&inc);
        assert!(!cold.is_empty(), "c1355 has cold gates");
        let name = |inc: &IncrementalEngine, g: GateId| inc.circuit.gate(g).name.clone();
        let script = |text: String| EcoScript::parse(&text).expect("script");
        let resize = script(format!("resize {} 2.0", name(&inc, cold[cold.len() / 2])));
        let (_, _, edited, _) = oracle_apply(&inc, &resize);
        let sup = Supervisor::unlimited();
        assert!(edited.unreached(inc.engine.config(), inc.report(), &sup));
        assert!(
            apply_checked(&mut inc, &resize),
            "the cold resize reuses the base whole"
        );

        let critical = inc.report().critical().analysis.gates[0];
        let slow = script(format!("resize {} 0.5", name(&inc, critical)));
        let (_, _, edited, _) = oracle_apply(&inc, &slow);
        assert!(!edited.unreached(inc.engine.config(), inc.report(), &sup));
        assert!(
            !apply_checked(&mut inc, &slow),
            "a critical resize runs the stages"
        );
    }

    /// A report reused whole books only the work this apply did: its own
    /// characterize and labels stages, no enumeration, analysis or
    /// ranking, and no kernel lookup at the store's current occupancy.
    #[test]
    fn a_reused_report_books_only_its_own_work() {
        let mut inc = c1355_engine();
        let base = inc.report().profile;
        assert!(base.enumerate.wall > 0.0 && base.cache.expect("cache").lookups() > 0);
        let cold = cold_gates(&inc);
        let gate = inc.circuit.gate(cold[0]).name.clone();
        let outcome = inc
            .apply(&EcoScript::parse(&format!("resize {gate} 1.5")).expect("script"))
            .expect("apply");
        let profile = outcome.report.profile;
        assert_eq!(outcome.stats.recomputed_paths, 0);
        assert_eq!(outcome.stats.reused_paths, outcome.report.num_paths);
        for skipped in [profile.enumerate, profile.analyze, profile.rank] {
            assert_eq!(skipped, StageProfile::default());
        }
        assert_eq!(profile.characterize.threads, 1);
        assert_eq!(profile.labels.threads, 1);
        assert_ne!(profile.characterize, base.characterize);
        let cache = profile.cache.expect("cache on");
        assert_eq!(cache.lookups(), 0);
        assert_eq!(cache.evictions, 0);
        assert_eq!(cache.entries, inc.store().stats().entries);
        assert_eq!(
            (profile.degraded, profile.retries, profile.panics),
            (0, 0, 0)
        );
    }

    /// The cone relabel gives what Bellman-Ford over the whole graph
    /// gives, every label bit, the sweep count and the history its
    /// committed changes leave, along chained seeded edits of every kind
    /// on every ISCAS85 circuit. Each chain also resizes its lowest-id
    /// gates, whose cone covers most of the netlist, and every rewire
    /// re-characterizes every gate.
    #[test]
    fn cone_relabel_matches_bellman_ford_on_every_iscas85_circuit() {
        use crate::characterize::{characterize_placed, CircuitTiming};
        use crate::longest_path::{label, Labels};
        let recorded = |circuit: &Circuit, timing: &CircuitTiming| {
            let (labels, changes) =
                label(circuit, timing, Labeling::Full { record: true }).expect("labels");
            (labels, LabelHistory::new(&changes.expect("recorded")))
        };
        let tech = SstaConfig::date05().tech;
        let mut state = 0xc0de_7e1a_u64;
        for bench in Benchmark::ALL {
            let mut circuit = iscas85::generate(bench);
            let placement = Placement::generate(&circuit, PlacementStyle::Levelized);
            let mut timing = characterize_placed(&circuit, &tech, &placement).expect("timing");
            let (mut labels, mut history) = recorded(&circuit, &timing);
            let mut widest = 0;
            for step in 0..24 {
                let script = if step % 8 == 7 {
                    let edits = circuit.gates()[..4]
                        .iter()
                        .map(|g| EcoEdit::ResizeGate {
                            gate: g.name.clone(),
                            drive: [0.5, 2.0][step % 2],
                        })
                        .enumerate()
                        .map(|(i, e)| (i + 1, e));
                    EcoScript {
                        edits: edits.collect(),
                    }
                } else {
                    random_script(&mut state, &circuit)
                };
                let name = format!("{} step {step}: {}", bench.name(), script.render());
                let touched = apply_edits(&mut circuit, &script).expect("script applies");
                let edited = timing
                    .recharacterize(&circuit, &tech, &placement, &touched, script.rewires())
                    .expect("timing");
                let dirty: Vec<bool> = edited
                    .gates()
                    .iter()
                    .zip(timing.gates())
                    .map(|(new, old)| new != old)
                    .collect();
                let cone = fanout_cone(&circuit, &dirty, &touched);
                widest = widest.max(cone.iter().filter(|&&c| c).count());
                let relabel = Labeling::Cone {
                    labels: &labels,
                    history: &history,
                    cone: &cone,
                };
                let (got, changes) = label(&circuit, &edited, relabel).expect("labels");
                history.commit(&changes.expect("the cone's changes"));
                let (want, want_history) = recorded(&circuit, &edited);
                let bits = |l: &Labels| {
                    let arrival: Vec<u64> = l.arrival.iter().map(|a| a.to_bits()).collect();
                    (l.sweeps, arrival)
                };
                assert_eq!(bits(&got), bits(&want), "{name}");
                assert!(history == want_history, "{name}: histories differ");
                labels = got;
                timing = edited;
            }
            assert!(
                2 * widest > circuit.gate_count(),
                "{}: some cone covers most of the netlist",
                bench.name()
            );
        }
    }

    /// Everything an apply must leave alone when it fails.
    type Resident = (Circuit, Arc<SstaReport>, Front, Option<LabelHistory>);

    fn resident_state(inc: &IncrementalEngine) -> Resident {
        let report = Arc::clone(inc.retained.report());
        let history = inc.history.clone();
        (inc.circuit.clone(), report, inc.front.clone(), history)
    }

    fn assert_unchanged(inc: &IncrementalEngine, before: &Resident) {
        let (circuit, report, front, history) = before;
        assert!(inc.circuit == *circuit, "circuit restored");
        assert!(Arc::ptr_eq(inc.retained.report(), report), "report kept");
        assert!(inc.front.timing == front.timing);
        assert!(inc.front.labels == front.labels);
        assert!(inc.front.critical_path == front.critical_path);
        assert!(inc.history == *history, "history kept");
        assert!(inc.history.is_some());
    }

    /// Every corpus script that parses but does not apply, a script that
    /// rewires and resizes before its failing line, and an apply that
    /// fails after its edits applied leave the engine's circuit, report
    /// and label history as they were; the next valid apply then equals
    /// a fresh run bit for bit.
    #[test]
    fn failed_applies_leave_the_engine_unchanged() {
        let (circuit, placement) = c432();
        let mut config = cheap_config().with_confidence(0.5);
        let fresh = SstaEngine::new(config.clone())
            .run(&circuit, &placement)
            .expect("base");
        // Any edit that adds a near-critical path now fails after it
        // applied, when enumeration runs past the cap.
        config.max_paths = fresh.num_paths;
        let engine = SstaEngine::new(config);
        let mut inc = IncrementalEngine::new(engine.clone(), circuit.clone(), placement.clone())
            .expect("base");
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus/eco");
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .expect("eco corpus")
            .map(|e| e.expect("entry").path())
            .collect();
        files.sort();
        let mut failing: Vec<EcoScript> = files
            .iter()
            .filter_map(|f| EcoScript::parse(&std::fs::read_to_string(f).expect("file")).ok())
            .filter(|s| apply_edits(&mut circuit.clone(), s).is_err())
            .collect();
        assert!(
            failing.len() >= 6,
            "{} corpus scripts fail to apply",
            failing.len()
        );
        let rewired =
            "resize g5 2.0\naddwire g3 g100 0\nswap g7 nor2\nresize g7 0.5\nresize nosuch 1";
        failing.push(EcoScript::parse(rewired).expect("script"));
        let overflow = circuit
            .gates()
            .iter()
            .flat_map(|g| [0.25, 4.0].map(|d| format!("resize {} {d}", g.name)))
            .map(|text| EcoScript::parse(&text).expect("script"))
            .find(|script| {
                let mut edited = circuit.clone();
                apply_edits(&mut edited, script).expect("resize applies");
                matches!(
                    engine.run(&edited, &placement),
                    Err(CoreError::PathBudgetExceeded { .. })
                )
            })
            .expect("some resize adds a near-critical path");
        failing.push(overflow);
        // A valid resize and the script that restores it, both within
        // the cap, so each failing script meets the base circuit.
        let valid = circuit
            .gates()
            .iter()
            .map(|g| {
                let edit = |drive| EcoScript::parse(&format!("resize {} {drive}", g.name));
                [edit(1.5), edit(g.drive)].map(|s| s.expect("script"))
            })
            .find(|[edit, _]| {
                let mut edited = circuit.clone();
                apply_edits(&mut edited, edit).expect("resize applies");
                let fresh = engine.run(&edited, &placement);
                fresh.is_ok_and(|r| r.paths != inc.report().paths)
            })
            .expect("some resize stays within the cap");
        for script in &failing {
            let before = resident_state(&inc);
            let err = inc.apply(script).expect_err("the script fails");
            assert_unchanged(&inc, &before);
            let mut edited = circuit.clone();
            for next in &valid {
                let outcome = inc
                    .apply(next)
                    .unwrap_or_else(|e| panic!("{}: then {e}", script.render()));
                apply_edits(&mut edited, next).expect("valid script");
                let fresh = engine.run(&edited, &placement).expect("fresh run");
                assert!(same_bits(&outcome.report, &fresh), "after {err}");
            }
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
