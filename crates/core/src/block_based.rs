//! Block-based (full-chip) statistical timing — the **baseline the paper
//! argues against**.
//!
//! The early full-chip SSTA methods the paper cites (Devadas et al.
//! ICCD'92, Jyu et al. ICCD'93 — its refs [3, 4]) propagate per-gate
//! delay PDFs through the timing graph, taking the arrival-time MAX at
//! reconvergence *as if the operands were independent* and summing gate
//! delays *as if gates did not share process variations*. The paper's
//! criticism: they "neglect parameter correlations".
//!
//! This module implements that baseline faithfully so the criticism can
//! be measured: each gate's delay is an independent Gaussian whose σ
//! comes from the full (unsplit) parameter variances through the gate's
//! delay gradient; arrival PDFs propagate over the gates in id order
//! (the netlist's topological order) with independent-sum (convolution)
//! and independent-max (CDF product) kernels, at `O(|N|·QUALITY²)` cost.
//! The per-gate MAX folds the *raw netlist pins in pin order*
//! (duplicate drivers included — the independent-max kernel is not
//! idempotent, so collapsing duplicates would change the baseline).
//!
//! Against the exact correlated Monte-Carlo it *underestimates* the
//! delay spread: positively correlated gate delays (inter-die variation
//! moves every gate together) make the true path σ larger than the
//! independent sum, which the paper's layered path-based method captures
//! and this baseline cannot.

use crate::characterize::CircuitTiming;
use crate::{CoreError, Result};
use statim_netlist::{Circuit, Signal};
use statim_process::param::Variations;
use statim_process::Param;
use statim_stats::combine::max_pdf;
use statim_stats::convolve::{sum_pdf_resampled_with, ConvolveBackend};
use statim_stats::gaussian::try_gaussian_pdf;
use statim_stats::Pdf;

/// Result of a block-based propagation.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockBasedResult {
    /// Arrival-time PDF of the latest primary output (the circuit delay
    /// distribution under the independence assumptions).
    pub circuit_pdf: Pdf,
    /// Arrival PDF per gate-driven primary output, **in netlist output
    /// order** (the order `circuit.outputs()` declares, which
    /// `.bench`/DEF round-trips preserve) — deterministic by
    /// construction, never keyed through a hash map.
    pub po_pdfs: Vec<(String, Pdf)>,
}

impl BlockBasedResult {
    /// The `mean + k·σ` confidence point of the circuit delay.
    pub fn sigma_point(&self, k: f64) -> f64 {
        self.circuit_pdf.sigma_point(k)
    }
}

/// The independent per-gate delay σ: the gate's delay gradient against
/// the *full* parameter variances (no layer split, no sharing).
pub fn independent_gate_sigma(timing: &CircuitTiming, gate: usize, vars: &Variations) -> f64 {
    let grad = &timing.gates()[gate].gradient;
    Param::ALL
        .iter()
        .map(|&p| {
            let s = grad.get(p) * vars.sigma.get(p);
            s * s
        })
        .sum::<f64>()
        .sqrt()
}

/// Runs the block-based propagation at `quality` discretization points.
///
/// # Errors
///
/// Returns [`CoreError::EmptyCircuit`] without gates or gate-driven
/// outputs and propagates numerical failures.
pub fn block_based_sta(
    circuit: &Circuit,
    timing: &CircuitTiming,
    vars: &Variations,
    quality: usize,
) -> Result<BlockBasedResult> {
    let mut arrival: Vec<Pdf> = Vec::with_capacity(circuit.gate_count());
    for (g, gate) in circuit.gate_ids().zip(circuit.gates()) {
        // Incoming arrival: independent max over the raw netlist pins in
        // pin order, duplicates included (primary inputs arrive at t = 0
        // and are absorbed by the max identity). Every gate input has a
        // lower id, so its arrival is already computed.
        let mut incoming: Option<Pdf> = None;
        for s in &gate.inputs {
            if let Signal::Gate(src) = s {
                let a = &arrival[src.index()];
                incoming = Some(match incoming {
                    None => a.clone(),
                    Some(acc) => max_pdf(&acc, a, quality)?,
                });
            }
        }
        // Own delay PDF: independent Gaussian around the nominal delay.
        let nominal = timing.gate(g).nominal;
        let sigma = independent_gate_sigma(timing, g.index(), vars);
        let delay = try_gaussian_pdf(nominal, sigma.max(nominal * 1e-9), vars.trunc_k, quality)?;
        arrival.push(match incoming {
            None => delay,
            Some(inc) => sum_pdf_resampled_with(ConvolveBackend::Grid, &inc, &delay, quality)?,
        });
    }
    let mut po_pdfs = Vec::new();
    let mut circuit_pdf: Option<Pdf> = None;
    for (name, s) in circuit.outputs() {
        if let Signal::Gate(g) = s {
            let pdf = arrival[g.index()].clone();
            circuit_pdf = Some(match circuit_pdf {
                None => pdf.clone(),
                Some(acc) => max_pdf(&acc, &pdf, quality)?,
            });
            po_pdfs.push((name.clone(), pdf));
        }
    }
    Ok(BlockBasedResult {
        circuit_pdf: circuit_pdf.ok_or(CoreError::EmptyCircuit)?,
        po_pdfs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize::{characterize, characterize_placed};
    use crate::correlation::LayerModel;
    use crate::monte_carlo::mc_circuit_distribution;
    use statim_netlist::generators::iscas85::{self, Benchmark};
    use statim_netlist::{Placement, PlacementStyle};
    use statim_process::{GateKind, Technology, Variations};
    use statim_stats::Marginal;

    #[test]
    fn chain_matches_independent_sum() {
        // On a chain there is no reconvergence: the block-based result is
        // the exact independent sum (mean = Σ nominal, var = Σ σᵢ²).
        let mut c = statim_netlist::Circuit::new("chain");
        let mut s = c.add_input("a").unwrap();
        for i in 0..10 {
            s = c.add_gate(format!("g{i}"), GateKind::Inv, &[s]).unwrap();
        }
        c.mark_output("o", s).unwrap();
        let tech = Technology::cmos130();
        let vars = Variations::date05();
        let t = characterize(&c, &tech).unwrap();
        let r = block_based_sta(&c, &t, &vars, 200).unwrap();
        let mean_expect: f64 = t.gates().iter().map(|g| g.nominal).sum();
        let var_expect: f64 = (0..10)
            .map(|i| independent_gate_sigma(&t, i, &vars).powi(2))
            .sum();
        assert!((r.circuit_pdf.mean() - mean_expect).abs() / mean_expect < 0.01);
        assert!(
            (r.circuit_pdf.variance() - var_expect).abs() / var_expect < 0.05,
            "{} vs {}",
            r.circuit_pdf.variance(),
            var_expect
        );
    }

    #[test]
    fn underestimates_correlated_spread() {
        // The paper's criticism, quantified: with real (correlated)
        // variations the circuit-delay σ is larger than the
        // independence-assuming baseline reports.
        let c = iscas85::generate(Benchmark::C432);
        let p = Placement::generate(&c, PlacementStyle::Levelized);
        let tech = Technology::cmos130();
        let vars = Variations::date05();
        let t = characterize_placed(&c, &tech, &p).unwrap();
        let block = block_based_sta(&c, &t, &vars, 100).unwrap();
        let mc = mc_circuit_distribution(
            &c,
            &t,
            &p,
            &tech,
            &vars,
            &LayerModel::date05(),
            Marginal::Gaussian,
            10_000,
            100,
            9,
            0,
        )
        .unwrap();
        assert!(
            block.circuit_pdf.std_dev() < 0.75 * mc.sigma,
            "block σ {} should undershoot correlated σ {}",
            block.circuit_pdf.std_dev(),
            mc.sigma
        );
        // The independence assumption also biases the mean *upward*:
        // maxima of independent arrivals stack expectation faster than
        // the strongly correlated reality. Same family of error.
        assert!(block.circuit_pdf.mean() >= mc.mean * 0.995);
        assert!((block.circuit_pdf.mean() - mc.mean) / mc.mean < 0.15);
    }

    #[test]
    fn po_pdfs_cover_outputs() {
        let c = iscas85::generate(Benchmark::C432);
        let tech = Technology::cmos130();
        let vars = Variations::date05();
        let t = characterize(&c, &tech).unwrap();
        let r = block_based_sta(&c, &t, &vars, 60).unwrap();
        assert_eq!(r.po_pdfs.len(), c.output_count());
        // The circuit PDF dominates every PO mean.
        for (_, pdf) in &r.po_pdfs {
            assert!(r.circuit_pdf.mean() >= pdf.mean() - 1e-15);
        }
        assert!(r.sigma_point(3.0) > r.circuit_pdf.mean());
    }

    #[test]
    fn po_pdfs_follow_netlist_output_order() {
        // Regression: PO iteration must follow the netlist's declared
        // output order, not any hash-keyed traversal — the byte-stable
        // differential suite depends on it.
        let c = iscas85::generate(Benchmark::C880);
        let tech = Technology::cmos130();
        let vars = Variations::date05();
        let t = characterize(&c, &tech).unwrap();
        let r = block_based_sta(&c, &t, &vars, 40).unwrap();
        let declared: Vec<&str> = c
            .outputs()
            .iter()
            .filter(|(_, s)| matches!(s, Signal::Gate(_)))
            .map(|(n, _)| n.as_str())
            .collect();
        let got: Vec<&str> = r.po_pdfs.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(got, declared);
        // And the whole result is bit-stable across repeat runs.
        let again = block_based_sta(&c, &t, &vars, 40).unwrap();
        assert_eq!(r, again);
    }

    #[test]
    fn empty_circuit_rejected() {
        let c = statim_netlist::Circuit::new("e");
        let tech = Technology::cmos130();
        // Cannot even characterize an empty circuit.
        assert!(characterize(&c, &tech).is_err());
    }
}
