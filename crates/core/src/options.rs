//! The option table: how every front end sets an [`SstaConfig`] from
//! `key value` text. `statim analyze` and its sibling commands (as
//! `--key value`), daemon `SUBMIT` lines (as `key=value`) and the bench
//! regeneration binaries all go through [`SstaConfig::set_option`], so
//! each option's name, text syntax and target field live here once.
//! [`PlacementOptions`] does the same for the two placement options.
//!
//! A front end keeps only its own keys (the CLI's `-C` alias and output
//! flags; the daemon's `deadline`, `cache` and `solver`) and decides how
//! an error reaches its user: the CLI prints usage for a `Parse`-class
//! error and exits 3 for a `Config`-class one, the daemon answers every
//! option error with `ERR CONFIG`.

use crate::correlation::LayerModel;
use crate::engine::SstaConfig;
use crate::error::{ErrorClass, StatimError};
use statim_netlist::{def_lite, Circuit, Placement, PlacementStyle};
use statim_stats::ConvolveBackend;
use std::str::FromStr;

impl SstaConfig {
    /// Sets the analysis option `key` from its text `value`:
    ///
    /// | key | field | value |
    /// |---|---|---|
    /// | `confidence` | [`confidence`](SstaConfig::confidence) (C) | float |
    /// | `quality-intra` | [`quality_intra`](SstaConfig::quality_intra) | integer |
    /// | `quality-inter` | [`quality_inter`](SstaConfig::quality_inter) | integer |
    /// | `max-paths` | [`max_paths`](SstaConfig::max_paths) | integer |
    /// | `threads` | [`threads`](SstaConfig::threads) | integer, 0 = all cores |
    /// | `retries` | [`retries`](SstaConfig::retries) | integer |
    /// | `backend` | [`backend`](SstaConfig::backend) | `grid` or `fft` |
    /// | `inter-share` | [`layers`](SstaConfig::layers) (Table 3 split) | float |
    /// | `max-wall-secs` | [`budget`](SstaConfig::budget) wall clock | float |
    /// | `max-analyzed-paths` | [`budget`](SstaConfig::budget) paths | integer |
    /// | `max-mc-samples` | [`budget`](SstaConfig::budget) samples | integer |
    /// | `fault-plan` | `faults` (fault-injection builds) | plan spec |
    ///
    /// Returns `Ok(false)`, changing nothing, for a key the table does
    /// not own, whatever the value. Values are checked for syntax only;
    /// ranges are checked when the configuration runs, so `confidence`
    /// `-0.5` is accepted here and refused by the engine.
    ///
    /// # Errors
    ///
    /// A `Parse`-class error for a value that does not parse as the
    /// field's number type. A `Config`-class error for a value the table
    /// refuses: an unknown backend, a malformed fault plan, or any fault
    /// plan in a build without the `fault-injection` feature.
    pub fn set_option(&mut self, key: &str, value: &str) -> Result<bool, StatimError> {
        match key {
            "confidence" => self.confidence = parse_value(key, value)?,
            "quality-intra" => self.quality_intra = parse_value(key, value)?,
            "quality-inter" => self.quality_inter = parse_value(key, value)?,
            "max-paths" => self.max_paths = parse_value(key, value)?,
            "threads" => self.threads = Some(parse_value(key, value)?),
            "retries" => self.retries = parse_value(key, value)?,
            "backend" => self.backend = parse_backend(value)?,
            "inter-share" => self.layers = LayerModel::with_inter_share(parse_value(key, value)?),
            "max-wall-secs" => self.budget.max_wall_secs = Some(parse_value(key, value)?),
            "max-analyzed-paths" => self.budget.max_paths = Some(parse_value(key, value)?),
            "max-mc-samples" => self.budget.max_mc_samples = Some(parse_value(key, value)?),
            "fault-plan" => self.set_fault_plan(value)?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    #[cfg(feature = "fault-injection")]
    fn set_fault_plan(&mut self, spec: &str) -> Result<(), StatimError> {
        self.faults = Some(std::sync::Arc::new(spec.parse()?));
        Ok(())
    }

    /// Without the registry a plan cannot be honoured, and ignoring it
    /// would pass fault-free results off as faulted ones.
    #[cfg(not(feature = "fault-injection"))]
    fn set_fault_plan(&mut self, _spec: &str) -> Result<(), StatimError> {
        Err(StatimError::new(
            ErrorClass::Config,
            "fault-plan needs a fault-injection build (cargo build --features fault-injection)",
        ))
    }
}

/// Where a run's gate placement comes from: the `def` and
/// `random-place` options. A DEF file wins over a random seed, whichever
/// came first; with neither, the placement is levelized.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlacementOptions {
    /// DEF(-lite) file to read the placement from (`def`).
    pub def: Option<String>,
    /// Seed of a random placement (`random-place`).
    pub random_seed: Option<u64>,
}

impl PlacementOptions {
    /// Sets `def` or `random-place` from its text; `Ok(false)` for any
    /// other key, whatever the value.
    ///
    /// # Errors
    ///
    /// A `Parse`-class error for a seed that is not an integer.
    pub fn set_option(&mut self, key: &str, value: &str) -> Result<bool, StatimError> {
        match key {
            "def" => self.def = Some(value.to_string()),
            "random-place" => self.random_seed = Some(parse_value(key, value)?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Whether neither option is set, so the levelized default applies.
    pub fn is_levelized(&self) -> bool {
        self.def.is_none() && self.random_seed.is_none()
    }

    /// The placement of `circuit` these options select.
    ///
    /// # Errors
    ///
    /// The DEF file's read, parse or mismatch error, naming the file.
    pub fn resolve(&self, circuit: &Circuit) -> Result<Placement, StatimError> {
        let Some(path) = &self.def else {
            let style = self
                .random_seed
                .map_or(PlacementStyle::Levelized, PlacementStyle::Random);
            return Ok(Placement::generate(circuit, style));
        };
        let in_file = |e: StatimError| e.with_file(path.as_str());
        let text = std::fs::read_to_string(path).map_err(|e| in_file(e.into()))?;
        def_lite::parse(&text)
            .map_err(|e| in_file(e.into()))?
            .placement_for(circuit)
            .map_err(|e| in_file(e.into()))
    }
}

/// Parses a convolution backend name, `grid` or `fft`, for the
/// `backend` option of the table and of `statim serve`.
///
/// # Errors
///
/// A `Config`-class error naming the unknown backend.
pub fn parse_backend(value: &str) -> Result<ConvolveBackend, StatimError> {
    value
        .parse()
        .map_err(|e: String| StatimError::new(ErrorClass::Config, e))
}

/// Parses an option value as `T`, in the wording every front end
/// shares.
///
/// # Errors
///
/// A `Parse`-class error naming the option and the value.
pub fn parse_value<T: FromStr>(key: &str, value: &str) -> Result<T, StatimError> {
    value.parse().map_err(|_| {
        StatimError::new(
            ErrorClass::Parse,
            format!("invalid value `{value}` for option `{key}`"),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correlation::VarianceSplit;
    use statim_netlist::generators::iscas85::{self, Benchmark};

    /// Applies `key value` to the paper's configuration and demands the
    /// result equal `expected`: the same configuration with only the
    /// option's own field changed.
    fn sets(key: &str, value: &str, expected: &SstaConfig) -> SstaConfig {
        let mut config = SstaConfig::date05();
        assert_eq!(config.set_option(key, value), Ok(true), "{key}");
        assert_eq!(&config, expected, "{key} {value} set more than its field");
        config
    }

    #[test]
    fn each_key_sets_exactly_its_own_field() {
        let base = SstaConfig::date05;
        let c = sets("confidence", "0.1", &base().with_confidence(0.1));
        assert_eq!(c.confidence.to_bits(), 0.1f64.to_bits());
        // Ranges are the engine's to check, not the table's.
        let c = sets("confidence", "-0.5", &base().with_confidence(-0.5));
        assert_eq!(c.confidence.to_bits(), (-0.5f64).to_bits());
        let mut want = base();
        want.quality_intra = 40;
        sets("quality-intra", "40", &want);
        let mut want = base();
        want.quality_inter = 20;
        sets("quality-inter", "20", &want);
        let mut want = base();
        want.max_paths = 77;
        sets("max-paths", "77", &want);
        sets("threads", "0", &base().with_threads(0));
        sets("threads", "3", &base().with_threads(3));
        sets("retries", "0", &base().with_retries(0));
        sets(
            "backend",
            "fft",
            &base().with_backend(statim_stats::ConvolveBackend::Fft),
        );
        sets(
            "backend",
            "grid",
            &base().with_backend(statim_stats::ConvolveBackend::Grid),
        );
        let c = sets(
            "inter-share",
            "0.35",
            &base().with_layers(LayerModel::with_inter_share(0.35)),
        );
        match c.layers.split {
            VarianceSplit::InterShare(s) => assert_eq!(s.to_bits(), 0.35f64.to_bits()),
            other => panic!("{other:?}"),
        }
        let mut want = base();
        want.budget.max_wall_secs = Some(2.5);
        let c = sets("max-wall-secs", "2.5", &want);
        assert_eq!(
            c.budget.max_wall_secs.map(f64::to_bits),
            Some(2.5f64.to_bits())
        );
        let mut want = base();
        want.budget.max_paths = Some(3);
        sets("max-analyzed-paths", "3", &want);
        let mut want = base();
        want.budget.max_mc_samples = Some(8192);
        sets("max-mc-samples", "8192", &want);
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn fault_plan_sets_only_the_plan() {
        let plan: crate::faults::FaultPlan = "seed=7;nan-path@1,3".parse().unwrap();
        sets(
            "fault-plan",
            "seed=7;nan-path@1,3",
            &SstaConfig::date05().with_faults(plan),
        );
        let err = SstaConfig::date05()
            .set_option("fault-plan", "frobnicate@1")
            .unwrap_err();
        assert_eq!(err.class, ErrorClass::Config);
    }

    #[cfg(not(feature = "fault-injection"))]
    #[test]
    fn fault_plan_is_refused_without_the_registry() {
        let mut config = SstaConfig::date05();
        let err = config.set_option("fault-plan", "nan-path@1").unwrap_err();
        assert_eq!(err.class, ErrorClass::Config);
        assert!(err.message.contains("fault-injection build"), "{err}");
        assert_eq!(config, SstaConfig::date05());
    }

    #[test]
    fn foreign_keys_are_declined_whatever_the_value() {
        // The daemon's own keys, the CLI's own flags, the placement
        // options and a near miss: none is the table's.
        for key in [
            "deadline",
            "cache",
            "solver",
            "cache-capacity",
            "def",
            "random-place",
            "top",
            "C",
            "--threads",
            "",
        ] {
            for value in ["", "abc", "1"] {
                let mut config = SstaConfig::date05();
                assert_eq!(config.set_option(key, value), Ok(false), "{key}={value}");
                assert_eq!(config, SstaConfig::date05());
            }
        }
    }

    #[test]
    fn malformed_values_are_parse_errors_and_refused_ones_config() {
        for (key, value) in [
            ("threads", "abc"),
            ("threads", ""),
            ("threads", "-1"),
            ("confidence", "x"),
            ("quality-intra", "1.5"),
            ("max-paths", "many"),
            ("retries", "once"),
            ("inter-share", "half"),
            ("max-wall-secs", "soon"),
            ("max-analyzed-paths", "-3"),
            ("max-mc-samples", "1e3"),
        ] {
            let err = SstaConfig::date05().set_option(key, value).unwrap_err();
            assert_eq!(err.class, ErrorClass::Parse, "{key}={value}");
            assert_eq!(
                err.message,
                format!("invalid value `{value}` for option `{key}`")
            );
        }
        let err = SstaConfig::date05()
            .set_option("backend", "warp")
            .unwrap_err();
        assert_eq!(err.class, ErrorClass::Config);
        assert!(err.message.contains("unknown backend `warp`"), "{err}");
    }

    #[test]
    fn placement_def_wins_whatever_the_order() {
        let mut p = PlacementOptions::default();
        assert!(p.is_levelized());
        assert_eq!(p.set_option("random-place", "9"), Ok(true));
        assert_eq!(p.set_option("def", "a.def"), Ok(true));
        assert_eq!(p.set_option("random-place", "11"), Ok(true));
        assert_eq!(
            p,
            PlacementOptions {
                def: Some("a.def".into()),
                random_seed: Some(11),
            }
        );
        assert!(!p.is_levelized());
        assert_eq!(p.set_option("confidence", "0.1"), Ok(false));
        let err = p.set_option("random-place", "x").unwrap_err();
        assert_eq!(err.class, ErrorClass::Parse);
        // The DEF file is read even with a seed set, and its errors name it.
        let circuit = iscas85::generate(Benchmark::C432);
        let err = p.resolve(&circuit).unwrap_err();
        assert_eq!(err.file.as_deref(), Some("a.def"));
    }

    #[test]
    fn placement_resolves_seeded_and_levelized_styles() {
        let circuit = iscas85::generate(Benchmark::C432);
        let levelized = PlacementOptions::default().resolve(&circuit).unwrap();
        assert_eq!(
            levelized,
            Placement::generate(&circuit, PlacementStyle::Levelized)
        );
        let seeded = PlacementOptions {
            def: None,
            random_seed: Some(5),
        };
        assert_eq!(
            seeded.resolve(&circuit).unwrap(),
            Placement::generate(&circuit, PlacementStyle::Random(5))
        );
    }
}
