//! The paper's evaluation as a library: the experiment modules, a
//! shared [`Args`] options struct, and the [`registry`] — the one table
//! of experiments the `experiments` binary selects from.
//!
//! Each experiment prints its table and writes machine-readable rows to
//! `<out_dir>/<name>.json`. The binary in `src/bin/experiments.rs` is a
//! thin CLI: it parses flags into [`Args`] and runs what [`select`]
//! returns.

mod ablate;
mod analyze;
mod common;
mod fig1;
mod fig11;
mod fig12;
mod fig2;
mod fig3;
mod fig9;
mod hints;
mod inject;
mod sample;
mod serve;
mod shape;
mod smt;
mod submit;
mod sweeps;
mod table1;
mod table2;
mod table3;

pub use common::{die, write_json_atomic, Args, ExpError, RF_SIZES};
pub use serve::SimExecutor;

use sweeps::speedup_sweep;

/// An experiment entry point. Harness failures (result-file I/O, the
/// job service) surface as [`ExpError`] values; the binary prints them
/// and exits non-zero.
pub type ExperimentFn = fn(&Args) -> Result<(), ExpError>;

/// Which run of `all` an experiment belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    /// The paper's evaluation and its extensions: plain `all`.
    Paper,
    /// The two-speed registry, everything that scales to 10⁹:
    /// `all --sample`.
    Sampled,
    /// The job service pair: `serve` blocks on a listener and `submit`
    /// needs one, so no `all` runs them.
    Service,
}

/// One registry row.
pub struct Experiment {
    /// The subcommand name.
    pub name: &'static str,
    /// The `all` run that includes it.
    pub group: Group,
    /// The entry point.
    pub run: ExperimentFn,
}

const fn row(name: &'static str, group: Group, run: ExperimentFn) -> Experiment {
    Experiment { name, group, run }
}

/// Every experiment in canonical order — `all` runs its group in
/// exactly this sequence, so the registry order is part of the
/// reproducibility contract.
pub fn registry() -> &'static [Experiment] {
    use Group::{Paper, Sampled, Service};
    static REGISTRY: [Experiment; 23] = [
        row("fig1", Paper, fig1::run),
        row("fig2", Paper, fig2::run),
        row("fig3", Paper, fig3::run),
        row("table1", Paper, table1::run),
        row("table2", Paper, table2::run),
        row("table3", Paper, table3::run),
        row("fig9", Paper, fig9::run),
        row("fig10", Paper, |a| speedup_sweep(a, false)),
        row("fig10ec", Paper, |a| speedup_sweep(a, true)),
        row("fig11", Paper, fig11::run),
        row("fig12", Paper, fig12::run),
        row("analyze", Paper, analyze::run),
        row("hints", Paper, hints::run),
        row("ablate-counter", Paper, ablate::counter),
        row("ablate-speculation", Paper, ablate::speculation),
        row("ablate-predictor", Paper, ablate::predictor),
        row("ablate-banks", Paper, ablate::banks),
        row("inject", Paper, inject::run),
        row("smt", Paper, smt::run),
        row("sample", Sampled, sample::run),
        row("shape", Sampled, shape::run),
        row("serve", Service, serve::run),
        row("submit", Service, submit::run),
    ];
    &REGISTRY
}

/// The experiments a command line selects, in run order. If any name
/// is `all`, that is the [`Group::Paper`] rows (or, with `sample`, the
/// [`Group::Sampled`] rows) in registry order; otherwise the named
/// experiments in request order.
///
/// # Errors
///
/// Returns the diagnostic for the first name the registry lacks.
pub fn select(names: &[String], sample: bool) -> Result<Vec<&'static Experiment>, String> {
    if names.iter().any(|n| n == "all") {
        let group = if sample { Group::Sampled } else { Group::Paper };
        return Ok(registry().iter().filter(|e| e.group == group).collect());
    }
    names
        .iter()
        .map(|name| {
            registry()
                .iter()
                .find(|e| e.name == name)
                .ok_or_else(|| format!("unknown experiment: {name} (try --help)"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(exps: &[&str], sample: bool) -> Result<Vec<&'static str>, String> {
        let exps: Vec<String> = exps.iter().map(|s| s.to_string()).collect();
        select(&exps, sample).map(|sel| sel.iter().map(|e| e.name).collect())
    }

    #[test]
    fn all_is_the_paper_group_in_registry_order() {
        // The `all` order is part of the reproducibility contract; the
        // sampled and service rows stay out.
        let paper: Vec<&str> = "fig1 fig2 fig3 table1 table2 table3 fig9 fig10 fig10ec fig11 \
            fig12 analyze hints ablate-counter ablate-speculation ablate-predictor \
            ablate-banks inject smt"
            .split_whitespace()
            .collect();
        assert_eq!(names(&["all"], false).unwrap(), paper);
    }

    #[test]
    fn all_sample_is_the_sampled_pair() {
        assert_eq!(names(&["all"], true).unwrap(), ["sample", "shape"]);
    }

    #[test]
    fn named_experiments_run_in_request_order() {
        assert_eq!(
            names(&["fig11", "ablate-banks", "fig10"], false).unwrap(),
            ["fig11", "ablate-banks", "fig10"]
        );
    }

    #[test]
    fn unknown_name_is_an_error() {
        let err = names(&["fig1", "fig99"], false).unwrap_err();
        assert!(err.contains("fig99"), "{err}");
    }

    #[test]
    fn registry_names_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for e in registry() {
            assert!(seen.insert(e.name), "duplicate experiment {}", e.name);
        }
    }
}
