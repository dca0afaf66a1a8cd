//! The experiment registry: every report `run_all` can write, in run
//! order, each a function of the one shared [`ExperimentContext`].

use crate::report::Report;
use crate::ExperimentContext;

/// One registered experiment.
pub struct Experiment {
    /// Registry name: the command-line selector, the report's file stem
    /// (`<name>.txt`) and the module that computes it.
    pub name: &'static str,
    /// Whether a `VIOLATED` shape check makes `run_all` exit 1. Only the
    /// experiments whose claims are the repository's own gate.
    pub gates: bool,
    /// Computes the report on the shared world.
    pub run: fn(&ExperimentContext) -> Report,
}

/// Declares each experiment's module and lists it, under the module's
/// name, in [`EXPERIMENTS`].
macro_rules! registry {
    ($($name:ident: $gates:literal,)*) => {
        $(mod $name;)*

        /// Every experiment, in `run_all` order.
        pub static EXPERIMENTS: [Experiment; 17] = [$(Experiment {
            name: stringify!($name),
            gates: $gates,
            run: $name::run,
        }),*];
    };
}

registry! {
    fig4: false,
    fig5: false,
    table1: false,
    fig6: false,
    fig7: false,
    bounds_ablation: false,
    sensitivity: false,
    window_sweep: false,
    extended_taqf: false,
    if_ablation: false,
    forest_ablation: true,
    conformal_head_to_head: true,
    drift_adaptation: true,
    scenario_dropout: true,
    scenario_regime_switch: true,
    scenario_heavy_tails: true,
    scenario_multi_source: true,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    #[test]
    fn registry_matches_modules_and_lib_doc_table() {
        let names: BTreeSet<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        assert_eq!(names.len(), EXPERIMENTS.len(), "duplicate registry name");

        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src/experiment");
        let modules: BTreeSet<String> = std::fs::read_dir(&dir)
            .expect("src/experiment exists")
            .map(|entry| entry.expect("readable entry").path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "rs"))
            .map(|path| {
                path.file_stem()
                    .expect("stem")
                    .to_string_lossy()
                    .into_owned()
            })
            .collect();
        let registered: BTreeSet<String> = names.iter().map(|n| n.to_string()).collect();
        assert_eq!(
            modules, registered,
            "every experiment module is registered once"
        );

        // The lib doc table: `| `name` | artifact | gates | what it reports |`.
        let doc_gates: BTreeMap<String, bool> = include_str!("lib.rs")
            .lines()
            .filter_map(|line| line.strip_prefix("//! | `"))
            .map(|row| {
                let cells: Vec<&str> = row.split('|').map(str::trim).collect();
                let name = cells[0].trim_end_matches('`').to_string();
                (name, cells[2] == "yes")
            })
            .collect();
        let registry_gates: BTreeMap<String, bool> = EXPERIMENTS
            .iter()
            .map(|e| (e.name.to_string(), e.gates))
            .collect();
        assert_eq!(
            doc_gates, registry_gates,
            "the lib doc table must list every entry with its gate"
        );
        assert_eq!(EXPERIMENTS.iter().filter(|e| e.gates).count(), 7);
    }
}
