//! Content identity pins. A profile's id is the FNV-1a of its canonical
//! JSON, so any change to the canonical bytes — a serializer rewrite, a
//! float format, a field order — silently re-keys every stored corpus.
//! These values were captured from the tree-building serializer and must
//! never move; the pretty-printed report, diff and view exports are
//! pinned the same way for the client-visible bytes.

use numa_analysis::{analyze, diff, export_address_view, Analyzer};
use numa_machine::{Machine, MachinePreset};
use numa_profiler::{NumaProfile, ProfilerConfig, RangeScope};
use numa_sampling::{MechanismConfig, MechanismKind};
use numa_sim::ExecMode;
use numa_store::{fnv1a, ProfileId};
use numa_workloads::{
    run_profiled, Amg2006, AmgVariant, Blackscholes, BlackscholesVariant, Lulesh, LuleshVariant,
    Umt2013, UmtVariant, Workload,
};
use std::sync::OnceLock;

const THREADS: usize = 8;

/// Profile `w` as `hpcrun-sim` does by default (AMD Magny-Cours, IBS at
/// period scale 64, 5 address bins, sequential mode).
fn run(w: &dyn Workload) -> NumaProfile {
    let machine = Machine::from_preset(MachinePreset::AmdMagnyCours);
    let config = ProfilerConfig::new(MechanismConfig::scaled(MechanismKind::Ibs, 64)).with_bins(5);
    run_profiled(w, machine, THREADS, ExecMode::Sequential, config).2
}

/// The four case studies at `hpcrun-sim --size small`.
fn studies() -> &'static [(&'static str, NumaProfile); 4] {
    static STUDIES: OnceLock<[(&str, NumaProfile); 4]> = OnceLock::new();
    STUDIES.get_or_init(|| {
        [
            ("lulesh", run(&Lulesh::new(20, 3, LuleshVariant::Baseline))),
            (
                "amg2006",
                run(&Amg2006::new(32 * 1024, 2, AmgVariant::Baseline)),
            ),
            (
                "blackscholes",
                run(&Blackscholes::new(256, 20, BlackscholesVariant::Baseline)),
            ),
            (
                "umt2013",
                run(&Umt2013::new(16, 64, 64, 2, UmtVariant::Baseline)),
            ),
        ]
    })
}

fn digest(text: &str) -> (String, usize) {
    (format!("{:016x}", fnv1a(text.as_bytes())), text.len())
}

#[test]
fn profile_ids_and_canonical_lengths_are_pinned() {
    let pins = [
        ("lulesh", "0251d1ffc735eef9", 71522),
        ("amg2006", "5a864542e165e116", 71848),
        ("blackscholes", "636411b692a9e42a", 29266),
        ("umt2013", "8c28500c83ba3ccd", 43419),
    ];
    for ((name, profile), (pin_name, id, len)) in studies().iter().zip(pins) {
        assert_eq!(*name, pin_name);
        let (got, got_len) = ProfileId::of(profile);
        assert_eq!((got.to_string().as_str(), got_len), (id, len), "{name}");
    }
}

#[test]
fn streamed_id_is_the_hash_of_the_canonical_json() {
    for (name, profile) in studies() {
        let canonical = profile.to_json();
        assert_eq!(
            ProfileId::of(profile),
            (ProfileId(fnv1a(canonical.as_bytes())), canonical.len()),
            "{name}"
        );
    }
}

#[test]
fn pretty_exports_are_pinned() {
    let [lulesh, _, (_, blackscholes), _] = studies();
    let lulesh = Analyzer::new(lulesh.1.clone());

    let report = analyze(&lulesh).to_json();
    assert_eq!(digest(&report), ("43a55ea6151f0b21".to_string(), 9368));

    let regrouped = run(&Blackscholes::new(256, 20, BlackscholesVariant::Regrouped));
    let delta = diff(
        &Analyzer::new(blackscholes.clone()),
        &Analyzer::new(regrouped),
    )
    .to_json();
    assert_eq!(digest(&delta), ("68fe90acf41c6345".to_string(), 1634));

    let nodelist = lulesh.var_named("nodelist").expect("LULESH has nodelist");
    let view = export_address_view(&lulesh, nodelist, RangeScope::Program);
    assert_eq!(digest(&view), ("3eab65409e1d48d2".to_string(), 1162));
}
