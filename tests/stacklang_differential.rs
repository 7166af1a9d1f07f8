//! Every compiled §3 scenario runs identically on the environment machine
//! and on the substitution machine of Fig. 2 ([`stacklang::reference`]):
//! seeds 0..500 of the `sharedmem` case study under all four generation
//! presets, compared on outcome, final heap and stack (rendered, and
//! structurally), step count and every `VmCounters` field.

use semint::core::case::{CaseStudy, GenProfile};
use sharedmem::harness::SharedMemCase;
use stacklang::{reference, Machine};

#[test]
fn compiled_sharedmem_scenarios_run_identically_on_both_machines() {
    let case = SharedMemCase::standard();
    for profile in GenProfile::presets() {
        for seed in 0..500 {
            let scenario = case.generate(seed, &profile);
            let compiled = case.compile(&scenario.program).expect("well-typed");
            let ours = Machine::run_program(compiled.clone(), profile.fuel);
            let oracle = reference::run_program(compiled, profile.fuel);
            let context = format!("profile {} seed {seed}", profile.name);
            assert_eq!(
                ours.outcome.to_string(),
                oracle.outcome.to_string(),
                "{context}"
            );
            assert_eq!(ours.heap.to_string(), oracle.heap.to_string(), "{context}");
            assert_eq!(
                ours.stack.to_string(),
                oracle.stack.to_string(),
                "{context}"
            );
            assert_eq!(ours.steps, oracle.steps, "{context}");
            assert_eq!(ours.counters, oracle.counters, "{context}");
            assert_eq!(ours, oracle, "{context}");
        }
    }
}
