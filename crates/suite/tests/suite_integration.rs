//! Suite-wide integration: for every benchmark kernel, the protected TAL_FT
//! program type-checks (it is *provably* fault tolerant), executes on the
//! faulty machine with the exact reference trace, and survives a sampled
//! single-fault campaign with zero silent data corruption, while the
//! unprotected baseline shows SDC under the same campaign.

use talft_compiler::{compile, vir::interpret, CompileOptions};
use talft_core::check_program;
use talft_faultsim::{run_campaign, CampaignConfig};
use talft_machine::{run_program, Status};
use talft_suite::{kernels, Scale};

#[test]
fn every_kernel_protected_output_type_checks() {
    for k in kernels(Scale::Tiny) {
        let mut c = compile(&k.source, &CompileOptions::default())
            .unwrap_or_else(|e| panic!("{}: {e}", k.name));
        check_program(&c.protected.program, &mut c.protected.arena)
            .unwrap_or_else(|e| panic!("{} rejected by the checker: {e}", k.name));
    }
}

#[test]
fn every_kernel_runs_with_reference_trace() {
    for k in kernels(Scale::Small) {
        let c = compile(&k.source, &CompileOptions::default())
            .unwrap_or_else(|e| panic!("{}: {e}", k.name));
        let reference = interpret(&c.vir, 50_000_000);
        assert!(reference.halted, "{}: reference did not halt", k.name);
        let prot = run_program(&c.protected.program, 200_000_000);
        assert_eq!(
            prot.status,
            Status::Halted,
            "{}: protected did not halt",
            k.name
        );
        assert_eq!(
            prot.trace, reference.trace,
            "{}: protected trace diverges",
            k.name
        );
        let base = run_program(&c.baseline.program, 200_000_000);
        assert_eq!(
            base.status,
            Status::Halted,
            "{}: baseline did not halt",
            k.name
        );
        assert_eq!(
            base.trace, reference.trace,
            "{}: baseline trace diverges",
            k.name
        );
    }
}

#[test]
fn sampled_campaign_finds_no_sdc_in_protected_kernels() {
    // A strided campaign over three representative kernels (the full
    // exhaustive campaign is the `campaign` bench harness).
    let cfg = CampaignConfig {
        stride: 97,
        mutations_per_site: 2,
        ..CampaignConfig::default()
    };
    for k in kernels(Scale::Tiny).into_iter().take(3) {
        let c = compile(&k.source, &CompileOptions::default()).expect("compiles");
        let rep = run_campaign(&c.protected.program, &cfg).expect("golden run halts");
        assert!(rep.total > 0, "{}: empty campaign", k.name);
        assert!(
            rep.fault_tolerant(),
            "{}: Theorem 4 violated: {:?}",
            k.name,
            rep.violations
        );
    }
}

#[test]
fn sampled_campaign_finds_sdc_in_baseline() {
    let cfg = CampaignConfig {
        stride: 13,
        mutations_per_site: 3,
        ..CampaignConfig::default()
    };
    let mut found_sdc = false;
    for k in kernels(Scale::Tiny).into_iter().take(3) {
        let c = compile(&k.source, &CompileOptions::default()).expect("compiles");
        let rep = run_campaign(&c.baseline.program, &cfg).expect("golden run halts");
        if rep.sdc > 0 {
            found_sdc = true;
            break;
        }
    }
    assert!(
        found_sdc,
        "baseline kernels should exhibit SDC under faults"
    );
}
