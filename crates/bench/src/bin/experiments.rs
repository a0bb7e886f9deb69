//! Experiment harness: prints every table DESIGN.md §4 indexes to stdout.
//!
//! Usage:
//!
//! ```console
//! cargo run --release -p congest-bench --bin experiments [-- --quick]
//! ```
//!
//! `--quick` shrinks every table to sizes that finish in seconds; the full run
//! takes minutes. Any other argument is rejected (exit status 2), so a stale
//! script cannot fall through to the full run. Timing lives elsewhere: the
//! repo's one benchmark is the `bench/` package (see `bench/README.md`).

use congest_bench::experiments as ex;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut quick = false;
    for arg in std::env::args().skip(1) {
        if arg == "--quick" {
            quick = true;
        } else {
            eprintln!("usage: experiments [--quick] (unknown argument `{arg}`)");
            return ExitCode::from(2);
        }
    }
    let seed = 20250608;

    println!("# Experiment tables — Message Optimality and Message-Time Trade-offs for APSP");
    println!();
    println!(
        "mode: {} | seed: {seed} | all APSP/matching rows verified against sequential oracles",
        if quick { "quick" } else { "full" }
    );
    println!();
    assert!(ex::equality_smoke(seed), "simulated != direct — abort");

    #[allow(clippy::type_complexity)]
    let (t11_ns, t12_n, sweep_ns, t21_n, l24_n, l37_trials, t14_n, c28, c29_n, l38_n): (
        Vec<usize>,
        usize,
        Vec<usize>,
        usize,
        usize,
        usize,
        usize,
        Vec<usize>,
        usize,
        usize,
    ) = if quick {
        (
            vec![16, 24, 32],
            24,
            vec![16, 24, 32],
            24,
            48,
            10,
            40,
            vec![6, 10],
            20,
            32,
        )
    } else {
        (
            vec![32, 48, 64, 96, 128],
            48,
            vec![32, 48, 64, 96, 128, 160],
            40,
            96,
            40,
            80,
            vec![8, 12, 16, 24],
            28,
            64,
        )
    };

    print!("{}", ex::e_t1_1(&t11_ns, seed).render());
    print!(
        "{}",
        ex::e_t1_2(t12_n, &[0.0, 0.25, 0.5, 0.75, 1.0], seed).render()
    );
    print!("{}", ex::e_t1_2_scaling(&sweep_ns, 1.0, seed).render());
    print!("{}", ex::e_t2_1(t21_n, seed).render());
    print!("{}", ex::e_l2_4(l24_n, seed).render());
    print!("{}", ex::e_t3_3(48, &[0.25, 0.34, 0.5], seed).render());
    print!("{}", ex::e_l3_7(48, l37_trials, seed).render());
    print!("{}", ex::e_l3_8(l38_n, seed).render());
    print!("{}", ex::e_t1_4(t14_n, &[8, 16, 32], seed).render());
    print!("{}", ex::e_c2_8(&c28, seed).render());
    print!("{}", ex::e_c2_9(c29_n, seed).render());
    print!(
        "{}",
        ex::e_ext_weighted_tradeoff(if quick { 16 } else { 24 }, seed).render()
    );
    print!(
        "{}",
        ex::e_abl_delays(if quick { 32 } else { 64 }, seed).render()
    );
    print!(
        "{}",
        ex::e_abl_strict_budget(if quick { 24 } else { 40 }, seed).render()
    );

    println!("done.");
    ExitCode::SUCCESS
}
