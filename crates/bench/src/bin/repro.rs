//! `repro` — regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! repro <experiment>
//!   table2 table4 table5 table6 table7 table8 table9
//!   fig6 fig8 fig9 fig10
//!   io pager parallel churn serve cascade ablation bounds compress
//!   all        # everything (dataset suite computed once)
//! ```
//!
//! `repro parallel` additionally accepts `--threads N` (top worker count
//! of the reported speedup, default 4), `--min-speedup X` (fail when
//! the steady-state speedup falls short; skipped on machines with fewer
//! than `N` hardware threads) and `--trace FILE` (record every side's
//! spans).
//!
//! Environment: `REPRO_SCALE` (default 1.0) scales analogue/sweep sizes,
//! `REPRO_GRAPHS_PER_BETA` (default 3) controls sweep averaging.

use mis_bench::experiments::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let what = args.first().map(String::as_str).unwrap_or("help");
    match what {
        "table2" => table2::run(),
        "table4" => table4::run(),
        "table5" => table5::run(),
        "table6" => table6::run(),
        "table7" => table7::run(),
        "table8" => table8::run(),
        "table9" => table9::run(),
        "fig6" => fig6::run(),
        "fig8" => fig8::run(),
        "fig9" => fig9::run(),
        "fig10" => fig10::run(),
        "io" => io::run(),
        "pager" => pager::run(),
        "parallel" => parallel::run_args(&args[1..]),
        "churn" => churn::run(),
        "serve" => serve::run(),
        "cascade" => cascade::run(),
        "ablation" => ablation::run(),
        "bounds" => extensions::bounds(),
        "compress" => compress::run(),
        "all" => {
            table4::run();
            println!();
            let runs = datasets::run_suite();
            println!();
            table5::print(&runs);
            println!();
            fig9::print(&runs);
            println!();
            table6::print(&runs);
            println!();
            table7::print(&runs);
            println!();
            table8::print(&runs);
            println!();
            table2::run();
            println!();
            fig6::run();
            println!();
            fig8::run();
            println!();
            table9::run();
            println!();
            fig10::run();
            println!();
            io::run();
            println!();
            pager::run();
            println!();
            parallel::run();
            println!();
            churn::run();
            println!();
            serve::run();
            println!();
            cascade::run();
            println!();
            ablation::run();
            println!();
            extensions::bounds();
            println!();
            compress::run();
        }
        _ => {
            eprintln!(
                "usage: repro <table2|table4|table5|table6|table7|table8|table9|fig6|fig8|fig9|fig10|io|pager|parallel|churn|serve|cascade|ablation|bounds|compress|all>"
            );
            std::process::exit(2);
        }
    }
}
