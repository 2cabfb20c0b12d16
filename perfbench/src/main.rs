//! Benchmark binary; see the crate documentation and `perfbench/run.py`.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match perfbench::Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("perfbench: create {}: {e}", args.work.display());
        return ExitCode::from(2);
    }
    let mut out = perfbench::run(&args);
    if args.trace {
        let path = args
            .work
            .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = std::fs::write(&path, out.tracer.to_jsonl()) {
            out.gate
                .check(&format!("write {}: {e}", path.display()), false);
        }
    }
    let (detail, result) = perfbench::render(&args, &mut out);
    println!("{detail}");
    println!("{result}");
    if out.gate.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
