//! Command-line entry point; see the library documentation.

use std::path::Path;
use std::process::ExitCode;

use perfbench::metrics_json;
use perfbench::pipeline::fnv1a;
use perfbench::trace::write_spans;
use perfbench::workloads::{Kind, Params};

const USAGE: &str = "usage: perfbench --workload <cold_start|steady_sim|shared_asid> \
                     --seed <u64> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<(Kind, Params), String> {
    let mut kind = None;
    let mut p = Params {
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(v).ok_or(format!("unknown workload {v}"))?),
            "--seed" => p.seed = v.parse().map_err(|e| format!("--seed {v}: {e}"))?,
            "--seconds" => {
                p.seconds = v.parse().map_err(|e| format!("--seconds {v}: {e}"))?;
                if !(p.seconds.is_finite() && p.seconds > 0.0) {
                    return Err(format!("--seconds {v}: must be positive"));
                }
            }
            "--trace" => {
                p.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {v}: must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((kind.ok_or("--workload is required")?, p))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (kind, p) = match parse(&args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = match kind.run(&p) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{}: set-up failed: {e}", kind.name());
            return ExitCode::FAILURE;
        }
    };
    for e in &out.errors {
        eprintln!("{}: failed: {e}", kind.name());
    }

    // Exact simulated-statistics guard: one line per cell, then a digest.
    for (cell, c) in &out.cells {
        let fields: Vec<String> = c.fields().iter().map(|(k, v)| format!("{k}={v}")).collect();
        println!(
            "cell {} {cell} seed={} {} digest={:016x}",
            kind.name(),
            p.seed,
            fields.join(" "),
            c.digest()
        );
    }
    println!(
        "digest {} seed={} {:016x}",
        kind.name(),
        p.seed,
        fnv1a(out.cells.iter().map(|(_, c)| c.digest()))
    );

    let metrics = if p.trace {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-{}.jsonl", kind.name(), p.seed));
        if let Err(e) = write_spans(&path, &out.spans) {
            eprintln!("writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("{} spans written to {}", out.spans.len(), path.display());
        &out.layers
    } else {
        println!("report {} {}", kind.name(), metrics_json(&out.report));
        &out.e2e
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics_json(metrics)
    );
    ExitCode::SUCCESS
}
