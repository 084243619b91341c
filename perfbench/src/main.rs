//! `perfbench --workload <libchar|sizing|attack> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Prints the host fingerprint, every metric by name with its unit, and
//! as its last line the JSON result. `--record` prints the seed's
//! reference rows for `reference.tsv` instead. Exits non-zero, without a
//! result line, on bad arguments, a failed set-up or a refused traced
//! run.

use mcml_perfbench::{checks, workload, Args, Fingerprint, USAGE};

fn record(args: &Args, fp: &Fingerprint) -> Result<(), String> {
    mcml_obs::set_mode(mcml_obs::Mode::Off);
    let off = mcml_perfbench::trace::Tracer::new(false);
    let prepared = workload::setup(args.workload, args.seed, fp.workers, &off)
        .map_err(|e| format!("set-up failed: {e}"))?;
    let out = prepared.pass(&off);
    if !out.failures.is_empty() {
        return Err(format!("pass failed: {}", out.failures.join("; ")));
    }
    print!(
        "{}",
        checks::reference_rows(args.workload, prepared.variant, &out.outputs)
    );
    Ok(())
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let fp = Fingerprint::capture();
    if args.record {
        if let Err(e) = record(&args, &fp) {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
        return;
    }
    let result = if args.trace {
        mcml_perfbench::run_traced(&args, &fp)
    } else {
        mcml_perfbench::run_end_to_end(&args, &fp)
    };
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "{{\"fingerprint\": {{\"workload\": \"{}\", \"seed\": {}, \"variant\": {}, \"trace\": {}, \
         \"workers\": {}, \"nproc\": {}, \"rustc\": \"{}\", \"profile\": \"{}\", \"cpu\": \"{}\"}}}}",
        args.workload.name(),
        args.seed,
        args.seed % workload::VARIANTS,
        u8::from(args.trace),
        fp.workers,
        fp.nproc,
        fp.rustc.replace('"', "'"),
        fp.profile,
        fp.cpu.replace('"', "'"),
    );
    for note in &outcome.notes {
        println!("# {note}");
    }
    for m in &outcome.metrics {
        println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", outcome.to_json());
}
