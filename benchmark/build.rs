//! Records the rustc flags the benchmark was compiled with, so every
//! result can name its `target-cpu`.

fn main() {
    // Cargo hands build scripts the effective flags, 0x1f-separated.
    // flexcore-lint: allow(FL005, reason = "a build script reads the compiler flags Cargo passes it; no runtime toggle")
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS").unwrap_or_default();
    let args: Vec<&str> = flags.split('\u{1f}').collect();
    let mut target_cpu = "default".to_string();
    for (i, arg) in args.iter().enumerate() {
        let codegen = match *arg {
            "-C" => args.get(i + 1).copied().unwrap_or(""),
            other => other.strip_prefix("-C").unwrap_or(""),
        };
        if let Some(cpu) = codegen.strip_prefix("target-cpu=") {
            target_cpu = cpu.to_string();
        }
    }
    println!("cargo:rustc-env=BENCH_TARGET_CPU={target_cpu}");
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
}
