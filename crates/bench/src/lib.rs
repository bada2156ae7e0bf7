//! Shared helpers for the experiment harnesses.
//!
//! Each `src/bin/*.rs` binary reproduces one table or figure from the
//! paper (see DESIGN.md's experiment index) and prints both the raw
//! series (ASCII plots / CSV-ish rows) and a PAPER-vs-MEASURED comparison
//! block that EXPERIMENTS.md records.

#![forbid(unsafe_code)]

/// Parse `--seed N` from argv; default 42.
pub fn seed_from_args() -> u64 {
    let args: Vec<String> = std::env::args().collect();
    args.windows(2).find(|w| w[0] == "--seed").and_then(|w| w[1].parse().ok()).unwrap_or(42)
}

/// Parse a `--flag value` u64 with a default.
pub fn arg_u64(name: &str, default: u64) -> u64 {
    let args: Vec<String> = std::env::args().collect();
    args.windows(2)
        .find(|w| w[0] == format!("--{name}"))
        .and_then(|w| w[1].parse().ok())
        .unwrap_or(default)
}

/// Print an experiment header.
pub fn header(id: &str, title: &str) {
    println!("=============================================================");
    println!("{id}: {title}");
    println!("=============================================================");
}

/// Print one PAPER vs MEASURED comparison row.
pub fn compare(metric: &str, paper: &str, measured: &str) {
    println!("  {metric:<46} paper: {paper:>10}   measured: {measured:>10}");
}

/// Format a float tersely.
pub fn f(v: f64) -> String {
    if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_formatting() {
        assert_eq!(f(12345.6), "12346");
        assert_eq!(f(12.34), "12.3");
        assert_eq!(f(1.234), "1.23");
    }
}
