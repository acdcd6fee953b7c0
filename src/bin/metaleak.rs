//! The `metaleak` command-line tool: run the attacks and
//! characterizations from one binary.
//!
//! ```console
//! $ cargo run --release --bin metaleak -- covert-t --bits 64
//! $ cargo run --release --bin metaleak -- steal-image --size 48
//! $ cargo run --release --bin metaleak -- matrix
//! ```

use metaleak::casestudy::{run_jpeg_t, run_modinv_t, run_rsa_t};
use metaleak::configs;
use metaleak::prelude::*;
use metaleak_engine::secmem::SecureMemory;
use metaleak_mitigations::analysis::full_matrix;
use metaleak_sim::rng::SimRng;
use metaleak_victims::bignum::BigUint;
use std::process::ExitCode;

const USAGE: &str = "metaleak — metadata side channels in secure processors (ISCA'24 reproduction)

USAGE:
    metaleak <COMMAND> [OPTIONS]

COMMANDS:
    covert-t     run the MetaLeak-T covert channel      [--bits N] [--sgx]
    covert-c     run the MetaLeak-C covert channel      [--symbols N]
    steal-image  image exfiltration case study          [--size N]
    steal-key    RSA exponent recovery case study       [--sgx]
    steal-ops    mbedTLS shift/sub detection case study
    matrix       print the defense-vs-attack matrix
    help         show this message

Options take the form `--name value` (or bare `--sgx`).";

/// Largest `--bits` / `--symbols` count accepted, so a mistyped count
/// cannot allocate without limit.
const MAX_COUNT: usize = 1 << 20;

/// A malformed command line: `main` prints it with the usage text.
#[derive(Debug)]
struct UsageError(String);

impl std::fmt::Display for UsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for UsageError {}

/// Minimal `--flag value` parser.
struct Args {
    items: Vec<String>,
}

impl Args {
    fn parse() -> Self {
        Args { items: std::env::args().skip(1).collect() }
    }

    fn command(&self) -> Option<&str> {
        self.items.first().map(String::as_str)
    }

    /// `--name N`, or `default` when the option is absent.
    fn number(&self, name: &str, default: usize) -> Result<usize, UsageError> {
        let option = format!("--{name}");
        let Some(at) = self.items.iter().position(|a| *a == option) else {
            return Ok(default);
        };
        let value =
            self.items.get(at + 1).ok_or_else(|| UsageError(format!("{option} needs a value")))?;
        value
            .parse()
            .map_err(|_| UsageError(format!("{option} expects a whole number, got {value:?}")))
    }

    /// A [`Args::number`] in `1..=MAX_COUNT`.
    fn count(&self, name: &str, default: usize) -> Result<usize, UsageError> {
        match self.number(name, default)? {
            n @ 1..=MAX_COUNT => Ok(n),
            n => Err(UsageError(format!("--{name} must be between 1 and {MAX_COUNT}, got {n}"))),
        }
    }

    fn flag(&self, name: &str) -> bool {
        self.items.iter().any(|a| a == &format!("--{name}"))
    }
}

fn cmd_covert_t(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let bits_n = args.count("bits", 64)?;
    let (cfg, level, label) = if args.flag("sgx") {
        (configs::sgx_experiment(), 1, "SGX / SIT")
    } else {
        (configs::sct_experiment(), 0, "SCT")
    };
    println!("MetaLeak-T covert channel [{label}], {bits_n} bits ...");
    let mut mem = SecureMemory::new(cfg);
    let channel = CovertChannelT::new(&mut mem, CoreId(0), CoreId(1), level, 100)?;
    let mut rng = SimRng::seed_from(1);
    let bits: Vec<bool> = (0..bits_n).map(|_| rng.chance(0.5)).collect();
    let out = channel.transmit(&mut mem, &bits)?;
    println!(
        "accuracy {:.1}%  ({:.1} bits/Mcycle)",
        out.accuracy(&bits) * 100.0,
        out.bits_per_mcycle()
    );
    Ok(())
}

fn cmd_covert_c(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let symbols_n = args.count("symbols", 32)?;
    println!("MetaLeak-C covert channel [SCT, 4-bit tree minors], {symbols_n} symbols ...");
    let mut mem = SecureMemory::new(configs::sct_experiment_with_tree_bits(4));
    let mut channel = CovertChannelC::new(&mem, CoreId(0), CoreId(1), 1, 100)?;
    let mut rng = SimRng::seed_from(2);
    let cap = channel.max_symbol() + 1;
    let symbols: Vec<u64> = (0..symbols_n).map(|_| rng.below(cap)).collect();
    let out = channel.transmit(&mut mem, &symbols)?;
    println!(
        "accuracy {:.1}%  ({} symbols decoded)",
        out.accuracy(&symbols) * 100.0,
        out.decoded.len()
    );
    Ok(())
}

fn cmd_steal_image(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let size = args.number("size", 32)?.clamp(16, 128) / 8 * 8;
    let image = GrayImage::circle(size, size);
    println!("stealing a {size}x{size} image through encode_one_block ...");
    let out = run_jpeg_t(configs::sct_experiment(), &image, 100, 0)?;
    println!("original:\n{}", image.to_ascii(size));
    println!("stolen ({:.1}% mask accuracy, {} windows):", out.mask_accuracy * 100.0, out.windows);
    println!("{}", out.stolen.to_ascii(size));
    Ok(())
}

fn cmd_steal_key(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let key = RsaKey::generate(40, 4242);
    let (cfg, level, label) = if args.flag("sgx") {
        (configs::sgx_experiment(), 1, "SGX / SIT")
    } else {
        (configs::sct_experiment(), 0, "SCT")
    };
    println!("recovering d = {} ({} bits) [{label}] ...", key.d, key.d.bits());
    let out = run_rsa_t(cfg, &key, 100, level)?;
    println!("recovered   {}", out.recovered_exponent);
    println!("bit accuracy {:.1}% over {} iterations", out.bit_accuracy * 100.0, out.windows);
    Ok(())
}

fn cmd_steal_ops(_args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let e = BigUint::from_u64(65537);
    let phi = BigUint::from_u64(25_927_040);
    println!("detecting shift/sub operations of e^-1 mod phi ...");
    let out = run_modinv_t(configs::sct_experiment(), &e, &phi, 100, 0)?;
    println!("detection accuracy {:.1}% over {} ops", out.detection_accuracy * 100.0, out.windows);
    Ok(())
}

fn cmd_matrix() {
    println!("defense vs attack (per the paper's §IX analysis):\n");
    for (defense, attack, eff, why) in full_matrix() {
        println!("{defense:?} vs {attack:?}: {eff:?}\n    {why}");
    }
}

fn main() -> ExitCode {
    let args = Args::parse();
    let result = match args.command() {
        Some("covert-t") => cmd_covert_t(&args),
        Some("covert-c") => cmd_covert_c(&args),
        Some("steal-image") => cmd_steal_image(&args),
        Some("steal-key") => cmd_steal_key(&args),
        Some("steal-ops") => cmd_steal_ops(&args),
        Some("matrix") => {
            cmd_matrix();
            Ok(())
        }
        Some("help") | None => {
            println!("{USAGE}");
            Ok(())
        }
        Some(other) => {
            eprintln!("unknown command {other:?}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e.is::<UsageError>() => {
            eprintln!("{e}\n\n{USAGE}");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
