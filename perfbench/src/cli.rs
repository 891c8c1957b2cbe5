//! Command line shared by both binaries:
//! `--workload NAME --seed N --seconds S --state-dir DIR [--size tiny]
//! [--spans FILE]`.

use std::path::PathBuf;
use std::time::Duration;

/// Input size: `Full` is what the benchmark measures, `Tiny` is the
/// self-test's quick pass over the same code.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// A few ticks and slots, for the self-test.
    Tiny,
}

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// How long the measured phase runs.
    pub seconds: Duration,
    /// Scratch directory for daemon state, removed by the caller.
    pub state_dir: PathBuf,
    /// Where the traced run writes its spans.
    pub spans: Option<PathBuf>,
    /// Input size.
    pub size: Size,
}

/// Parse the process arguments.
pub fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut state_dir = PathBuf::from(".bench_state");
    let mut size = Size::Full;
    let mut spans = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--state-dir" => state_dir = PathBuf::from(value()?),
            "--spans" => spans = Some(PathBuf::from(value()?)),
            "--size" => {
                size = match value()?.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    other => return Err(format!("unknown --size `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: Duration::from_secs_f64(seconds),
        state_dir,
        spans,
        size,
    })
}
