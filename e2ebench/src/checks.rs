//! Correctness checks on the outputs of each workload, and the tally
//! that turns operations and checks into `attempted`/`failed`.
//!
//! Every check is a pure function of the outputs it judges, so the
//! benchmark's own tests can feed it perturbed outputs and watch it trip.

/// Relative budget for figure values against the committed CSVs: the
/// `fast` kernel backend's documented envelope (1e-13). Bitwise-class
/// backends, the default included, reproduce the committed cells exactly.
pub const FIGURE_REL_BUDGET: f64 = 1e-13;

/// Relative budget for a planner query's Δ against the
/// `bevra_core::bandwidth_gap` oracle (the same envelope).
pub const ORACLE_REL_BUDGET: f64 = 1e-13;

/// Largest `|B(C+Δ) − R(C)|` accepted outright. A best-effort utility
/// with jumps (rigid applications) cannot always meet it; there the
/// bracket test of [`check_gap`] decides.
pub const RESIDUAL_BUDGET: f64 = 1e-9;

/// Fleet (a)'s merged digest at the default fleet seed `0xF1EE7`, pinned
/// by the workspace's determinism tests.
pub const PINNED_FLEET_DIGEST: u64 = 0xBE25_1F1D_BB9E_A0D0;

/// Operations and checks of a run, and the failures among them.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Operations that failed plus checks that tripped.
    pub failed: u64,
    /// One line per failure (the first few are printed).
    pub failures: Vec<String>,
}

impl Tally {
    /// Count one operation or check; `Err` counts as a failure.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            self.failures.push(why);
        }
    }

    /// `failed / attempted` (0 for an empty tally).
    #[must_use]
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Fold another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }
}

fn close(a: f64, b: f64, rel: f64) -> bool {
    a.to_bits() == b.to_bits() || (a - b).abs() <= rel * a.abs().max(b.abs())
}

/// Compare an emitted panel CSV with the committed one: same header and
/// shape, textual cells equal, numeric cells within `rel` of each other.
/// Returns the number of cells compared.
///
/// # Errors
///
/// Describes the first mismatching line or cell.
pub fn compare_csv(golden: &str, got: &str, rel: f64) -> Result<usize, String> {
    let g: Vec<&str> = golden.lines().collect();
    let o: Vec<&str> = got.lines().collect();
    if g.len() != o.len() {
        return Err(format!("{} lines, committed file has {}", o.len(), g.len()));
    }
    if g.first() != o.first() {
        return Err(format!("header {:?}, committed {:?}", o.first(), g.first()));
    }
    let mut cells = 0;
    for (line, (gl, ol)) in g.iter().zip(&o).enumerate().skip(1) {
        let gc: Vec<&str> = gl.split(',').collect();
        let oc: Vec<&str> = ol.split(',').collect();
        if gc.len() != oc.len() {
            return Err(format!(
                "line {}: {} cells, committed {}",
                line + 1,
                oc.len(),
                gc.len()
            ));
        }
        for (col, (gv, ov)) in gc.iter().zip(&oc).enumerate() {
            cells += 1;
            let same = match (gv.parse::<f64>(), ov.parse::<f64>()) {
                (Ok(a), Ok(b)) => close(a, b, rel),
                _ => gv == ov,
            };
            if !same {
                return Err(format!(
                    "line {} column {}: {ov}, committed {gv}",
                    line + 1,
                    col + 1
                ));
            }
        }
    }
    Ok(cells)
}

/// Check a bandwidth gap `Δ` at capacity `c` against `r = R(c)`, with
/// `b` evaluating `B`. Passes when `|B(c+Δ) − r| ≤ RESIDUAL_BUDGET`, or
/// when `r` is bracketed by `B` within the solver's tolerance
/// (`1e-9·k̄`) on either side of `Δ` — the residual test for a `B` that
/// jumps across the root, or for a root closer to 0 than the tolerance.
///
/// # Errors
///
/// Describes the violated condition.
pub fn check_gap(
    b: &dyn Fn(f64) -> f64,
    r: f64,
    c: f64,
    delta: f64,
    kbar: f64,
) -> Result<(), String> {
    if !delta.is_finite() || delta < 0.0 {
        return Err(format!("Δ({c}) = {delta} is not a finite nonnegative gap"));
    }
    let residual = b(c + delta) - r;
    if residual.abs() <= RESIDUAL_BUDGET {
        return Ok(());
    }
    let h = 4e-9 * kbar.max(1.0);
    let (lo, hi) = (b(c + (delta - h).max(0.0)), b(c + delta + h));
    if lo <= r + 1e-12 && hi >= r - 1e-12 {
        Ok(())
    } else {
        Err(format!(
            "Δ({c}) = {delta}: B(C+Δ) − R = {residual:e}, and R = {r} is not bracketed by B(C+Δ∓{h:e}) = [{lo}, {hi}]"
        ))
    }
}

/// Check the engine's Δ against the oracle's.
///
/// # Errors
///
/// Describes the disagreement.
pub fn check_oracle(engine: f64, oracle: f64, c: f64) -> Result<(), String> {
    if close(engine, oracle, ORACLE_REL_BUDGET) {
        Ok(())
    } else {
        Err(format!(
            "Δ({c}): engine {engine}, bevra_core::bandwidth_gap oracle {oracle}"
        ))
    }
}

/// Check a fleet digest against its pin.
///
/// # Errors
///
/// Names both digests.
pub fn check_digest(got: u64, pinned: u64) -> Result<(), String> {
    if got == pinned {
        Ok(())
    } else {
        Err(format!("fleet digest {got:#018x}, pinned {pinned:#018x}"))
    }
}

/// Check `got ≈ expected` within relative tolerance `rel`.
///
/// # Errors
///
/// Names the quantity and both values.
pub fn check_rel(what: &str, got: f64, expected: f64, rel: f64) -> Result<(), String> {
    if got.is_finite() && (got - expected).abs() <= rel * expected.abs() {
        Ok(())
    } else {
        Err(format!("{what}: {got}, expected {expected} within {rel}"))
    }
}

/// Check `|got − expected| ≤ abs`.
///
/// # Errors
///
/// Names the quantity and both values.
pub fn check_abs(what: &str, got: f64, expected: f64, abs: f64) -> Result<(), String> {
    if got.is_finite() && (got - expected).abs() <= abs {
        Ok(())
    } else {
        Err(format!("{what}: {got}, expected {expected} within {abs}"))
    }
}
