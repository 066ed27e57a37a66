//! Randomized property tests on the workspace's core invariants, run on
//! the `bevra-check` framework.
//!
//! Formerly hand-rolled seeded loops (and before that `proptest`, which
//! the offline build cannot fetch). Each property now gets:
//!
//! - a master seed hashed from its name (override: `BEVRA_CHECK_SEED`),
//! - the ambient case count (default 256, override: `BEVRA_CHECK_CASES`;
//!   expensive properties divide it with `scale_cases`),
//! - automatic counterexample shrinking, and a replay line
//!   (`BEVRA_CHECK_REPLAY=<case seed>`) in every failure message,
//! - failure records appended to `results/check-failures.jsonl`.

use bevra::analysis::DiscreteModel;
use bevra::load::{clip_at, flow_perspective, max_of_s, Geometric, Poisson, Tabulated};
use bevra::net::{max_min_allocation, FlowSpec, Topology};
use bevra::num::{bisect, brent};
use bevra::utility::{AdaptiveExp, Ramp, Rigid, Saturating, Utility};
use bevra_check::{choice, ensure, int_range, uniform, vec_of, Checker};

/// Weight-vector strategy: 2–39 entries in `[0, 10)` (mirrors the old
/// `arb_weights`). Element-wise shrinking pulls entries toward 0, so a
/// counterexample's irrelevant weights vanish; the all-zero vector the
/// shrinker could reach is not tabulatable and is treated as vacuous.
fn weights() -> impl bevra_check::Strategy<Value = Vec<f64>> {
    vec_of(uniform(0.0, 10.0).shrink_toward(&[0.0]), 2, 39)
}

/// `Tabulated::from_weights` needs some mass; degenerate vectors pass
/// vacuously (the generator essentially never produces them — this only
/// keeps the shrinker from crossing into panics).
fn tabulate(w: &[f64]) -> Option<Tabulated> {
    (w.iter().sum::<f64>() > 1e-9).then(|| Tabulated::from_weights(w.to_vec()))
}

#[test]
fn utilities_are_monotone_bounded() {
    Checker::new("utilities_are_monotone_bounded").run(
        &(uniform(0.05, 5.0), uniform(0.0, 50.0), uniform(0.0, 50.0)),
        |&(kappa, b1, b2)| {
            let (lo, hi) = if b1 <= b2 { (b1, b2) } else { (b2, b1) };
            let u = AdaptiveExp::new(kappa);
            ensure(u.value(lo) <= u.value(hi) + 1e-12, || {
                format!("AdaptiveExp({kappa}) not monotone on [{lo}, {hi}]")
            })?;
            ensure((0.0..=1.0).contains(&u.value(hi)), || {
                format!("AdaptiveExp({kappa})({hi}) out of [0, 1]")
            })?;
            let s = Saturating::new(kappa);
            ensure(s.value(lo) <= s.value(hi) + 1e-12, || {
                format!("Saturating({kappa}) not monotone on [{lo}, {hi}]")
            })
        },
    );
}

#[test]
fn ramp_h_coefficient_in_range() {
    Checker::new("ramp_h_coefficient_in_range").run(
        &(uniform(0.01, 1.0), uniform(2.05, 6.0)),
        |&(a, z)| {
            // 1 ≤ H(a, z) ≤ z − 1, monotone in a.
            let h = Ramp::new(a).h_coefficient(z);
            ensure(h >= 1.0 - 1e-12, || format!("H({a}, {z}) = {h} < 1"))?;
            ensure(h <= z - 1.0 + 1e-9, || format!("H({a}, {z}) = {h} > z - 1"))?;
            let h2 = Ramp::new((a * 0.5).max(1e-6)).h_coefficient(z);
            ensure(h2 <= h + 1e-9, || format!("H not monotone in a at ({a}, {z}): {h2} > {h}"))
        },
    );
}

#[test]
fn tabulated_invariants() {
    Checker::new("tabulated_invariants").run(&weights(), |w| {
        let Some(t) = tabulate(w) else { return Ok(()) };
        // Mass exactly 1; cdf monotone to 1; moments consistent.
        let mass: f64 = t.iter().map(|(_, p)| p).sum();
        ensure((mass - 1.0).abs() < 1e-9, || format!("mass {mass} != 1"))?;
        let mut prev = 0.0;
        for k in 0..t.len() as u64 {
            ensure(t.cdf(k) + 1e-12 >= prev, || format!("cdf not monotone at k={k}"))?;
            prev = t.cdf(k);
            let split = t.partial_mean(k) + t.tail_mean_above(k);
            ensure((split - t.mean()).abs() < 1e-9, || {
                format!("partial_mean + tail_mean_above != mean at k={k}")
            })?;
        }
        ensure(t.cdf(t.len() as u64 - 1) == 1.0, || "cdf does not reach 1".to_string())
    });
}

#[test]
fn quantiles_invert_cdf() {
    Checker::new("quantiles_invert_cdf").run(&(weights(), uniform(0.0, 1.0)), |&(ref w, q)| {
        let Some(t) = tabulate(w) else { return Ok(()) };
        let k = t.quantile(q);
        ensure(t.cdf(k) >= q - 1e-12, || format!("cdf(quantile({q})) = {} < q", t.cdf(k)))?;
        ensure(k == 0 || t.cdf(k - 1) < q + 1e-12, || format!("quantile({q}) = {k} not minimal"))
    });
}

#[test]
fn max_of_s_dominates() {
    Checker::new("max_of_s_dominates").run(&(weights(), int_range(1, 5)), |&(ref w, s)| {
        let Some(base) = tabulate(w) else { return Ok(()) };
        let m = max_of_s(&base, s as u32);
        // Stochastic dominance: F_max(k) ≤ F(k); equality at the top.
        for k in 0..base.len() as u64 {
            ensure(m.cdf(k) <= base.cdf(k) + 1e-12, || {
                format!("max-of-{s} cdf above base at k={k}")
            })?;
        }
        ensure(m.mean() + 1e-12 >= base.mean(), || {
            format!("max-of-{s} mean {} below base {}", m.mean(), base.mean())
        })
    });
}

#[test]
fn clipping_preserves_mass_and_caps_mean() {
    Checker::new("clipping_preserves_mass_and_caps_mean").run(
        &(weights(), int_range(0, 39)),
        |&(ref w, cap)| {
            let Some(base) = tabulate(w) else { return Ok(()) };
            let c = clip_at(&base, cap);
            let mass: f64 = c.iter().map(|(_, p)| p).sum();
            ensure((mass - 1.0).abs() < 1e-9, || format!("clip_at({cap}) mass {mass} != 1"))?;
            ensure(c.mean() <= base.mean() + 1e-9, || {
                format!("clip_at({cap}) raised the mean")
            })?;
            ensure(c.len() as u64 <= cap.min(base.len() as u64 - 1) + 1, || {
                format!("clip_at({cap}) support too long: {}", c.len())
            })
        },
    );
}

#[test]
fn flow_perspective_size_bias() {
    Checker::new("flow_perspective_size_bias").run(&uniform(2.0, 40.0), |&mean| {
        let p = Tabulated::from_model(&Poisson::new(mean), 1e-10, 1 << 14);
        let q = flow_perspective(&p);
        // E_Q[k] = E_P[k²]/E_P[k] ≥ E_P[k].
        ensure(q.mean() >= p.mean() - 1e-9, || {
            format!("size-biased mean {} below base {}", q.mean(), p.mean())
        })?;
        ensure(q.pmf(0) == 0.0, || "flow perspective puts mass on k=0".to_string())
    });
}

#[test]
fn reservation_dominates_best_effort() {
    // Table construction dominates the runtime; a reduced case count keeps
    // the whole suite fast while still sweeping the parameter box.
    Checker::new("reservation_dominates_best_effort").scale_cases(4).run(
        &(
            uniform(5.0, 60.0),
            uniform(1.0, 200.0).shrink_toward(&[1.0]),
            choice(vec![true, false]),
        ),
        |&(mean, c, rigid)| {
            let load = Tabulated::from_model(&Geometric::from_mean(mean), 1e-9, 1 << 14);
            let (b, r) = if rigid {
                let m = DiscreteModel::new(load, Rigid::unit());
                (m.best_effort(c), m.reservation(c))
            } else {
                let m = DiscreteModel::new(load, AdaptiveExp::paper());
                (m.best_effort(c), m.reservation(c))
            };
            ensure(r >= b - 1e-9, || format!("mean={mean} c={c} rigid={rigid}: R {r} < B {b}"))?;
            ensure((0.0..=1.0 + 1e-9).contains(&b), || format!("B {b} out of range"))?;
            ensure((0.0..=1.0 + 1e-9).contains(&r), || format!("R {r} out of range"))
        },
    );
}

#[test]
fn best_effort_monotone_in_capacity() {
    Checker::new("best_effort_monotone_in_capacity").scale_cases(4).run(
        &(uniform(5.0, 40.0), uniform(1.0, 150.0), uniform(0.1, 50.0)),
        |&(mean, c, dc)| {
            let load = Tabulated::from_model(&Poisson::new(mean), 1e-10, 1 << 14);
            let m = DiscreteModel::new(load, AdaptiveExp::paper());
            ensure(m.best_effort(c + dc) + 1e-12 >= m.best_effort(c), || {
                format!("B not monotone: mean={mean} c={c} dc={dc}")
            })
        },
    );
}

#[test]
fn maxmin_is_feasible_and_positive() {
    Checker::new("maxmin_is_feasible_and_positive").run(
        &(vec_of(uniform(1.0, 20.0), 1, 4), vec_of(int_range(0, 4), 1, 11)),
        |(caps, routes)| {
            let n_links = caps.len();
            let t = Topology::new(caps.clone());
            let flows: Vec<FlowSpec> =
                routes.iter().map(|&l| FlowSpec::unit(vec![l as usize % n_links])).collect();
            let rates = max_min_allocation(&t, &flows);
            for (l, &cap) in caps.iter().enumerate() {
                let used: f64 = flows
                    .iter()
                    .zip(&rates)
                    .filter(|(f, _)| f.route.contains(&l))
                    .map(|(_, &r)| r)
                    .sum();
                ensure(used <= cap + 1e-9, || {
                    format!("caps={caps:?} link {l} overloaded: {used} > {cap}")
                })?;
            }
            ensure(rates.iter().all(|&r| r > 0.0), || {
                format!("caps={caps:?}: some flow got a nonpositive rate")
            })
        },
    );
}

#[test]
fn brent_and_bisect_agree() {
    Checker::new("brent_and_bisect_agree").run(
        &(uniform(-5.0, -0.5), uniform(0.5, 5.0), uniform(-0.4, 0.4).shrink_toward(&[0.0])),
        |&(a, b, shift)| {
            // Monotone cubic with a root strictly inside (a, b).
            let f = |x: f64| (x - shift) * ((x - shift) * (x - shift) + 1.0);
            let r1 = brent(f, a, b, 1e-12).map_err(|e| format!("brent: {e:?}"))?;
            let r2 = bisect(f, a, b, 1e-12).map_err(|e| format!("bisect: {e:?}"))?;
            ensure((r1 - shift).abs() < 1e-8, || {
                format!("brent missed the root: {r1} vs {shift}")
            })?;
            ensure((r1 - r2).abs() < 1e-6, || format!("brent {r1} and bisect {r2} disagree"))
        },
    );
}

#[test]
fn blocking_fraction_decreases_in_capacity() {
    Checker::new("blocking_fraction_decreases_in_capacity").scale_cases(4).run(
        &(uniform(5.0, 40.0), uniform(5.0, 100.0)),
        |&(mean, c)| {
            let load = Tabulated::from_model(&Geometric::from_mean(mean), 1e-9, 1 << 14);
            let m = DiscreteModel::new(load, Rigid::unit());
            let th1 = m.blocking_fraction(c);
            let th2 = m.blocking_fraction(c + 10.0);
            ensure(th2 <= th1 + 1e-9, || format!("mean={mean} c={c}: {th2} > {th1}"))?;
            ensure((0.0..=1.0).contains(&th1), || format!("blocking {th1} out of [0, 1]"))
        },
    );
}
