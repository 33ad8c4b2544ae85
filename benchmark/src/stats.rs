//! Order statistics and the result line every run ends with.

/// The `q`-quantile of `xs` (`0 <= q <= 1`), interpolating linearly
/// between closest ranks. 0.0 for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The smallest of `xs`: of repeated timings of identical work, the one
/// least slowed by other load on the host. 0.0 for an empty sample.
pub fn fastest(xs: &[f64]) -> f64 {
    quantile(xs, 0.0)
}

/// `num / den`, or 0.0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: String,
}

/// What one workload run measured and how many of its operations failed.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted (cells, jobs, scrapes).
    pub attempted: u64,
    /// Operations that failed any output check.
    pub failed: u64,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Appends a metric. A value that is not finite cannot be reported and
    /// counts as a failed operation.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &str) {
        let name = name.into();
        let value = if value.is_finite() {
            value
        } else {
            eprintln!("benchmark: metric {name} is not finite");
            self.attempted += 1;
            self.failed += 1;
            0.0
        };
        self.metrics.push(Metric {
            name,
            value,
            unit: unit.to_string(),
        });
    }

    /// The result line: `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_is_parseable_json() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.push("setup_s", 0.8127, "s");
        o.push("bad", f64::NAN, "ms");
        let v = distda_trace::json::parse(&o.to_json()).expect("valid JSON");
        assert_eq!(
            v.get("correct"),
            Some(&distda_trace::json::Value::Bool(false))
        );
        assert_eq!(v.get("failed").and_then(|f| f.as_num()), Some(1.0));
        let setup = v.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(|x| x.as_num()), Some(0.8127));
    }
}
